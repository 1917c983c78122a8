//! Paged KV with optional prefix sharing: the workspace's one KV
//! allocator.
//!
//! [`PagedKv`] combines a refcounted [`BlockPool`] with an optional
//! [`RadixCache`] behind a per-sequence surface (`register` /
//! `blocks_needed` / `append` / `release` / `shrink_to`). With the
//! prefix cache *disabled* (the default) it is a flat block-granular
//! allocator: one holder per block, blocks granted in ascending id
//! order, no sharing. The batching engine and the serve scheduler both
//! size their KV pools through it.
//!
//! With the prefix cache enabled:
//!
//! * [`PagedKv::plan_admission`] matches a prompt against the radix
//!   tree (bumping recency — planning *is* a use), evicting cold
//!   cached blocks as needed to make room for the uncached remainder,
//!   and reports how many fresh blocks admission would take;
//! * [`PagedKv::admit`] consumes the plan's match: fully-matched blocks
//!   are shared (refcount +1, zero prefill owed), a trailing partial
//!   match is taken by copy-on-write ([`BlockPool::cow_from`]);
//! * [`PagedKv::insert_prompt`] caches a finished prompt's full blocks
//!   so later prompts can hit them;
//! * [`PagedKv::release`] drops the sequence's references — blocks the
//!   cache still holds survive for the next hit, which is what makes
//!   preemption block-granular: the re-admission re-matches the cached
//!   prefix instead of recomputing it.
//!
//! Sequences never write into shared blocks by construction: only
//! *full* blocks are cached or matched whole, and appends land past
//! `used` tokens, i.e. in the private tail. [`PagedKv::verify`]
//! cross-checks every block's refcount against its holders (sequences
//! plus the cache) — the `edgellm-check` block-refcount oracle.

use std::fmt;

use crate::block_pool::BlockPool;
use crate::idmap::IdMap;
use crate::radix::{PrefixMatch, RadixCache, TokenId};

/// Identifies one sequence in a batch.
pub type SeqId = u32;

/// Allocation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum KvError {
    /// No free blocks remain.
    OutOfBlocks {
        /// Blocks requested.
        requested: usize,
        /// Blocks free.
        free: usize,
    },
    /// The sequence id is not registered.
    UnknownSeq(SeqId),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::OutOfBlocks { requested, free } => {
                write!(f, "KV cache exhausted: need {requested} blocks, {free} free")
            }
            KvError::UnknownSeq(id) => write!(f, "unknown sequence {id}"),
        }
    }
}

impl std::error::Error for KvError {}

/// One sequence's block list and token fill.
#[derive(Debug, Clone)]
struct SeqKv {
    /// Blocks in token order; `blocks[i]` caches tokens
    /// `[i·bt, (i+1)·bt)` of the sequence.
    blocks: Vec<usize>,
    /// Cached tokens (prompt hits + appended).
    used: u64,
}

/// What admission got from the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Prompt tokens covered by the cache (full blocks + partial COW).
    pub hit_tokens: u64,
    /// Fresh blocks taken from the pool (the COW copy, when a partial
    /// hit was consumed).
    pub new_blocks: usize,
}

/// A pre-admission capacity plan, carrying the prefix match that
/// [`PagedKv::admit`] consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmitPlan {
    /// Fresh blocks admission (prompt + one decode token) would take.
    pub need_blocks: usize,
    /// Cold cached blocks evicted while planning.
    pub evicted: usize,
    /// The prompt's match against the radix tree (empty with the cache
    /// disabled).
    pub matched: PrefixMatch,
}

/// Block-paged KV allocator with optional radix prefix sharing.
#[derive(Debug, Clone)]
pub struct PagedKv {
    pool: BlockPool,
    radix: Option<RadixCache>,
    seqs: IdMap<SeqId, SeqKv>,
    /// Cumulative prompt tokens served from the cache.
    hit_tokens: u64,
}

impl PagedKv {
    /// A pool covering `capacity_bytes` of `block_tokens`-token blocks,
    /// prefix cache disabled.
    pub fn new(capacity_bytes: u64, block_tokens: u64, bytes_per_token: u64) -> Self {
        PagedKv {
            pool: BlockPool::new(capacity_bytes, block_tokens, bytes_per_token),
            radix: None,
            seqs: IdMap::default(),
            hit_tokens: 0,
        }
    }

    /// Enable the radix prefix cache (builder form).
    pub fn with_prefix_cache(mut self) -> Self {
        self.radix = Some(RadixCache::new(self.pool.block_tokens()));
        self
    }

    /// Register a new sequence (no blocks yet).
    pub fn register(&mut self, id: SeqId) {
        self.seqs.entry(id).or_insert_with(|| SeqKv { blocks: Vec::new(), used: 0 });
    }

    /// Plan admitting a prompt whose sequence will hold `total_tokens`
    /// before the next free-block check (prompt + first decode token).
    /// Matches the cache (bumping recency) and evicts cold cached
    /// blocks — never the matched path — until the uncached remainder
    /// fits or nothing evictable is left. The caller compares
    /// `need_blocks` against [`PagedKv::free_blocks`] to wait / OOM, and
    /// admits with the plan while the match still stands: evicting only
    /// off the matched path keeps it valid, dropping the whole cache does
    /// not.
    pub fn plan_admission(&mut self, tokens: &[TokenId], total_tokens: u64) -> AdmitPlan {
        let bt = self.pool.block_tokens();
        let total_need = total_tokens.div_ceil(bt) as usize;
        let Some(radix) = &mut self.radix else {
            return AdmitPlan { need_blocks: total_need, ..AdmitPlan::default() };
        };
        // One walk serves the whole plan: evicting a leaf off the matched
        // path cannot change the match.
        let (matched, path) = radix.lookup_with_path(tokens);
        let need = total_need.saturating_sub(matched.blocks.len());
        let mut evicted = 0;
        while need > self.pool.free_blocks() && radix.evict_lru_excluding(&mut self.pool, &path) {
            evicted += 1;
        }
        // A remaining shortage (nothing evictable off the path) is the
        // scheduler's to wait out or preempt.
        AdmitPlan { need_blocks: need, evicted, matched }
    }

    /// Admit a sequence with the match its [`PagedKv::plan_admission`]
    /// walked: share fully-matched cached blocks, take a trailing
    /// partial match by copy-on-write. The plan also secured capacity
    /// for the COW copy; when the pool is dry anyway the partial hit is
    /// forgone rather than failing. An empty match (the cache disabled)
    /// registers the sequence with no blocks.
    pub fn admit(&mut self, id: SeqId, plan: &AdmitPlan) -> AdmitOutcome {
        let m = &plan.matched;
        let bt = self.pool.block_tokens();
        let mut blocks = Vec::with_capacity(m.blocks.len() + 1);
        for &b in &m.blocks {
            self.pool.retain(b);
            blocks.push(b);
        }
        let mut used = m.blocks.len() as u64 * bt;
        let mut new_blocks = 0;
        if let Some((src, k)) = m.partial {
            // Diverge inside the cached block: copy its first `k`
            // tokens into a private block and continue there.
            if let Some(copy) = self.pool.cow_from(src) {
                blocks.push(copy);
                used += k;
                new_blocks = 1;
            }
        }
        let hit_tokens = used;
        self.hit_tokens += hit_tokens;
        self.seqs.insert(id, SeqKv { blocks, used });
        AdmitOutcome { hit_tokens, new_blocks }
    }

    /// Cache the full-block chunks of a finished prompt so later
    /// prompts can share them. `tokens` must be the prompt the
    /// sequence was admitted and prefilled with. Returns blocks newly
    /// cached (0 with the cache disabled or when everything was
    /// already cached).
    pub fn insert_prompt(&mut self, id: SeqId, tokens: &[TokenId]) -> usize {
        let Some(radix) = &mut self.radix else { return 0 };
        let Some(s) = self.seqs.get(&id) else { return 0 };
        radix.insert(tokens, &s.blocks, &mut self.pool)
    }

    /// Read-only prefix-match length (tokens) — the fleet router's
    /// affinity probe. Never perturbs recency or evicts.
    pub fn probe_prefix(&self, tokens: &[TokenId]) -> u64 {
        self.radix.as_ref().map_or(0, |r| r.probe(tokens).hit_tokens)
    }

    /// Evict the single coldest cache-only block. Returns `false` when
    /// nothing is evictable (cache disabled, empty, or every cached
    /// block is shared with a live sequence).
    pub fn evict_one_cached(&mut self) -> bool {
        match &mut self.radix {
            Some(r) => r.evict_lru(&mut self.pool),
            None => false,
        }
    }

    /// Drop the entire prefix cache (e.g. on drain — a failed device's
    /// memory does not survive). Returns blocks freed.
    pub fn clear_cache(&mut self) -> usize {
        match &mut self.radix {
            Some(r) => r.clear(&mut self.pool),
            None => 0,
        }
    }

    /// Blocks currently parked in the prefix cache (their only holder
    /// may still be a live sequence *and* the cache — this counts tree
    /// nodes, each owning one block).
    pub fn cached_blocks(&self) -> usize {
        self.radix.as_ref().map_or(0, |r| r.cached_blocks())
    }

    /// Cumulative prompt tokens served from the cache.
    pub fn cache_hit_tokens(&self) -> u64 {
        self.hit_tokens
    }

    /// Cumulative copy-on-write allocations.
    pub fn cow_events(&self) -> u64 {
        self.pool.cow_events()
    }

    /// Blocks that appending `tokens` cached tokens to `id` would newly
    /// take from the pool (0 when the sequence's last block has room).
    pub fn blocks_needed(&self, id: SeqId, tokens: u64) -> Result<usize, KvError> {
        let s = self.seqs.get(&id).ok_or(KvError::UnknownSeq(id))?;
        let need_blocks = (s.used + tokens).div_ceil(self.pool.block_tokens()) as usize;
        Ok(need_blocks.saturating_sub(s.blocks.len()))
    }

    /// Append `tokens` cached tokens to a sequence, taking blocks on
    /// demand. Returns blocks newly taken; on
    /// [`KvError::OutOfBlocks`] nothing is allocated. Appends always
    /// land in the sequence's private tail — shared blocks are full by
    /// construction and never rewritten.
    pub fn append(&mut self, id: SeqId, tokens: u64) -> Result<usize, KvError> {
        let s = self.seqs.get_mut(&id).ok_or(KvError::UnknownSeq(id))?;
        let need_tokens = s.used + tokens;
        let need_blocks = need_tokens.div_ceil(self.pool.block_tokens()) as usize;
        let extra = need_blocks.saturating_sub(s.blocks.len());
        if extra > self.pool.free_blocks() {
            return Err(KvError::OutOfBlocks { requested: extra, free: self.pool.free_blocks() });
        }
        for _ in 0..extra {
            s.blocks.push(self.pool.alloc().expect("checked above"));
        }
        s.used = need_tokens;
        Ok(extra)
    }

    /// Roll a sequence back to its first `tokens` cached tokens — the
    /// allocator half of speculative-decode rollback: the verifier
    /// rejects a draft suffix and the blocks that held only rejected
    /// tokens go back to the pool, block-exactly. Dropped references
    /// are unref'd (not force-freed), so a block the prefix cache (or
    /// another holder) still references survives — COW-safe under
    /// prefix sharing; rejected *speculative* tokens always live past
    /// the prompt in the sequence's private tail, and a partially
    /// rolled-back tail block simply stays held with fewer used
    /// tokens. Returns blocks actually freed. No-op when the sequence
    /// already holds at most `tokens`.
    pub fn truncate(&mut self, id: SeqId, tokens: u64) -> Result<usize, KvError> {
        let s = self.seqs.get_mut(&id).ok_or(KvError::UnknownSeq(id))?;
        if tokens >= s.used {
            return Ok(0);
        }
        let keep_blocks = tokens.div_ceil(self.pool.block_tokens()) as usize;
        let mut freed = 0;
        for b in s.blocks.drain(keep_blocks..) {
            if self.pool.unref(b) {
                freed += 1;
            }
        }
        s.used = tokens;
        Ok(freed)
    }

    /// Finish (or preempt) a sequence, dropping its block references.
    /// Returns blocks actually freed — blocks the prefix cache still
    /// holds stay resident for the next hit.
    pub fn release(&mut self, id: SeqId) -> Result<usize, KvError> {
        let s = self.seqs.remove(&id).ok_or(KvError::UnknownSeq(id))?;
        let mut freed = 0;
        for b in s.blocks {
            if self.pool.unref(b) {
                freed += 1;
            }
        }
        Ok(freed)
    }

    /// Shrink the pool to `new_total` blocks, retiring free blocks —
    /// a mid-run capacity loss (a co-tenant claiming memory, or a fault
    /// injector's KV-shrink knob). Only free blocks can be retired: when
    /// held blocks exceed `new_total` the call fails with
    /// [`KvError::OutOfBlocks`] and nothing changes (evict / preempt
    /// first). Growing is a no-op.
    pub fn shrink_to(&mut self, new_total: usize) -> Result<(), KvError> {
        self.pool.shrink_to(new_total)
    }

    /// Blocks a live sequence currently holds (`None` for unknown ids).
    pub fn blocks_held(&self, id: SeqId) -> Option<usize> {
        self.seqs.get(&id).map(|s| s.blocks.len())
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.pool.free_blocks()
    }

    /// Total pool blocks.
    pub fn total_blocks(&self) -> usize {
        self.pool.total_blocks()
    }

    /// Blocks with at least one holder (sequences or the cache); a
    /// shared block counts exactly once.
    pub fn used_blocks(&self) -> usize {
        self.pool.used_blocks()
    }

    /// Bytes reserved (all held blocks, shared blocks once).
    pub fn reserved_bytes(&self) -> u64 {
        self.pool.used_blocks() as u64 * self.pool.block_tokens() * self.pool.bytes_per_token()
    }

    /// Refcount + structure consistency check; one message per
    /// violation, deterministically ordered. Every block's refcount
    /// must equal its holders: sequences referencing it plus the cache.
    pub fn verify(&self) -> Vec<String> {
        let mut bad = self.pool.verify();
        let mut expect = vec![0u32; self.pool.id_space()];
        let mut ids: Vec<SeqId> = self.seqs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let s = &self.seqs[&id];
            if s.used > s.blocks.len() as u64 * self.pool.block_tokens() {
                bad.push(format!("seq {id} uses {} tokens over {} blocks", s.used, s.blocks.len()));
            }
            for &b in &s.blocks {
                if b >= expect.len() {
                    bad.push(format!("seq {id} references out-of-range block {b}"));
                    continue;
                }
                expect[b] += 1;
                if self.pool.refcount(b) == 0 {
                    bad.push(format!("seq {id} references freed block {b}"));
                }
            }
        }
        if let Some(r) = &self.radix {
            bad.extend(r.verify(&self.pool));
            for b in r.held_blocks() {
                if b < expect.len() {
                    expect[b] += 1;
                }
            }
        }
        for (b, &e) in expect.iter().enumerate() {
            if self.pool.refcount(b) != e {
                bad.push(format!("block {b} refcount {} != {e} holders", self.pool.refcount(b)));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_models::Llm;

    fn paged() -> PagedKv {
        // 64 blocks of 16 tokens, prefix cache on.
        PagedKv::new(1 << 20, 16, 1024).with_prefix_cache()
    }

    fn toks(seed: u32, n: usize) -> Vec<TokenId> {
        (0..n as u32).map(|i| seed.wrapping_mul(1_000_003).wrapping_add(i)).collect()
    }

    /// Plan room for `tokens` and admit them as sequence `id`.
    fn admit(p: &mut PagedKv, id: SeqId, tokens: &[TokenId]) -> AdmitOutcome {
        let plan = p.plan_admission(tokens, tokens.len() as u64);
        p.admit(id, &plan)
    }

    #[test]
    fn disabled_cache_matches_flat_allocator_semantics() {
        let mut p = PagedKv::new(1 << 20, 16, 1024);
        assert_eq!((p.total_blocks(), p.free_blocks()), (64, 64));
        p.register(1);
        // A pure query: it predicts the append and takes nothing.
        assert_eq!(p.blocks_needed(1, 17).unwrap(), 2);
        assert_eq!(p.free_blocks(), 64);
        assert_eq!(p.blocks_needed(9, 1), Err(KvError::UnknownSeq(9)));
        assert_eq!(p.append(1, 10).unwrap(), 1);
        assert_eq!(p.append(1, 6).unwrap(), 0);
        assert_eq!(p.append(1, 1).unwrap(), 1);
        assert_eq!(p.blocks_held(1), Some(2));
        assert_eq!(p.blocks_needed(1, 15).unwrap(), 0, "room in block 2");
        assert_eq!(p.blocks_needed(1, 16).unwrap(), 1);
        let plan = p.plan_admission(&toks(9, 32), 33);
        assert_eq!(plan, AdmitPlan { need_blocks: 3, ..AdmitPlan::default() });
        assert_eq!(p.admit(2, &plan), AdmitOutcome::default());
        // Blocks are granted in ascending id order; a release pushes its
        // blocks back in order, so the next grant pops its tail first.
        p.append(2, 40).unwrap();
        assert_eq!(
            (p.seqs[&1].blocks.as_slice(), p.seqs[&2].blocks.as_slice()),
            (&[0, 1][..], &[2, 3, 4][..])
        );
        assert_eq!(p.release(2).unwrap(), 3);
        p.register(3);
        p.append(3, 32).unwrap();
        assert_eq!(p.seqs[&3].blocks, [4, 3]);
        // An append that does not fit fails whole and takes no block.
        let free = p.free_blocks();
        let err = p.append(3, 16 * free as u64 + 1);
        assert_eq!(err, Err(KvError::OutOfBlocks { requested: free + 1, free }));
        assert_eq!((p.free_blocks(), p.blocks_held(3)), (free, Some(2)));
        assert_eq!(p.blocks_needed(3, 16).unwrap(), 1, "the fill did not move");
        assert_eq!(p.release(9), Err(KvError::UnknownSeq(9)));
        // Shrinking below the live footprint fails and changes nothing;
        // growing is a no-op.
        p.shrink_to(10).unwrap();
        assert_eq!((p.total_blocks(), p.free_blocks()), (10, 6));
        assert_eq!(p.shrink_to(3), Err(KvError::OutOfBlocks { requested: 7, free: 6 }));
        assert_eq!((p.total_blocks(), p.free_blocks()), (10, 6));
        p.shrink_to(64).unwrap();
        assert_eq!(p.total_blocks(), 10);
        assert_eq!(p.release(1).unwrap(), 2);
        assert_eq!(p.release(3).unwrap(), 2);
        assert_eq!(p.free_blocks(), 10);
        assert!(p.verify().is_empty());
    }

    #[test]
    fn paging_fits_ten_times_the_contiguous_reservations() {
        // DESIGN §5: an 8 GiB pool of Llama-3.1-8B KV and 96-token
        // sequences. Reserving a 1024-token context each fits 64; 16-token
        // blocks on demand fit 682, and every reserved byte holds a token.
        let (pool, per_token) = (8u64 << 30, Llm::Llama31_8b.arch().kv_bytes_per_token());
        assert_eq!(pool / (1024 * per_token), 64);
        let mut p = PagedKv::new(pool, 16, per_token);
        let fit = (0..).take_while(|&id| {
            p.register(id);
            p.append(id, 96).is_ok()
        });
        let fit = fit.count() as u64;
        assert_eq!(fit, 682);
        assert_eq!(p.reserved_bytes(), fit * 96 * per_token, "no fragmentation");
    }

    #[test]
    fn warm_admission_shares_full_blocks() {
        let mut p = paged();
        let prompt = toks(1, 48); // 3 full blocks
        assert_eq!(admit(&mut p, 0, &prompt).hit_tokens, 0, "cold");
        p.append(0, 48).unwrap();
        p.insert_prompt(0, &prompt);
        assert_eq!(p.cached_blocks(), 3);
        let used_before = p.used_blocks();

        let out = admit(&mut p, 1, &prompt);
        assert_eq!(out.hit_tokens, 48, "warm hit covers the whole prompt");
        assert_eq!(out.new_blocks, 0, "sharing takes nothing from the pool");
        assert_eq!(p.used_blocks(), used_before, "no new blocks for the twin");
        assert_eq!(p.cache_hit_tokens(), 48);

        // Both sequences release; cached blocks survive.
        assert_eq!(p.release(0).unwrap(), 0);
        assert_eq!(p.release(1).unwrap(), 0);
        assert_eq!(p.used_blocks(), 3);
        assert_eq!(p.cached_blocks(), 3);
        assert!(p.verify().is_empty());
    }

    #[test]
    fn divergence_inside_a_block_is_copy_on_write() {
        let mut p = paged();
        let a = toks(1, 32);
        admit(&mut p, 0, &a);
        p.append(0, 32).unwrap();
        p.insert_prompt(0, &a);
        p.release(0).unwrap();

        // Same first block, diverges 4 tokens into the second.
        let mut b = a.clone();
        for t in &mut b[20..] {
            *t = t.wrapping_add(7_777);
        }
        let out = admit(&mut p, 1, &b);
        assert_eq!(out.hit_tokens, 20, "16 shared + 4 copied");
        assert_eq!(out.new_blocks, 1, "the COW copy");
        assert_eq!(p.cow_events(), 1);
        // Finishing the diverged prompt caches its variant block too.
        p.append(1, 12).unwrap();
        p.insert_prompt(1, &b);
        assert_eq!(p.cached_blocks(), 3, "shared head + two variants");
        p.release(1).unwrap();
        assert!(p.verify().is_empty());
    }

    #[test]
    fn plan_admission_evicts_cold_blocks_but_not_the_match() {
        let mut small = PagedKv::new(4 * 16 * 1024, 16, 1024).with_prefix_cache();
        assert_eq!(small.total_blocks(), 4);
        let hot = toks(1, 32);
        admit(&mut small, 0, &hot);
        small.append(0, 32).unwrap();
        small.insert_prompt(0, &hot);
        small.release(0).unwrap();
        let cold = toks(2, 32);
        admit(&mut small, 1, &cold);
        small.append(1, 32).unwrap();
        small.insert_prompt(1, &cold);
        small.release(1).unwrap();
        // Pool: 4 cached blocks, 0 free. Re-admitting `hot` (+1 decode
        // token) needs one fresh block → evict from `cold`, not `hot`.
        let plan = small.plan_admission(&hot, 33);
        assert_eq!(plan.matched.hit_tokens, 32, "match preserved");
        assert_eq!(plan.need_blocks, 1);
        assert!(plan.evicted >= 1);
        assert!(plan.need_blocks <= small.free_blocks());
        let out = small.admit(2, &plan);
        assert_eq!(out.hit_tokens, 32);
        small.append(2, 1).unwrap();
        assert!(small.verify().is_empty());
    }

    #[test]
    fn release_then_rematch_is_block_granular_preemption() {
        let mut p = paged();
        let prompt = toks(3, 64);
        admit(&mut p, 0, &prompt);
        p.append(0, 64).unwrap();
        p.insert_prompt(0, &prompt);
        // Preempt: drop the sequence. The cache keeps all 4 blocks.
        p.release(0).unwrap();
        assert_eq!(p.used_blocks(), 4);
        // Re-admission hits the whole prompt: zero recompute.
        let out = admit(&mut p, 1, &prompt);
        assert_eq!(out.hit_tokens, 64);
        assert_eq!(out.new_blocks, 0);
        assert!(p.verify().is_empty());
    }

    #[test]
    fn truncate_releases_exactly_the_rejected_tail_blocks() {
        let mut p = PagedKv::new(1 << 20, 16, 1024);
        p.register(1);
        // Prompt of 40 tokens (3 blocks), then 10 speculative appends.
        assert_eq!(p.append(1, 40).unwrap(), 3);
        assert_eq!(p.append(1, 10).unwrap(), 1); // tokens 40..50, block 4
        let free_before = p.free_blocks();
        // Reject 1 of the 10: 49 tokens still spill into block 4, so
        // the rollback is a fill-only adjustment...
        assert_eq!(p.truncate(1, 49).unwrap(), 0);
        assert_eq!(p.blocks_held(1), Some(4));
        // ...but rejecting down to 43 tokens (3 blocks) releases the
        // now-empty tail block, block-exactly.
        assert_eq!(p.truncate(1, 43).unwrap(), 1);
        assert_eq!(p.blocks_held(1), Some(3));
        assert_eq!(p.free_blocks(), free_before + 1);
        // A deeper roll-back inside the kept blocks frees nothing more.
        assert_eq!(p.truncate(1, 33).unwrap(), 0);
        assert_eq!(p.blocks_held(1), Some(3));
        // Appending after rollback refills the partial tail first.
        assert_eq!(p.append(1, 15).unwrap(), 0);
        assert_eq!(p.append(1, 1).unwrap(), 1);
        // No-op cases: at or past the current fill, and unknown ids.
        assert_eq!(p.truncate(1, 49).unwrap(), 0);
        assert_eq!(p.truncate(1, 1000).unwrap(), 0);
        assert!(p.truncate(9, 0).is_err());
        assert!(p.verify().is_empty());
    }

    #[test]
    fn truncate_is_cow_safe_under_prefix_sharing() {
        let mut p = paged();
        let prompt = toks(5, 32); // 2 full blocks
        admit(&mut p, 0, &prompt);
        p.append(0, 32).unwrap();
        p.insert_prompt(0, &prompt); // both blocks now cached (shared)
                                     // Speculate 20 tokens past the prompt: tokens 32..52, blocks 3–4.
        p.append(0, 20).unwrap();
        assert_eq!(p.blocks_held(0), Some(4));
        // Reject all 20: the private tail blocks free, the cached
        // prompt blocks survive with the cache as a holder.
        assert_eq!(p.truncate(0, 32).unwrap(), 2);
        assert_eq!(p.blocks_held(0), Some(2));
        assert_eq!(p.cached_blocks(), 2);
        assert!(p.verify().is_empty(), "{:?}", p.verify());
        // A roll-back *into* the shared region only unrefs: the cache
        // keeps the block resident for the next hit.
        let used_before = p.used_blocks();
        assert_eq!(p.truncate(0, 16).unwrap(), 0, "cache still holds the block");
        assert_eq!(p.used_blocks(), used_before);
        assert!(p.verify().is_empty(), "{:?}", p.verify());
        p.release(0).unwrap();
        assert!(p.verify().is_empty());
    }

    #[test]
    fn verify_catches_refcount_drift() {
        let mut p = paged();
        let prompt = toks(4, 16);
        admit(&mut p, 0, &prompt);
        p.append(0, 16).unwrap();
        assert!(p.verify().is_empty());
        // Simulate a drift: an extra phantom reference.
        p.pool.retain(0);
        let bad = p.verify();
        assert!(!bad.is_empty(), "phantom reference must be flagged");
        assert!(bad.iter().any(|m| m.contains("refcount")), "{bad:?}");
    }
}
