//! Radix-tree prefix cache over token-id block chunks.
//!
//! SGLang-style prefix sharing adapted to the simulator's determinism
//! discipline. Each tree node owns exactly one *full* KV block
//! (`block_tokens` token ids), so the tree's depth-`d` path spells out
//! a `d · block_tokens`-token prompt prefix and the cache never has to
//! split storage below block granularity. Because blocks are the
//! indivisible unit, two sibling nodes may share a sub-block token
//! prefix; the matcher resolves that by taking the longest common
//! prefix, breaking ties toward the lowest node id.
//!
//! A lookup returns the fully-matched shared blocks plus at most one
//! *partial* hit — a cached block that agrees with the prompt only for
//! its first `k < block_tokens` tokens. Partial hits are consumed via
//! copy-on-write ([`crate::BlockPool::cow_from`]): the new sequence
//! copies the agreeing `k` tokens into a private block and diverges
//! there, leaving the cached original untouched.
//!
//! Eviction is leaf-first LRU ordered by `(last_use, node id)`, and
//! only considers leaves whose block has no holder besides the cache
//! itself — evicting a block a live sequence still reads would be a
//! use-after-free (the `edgellm-check` block-refcount oracle guards
//! exactly this). `last_use` is a logical tick bumped per lookup, not
//! wall time, so eviction order is bit-reproducible across hosts.
//!
//! The candidates live in a leaf index, an ordered set of `(last_use,
//! node id)` over every live childless node, kept in step wherever a
//! stamp or a child list changes. An eviction walks it from the coldest
//! entry and takes the first leaf the cache alone holds and the caller
//! did not exclude: the same node a scan of the whole slab would pick,
//! found in O(log n) plus the few leaves live sequences still share.

use std::collections::BTreeSet;

use crate::block_pool::BlockPool;

/// A prompt token id. The simulator synthesizes deterministic ids when
/// the caller doesn't supply real ones; only equality matters here.
pub type TokenId = u32;

#[derive(Debug, Clone)]
struct Node {
    /// Exactly `block_tokens` token ids.
    tokens: Vec<TokenId>,
    /// The pool block caching this chunk's KV.
    block: usize,
    /// Parent node index (`None` = child of the root).
    parent: Option<usize>,
    /// Child node indices, in insertion order.
    children: Vec<usize>,
    /// Logical tick of the most recent lookup touching this node.
    last_use: u64,
    live: bool,
}

/// Result of matching a prompt against the cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Fully-matched cached blocks, in token order.
    pub blocks: Vec<usize>,
    /// At most one trailing partial hit: `(block, matched tokens)`
    /// with `0 < matched < block_tokens`.
    pub partial: Option<(usize, u64)>,
    /// Total matched tokens (full blocks + partial).
    pub hit_tokens: u64,
}

/// Radix-tree prefix cache: one node per full KV block.
#[derive(Debug, Clone)]
pub struct RadixCache {
    block_tokens: usize,
    /// Node slab; indices are stable for a node's lifetime and reused
    /// LIFO after removal (deterministically).
    nodes: Vec<Node>,
    free_nodes: Vec<usize>,
    /// Children of the (implicit, empty) root.
    root_children: Vec<usize>,
    /// `(last_use, node)` of every live childless node: the eviction
    /// candidates, coldest first.
    leaves: BTreeSet<(u64, usize)>,
    /// Logical clock for LRU ordering.
    tick: u64,
    live_nodes: usize,
}

impl RadixCache {
    /// An empty cache over `block_tokens`-token blocks.
    pub fn new(block_tokens: u64) -> Self {
        RadixCache {
            block_tokens: block_tokens as usize,
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            root_children: Vec::new(),
            leaves: BTreeSet::new(),
            tick: 0,
            live_nodes: 0,
        }
    }

    /// Cached blocks currently held by the tree (== live nodes: every
    /// node owns exactly one block).
    pub fn cached_blocks(&self) -> usize {
        self.live_nodes
    }

    fn common_prefix(a: &[TokenId], b: &[TokenId]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// Walk the tree along `tokens`, collecting the matched path.
    /// Returns `(match, path node indices)`.
    fn walk(&self, tokens: &[TokenId]) -> (PrefixMatch, Vec<usize>) {
        let mut m = PrefixMatch::default();
        let mut path = Vec::new();
        let mut cursor = 0usize;
        let mut children: &[usize] = &self.root_children;
        loop {
            let remaining = &tokens[cursor..];
            if remaining.is_empty() {
                break;
            }
            // Longest common prefix wins; ties go to the lowest node id.
            let mut best: Option<(usize, usize)> = None; // (len, node)
            for &c in children {
                let l = Self::common_prefix(&self.nodes[c].tokens, remaining);
                if l > 0 && best.is_none_or(|(bl, bn)| l > bl || (l == bl && c < bn)) {
                    best = Some((l, c));
                }
            }
            let Some((l, c)) = best else { break };
            path.push(c);
            if l == self.block_tokens {
                m.blocks.push(self.nodes[c].block);
                m.hit_tokens += l as u64;
                cursor += l;
                children = &self.nodes[c].children;
            } else {
                m.partial = Some((self.nodes[c].block, l as u64));
                m.hit_tokens += l as u64;
                break;
            }
        }
        (m, path)
    }

    /// Match a prompt, bumping recency on the matched path (this *is*
    /// a use: admission consumes the match). Also returns the matched
    /// path's node indices — the set an admission planner must shield
    /// from its own make-room eviction
    /// ([`RadixCache::evict_lru_excluding`]).
    pub fn lookup_with_path(&mut self, tokens: &[TokenId]) -> (PrefixMatch, Vec<usize>) {
        let (m, path) = self.walk(tokens);
        self.tick += 1;
        for &n in &path {
            self.stamp(n, self.tick);
        }
        (m, path)
    }

    /// Mark node `n` used at `tick`, moving its leaf-index entry along.
    fn stamp(&mut self, n: usize, tick: u64) {
        let node = &mut self.nodes[n];
        if node.children.is_empty() {
            self.leaves.remove(&(node.last_use, n));
            self.leaves.insert((tick, n));
        }
        node.last_use = tick;
    }

    /// Read-only match (no recency bump) — for routing probes that
    /// must not perturb eviction order.
    pub fn probe(&self, tokens: &[TokenId]) -> PrefixMatch {
        self.walk(tokens).0
    }

    fn alloc_node(&mut self, node: Node) -> usize {
        self.live_nodes += 1;
        match self.free_nodes.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Insert the full-block chunks of a finished prompt whose KV lives
    /// in `blocks` (the sequence's blocks, in token order — block `i`
    /// caches `tokens[i·bt .. (i+1)·bt]`). Each newly-cached block
    /// gains a pool reference (the tree's hold on it). Chunks already
    /// cached — by this sequence's own admission match or by a
    /// duplicate computed concurrently — are skipped. Returns the
    /// number of blocks newly cached.
    pub fn insert(&mut self, tokens: &[TokenId], blocks: &[usize], pool: &mut BlockPool) -> usize {
        let bt = self.block_tokens;
        let n_full = (tokens.len() / bt).min(blocks.len());
        self.tick += 1;
        let tick = self.tick;
        let mut parent: Option<usize> = None;
        let mut inserted = 0;
        for i in 0..n_full {
            let chunk = &tokens[i * bt..(i + 1) * bt];
            let children = match parent {
                None => &self.root_children,
                Some(p) => &self.nodes[p].children,
            };
            let found = children.iter().copied().find(|&c| self.nodes[c].tokens == chunk);
            match found {
                Some(c) => {
                    self.stamp(c, tick);
                    parent = Some(c);
                }
                None => {
                    pool.retain(blocks[i]);
                    let id = self.alloc_node(Node {
                        tokens: chunk.to_vec(),
                        block: blocks[i],
                        parent,
                        children: Vec::new(),
                        last_use: tick,
                        live: true,
                    });
                    match parent {
                        None => self.root_children.push(id),
                        Some(p) => {
                            // The parent stops being a leaf.
                            if self.nodes[p].children.is_empty() {
                                self.leaves.remove(&(self.nodes[p].last_use, p));
                            }
                            self.nodes[p].children.push(id);
                        }
                    }
                    self.leaves.insert((tick, id));
                    parent = Some(id);
                    inserted += 1;
                }
            }
        }
        inserted
    }

    /// Evict the least-recently-used evictable leaf — a childless node
    /// whose block has no holder besides the cache — returning its
    /// block to the pool. `false` when nothing is evictable.
    pub fn evict_lru(&mut self, pool: &mut BlockPool) -> bool {
        self.evict_lru_excluding(pool, &[])
    }

    /// [`RadixCache::evict_lru`] skipping the nodes in `exclude` — an
    /// admission planner shields the path it just matched so making
    /// room can never consume its own hit.
    pub fn evict_lru_excluding(&mut self, pool: &mut BlockPool, exclude: &[usize]) -> bool {
        let pick = self.pick_lru(pool, exclude);
        #[cfg(debug_assertions)]
        assert_eq!(pick, self.scan_lru(pool, exclude), "leaf index disagrees with a scan");
        let Some(i) = pick else { return false };
        self.leaves.remove(&(self.nodes[i].last_use, i));
        let (block, parent) = (self.nodes[i].block, self.nodes[i].parent);
        match parent {
            None => self.root_children.retain(|&c| c != i),
            Some(p) => {
                self.nodes[p].children.retain(|&c| c != i);
                // The parent becomes a leaf again.
                if self.nodes[p].children.is_empty() {
                    self.leaves.insert((self.nodes[p].last_use, p));
                }
            }
        }
        self.nodes[i].live = false;
        self.nodes[i].children = Vec::new();
        self.nodes[i].tokens = Vec::new();
        self.free_nodes.push(i);
        self.live_nodes -= 1;
        pool.unref(block);
        true
    }

    /// The coldest indexed leaf the cache alone holds, outside `exclude`.
    fn pick_lru(&self, pool: &BlockPool, exclude: &[usize]) -> Option<usize> {
        self.leaves
            .iter()
            .map(|&(_, i)| i)
            .find(|&i| pool.refcount(self.nodes[i].block) == 1 && !exclude.contains(&i))
    }

    /// [`RadixCache::pick_lru`] by a scan of the whole node slab, minimal
    /// in `(last_use, node id)` — the reference debug builds check the
    /// leaf index against on every eviction.
    #[cfg(any(test, debug_assertions))]
    fn scan_lru(&self, pool: &BlockPool, exclude: &[usize]) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| {
                n.live
                    && n.children.is_empty()
                    && pool.refcount(n.block) == 1
                    && !exclude.contains(&i)
            })
            .min_by_key(|&(i, n)| (n.last_use, i))
            .map(|(i, _)| i)
    }

    /// Drop every cached block (e.g. on drain), returning them to the
    /// pool. Returns blocks evicted.
    pub fn clear(&mut self, pool: &mut BlockPool) -> usize {
        let mut evicted = 0;
        while self.evict_lru(pool) {
            evicted += 1;
        }
        evicted
    }

    /// Blocks currently held by the tree, for refcount cross-checks.
    pub fn held_blocks(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.nodes.iter().filter(|n| n.live).map(|n| n.block).collect();
        v.sort_unstable();
        v
    }

    /// Structural consistency check; one message per violation.
    pub fn verify(&self, pool: &BlockPool) -> Vec<String> {
        let mut bad = Vec::new();
        let mut held = std::collections::HashSet::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.live {
                continue;
            }
            if n.tokens.len() != self.block_tokens {
                bad.push(format!("node {i} holds {} tokens, not a full block", n.tokens.len()));
            }
            if pool.refcount(n.block) == 0 {
                bad.push(format!("node {i} references freed block {}", n.block));
            }
            if !held.insert(n.block) {
                bad.push(format!("block {} cached by two nodes", n.block));
            }
            for &c in &n.children {
                if !self.nodes[c].live || self.nodes[c].parent != Some(i) {
                    bad.push(format!("node {i} child {c} link broken"));
                }
            }
        }
        for &c in &self.root_children {
            if !self.nodes[c].live || self.nodes[c].parent.is_some() {
                bad.push(format!("root child {c} link broken"));
            }
        }
        let leaves: BTreeSet<(u64, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.live && n.children.is_empty())
            .map(|(i, n)| (n.last_use, i))
            .collect();
        for &(t, i) in self.leaves.difference(&leaves) {
            bad.push(format!("leaf index holds node {i} at tick {t}, not a leaf there"));
        }
        for &(t, i) in leaves.difference(&self.leaves) {
            bad.push(format!("leaf node {i} (last use {t}) missing from the leaf index"));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BlockPool {
        BlockPool::new(1 << 20, 4, 1024) // 4-token blocks, 256 blocks
    }

    /// Allocate seq blocks for `tokens` and insert the full chunks.
    fn seed(cache: &mut RadixCache, pool: &mut BlockPool, tokens: &[TokenId]) -> Vec<usize> {
        let blocks: Vec<usize> =
            (0..tokens.len().div_ceil(4)).map(|_| pool.alloc().unwrap()).collect();
        cache.insert(tokens, &blocks, pool);
        blocks
    }

    #[test]
    fn full_and_partial_matches() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        seed(&mut c, &mut p, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.cached_blocks(), 2);

        let m = c.lookup_with_path(&[1, 2, 3, 4, 5, 6, 7, 8, 9]).0;
        assert_eq!(m.blocks.len(), 2);
        assert_eq!(m.hit_tokens, 8);
        assert_eq!(m.partial, None);

        // Diverges inside the second block → one full + one partial.
        let m = c.lookup_with_path(&[1, 2, 3, 4, 5, 6, 99, 99]).0;
        assert_eq!(m.blocks.len(), 1);
        assert_eq!(m.partial.map(|(_, k)| k), Some(2));
        assert_eq!(m.hit_tokens, 6);

        // No shared prefix at all.
        let m = c.lookup_with_path(&[9, 9, 9, 9]).0;
        assert_eq!(m.hit_tokens, 0);
    }

    #[test]
    fn insert_skips_existing_chunks_and_shares_blocks() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        let b1 = seed(&mut c, &mut p, &[1, 2, 3, 4]);
        assert_eq!(p.refcount(b1[0]), 2, "seq + cache");
        // A second identical prompt: its insert caches nothing new.
        let b2: Vec<usize> = vec![p.alloc().unwrap()];
        assert_eq!(c.insert(&[1, 2, 3, 4], &b2, &mut p), 0);
        assert_eq!(c.cached_blocks(), 1);
        assert_eq!(p.refcount(b2[0]), 1, "duplicate stays private");
    }

    #[test]
    fn eviction_is_lru_leaf_first_and_skips_shared_blocks() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        let ba = seed(&mut c, &mut p, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let bb = seed(&mut c, &mut p, &[9, 9, 9, 9]);
        // Release the sequences' own references; cache holds all blocks.
        for &b in ba.iter().chain(&bb) {
            p.unref(b);
        }
        assert_eq!(c.cached_blocks(), 3);
        // Touch chain A's first block; its leaf (never re-read) stays
        // coldest, then B, and A's root — freshly used — goes last.
        c.lookup_with_path(&[1, 2, 3, 4]);
        assert!(c.evict_lru(&mut p));
        assert_eq!(p.refcount(ba[1]), 0, "cold leaf first");
        assert!(c.evict_lru(&mut p));
        assert_eq!(p.refcount(bb[0]), 0);
        assert!(c.evict_lru(&mut p));
        assert_eq!(p.refcount(ba[0]), 0);
        assert!(!c.evict_lru(&mut p), "tree is empty");
        assert_eq!(p.used_blocks(), 0);
        assert!(c.verify(&p).is_empty());
        assert!(p.verify().is_empty());
    }

    #[test]
    fn eviction_never_frees_a_block_a_sequence_holds() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        let b = seed(&mut c, &mut p, &[1, 2, 3, 4]);
        // The sequence still holds b[0] (refcount 2) → not evictable.
        assert!(!c.evict_lru(&mut p));
        p.unref(b[0]);
        assert!(c.evict_lru(&mut p));
        assert_eq!(p.used_blocks(), 0);
    }

    #[test]
    fn sibling_chunks_with_shared_subprefix_pick_longest() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        seed(&mut c, &mut p, &[1, 2, 5, 5]);
        seed(&mut c, &mut p, &[1, 2, 3, 4]);
        let m = c.probe(&[1, 2, 3, 9]);
        assert_eq!(m.partial.map(|(_, k)| k), Some(3), "longest sibling wins");
        let m = c.probe(&[1, 2, 9, 9]);
        // Tie at 2 tokens → lowest node id (first inserted).
        assert_eq!(m.hit_tokens, 2);
    }

    /// A xorshift64 stream: the randomized drill needs no seeded crate.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        /// A prompt over a three-id alphabet, so prompts share prefixes.
        fn prompt(&mut self) -> Vec<TokenId> {
            let len = 4 * (1 + self.below(4)) + self.below(4);
            (0..len).map(|_| self.below(3) as TokenId).collect()
        }
    }

    #[test]
    fn leaf_index_picks_what_the_scan_picks() {
        let (mut evictions, mut skipped_shared) = (0, 0);
        for seed in 1..=24u64 {
            let mut rng = Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let (mut c, mut p) = (RadixCache::new(4), BlockPool::new(48 * 4 * 1024, 4, 1024));
            // Each live sequence's own block references.
            let mut seqs: Vec<Vec<usize>> = Vec::new();
            for _ in 0..300 {
                match rng.below(6) {
                    0 | 1 => {
                        let tokens = rng.prompt();
                        let n = tokens.len().div_ceil(4);
                        if p.free_blocks() >= n {
                            let blocks: Vec<usize> = (0..n).map(|_| p.alloc().unwrap()).collect();
                            c.insert(&tokens, &blocks, &mut p);
                            seqs.push(blocks);
                        }
                    }
                    2 => {
                        c.lookup_with_path(&rng.prompt());
                    }
                    3 if !seqs.is_empty() => {
                        let i = rng.below(seqs.len());
                        for b in seqs.swap_remove(i) {
                            p.unref(b);
                        }
                    }
                    _ => {
                        let exclude = match rng.below(3) {
                            0 => Vec::new(),
                            1 => c.lookup_with_path(&rng.prompt()).1,
                            _ => (0..4).map(|_| rng.below(c.nodes.len().max(1))).collect(),
                        };
                        let want = c.scan_lru(&p, &exclude);
                        assert_eq!(c.pick_lru(&p, &exclude), want, "seed {seed}");
                        let coldest = c.leaves.first().map(|&(_, i)| i);
                        if want.is_some() && want != coldest {
                            skipped_shared += 1;
                        }
                        let free = p.free_blocks();
                        assert_eq!(c.evict_lru_excluding(&mut p, &exclude), want.is_some());
                        if want.is_some() {
                            evictions += 1;
                            assert_eq!(p.free_blocks(), free + 1, "the cache held the block alone");
                        }
                    }
                }
                assert!(c.verify(&p).is_empty(), "seed {seed}: {:?}", c.verify(&p));
            }
        }
        assert!(evictions > 500, "the drill evicts ({evictions})");
        assert!(
            skipped_shared > 50,
            "the drill skips shared or excluded leaves ({skipped_shared})"
        );
    }

    #[test]
    fn verify_flags_a_leaf_index_out_of_step() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        seed(&mut c, &mut p, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(c.verify(&p).is_empty());
        let (tick, leaf) = c.leaves.pop_first().unwrap();
        let bad = c.verify(&p);
        assert!(bad.iter().any(|m| m.contains("missing from the leaf index")), "{bad:?}");
        // A stale stamp is both a missing entry and a foreign one.
        c.leaves.insert((tick + 1, leaf));
        assert_eq!(c.verify(&p).len(), 2);
        c.leaves.insert((tick, leaf));
        c.leaves.remove(&(tick + 1, leaf));
        assert!(c.verify(&p).is_empty());
        // The chain's first node has a child: it is no eviction candidate.
        let inner = c.nodes[leaf].parent.unwrap();
        c.leaves.insert((c.nodes[inner].last_use, inner));
        let bad = c.verify(&p);
        assert!(bad.iter().any(|m| m.contains("not a leaf")), "{bad:?}");
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let (mut c, mut p) = (RadixCache::new(4), pool());
        let ba = seed(&mut c, &mut p, &[1, 1, 1, 1]);
        let bb = seed(&mut c, &mut p, &[2, 2, 2, 2]);
        for &b in ba.iter().chain(&bb) {
            p.unref(b);
        }
        c.probe(&[1, 1, 1, 1]); // read-only: A stays older
        assert!(c.evict_lru(&mut p));
        assert_eq!(p.refcount(ba[0]), 0, "probe must not bump recency");
        let _ = bb;
    }
}
