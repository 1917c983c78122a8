//! Refcounted fixed-size KV block pool.
//!
//! The storage substrate of [`crate::PagedKv`]: the pool hands out
//! blocks of `block_tokens` cached tokens, each held by one sequence or,
//! with the prefix cache on, *shared* between live sequences and the
//! radix prefix cache through reference counts.
//! A block leaves the free list exactly once per `blocks_allocated`
//! increment and returns to it when its last reference drops
//! (`blocks_freed`), so the identity `allocated == freed + live` holds
//! at every instant regardless of how many holders a block had.
//! Divergence inside a shared block (a new sequence whose prompt agrees
//! with a cached block only up to token `k < block_tokens`) is modeled
//! as a copy-on-write allocation counted in `cow_events`.
//!
//! Determinism: the free list is a stack initialized `(0..total).rev()`
//! and popped from the end, so block ids are granted in ascending order
//! and a release/realloc cycle is reproducible.

use crate::paged::KvError;

/// Fixed pool of refcounted KV blocks.
#[derive(Debug, Clone)]
pub struct BlockPool {
    /// Tokens per block.
    block_tokens: u64,
    /// Bytes per cached token (model-dependent: all layers' K+V).
    bytes_per_token: u64,
    /// Current pool size in blocks (shrinks retire free blocks).
    total_blocks: usize,
    free: Vec<usize>,
    /// Reference count per block id (indexed by the *initial* id space;
    /// retired ids keep a zero entry).
    refcount: Vec<u32>,
    allocated: u64,
    freed: u64,
    cow_events: u64,
}

impl BlockPool {
    /// A pool covering `capacity_bytes`, with `block_tokens`-token
    /// blocks for a model storing `bytes_per_token` per cached token.
    pub fn new(capacity_bytes: u64, block_tokens: u64, bytes_per_token: u64) -> Self {
        let block_bytes = (block_tokens * bytes_per_token).max(1);
        let total_blocks = (capacity_bytes / block_bytes) as usize;
        BlockPool {
            block_tokens,
            bytes_per_token,
            total_blocks,
            free: (0..total_blocks).rev().collect(),
            refcount: vec![0; total_blocks],
            allocated: 0,
            freed: 0,
            cow_events: 0,
        }
    }

    /// Take one block from the free list with refcount 1. `None` when
    /// the pool is exhausted (nothing is mutated).
    pub fn alloc(&mut self) -> Option<usize> {
        let b = self.free.pop()?;
        self.refcount[b] = 1;
        self.allocated += 1;
        Some(b)
    }

    /// Add a reference to a live block (sharing it with another holder).
    ///
    /// # Panics
    /// On a freed block — retaining one is a use-after-free.
    pub fn retain(&mut self, block: usize) {
        assert!(self.refcount[block] > 0, "retain of freed block {block}");
        self.refcount[block] += 1;
    }

    /// Drop one reference; when the last holder lets go the block
    /// returns to the free list. Returns `true` iff the block was
    /// freed by this call.
    ///
    /// # Panics
    /// On a block with no outstanding references (double free).
    pub fn unref(&mut self, block: usize) -> bool {
        assert!(self.refcount[block] > 0, "unref of freed block {block}");
        self.refcount[block] -= 1;
        if self.refcount[block] == 0 {
            self.freed += 1;
            self.free.push(block);
            true
        } else {
            false
        }
    }

    /// Copy-on-write: allocate a private copy of a (still-cached)
    /// source block for a sequence that diverges inside it. The source
    /// keeps its references; the event is counted in [`cow_events`].
    ///
    /// [`cow_events`]: BlockPool::cow_events
    pub fn cow_from(&mut self, src: usize) -> Option<usize> {
        debug_assert!(self.refcount[src] > 0, "cow from freed block {src}");
        let b = self.alloc()?;
        self.cow_events += 1;
        Some(b)
    }

    /// Shrink the pool to `new_total` blocks, retiring free blocks.
    /// Only free blocks can be retired: fails with
    /// [`KvError::OutOfBlocks`] (and changes nothing) when live blocks
    /// exceed `new_total`. Growing is a no-op.
    pub fn shrink_to(&mut self, new_total: usize) -> Result<(), KvError> {
        if new_total >= self.total_blocks {
            return Ok(());
        }
        let retire = self.total_blocks - new_total;
        if retire > self.free.len() {
            return Err(KvError::OutOfBlocks { requested: retire, free: self.free.len() });
        }
        self.free.truncate(self.free.len() - retire);
        self.total_blocks = new_total;
        Ok(())
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// Bytes per cached token.
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Current pool size in blocks.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Blocks with at least one outstanding reference.
    pub fn used_blocks(&self) -> usize {
        self.total_blocks - self.free.len()
    }

    /// Current reference count of a block.
    pub fn refcount(&self, block: usize) -> u32 {
        self.refcount[block]
    }

    /// Size of the block-id space (the pool's *initial* block count;
    /// shrinks retire ids without renumbering the survivors).
    pub fn id_space(&self) -> usize {
        self.refcount.len()
    }

    /// Cumulative blocks taken from the free list.
    pub fn blocks_allocated(&self) -> u64 {
        self.allocated
    }

    /// Cumulative blocks returned to the free list.
    pub fn blocks_freed(&self) -> u64 {
        self.freed
    }

    /// Cumulative copy-on-write allocations.
    pub fn cow_events(&self) -> u64 {
        self.cow_events
    }

    /// Internal consistency check; returns one message per violation
    /// (empty = healthy). Checked by the `edgellm-check` block-refcount
    /// oracle after every audited run.
    pub fn verify(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut seen = vec![false; self.refcount.len()];
        for &f in &self.free {
            if f >= self.refcount.len() {
                bad.push(format!("free list holds out-of-range block {f}"));
                continue;
            }
            if seen[f] {
                bad.push(format!("block {f} appears twice in the free list"));
            }
            seen[f] = true;
            if self.refcount[f] != 0 {
                bad.push(format!("free block {f} has refcount {}", self.refcount[f]));
            }
        }
        let live = self.refcount.iter().filter(|&&c| c > 0).count();
        if self.allocated != self.freed + live as u64 {
            bad.push(format!(
                "block conservation broken: allocated {} != freed {} + live {live}",
                self.allocated, self.freed
            ));
        }
        if self.free.len() + live > self.total_blocks {
            bad.push(format!(
                "pool overcommitted: {} free + {live} live > {} total",
                self.free.len(),
                self.total_blocks
            ));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BlockPool {
        // 1 MB pool, 16-token blocks, 1 KB per token → 64 blocks.
        BlockPool::new(1 << 20, 16, 1024)
    }

    #[test]
    fn alloc_grants_ascending_ids() {
        let mut p = pool();
        assert_eq!(p.alloc(), Some(0));
        assert_eq!(p.alloc(), Some(1));
        assert_eq!(p.alloc(), Some(2));
        assert_eq!(p.free_blocks(), 61);
        assert_eq!(p.blocks_allocated(), 3);
    }

    #[test]
    fn shared_block_frees_once() {
        let mut p = pool();
        let b = p.alloc().unwrap();
        p.retain(b);
        p.retain(b);
        assert_eq!(p.refcount(b), 3);
        assert!(!p.unref(b));
        assert!(!p.unref(b));
        assert_eq!(p.blocks_freed(), 0);
        assert!(p.unref(b));
        assert_eq!(p.blocks_freed(), 1);
        assert_eq!(p.free_blocks(), 64);
        assert!(p.verify().is_empty());
    }

    #[test]
    fn cow_allocates_and_counts() {
        let mut p = pool();
        let src = p.alloc().unwrap();
        let copy = p.cow_from(src).unwrap();
        assert_ne!(src, copy);
        assert_eq!(p.cow_events(), 1);
        assert_eq!(p.refcount(src), 1, "source keeps its references");
        assert_eq!(p.refcount(copy), 1);
        assert!(p.verify().is_empty());
    }

    #[test]
    fn conservation_holds_through_churn() {
        let mut p = pool();
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        p.retain(a);
        p.unref(b);
        let c = p.alloc().unwrap();
        // Freed block is reused deterministically (stack order).
        assert_eq!(c, b);
        p.unref(a);
        p.unref(a);
        p.unref(c);
        assert_eq!(p.blocks_allocated(), 3);
        assert_eq!(p.blocks_freed(), 3);
        assert_eq!(p.used_blocks(), 0);
        assert!(p.verify().is_empty());
    }

    #[test]
    #[should_panic(expected = "unref of freed block")]
    fn double_free_panics() {
        let mut p = pool();
        let b = p.alloc().unwrap();
        p.unref(b);
        p.unref(b);
    }

    #[test]
    fn shrink_retires_free_blocks_only() {
        let mut p = pool();
        let held: Vec<usize> = (0..7).map(|_| p.alloc().unwrap()).collect();
        p.shrink_to(10).unwrap();
        assert_eq!(p.total_blocks(), 10);
        assert_eq!(p.free_blocks(), 3);
        assert!(p.shrink_to(6).is_err());
        assert_eq!(p.total_blocks(), 10);
        for b in held {
            p.unref(b);
        }
        assert_eq!(p.free_blocks(), 10);
        assert!(p.verify().is_empty());
    }
}
