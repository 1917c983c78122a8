//! # edgellm-mem — shared CPU/GPU memory accounting and KV-cache paging
//!
//! The Orin AGX shares 64 GB of LPDDR5 between CPU and GPU; the paper
//! tracks *incremental peak memory* per workload and reports OoM cells
//! (Phi-2 beyond sequence length 256, Mistral FP32, DeepSeek FP32/FP16).
//! This crate reproduces that accounting:
//!
//! * [`layout`] — the analytic memory model: weights + KV cache +
//!   activations (with per-model calibrated activation terms; Phi-2's
//!   eager-attention quadratic term is what drives its OoM at `sl ≥ 512`);
//! * [`tracker`] — a peak/incremental tracker equivalent to the paper's
//!   "difference between the peak memory usage during the run and the base
//!   memory usage before loading the model" (§2);
//! * [`kv`] — a paged KV-cache allocator (block-granular, per-sequence)
//!   with fragmentation statistics, used by the runtime and the paging
//!   ablation bench;
//! * [`block_pool`] / [`radix`] / [`paged`] — the prefix-sharing
//!   generation of that allocator: refcounted fixed-size blocks
//!   ([`BlockPool`]), a radix-tree prompt-prefix cache with
//!   deterministic LRU eviction ([`RadixCache`]), and the [`PagedKv`]
//!   facade the serve scheduler drives (vLLM/SGLang-style paged
//!   attention accounting, simulation-first);
//! * [`idmap`] — the integer-keyed hash map those per-sequence and
//!   per-request tables use.

pub mod block_pool;
pub mod idmap;
pub mod kv;
pub mod layout;
pub mod paged;
pub mod radix;
pub mod tracker;

pub use block_pool::BlockPool;
pub use idmap::{IdHasher, IdMap};
pub use kv::{KvBlockAllocator, KvError, SeqId};
pub use layout::{ActivationCalib, MemoryModel, OOM_HEADROOM_GB};
pub use paged::{AdmitOutcome, AdmitPlan, PagedKv};
pub use radix::{PrefixMatch, RadixCache, TokenId};
pub use tracker::{MemTracker, OomError};

/// Decimal gigabyte (the unit of every table in the paper).
pub const GB: f64 = 1e9;
