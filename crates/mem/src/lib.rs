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
//! * [`block_pool`] / [`radix`] / [`paged`] — the paged KV-cache
//!   allocator: refcounted fixed-size blocks ([`BlockPool`]), an
//!   optional radix-tree prompt-prefix cache with deterministic LRU
//!   eviction ([`RadixCache`]), and the [`PagedKv`] facade the batching
//!   engine and the serve scheduler drive
//!   (vLLM/SGLang-style paged attention accounting, simulation-first;
//!   with the prefix cache off it is a flat block-granular allocator);
//! * [`idmap`] — the integer-keyed hash map those per-sequence and
//!   per-request tables use.

pub mod block_pool;
pub mod idmap;
pub mod layout;
pub mod paged;
pub mod radix;
pub mod tracker;

pub use block_pool::BlockPool;
pub use idmap::{IdHasher, IdMap};
pub use layout::{ActivationCalib, MemoryModel, OOM_HEADROOM_GB};
pub use paged::{AdmitOutcome, AdmitPlan, KvError, PagedKv, SeqId};
pub use radix::{PrefixMatch, RadixCache, TokenId};
pub use tracker::{MemTracker, OomError};

/// Decimal gigabyte (the unit of every table in the paper).
pub const GB: f64 = 1e9;
