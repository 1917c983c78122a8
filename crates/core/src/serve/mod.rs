//! Event-driven, iteration-level serving.
//!
//! [`ServeSim`] advances the system one engine iteration at a time, with
//! three properties a precomputed schedule lacks:
//!
//! * **chunked prefill** — prompts are processed `chunk_tokens` at a time,
//!   fused with the decode batch so admissions do not stall live
//!   sequences ([`PrefillPolicy`]);
//! * **live KV accounting** — cache growth draws on a real
//!   [`PagedKv`](edgellm_mem::PagedKv) block pool; exhaustion preempts the
//!   youngest sequence (free + re-queue with recompute) instead of being
//!   worst-cased away at admission;
//! * **per-iteration energy** — every step (and idle gap) is billed
//!   through the rail power model, emitting an [`IterationTrace`].
//!
//! A run keeps one [`IterationTrace`] per iteration and one forensic
//! lifecycle log; the report, the audit and the exported timeline are
//! read from those two records (see [`sim`] for which counters stay
//! independent, and why).
//!
//! ```
//! use edgellm_core::serve::{ServeConfig, ServeSim};
//! use edgellm_core::{PoissonArrivals, RunConfig};
//! use edgellm_hw::DeviceSpec;
//! use edgellm_models::{Llm, Precision};
//!
//! let dev = DeviceSpec::orin_agx_64gb();
//! let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
//! let reqs = PoissonArrivals::paper_shape(1.5).generate(20, 42);
//! let run = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs)
//!     .and_then(ServeSim::run)
//!     .unwrap();
//! assert_eq!(run.report.requests, 20);
//! assert!(run.report.energy_j > 0.0);
//! ```

pub mod adapter;
pub mod governor;
pub mod scheduler;
pub mod sim;
pub mod trace;

pub use adapter::record_serve_run;
pub use edgellm_mem::TokenId;
pub use governor::{GovernorHook, GovernorObs};
pub use scheduler::{
    PrefillPolicy, ServeConfig, ServeRun, SpecConfig, DEFAULT_CHUNK_TOKENS, KV_BLOCK_TOKENS,
};
pub use sim::{run_static, Completion, ServeAudit, ServeSim};
pub use trace::{IterPhase, IterationTrace};
