//! # edgellm-core — the batched-inference runtime and experiment protocol
//!
//! This crate ties the substrates together into the system the paper
//! actually measures: a batching engine that walks prefill + auto-
//! regressive decode over the calibrated performance model
//! (`edgellm-perf`), the shared-memory model (`edgellm-mem`), and the rail
//! power model (`edgellm-power`), producing exactly the metrics the paper
//! defines in §2:
//!
//! * **token throughput** — Σ(input+output tokens)/batch latency;
//! * **latency** — end-to-end time to last token for the batch;
//! * **incremental peak memory** — peak minus pre-load baseline;
//! * **median power** (2 s jtop-style sampling) and **trapezoidal energy**.
//!
//! [`protocol::Protocol`] reproduces the measurement discipline ("a warm-up
//! run … followed by five actual runs for each configuration, averaging
//! the results"), and [`perplexity`] implements the paper's sliding-window
//! perplexity (1024-token windows, stride 512) over any
//! [`edgellm_nn::CausalScorer`].
//!
//! ```
//! use edgellm_core::{Engine, RunConfig, SequenceSpec};
//! use edgellm_models::{Llm, Precision};
//!
//! let engine = Engine::orin_agx_64gb();
//! let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16)
//!     .batch_size(32)
//!     .sequence(SequenceSpec::paper_96());
//! let m = engine.run_batch(&cfg).unwrap();
//! assert!(m.latency_s > 5.0 && m.latency_s < 20.0);
//! ```

pub mod arrivals;
pub mod config;
pub mod continuous;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod offload;
pub mod perplexity;
pub mod phase_split;
pub mod protocol;
pub mod scheduler;
pub mod serve;

pub use arrivals::{PoissonArrivals, Request};
pub use config::{Dataset, RunConfig, SequenceSpec};
pub use continuous::ContinuousReport;
pub use engine::Engine;
pub use error::RunError;
pub use metrics::{quantile, BatchMetrics, RunMetrics};
pub use offload::{compare as compare_offload, CloudEndpoint, OffloadComparison};
pub use perplexity::{sliding_window_perplexity, PerplexityReport, STRIDE, WINDOW};
pub use phase_split::{phase_split, PhaseSplit};
pub use protocol::Protocol;
pub use scheduler::{ServingReport, StaticBatcher};
pub use serve::{
    Completion, GovernorHook, GovernorObs, IterPhase, IterationTrace, PrefillPolicy, ServeAudit,
    ServeConfig, ServeRun, ServeSim, SpecConfig, TokenId,
};
