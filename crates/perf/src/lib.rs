//! # edgellm-perf — a calibrated mechanistic latency model for LLM
//! inference on the Jetson Orin AGX
//!
//! The paper measures batched prefill+decode latency of four LLMs under
//! varying batch size, sequence length, quantization and power modes. This
//! crate reproduces those measurements with a *mechanistic* model whose
//! structure mirrors the device behaviour the paper itself identifies:
//!
//! * auto-regressive **decode is memory-bound** (§3.2 / Splitwise \[11\]):
//!   every decode step streams the full weight set once, regardless of
//!   batch size — which is exactly why batching raises throughput;
//! * a **host/dispatch term** per step (Python + kernel-launch time on the
//!   CPU), which is why CPU-frequency power modes (PM-C/D) slow inference
//!   but core-count modes (PM-E/F) do not (§3.4);
//! * **quantized execution adds per-layer dispatch and dequantization
//!   work** (the LLM.int8() two-stream decomposition), which hurts small
//!   models disproportionately and leaves the GPU at ~60% utilization
//!   (§3.3);
//! * a **long-context overhead** per cached token (HF cache rewriting and
//!   attention intermediates), which is why throughput falls with sequence
//!   length (§3.2).
//!
//! Per-model constants are calibrated offline against the paper's appendix
//! Tables 4–7 (see [`calib`] for the provenance of every number); the
//! device peaks come from `edgellm-hw`. Validation tests in this crate and
//! the experiment drivers check predictions against the published tables.

pub mod calib;
pub mod latency;
pub mod spec;
pub mod util;

pub use calib::{ModelCalib, PrecisionCosts};
pub use latency::{LatencyBreakdown, PerfModel};
pub use spec::expected_tokens_per_iteration;
pub use util::Utilization;
