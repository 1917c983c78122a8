//! # edgellm-trace — spans, metrics and Perfetto-exportable timelines
//!
//! The paper is a telemetry study: every table is post-processed from
//! sampled power logs correlated with phase timings. This crate is the
//! workspace's single observability layer, answering *where the time and
//! joules go* at every level — one fused matmul, one scheduler iteration,
//! one five-device fleet — on one timeline:
//!
//! * [`mod@span`] — `span!`-style RAII guards with thread-local buffers,
//!   merged deterministically by timestamp, for wall-clock
//!   instrumentation of the execution substrate;
//! * [`metrics`] — a process-wide registry of monotone counters (the
//!   kernel layer's per-variant invocation/MAC/time tallies live here);
//! * [`stats`] — the single nearest-rank [`quantile`] and [`Histogram`]
//!   every report in the workspace now aggregates with;
//! * [`chrome`] — a Chrome trace-event / Perfetto-compatible [`Trace`]
//!   model and deterministic JSON exporter: spans as duration events on
//!   per-component tracks, GPU/CPU/DDR/SoC power rails as counter
//!   tracks, routing/preemption/thermal trips as instants;
//! * [`sink`] — the process-wide trace buffer existing entry points
//!   record into when `--trace-out` / `EDGELLM_TRACE` is set, so any
//!   experiment emits a loadable timeline without code changes;
//! * [`json`] — a dependency-free JSON reader and the checked-in-schema
//!   validation CI runs against real exports;
//! * [`forensics`] — request-scoped forensics: rid-stamped lifecycle
//!   events reconstructed into per-request timelines with TTFT/latency
//!   blame decomposition and energy attribution, plus the always-on
//!   bounded flight recorder and the `edgellm-trace analyze` report.
//!
//! The crate has **no dependencies** (std only), so every other crate in
//! the workspace — `tensor` below `nn`, `power` below `core`, `fleet`
//! above everything — can depend on it without cycles.

pub mod chrome;
pub mod forensics;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod stats;

pub use chrome::{Arg, Trace};
pub use forensics::{
    analyze, export_forensics, parse_forensics, reconstruct, validate_forensics, AnalyzeReport,
    Blame, ForensicsDoc, ForensicsLog, ForensicsStats, RequestTimeline,
};
pub use json::{parse as parse_json, validate_chrome_trace, Json, TraceStats};
pub use metrics::{registry, Counter, Registry};
pub use span::{SpanGuard, SpanRecord};
pub use stats::{quantile, Histogram};
