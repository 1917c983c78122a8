//! # edgellm-power — rail power modeling, jtop-style sampling, energy
//!
//! The paper logs system power with `jtop` every 2 s, reports the *median*
//! power per batch, and integrates energy with the trapezoidal rule (§2).
//! This crate reproduces the full pipeline:
//!
//! * [`rails`] — a component power model (idle + GPU + CPU + DDR rails)
//!   driven by the clock scales and utilizations the perf model computes;
//!   rail constants are calibrated to the paper's §3.4 power-mode deltas
//!   (PM-A ≈ −28%, PM-B ≈ −51%, PM-H ≈ −52% instantaneous power);
//! * [`trace`] / [`sampler`] — a 2-second sampler over a simulated phase
//!   timeline (prefill spike, steady decode), with deterministic seeded
//!   jitter so integration is exercised on non-constant traces;
//! * [`energy`] — trapezoidal integration and median-power statistics,
//!   exactly the paper's post-processing.

pub mod energy;
pub mod rails;
pub mod sampler;
pub mod thermal;
pub mod timeline;
pub mod trace;

pub use energy::{median_power_w, trapezoid_energy_j};
pub use rails::{LoadProfile, RailBreakdown, RailModel, RailPoint};
pub use sampler::{sample_timeline, Phase};
pub use thermal::{simulate_sustained, ThermalModel, ThermalTrace};
pub use timeline::{record_power_trace, record_rail_counters};
pub use trace::PowerTrace;
