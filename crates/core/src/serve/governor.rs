//! The serving-side half of online power governance.
//!
//! A governor is a feedback controller that watches per-iteration
//! telemetry and retunes the device's power mode while the run is in
//! flight. The controller itself (policies, mode ladder, dwell
//! enforcement) lives in the `edgellm-governor` crate; this module
//! defines only the contract between it and [`ServeSim`]:
//!
//! * [`GovernorObs`] — the telemetry snapshot the simulation hands the
//!   controller at every iteration boundary;
//! * [`GovernorHook`] — the callback trait the controller implements;
//!   returning `Some(mode)` flips the device via
//!   [`ServeSim::set_power_mode`] at the boundary instant, so the energy
//!   integral splits exactly at the change (no iteration ever straddles
//!   two operating points).
//!
//! Everything is synchronous and allocation-free on the hot path: the
//! snapshot borrows the simulation's own trace, and decisions are plain
//! `Option<PowerMode>` values. Determinism therefore reduces to the
//! policy being a pure function of its state and the snapshot — which
//! `edgellm-check` verifies across thread counts.
//!
//! [`ServeSim`]: crate::serve::ServeSim
//! [`ServeSim::set_power_mode`]: crate::serve::ServeSim::set_power_mode

use crate::serve::trace::IterationTrace;
use edgellm_hw::PowerMode;

/// Telemetry snapshot handed to a [`GovernorHook`] at an iteration
/// boundary. Borrows the simulation's state; copy out what must outlive
/// the call.
#[derive(Debug, Clone, Copy)]
pub struct GovernorObs<'a> {
    /// Simulation clock at the boundary (s).
    pub now_s: f64,
    /// Requests queued or live (work in the system).
    pub queue_depth: usize,
    /// Sequences currently holding KV blocks.
    pub live: usize,
    /// Tokens still to process across queued and live requests.
    pub backlog_tokens: u64,
    /// KV pool occupancy in [0, 1].
    pub kv_occupancy: f64,
    /// Energy integrated so far (J).
    pub energy_j: f64,
    /// How long the oldest request still waiting for its first token has
    /// been waiting (0 when none is) — the TTFT-risk signal.
    pub oldest_wait_s: f64,
    /// Name of the active power mode.
    pub mode: &'a str,
    /// Junction temperature when the driver has a thermal guard
    /// (fleet members); `None` for bare serve runs, where a thermal
    /// policy integrates its own RC state from `iters`.
    pub temp_c: Option<f64>,
    /// Trace entries appended since the previous observation — the idle
    /// gap (if any) plus the iteration just billed. Never empty.
    pub iters: &'a [IterationTrace],
}

impl GovernorObs<'_> {
    /// Duration of the last decode-bearing iteration in this batch of
    /// entries — the time-between-tokens signal. `None` when only idle
    /// or pure-prefill entries landed.
    pub fn last_decode_dt_s(&self) -> Option<f64> {
        self.iters.iter().rev().find(|it| it.decoding > 0).map(|it| it.dt_s)
    }
}

/// A feedback controller consulted at every iteration boundary.
///
/// Return `Some(mode)` to flip the device for subsequent iterations
/// (the mode must validate on the device), `None` to hold. The hook is
/// invoked after the iteration is billed, so a decision at time *t*
/// affects exactly the work after *t*.
pub trait GovernorHook {
    /// Observe one boundary and optionally request a mode change.
    fn on_iteration(&mut self, obs: &GovernorObs<'_>) -> Option<PowerMode>;
}
