//! Per-iteration telemetry emitted by the event-driven scheduler.
//!
//! Each scheduler step — a fused prefill+decode iteration, a solo
//! blocking prefill, or an idle gap — produces one [`IterationTrace`]
//! record. The trace is the raw material for the serving report's energy
//! integral, mean occupancy and KV-pressure analysis, and for the
//! timeline's KV, rail-power and cached-block counter tracks; it is
//! returned to callers so experiments can plot per-iteration dynamics.

use edgellm_power::RailBreakdown;

/// What the engine did during one scheduler iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterPhase {
    /// Prompt processing only (a solo blocking prefill, or chunked
    /// prefill with no sequence decoding).
    Prefill,
    /// Decode only: one token for every live sequence.
    Decode,
    /// A fused iteration: prefill chunks riding the decode batch's
    /// weight stream.
    Mixed,
    /// No live sequence; the clock jumps to the next arrival.
    Idle,
}

/// One scheduler iteration's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTrace {
    /// Wall-clock time at the end of the iteration (s).
    pub t_s: f64,
    /// Iteration duration (s).
    pub dt_s: f64,
    /// Phase classification.
    pub phase: IterPhase,
    /// Sequences that produced a decode token this iteration.
    pub decoding: usize,
    /// Sequences that advanced prefill this iteration.
    pub prefilling: usize,
    /// KV pool blocks held at the end of the iteration.
    pub kv_blocks_used: usize,
    /// Total KV pool blocks.
    pub kv_blocks_total: usize,
    /// Module power during the iteration (W).
    pub power_w: f64,
    /// Tokens processed: prefill chunk tokens plus decode tokens.
    pub tokens: u64,
    /// Per-rail power during the iteration (W) — the GPU/CPU/DDR/SoC
    /// view of `power_w`.
    pub rails: RailBreakdown,
    /// Blocks parked in the prefix cache at the end of the iteration;
    /// `None` with the prefix cache off.
    pub kv_cached_blocks: Option<usize>,
}

impl IterationTrace {
    /// Energy of this iteration (J).
    pub fn energy_j(&self) -> f64 {
        self.power_w * self.dt_s
    }

    /// KV pool occupancy fraction at the end of the iteration.
    pub fn kv_occupancy(&self) -> f64 {
        if self.kv_blocks_total == 0 {
            0.0
        } else {
            self.kv_blocks_used as f64 / self.kv_blocks_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> IterationTrace {
        IterationTrace {
            t_s: 1.0,
            dt_s: 0.5,
            phase: IterPhase::Mixed,
            decoding: 4,
            prefilling: 1,
            kv_blocks_used: 25,
            kv_blocks_total: 100,
            power_w: 40.0,
            tokens: 36,
            rails: RailBreakdown::default(),
            kv_cached_blocks: None,
        }
    }

    #[test]
    fn energy_and_occupancy_derived() {
        let e = entry();
        assert!((e.energy_j() - 20.0).abs() < 1e-12);
        assert!((e.kv_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_occupancy_is_zero() {
        let mut e = entry();
        e.kv_blocks_total = 0;
        e.kv_blocks_used = 0;
        assert_eq!(e.kv_occupancy(), 0.0);
    }
}
