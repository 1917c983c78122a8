//! Mechanistic cost model for speculative draft-and-verify decoding.
//!
//! The paper's central decode finding (§3.2) is that auto-regressive decode
//! is memory-bandwidth-bound: one step streams the full weight set and does
//! a batch-1 GEMV's worth of compute. Speculative decoding exploits exactly
//! that slack — k drafted tokens are verified in **one** pass that streams
//! the weights once but computes k+1 token rows, so the marginal cost of a
//! verify row is only its compute and context traffic, not another full
//! weight stream.
//!
//! Two layers of model live here:
//!
//! * [`PerfModel`] extensions (`verify_batch_time`, `speculative_speedup`,
//!   `optimal_draft_k`) — the *a-priori* roofline built from the same
//!   calibrated constants as [`PerfModel::decode_step_time`].
//! * [`SpecCalib`] — an *a-posteriori* linear fit `t(m) = a + b·m` to
//!   measured verify-batch times (the `bench_kernels` m=1..8 decode-shape
//!   sweeps), for when real kernel measurements are available.
//!
//! Both share the acceptance mathematics in
//! [`expected_tokens_per_iteration`].

use crate::latency::PerfModel;

use crate::calib::OVERLAP_BETA;

/// Expected tokens emitted per verify iteration when each of the `k` draft
/// tokens is independently accepted with probability `alpha`.
///
/// One token is always emitted (the committed argmax that heads the verify
/// batch); draft token `i` is emitted only if drafts `1..=i` all matched,
/// so
///
/// ```text
/// E[tokens] = 1 + α + α² + … + α^k = (1 − α^{k+1}) / (1 − α)
/// ```
///
/// with the α→1 limit `k + 1`. `alpha` is clamped to `[0, 1]`.
pub fn expected_tokens_per_iteration(k: u64, alpha: f64) -> f64 {
    let a = alpha.clamp(0.0, 1.0);
    if (1.0 - a).abs() < 1e-12 {
        return (k + 1) as f64;
    }
    (1.0 - a.powi(k as i32 + 1)) / (1.0 - a)
}

impl PerfModel {
    /// One speculative verify iteration for `batch` sequences, each
    /// scoring `k + 1` token rows (the committed token plus `k` drafts)
    /// against a context of `ctx` cached tokens.
    ///
    /// The roofline: weights stream **once** (the whole point), compute
    /// scales with the total number of verify rows, the host dispatches
    /// one launch exactly as for a plain decode step, and each verify row
    /// `j` reads the context at its own depth `ctx + j` — rejected rows
    /// are billed too, because the memory system does not know in advance
    /// which drafts will be accepted.
    ///
    /// `verify_batch_time(batch, ctx, 0)` is identical to
    /// [`PerfModel::decode_step_time`]`(batch, ctx)` by construction.
    pub fn verify_batch_time(&self, batch: u64, ctx: u64, k: u64) -> f64 {
        let rows = (k + 1) as f64;
        let t_w = self.weight_stream_time();
        let t_c = batch as f64 * rows * self.flops_per_token() / self.effective_decode_flops();
        let core = t_w.max(t_c) + OVERLAP_BETA * t_w.min(t_c);
        let mut traffic = 0.0;
        for j in 0..=k {
            traffic += self.context_traffic_time(batch, ctx + j);
        }
        core + self.host_per_step() + traffic
    }

    /// The cost of the *non*-speculative alternative: `k + 1` sequential
    /// decode steps (context growing one token per step). This is what a
    /// fully-accepted verify batch of k drafts replaces.
    pub fn sequential_steps_time(&self, batch: u64, ctx: u64, k: u64) -> f64 {
        (0..=k).map(|j| self.decode_step_time(batch, ctx + j)).sum()
    }

    /// Best-case amortization headroom of a verify batch: sequential time
    /// over batched time when **every** draft is accepted. This is the
    /// α=1 ceiling on [`PerfModel::speculative_speedup`]; it exceeds 1
    /// exactly when decode is memory-bound enough that k extra rows ride
    /// along with one weight stream.
    pub fn verify_amortization(&self, batch: u64, ctx: u64, k: u64) -> f64 {
        self.sequential_steps_time(batch, ctx, k) / self.verify_batch_time(batch, ctx, k)
    }

    /// Expected decode speedup of speculative decoding with draft length
    /// `k` and per-token acceptance rate `alpha`, relative to plain
    /// one-token-per-step decode at the same `(batch, ctx)` point:
    ///
    /// ```text
    /// speedup = E[tokens/iter](k, α) · t_step / t_verify(k)
    /// ```
    ///
    /// `k = 0` returns exactly 1.0 (speculation off).
    pub fn speculative_speedup(&self, batch: u64, ctx: u64, k: u64, alpha: f64) -> f64 {
        expected_tokens_per_iteration(k, alpha) * self.decode_step_time(batch, ctx)
            / self.verify_batch_time(batch, ctx, k)
    }

    /// The draft length maximizing [`PerfModel::speculative_speedup`] over
    /// `0..=k_max` at this operating point. Returns 0 when speculation
    /// never pays (e.g. α too low for the verify overhead).
    pub fn optimal_draft_k(&self, batch: u64, ctx: u64, alpha: f64, k_max: u64) -> u64 {
        let mut best = (0u64, 1.0f64);
        for k in 1..=k_max {
            let s = self.speculative_speedup(batch, ctx, k, alpha);
            if s > best.1 {
                best = (k, s);
            }
        }
        best.0
    }
}

/// A measured verify-batch cost line `t(m) = base_s + per_row_s · m`,
/// least-squares fit to `(m, seconds)` points from `bench_kernels`'
/// decode-dimension shapes at m = 1..8.
///
/// `base_s` captures everything streamed/dispatched once per iteration
/// (weights, launch overhead); `per_row_s` is the marginal cost of one
/// more verify row. Decode being memory-bound shows up as
/// `per_row_s ≪ base_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecCalib {
    /// Fixed seconds per verify iteration (weight stream + dispatch).
    pub base_s: f64,
    /// Marginal seconds per additional verify row.
    pub per_row_s: f64,
}

impl SpecCalib {
    /// Least-squares fit of `t = a + b·m` to measured `(m, seconds)`
    /// points. With fewer than two distinct `m` values the slope is 0 and
    /// the base is the mean — a flat (maximally optimistic) line.
    /// Negative fitted slopes are clamped to 0: a verify row cannot have
    /// negative marginal cost, and tiny benchmark noise at small m must
    /// not make the model claim speculation is free.
    pub fn fit(points: &[(u64, f64)]) -> SpecCalib {
        assert!(!points.is_empty(), "SpecCalib::fit needs at least one point");
        let n = points.len() as f64;
        let mean_m = points.iter().map(|&(m, _)| m as f64).sum::<f64>() / n;
        let mean_t = points.iter().map(|&(_, t)| t).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|&(m, _)| (m as f64 - mean_m).powi(2)).sum();
        if sxx < 1e-12 {
            return SpecCalib { base_s: mean_t, per_row_s: 0.0 };
        }
        let sxy: f64 = points.iter().map(|&(m, t)| (m as f64 - mean_m) * (t - mean_t)).sum();
        let b = (sxy / sxx).max(0.0);
        let a = (mean_t - b * mean_m).max(0.0);
        SpecCalib { base_s: a, per_row_s: b }
    }

    /// Predicted seconds for one verify iteration scoring `k + 1` rows.
    pub fn verify_time(&self, k: u64) -> f64 {
        self.base_s + self.per_row_s * (k + 1) as f64
    }

    /// Measured-kernel analogue of [`PerfModel::speculative_speedup`]:
    /// expected tokens per iteration over the fitted relative cost of the
    /// verify batch vs one plain step.
    pub fn speedup(&self, k: u64, alpha: f64) -> f64 {
        expected_tokens_per_iteration(k, alpha) * self.verify_time(0) / self.verify_time(k)
    }

    /// The draft length maximizing [`SpecCalib::speedup`] over `0..=k_max`.
    pub fn optimal_k(&self, alpha: f64, k_max: u64) -> u64 {
        let mut best = (0u64, 1.0f64);
        for k in 1..=k_max {
            let s = self.speedup(k, alpha);
            if s > best.1 {
                best = (k, s);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_hw::DeviceSpec;
    use edgellm_models::{Llm, Precision};

    fn phi2() -> PerfModel {
        let dev = DeviceSpec::orin_agx_64gb();
        let clocks = dev.max_clocks();
        PerfModel::new(dev, Llm::Phi2, Precision::Fp16, clocks)
    }

    #[test]
    fn expected_tokens_matches_the_geometric_series() {
        // α=0: only the committed token ever lands.
        assert!((expected_tokens_per_iteration(4, 0.0) - 1.0).abs() < 1e-12);
        // α=1: every draft lands, k+1 tokens per iteration.
        assert!((expected_tokens_per_iteration(4, 1.0) - 5.0).abs() < 1e-12);
        // α=0.5, k=2: 1 + 0.5 + 0.25.
        assert!((expected_tokens_per_iteration(2, 0.5) - 1.75).abs() < 1e-12);
        // Monotone in both k and α.
        for k in 0..8u64 {
            assert!(
                expected_tokens_per_iteration(k + 1, 0.7) > expected_tokens_per_iteration(k, 0.7)
            );
        }
        assert!(expected_tokens_per_iteration(4, 0.9) > expected_tokens_per_iteration(4, 0.6));
        // Out-of-range α is clamped, not propagated.
        assert!((expected_tokens_per_iteration(3, 1.7) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn verify_with_zero_drafts_is_exactly_a_decode_step() {
        let m = phi2();
        for ctx in [32u64, 256, 2048] {
            let a = m.verify_batch_time(1, ctx, 0);
            let b = m.decode_step_time(1, ctx);
            assert!((a - b).abs() < 1e-15, "ctx={ctx}: {a} vs {b}");
        }
    }

    #[test]
    fn verify_batch_amortizes_the_weight_stream() {
        // The memory-bound regime the paper measures: at batch 1 a verify
        // batch of k=4 rows must cost far less than 5 sequential steps,
        // but still more than a single step.
        let m = phi2();
        let one = m.decode_step_time(1, 128);
        let verify = m.verify_batch_time(1, 128, 4);
        let seq = m.sequential_steps_time(1, 128, 4);
        assert!(verify > one, "verify must bill its extra rows");
        assert!(verify < 0.5 * seq, "verify {verify} vs sequential {seq}");
        let amort = m.verify_amortization(1, 128, 4);
        assert!(amort > 2.0 && amort < 5.0, "amortization {amort}");
    }

    #[test]
    fn speedup_exceeds_threshold_at_the_issue_operating_point() {
        // Acceptance criterion shape: α ≥ 0.7, k = 4 on Phi-2 must model
        // ≥ 1.5× decode tokens/s.
        let m = phi2();
        let s = m.speculative_speedup(1, 128, 4, 0.7);
        assert!(s >= 1.5, "Phi-2 α=0.7 k=4 speedup {s}");
        // And speculation off is exactly neutral.
        assert!((m.speculative_speedup(1, 128, 0, 0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_acceptance_makes_speculation_lose() {
        let m = phi2();
        let s = m.speculative_speedup(1, 128, 8, 0.05);
        assert!(s < 1.0, "α=0.05 k=8 should lose: {s}");
        assert_eq!(m.optimal_draft_k(1, 128, 0.0, 8), 0);
    }

    #[test]
    fn optimal_k_grows_with_acceptance() {
        let m = phi2();
        let lo = m.optimal_draft_k(1, 128, 0.3, 8);
        let hi = m.optimal_draft_k(1, 128, 0.95, 8);
        assert!(hi >= lo, "optimal k must not shrink with α: {lo} vs {hi}");
        assert!(hi >= 4, "α=0.95 should want deep drafts, got {hi}");
    }

    #[test]
    fn calib_fit_recovers_a_linear_cost_line() {
        // Synthetic bench points on t = 2ms + 0.1ms·m.
        let pts: Vec<(u64, f64)> =
            [1u64, 2, 4, 8].iter().map(|&m| (m, 2e-3 + 1e-4 * m as f64)).collect();
        let c = SpecCalib::fit(&pts);
        assert!((c.base_s - 2e-3).abs() < 1e-9, "base {}", c.base_s);
        assert!((c.per_row_s - 1e-4).abs() < 1e-9, "slope {}", c.per_row_s);
        assert!((c.verify_time(4) - 2.5e-3).abs() < 1e-9);
        // Memory-bound kernels ⇒ big wins at high α.
        assert!(c.speedup(4, 0.8) > 2.0);
        assert!(c.optimal_k(0.9, 8) >= 4);
    }

    #[test]
    fn calib_fit_degenerate_inputs_stay_sane() {
        // One point: flat line at that cost, speedup = E[tokens].
        let c = SpecCalib::fit(&[(1, 3e-3)]);
        assert_eq!(c.per_row_s, 0.0);
        assert!((c.speedup(4, 1.0) - 5.0).abs() < 1e-12);
        // Noise sloping downward is clamped: never negative marginal cost.
        let c = SpecCalib::fit(&[(1, 3.0e-3), (8, 2.9e-3)]);
        assert!(c.per_row_s >= 0.0);
        assert!(c.verify_time(8) >= c.verify_time(0));
    }
}
