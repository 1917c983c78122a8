//! The latency model: prefill + auto-regressive decode over a device.

use crate::calib::{
    ModelCalib, PrecisionCosts, BW_EFFICIENCY, CTX_OVERHEAD_THRESHOLD, DECODE_EFF, HOST_MIN_CORES,
    MEM_PENALTY_ALPHA, OVERLAP_BETA, PREFILL_EFF,
};
use edgellm_hw::{ClockState, ComputePrecision, DeviceSpec};
use edgellm_models::{flops, Llm, ModelArch, Precision};

/// A latency prediction decomposed into its mechanism components.
/// All values in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Prefill phase (prompt ingestion).
    pub prefill_s: f64,
    /// Total decode host/dispatch time.
    pub host_s: f64,
    /// Total decode weight+KV+overhead traffic time (the memory-bound core).
    pub traffic_s: f64,
    /// Total decode compute time *beyond* what overlaps with traffic.
    pub compute_s: f64,
}

impl LatencyBreakdown {
    /// End-to-end time to last token for the batch.
    pub fn total_s(&self) -> f64 {
        self.prefill_s + self.host_s + self.traffic_s + self.compute_s
    }
}

/// A configured performance model: device + model + precision + clocks.
#[derive(Debug, Clone)]
pub struct PerfModel {
    device: DeviceSpec,
    arch: ModelArch,
    calib: ModelCalib,
    costs: PrecisionCosts,
    precision: Precision,
    clocks: ClockState,
    /// The roofline terms that depend only on the fields above, computed
    /// once at construction: a model's clocks never change (a power-mode
    /// flip builds a new model), and the per-step queries run in every
    /// simulated iteration.
    terms: Terms,
}

/// Clock-dependent roofline terms of one [`PerfModel`].
#[derive(Debug, Clone, Copy, Default)]
struct Terms {
    bandwidth: f64,
    decode_flops: f64,
    prefill_flops: f64,
    host_per_step: f64,
    weight_stream_s: f64,
    flops_per_token: f64,
    kv_bytes_per_token: f64,
}

impl Terms {
    fn of(m: &PerfModel) -> Self {
        let scale = m.clocks.mem_scale(&m.device);
        let peak = m.device.peak_bandwidth_gbps(&m.clocks) * 1e9;
        let bandwidth = peak * BW_EFFICIENCY / (1.0 + MEM_PENALTY_ALPHA * (1.0 / scale - 1.0));
        let fp16 = m.device.peak_compute_flops(ComputePrecision::Fp16, &m.clocks);
        let base =
            m.calib.host_s + m.costs.dispatch_frac * m.calib.int8_layer_s * m.arch.layers as f64;
        let core_penalty = if m.clocks.cores_online < HOST_MIN_CORES {
            HOST_MIN_CORES as f64 / m.clocks.cores_online as f64
        } else {
            1.0
        };
        Terms {
            bandwidth,
            decode_flops: fp16 * DECODE_EFF / m.costs.compute_mult,
            prefill_flops: fp16 * PREFILL_EFF / m.costs.compute_mult,
            host_per_step: base / m.clocks.cpu_scale(&m.device) * core_penalty,
            weight_stream_s: m.arch.weight_bytes(m.precision) as f64 / bandwidth,
            flops_per_token: flops::dense_flops_per_token(&m.arch),
            kv_bytes_per_token: m.arch.kv_bytes_per_token() as f64,
        }
    }
}

impl PerfModel {
    /// Build a model for one of the paper's LLMs.
    pub fn new(device: DeviceSpec, llm: Llm, precision: Precision, clocks: ClockState) -> Self {
        Self::with_calib(device, llm, precision, clocks, ModelCalib::for_llm(llm))
    }

    /// Build a model with explicit calibration constants — the ablation
    /// hook (e.g. zeroing the host term to get a pure roofline).
    pub fn with_calib(
        device: DeviceSpec,
        llm: Llm,
        precision: Precision,
        clocks: ClockState,
        calib: ModelCalib,
    ) -> Self {
        let mut m = PerfModel {
            arch: llm.arch(),
            calib,
            costs: PrecisionCosts::of(precision),
            precision,
            device,
            clocks,
            terms: Terms::default(),
        };
        m.terms = Terms::of(&m);
        m
    }

    /// The architecture being modeled.
    pub fn arch(&self) -> &ModelArch {
        &self.arch
    }

    /// The storage precision being modeled.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The clock state in force.
    pub fn clocks(&self) -> &ClockState {
        &self.clocks
    }

    /// Effective DRAM bandwidth (bytes/s) under the current memory clock,
    /// including the low-frequency latency penalty (see
    /// [`MEM_PENALTY_ALPHA`]).
    pub fn effective_bandwidth(&self) -> f64 {
        self.terms.bandwidth
    }

    /// Effective decode compute throughput (FLOP/s) under the current GPU
    /// clock, including the per-precision multiplier.
    pub fn effective_decode_flops(&self) -> f64 {
        self.terms.decode_flops
    }

    /// Effective prefill compute throughput (FLOP/s).
    pub fn effective_prefill_flops(&self) -> f64 {
        self.terms.prefill_flops
    }

    /// Host/dispatch seconds per decode step under the current CPU clock
    /// and online-core count.
    pub fn host_per_step(&self) -> f64 {
        self.terms.host_per_step
    }

    /// Time to stream the full weight set once.
    pub fn weight_stream_time(&self) -> f64 {
        self.terms.weight_stream_s
    }

    /// Dense FLOPs per token of the modeled architecture.
    pub(crate) fn flops_per_token(&self) -> f64 {
        self.terms.flops_per_token
    }

    /// Prefill time for `batch` prompts of `n_in` tokens each: a roofline
    /// of weight streaming against large-GEMM compute, with partial
    /// overlap.
    pub fn prefill_time(&self, batch: u64, n_in: u64) -> f64 {
        let t_w = self.weight_stream_time();
        let t_c =
            batch as f64 * n_in as f64 * self.terms.flops_per_token / self.terms.prefill_flops;
        t_w.max(t_c) + OVERLAP_BETA * t_w.min(t_c)
    }

    /// One decode step for `batch` sequences with `ctx` cached tokens each.
    pub fn decode_step_time(&self, batch: u64, ctx: u64) -> f64 {
        let t_w = self.weight_stream_time();
        let t_c = batch as f64 * self.terms.flops_per_token / self.terms.decode_flops;
        let core = t_w.max(t_c) + OVERLAP_BETA * t_w.min(t_c);
        core + self.host_per_step() + self.context_traffic_time(batch, ctx)
    }

    /// KV + long-context overhead traffic time for one step (crate-public
    /// so the speculation model in [`crate::spec`] bills the per-row
    /// context reads of a verify batch with the same constants).
    pub(crate) fn context_traffic_time(&self, batch: u64, ctx: u64) -> f64 {
        let kv = ctx as f64 * self.terms.kv_bytes_per_token;
        let overhead = ctx.saturating_sub(CTX_OVERHEAD_THRESHOLD) as f64 * self.calib.k2_bytes;
        batch as f64 * (kv + overhead) / self.terms.bandwidth
    }

    /// Full generation latency: prefill `n_in` tokens then decode `n_out`
    /// tokens auto-regressively (context grows each step), for a batch.
    /// Returns the mechanism breakdown; `total_s()` is the paper's
    /// time-to-last-token.
    pub fn generate(&self, batch: u64, n_in: u64, n_out: u64) -> LatencyBreakdown {
        let mut b =
            LatencyBreakdown { prefill_s: self.prefill_time(batch, n_in), ..Default::default() };
        let t_w = self.weight_stream_time();
        let t_c = batch as f64 * self.terms.flops_per_token / self.terms.decode_flops;
        // Attribute the roofline core (max + β·min) to its dominant side.
        let (core_traffic, core_compute) =
            if t_w >= t_c { (t_w, OVERLAP_BETA * t_c) } else { (OVERLAP_BETA * t_w, t_c) };
        b.host_s = self.host_per_step() * n_out as f64;
        b.compute_s = core_compute * n_out as f64;
        let mut traffic = core_traffic * n_out as f64;
        for i in 0..n_out {
            traffic += self.context_traffic_time(batch, n_in + i);
        }
        b.traffic_s = traffic;
        b
    }

    /// Convenience: total latency for the paper's standard workload shape.
    pub fn latency_s(&self, batch: u64, n_in: u64, n_out: u64) -> f64 {
        self.generate(batch, n_in, n_out).total_s()
    }

    /// Token throughput as the paper defines it: all input and output
    /// tokens of the batch divided by the batch latency (§2).
    pub fn throughput_tok_s(&self, batch: u64, n_in: u64, n_out: u64) -> f64 {
        batch as f64 * (n_in + n_out) as f64 / self.latency_s(batch, n_in, n_out)
    }

    /// The LongBench-vs-WikiText2 latency factor for this model.
    pub fn longbench_factor(&self) -> f64 {
        self.calib.longbench_factor
    }

    /// Per-precision cost table in force.
    pub fn costs(&self) -> &PrecisionCosts {
        &self.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_hw::{PowerMode, PowerModeId};

    fn model(llm: Llm, prec: Precision) -> PerfModel {
        let dev = DeviceSpec::orin_agx_64gb();
        let clocks = dev.max_clocks();
        PerfModel::new(dev, llm, prec, clocks)
    }

    /// Paper Table 4 (WikiText2, MaxN, sl=96=32+64): latency seconds per
    /// (batch, model) at serving precision.
    type LatencyRow = (Llm, Precision, [(u64, f64); 8]);
    const TABLE4_LATENCY: [LatencyRow; 4] = [
        (
            Llm::Phi2,
            Precision::Fp16,
            [
                (1, 3.73),
                (2, 3.95),
                (4, 3.95),
                (8, 3.95),
                (16, 4.09),
                (32, 5.19),
                (64, 7.59),
                (128, 12.85),
            ],
        ),
        (
            Llm::Llama31_8b,
            Precision::Fp16,
            [
                (1, 6.37),
                (2, 6.66),
                (4, 6.87),
                (8, 7.37),
                (16, 8.33),
                (32, 9.96),
                (64, 14.04),
                (128, 21.99),
            ],
        ),
        (
            Llm::MistralSmall24b,
            Precision::Fp16,
            [
                (1, 18.51),
                (2, 18.30),
                (4, 18.74),
                (8, 19.54),
                (16, 21.29),
                (32, 39.12),
                (64, 48.84),
                (128, 66.53),
            ],
        ),
        (
            Llm::DeepseekQwen32b,
            Precision::Int8,
            [
                (1, 43.25),
                (2, 46.97),
                (4, 48.97),
                (8, 47.73),
                (16, 69.81),
                (32, 47.92),
                (64, 61.05),
                (128, 83.69),
            ],
        ),
    ];

    #[test]
    fn table4_latency_within_tolerance() {
        // Mechanistic model vs published table: ±35% per cell (the paper's
        // own tables contain ≥30% non-monotonic noise at some cells), and
        // much tighter on the calibration anchors.
        for (llm, prec, rows) in TABLE4_LATENCY {
            let m = model(llm, prec);
            for (bs, actual) in rows {
                let pred = m.latency_s(bs, 32, 64);
                let rel = (pred - actual).abs() / actual;
                assert!(rel < 0.35, "{llm:?} bs={bs}: pred {pred:.2} vs {actual} ({rel:.2})");
            }
        }
    }

    #[test]
    fn anchors_are_near_exact() {
        for (llm, prec, rows) in TABLE4_LATENCY {
            let m = model(llm, prec);
            let (bs, actual) = rows[0]; // bs=1 anchor
            let pred = m.latency_s(bs, 32, 64);
            assert!((pred - actual).abs() / actual < 0.02, "{llm:?}: {pred} vs {actual}");
        }
    }

    #[test]
    fn pure_roofline_misses_the_host_bound_anchor() {
        // DESIGN §5: DeepSeek INT8 at bs=1, 32+64 tokens takes 43.25 s
        // (Table 4). The calibrated model lands on it; with the host and
        // INT8 dispatch terms zeroed, the roofline left misses it by more
        // than half (12.3 s against 43.2 s).
        let (llm, prec, paper) = (Llm::DeepseekQwen32b, Precision::Int8, 43.25);
        let full = model(llm, prec).latency_s(1, 32, 64);
        assert!((full - paper).abs() / paper < 0.02, "calibrated {full:.1} s");
        let dev = DeviceSpec::orin_agx_64gb();
        let calib = ModelCalib { host_s: 0.0, int8_layer_s: 0.0, ..ModelCalib::for_llm(llm) };
        let clocks = dev.max_clocks();
        let roofline = PerfModel::with_calib(dev, llm, prec, clocks, calib).latency_s(1, 32, 64);
        assert!(roofline < 0.5 * paper, "pure roofline {roofline:.1} s");
    }

    #[test]
    fn throughput_rises_with_batch_size() {
        // Fig 1's headline shape.
        for llm in Llm::ALL {
            let prec = if llm == Llm::DeepseekQwen32b { Precision::Int8 } else { Precision::Fp16 };
            let m = model(llm, prec);
            let mut last = 0.0;
            for bs in [1u64, 2, 4, 8, 16, 32, 64, 128] {
                let tp = m.throughput_tok_s(bs, 32, 64);
                assert!(tp > last, "{llm:?} bs={bs}: {tp} ≤ {last}");
                last = tp;
            }
        }
    }

    #[test]
    fn latency_rises_with_batch_size() {
        let m = model(Llm::Llama31_8b, Precision::Fp16);
        assert!(m.latency_s(128, 32, 64) > 2.0 * m.latency_s(32, 32, 64));
    }

    #[test]
    fn throughput_falls_with_sequence_length() {
        // Fig 2's headline shape: sl=128..1024 at bs=32.
        for llm in Llm::ALL {
            let prec = if llm == Llm::DeepseekQwen32b { Precision::Int8 } else { Precision::Fp16 };
            let m = model(llm, prec);
            let mut last = f64::INFINITY;
            for (ni, no) in [(32u64, 96u64), (64, 192), (128, 384), (256, 768)] {
                let tp = m.throughput_tok_s(32, ni, no);
                assert!(tp < last, "{llm:?} sl={}: {tp} ≥ {last}", ni + no);
                last = tp;
            }
        }
    }

    #[test]
    fn llama_seqlen_sweep_matches_table7() {
        let m = model(Llm::Llama31_8b, Precision::Fp16);
        for ((ni, no), actual) in [(32u64, 96u64), (64, 192), (128, 384), (256, 768)]
            .iter()
            .zip([14.99, 37.23, 100.69, 304.33])
        {
            let pred = m.latency_s(32, *ni, *no);
            let rel = (pred - actual).abs() / actual;
            assert!(rel < 0.20, "sl {}: {pred:.1} vs {actual}", ni + no);
        }
    }

    #[test]
    fn int8_slows_small_models_but_not_mistral() {
        // §3.3: INT8 ≈ +62% latency for Phi-2/Llama, ≈ +2% for Mistral.
        let slowdown = |llm: Llm| {
            let f = model(llm, Precision::Fp16).latency_s(32, 32, 64);
            let q = model(llm, Precision::Int8).latency_s(32, 32, 64);
            q / f - 1.0
        };
        let phi = slowdown(Llm::Phi2);
        let llama = slowdown(Llm::Llama31_8b);
        let mistral = slowdown(Llm::MistralSmall24b);
        assert!((0.4..0.9).contains(&phi), "Phi-2 INT8 slowdown {phi}");
        assert!((0.4..0.9).contains(&llama), "Llama INT8 slowdown {llama}");
        assert!(mistral < 0.10, "Mistral INT8 slowdown {mistral}");
        assert!(phi > mistral && llama > mistral, "small models hurt more");
    }

    #[test]
    fn int4_is_slower_than_int8_and_fp16() {
        for llm in [Llm::Phi2, Llm::Llama31_8b, Llm::MistralSmall24b] {
            let f16 = model(llm, Precision::Fp16).latency_s(32, 32, 64);
            let i8 = model(llm, Precision::Int8).latency_s(32, 32, 64);
            let i4 = model(llm, Precision::Int4).latency_s(32, 32, 64);
            assert!(i4 > i8, "{llm:?}: int4 {i4} ≤ int8 {i8}");
            assert!(i4 > 1.5 * f16, "{llm:?}: int4 {i4} vs fp16 {f16}");
        }
    }

    #[test]
    fn fp32_is_slower_than_fp16() {
        let f32_ = model(Llm::Llama31_8b, Precision::Fp32).latency_s(32, 32, 64);
        let f16 = model(Llm::Llama31_8b, Precision::Fp16).latency_s(32, 32, 64);
        assert!(f32_ > 1.4 * f16, "{f32_} vs {f16}");
    }

    #[test]
    fn power_mode_a_adds_moderate_latency() {
        // §3.4: PM-A (GPU 800 MHz) ⇒ ≈ +26% latency for Llama.
        let dev = DeviceSpec::orin_agx_64gb();
        let maxn = model(Llm::Llama31_8b, Precision::Fp16).latency_s(32, 32, 64);
        let a = PerfModel::new(
            dev,
            Llm::Llama31_8b,
            Precision::Fp16,
            PowerMode::table2(PowerModeId::A).clocks,
        )
        .latency_s(32, 32, 64);
        let rel = a / maxn - 1.0;
        assert!((0.10..0.45).contains(&rel), "PM-A slowdown {rel}");
    }

    #[test]
    fn power_mode_h_dominates_latency_impact() {
        // §3.4: PM-H (mem 665 MHz) ⇒ ≈ +370% latency.
        let dev = DeviceSpec::orin_agx_64gb();
        let mk = |id: PowerModeId| {
            PerfModel::new(
                dev.clone(),
                Llm::Llama31_8b,
                Precision::Fp16,
                PowerMode::table2(id).clocks,
            )
            .latency_s(32, 32, 64)
        };
        let maxn = mk(PowerModeId::MaxN);
        let h = mk(PowerModeId::H);
        let rel = h / maxn - 1.0;
        assert!((2.5..5.0).contains(&rel), "PM-H slowdown {rel}");
        // H is the worst of all modes.
        for id in PowerModeId::ALL {
            assert!(mk(id) <= h + 1e-9, "{id:?} slower than H");
        }
    }

    #[test]
    fn core_count_modes_have_negligible_impact() {
        // §3.4: PM-E (8 cores) and PM-F (4 cores) ≈ MaxN.
        let dev = DeviceSpec::orin_agx_64gb();
        let mk = |id: PowerModeId| {
            PerfModel::new(
                dev.clone(),
                Llm::Llama31_8b,
                Precision::Fp16,
                PowerMode::table2(id).clocks,
            )
            .latency_s(32, 32, 64)
        };
        let maxn = mk(PowerModeId::MaxN);
        assert!((mk(PowerModeId::E) / maxn - 1.0).abs() < 0.01);
        assert!((mk(PowerModeId::F) / maxn - 1.0).abs() < 0.01);
    }

    #[test]
    fn cpu_freq_modes_slow_host_bound_models_more() {
        // §3.4: DeepSeek (INT8, dispatch-heavy) is hit harder by CPU
        // throttling than Llama FP16.
        let dev = DeviceSpec::orin_agx_64gb();
        let slow = |llm: Llm, prec: Precision| {
            let maxn =
                PerfModel::new(dev.clone(), llm, prec, dev.max_clocks()).latency_s(32, 32, 64);
            let d =
                PerfModel::new(dev.clone(), llm, prec, PowerMode::table2(PowerModeId::D).clocks)
                    .latency_s(32, 32, 64);
            d / maxn - 1.0
        };
        let llama = slow(Llm::Llama31_8b, Precision::Fp16);
        let deepq = slow(Llm::DeepseekQwen32b, Precision::Int8);
        assert!(deepq > 3.0 * llama, "DeepQ {deepq} vs Llama {llama}");
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = model(Llm::Llama31_8b, Precision::Fp16);
        let b = m.generate(32, 32, 64);
        assert!((b.total_s() - (b.prefill_s + b.host_s + b.traffic_s + b.compute_s)).abs() < 1e-12);
        assert!(b.prefill_s > 0.0 && b.host_s > 0.0 && b.traffic_s > 0.0);
    }

    #[test]
    fn decode_is_memory_bound_at_small_batch() {
        let m = model(Llm::Llama31_8b, Precision::Fp16);
        let b = m.generate(1, 32, 64);
        assert!(b.traffic_s > 5.0 * b.compute_s, "bs=1 decode must be memory-bound");
    }
}
