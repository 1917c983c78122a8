//! The batching engine: a discrete walk of prefill + decode over the
//! performance, memory and power models.

use crate::config::{Dataset, RunConfig};
use crate::error::RunError;
use crate::metrics::BatchMetrics;
use edgellm_hw::DeviceSpec;
use edgellm_mem::{MemTracker, MemoryModel, PagedKv, GB, OOM_HEADROOM_GB};
use edgellm_perf::PerfModel;
use edgellm_power::{
    median_power_w, sample_timeline, trapezoid_energy_j, LoadProfile, Phase, RailModel,
};

/// Tokens per KV-cache block in the paged allocator.
const KV_BLOCK_TOKENS: u64 = 16;

/// The simulated serving engine for one device.
#[derive(Debug, Clone)]
pub struct Engine {
    device: DeviceSpec,
    rails: RailModel,
}

impl Engine {
    /// Engine over an arbitrary device.
    pub fn new(device: DeviceSpec) -> Self {
        let rails = RailModel::orin_agx(device.clone());
        Engine { device, rails }
    }

    /// The paper's device: Jetson Orin AGX 64GB.
    pub fn orin_agx_64gb() -> Self {
        Self::new(DeviceSpec::orin_agx_64gb())
    }

    /// The device under simulation.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// This device's own maximum-performance power mode (valid on any
    /// device, unlike the Orin-specific Table 2 MaxN).
    pub fn maxn(&self) -> edgellm_hw::PowerMode {
        edgellm_hw::PowerMode::maxn_for(&self.device)
    }

    /// Run one batch to completion, producing the paper's §2 metrics.
    ///
    /// Fails with [`RunError::ModelDoesNotLoad`] / [`RunError::OutOfMemory`]
    /// exactly where the paper's tables print OoM.
    pub fn run_batch(&self, cfg: &RunConfig) -> Result<BatchMetrics, RunError> {
        cfg.power_mode.validate(&self.device)?;
        if cfg.batch_size == 0 {
            return Err(RunError::InvalidConfig("batch size must be ≥ 1".into()));
        }
        if cfg.sequence.output_tokens == 0 {
            return Err(RunError::InvalidConfig("output tokens must be ≥ 1".into()));
        }

        let (bs, n_in, n_out) =
            (cfg.batch_size, cfg.sequence.input_tokens, cfg.sequence.output_tokens);
        let seq_total = cfg.sequence.total();
        let capacity_gb = self.device.capacity_gb();
        let usable = ((capacity_gb - OOM_HEADROOM_GB) * GB) as u64;

        // ---- memory walk ----
        let mm = MemoryModel::new(cfg.llm, cfg.precision, capacity_gb);
        let mut tracker = MemTracker::new(usable);
        tracker.alloc(mm.weight_bytes() as u64).map_err(|_| RunError::ModelDoesNotLoad {
            required_gb: mm.weight_bytes() / GB,
            usable_gb: usable as f64 / GB,
        })?;
        tracker.set_baseline();
        let oom = |t: &MemTracker, extra: u64| RunError::OutOfMemory {
            peak_gb: (t.in_use() + extra) as f64 / GB,
            usable_gb: usable as f64 / GB,
        };
        let act = mm.activation_bytes(bs, seq_total) as u64;
        tracker.alloc(act).map_err(|_| oom(&tracker, act))?;

        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        let mut kv = PagedKv::new(usable - tracker.in_use(), KV_BLOCK_TOKENS, kv_per_token);
        for s in 0..bs as u32 {
            kv.register(s);
        }
        // Prefill fills n_in tokens per sequence, then decode appends one
        // token per sequence per step; the tracker sees reserved blocks.
        let mut reserved = 0u64;
        let mut grow =
            |kv: &mut PagedKv, tracker: &mut MemTracker, tokens: u64| -> Result<(), RunError> {
                for s in 0..bs as u32 {
                    kv.append(s, tokens).map_err(|_| RunError::OutOfMemory {
                        peak_gb: (tracker.in_use() + kv.reserved_bytes() - reserved) as f64 / GB,
                        usable_gb: usable as f64 / GB,
                    })?;
                }
                let now = kv.reserved_bytes();
                let delta = now - reserved;
                reserved = now;
                tracker.alloc(delta).map_err(|_| oom(tracker, delta))
            };
        grow(&mut kv, &mut tracker, n_in)?;

        // ---- time walk ----
        let perf =
            PerfModel::new(self.device.clone(), cfg.llm, cfg.precision, cfg.power_mode.clocks);
        let prefill_s = perf.prefill_time(bs, n_in);
        let mut decode_s = 0.0;
        for i in 0..n_out {
            grow(&mut kv, &mut tracker, 1)?;
            decode_s += perf.decode_step_time(bs, n_in + i);
        }
        let ds_factor = match cfg.dataset {
            Dataset::WikiText2 => 1.0,
            Dataset::LongBench => perf.longbench_factor(),
        };
        let prefill_s = prefill_s * ds_factor;
        let decode_s = decode_s * ds_factor;
        let latency_s = prefill_s + decode_s;

        // ---- power walk ----
        let maxn =
            PerfModel::new(self.device.clone(), cfg.llm, cfg.precision, self.device.max_clocks());
        let bw_ratio = perf.effective_bandwidth() / maxn.effective_bandwidth();
        let profile = |u: edgellm_perf::Utilization| LoadProfile {
            gpu_util: u.gpu,
            cpu_util: u.cpu,
            bw_util: u.mem_bw,
            bw_ratio,
        };
        let u_pre = perf.prefill_utilization(bs, n_in.max(1));
        let u_early = perf.decode_utilization(bs, n_in + n_out / 4);
        let u_late = perf.decode_utilization(bs, n_in + (3 * n_out) / 4);
        let clocks = &cfg.power_mode.clocks;
        let phases = [
            Phase { duration_s: prefill_s, power_w: self.rails.total_w(clocks, &profile(u_pre)) },
            Phase {
                duration_s: decode_s / 2.0,
                power_w: self.rails.total_w(clocks, &profile(u_early)),
            },
            Phase {
                duration_s: decode_s / 2.0,
                power_w: self.rails.total_w(clocks, &profile(u_late)),
            },
        ];
        let trace = sample_timeline(&phases, edgellm_power::sampler::SAMPLE_INTERVAL_S, cfg.seed);
        let energy_j = trapezoid_energy_j(&trace);
        let median_power = median_power_w(&trace);

        let mid = perf.decode_utilization(bs, n_in + n_out / 2);
        // Internal fragmentation: the reserved-but-unused share of the
        // held blocks, with every sequence at its full length.
        let kv_fragmentation =
            1.0 - (bs * seq_total * kv_per_token) as f64 / kv.reserved_bytes() as f64;
        Ok(BatchMetrics {
            latency_s,
            throughput_tok_s: bs as f64 * seq_total as f64 / latency_s,
            peak_mem_gb: tracker.peak_gb(),
            incremental_mem_gb: tracker.incremental_peak_gb(),
            median_power_w: median_power,
            energy_j,
            prefill_s,
            decode_s,
            gpu_util: mid.gpu,
            kv_fragmentation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SequenceSpec;
    use edgellm_hw::{PowerMode, PowerModeId};
    use edgellm_models::{Llm, Precision};

    fn engine() -> Engine {
        Engine::orin_agx_64gb()
    }

    #[test]
    fn llama_default_run_matches_paper_scale() {
        let m = engine().run_batch(&RunConfig::new(Llm::Llama31_8b, Precision::Fp16)).unwrap();
        // Paper Table 4 bs=32: latency 9.96 s, TP 308 tok/s, RAM 17.12 GB.
        assert!((m.latency_s - 9.96).abs() / 9.96 < 0.25, "latency {}", m.latency_s);
        assert!((m.throughput_tok_s - 308.0).abs() / 308.0 < 0.25, "tp {}", m.throughput_tok_s);
        assert!((m.peak_mem_gb - 17.12).abs() / 17.12 < 0.15, "mem {}", m.peak_mem_gb);
        assert!(m.median_power_w > 20.0 && m.median_power_w < 60.0);
        assert!(m.energy_j > 100.0);
    }

    #[test]
    fn phi2_oom_at_long_sequences() {
        let cfg =
            RunConfig::new(Llm::Phi2, Precision::Fp16).sequence(SequenceSpec::paper_sweep(512));
        match engine().run_batch(&cfg) {
            Err(RunError::OutOfMemory { peak_gb, usable_gb }) => {
                assert!(peak_gb > usable_gb);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_models_do_not_load() {
        let cfg = RunConfig::new(Llm::MistralSmall24b, Precision::Fp32);
        assert!(matches!(engine().run_batch(&cfg), Err(RunError::ModelDoesNotLoad { .. })));
        let cfg = RunConfig::new(Llm::DeepseekQwen32b, Precision::Fp16);
        assert!(matches!(engine().run_batch(&cfg), Err(RunError::ModelDoesNotLoad { .. })));
    }

    #[test]
    fn energy_consistent_with_power_and_latency() {
        let m = engine().run_batch(&RunConfig::new(Llm::Llama31_8b, Precision::Fp16)).unwrap();
        // E ≈ P̄·t within sampling/jitter error.
        let approx = m.median_power_w * m.latency_s;
        assert!((m.energy_j - approx).abs() / approx < 0.25, "E {} vs P·t {approx}", m.energy_j);
    }

    #[test]
    fn longbench_is_slightly_faster_like_table5() {
        let wiki = engine().run_batch(&RunConfig::new(Llm::Phi2, Precision::Fp16)).unwrap();
        let lb = engine()
            .run_batch(&RunConfig::new(Llm::Phi2, Precision::Fp16).dataset(Dataset::LongBench))
            .unwrap();
        let ratio = lb.latency_s / wiki.latency_s;
        assert!((0.90..1.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn throughput_definition_holds() {
        let cfg = RunConfig::new(Llm::Phi2, Precision::Fp16).batch_size(8);
        let m = engine().run_batch(&cfg).unwrap();
        let expect = 8.0 * 96.0 / m.latency_s;
        assert!((m.throughput_tok_s - expect).abs() < 1e-9);
    }

    #[test]
    fn power_mode_h_slows_and_saves_power() {
        let maxn = engine().run_batch(&RunConfig::new(Llm::Llama31_8b, Precision::Fp16)).unwrap();
        let h = engine()
            .run_batch(
                &RunConfig::new(Llm::Llama31_8b, Precision::Fp16)
                    .power_mode(PowerMode::table2(PowerModeId::H)),
            )
            .unwrap();
        assert!(h.latency_s > 3.0 * maxn.latency_s, "H must be ≫ slower");
        assert!(h.median_power_w < 0.7 * maxn.median_power_w, "H must draw less");
        assert!(h.energy_j > maxn.energy_j, "…but use more energy (§3.4)");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let e = engine();
        assert!(matches!(
            e.run_batch(&RunConfig::new(Llm::Phi2, Precision::Fp16).batch_size(0)),
            Err(RunError::InvalidConfig(_))
        ));
        let bad_pm = RunConfig::new(Llm::Phi2, Precision::Fp16)
            .power_mode(PowerMode::custom("x", 9999, 2.2, 12, 3200));
        assert!(matches!(e.run_batch(&bad_pm), Err(RunError::InvalidPowerMode(_))));
    }

    #[test]
    fn prefill_plus_decode_equals_latency() {
        let m = engine().run_batch(&RunConfig::new(Llm::MistralSmall24b, Precision::Fp16)).unwrap();
        assert!((m.prefill_s + m.decode_s - m.latency_s).abs() < 1e-9);
        assert!(m.decode_s > m.prefill_s, "decode dominates the paper's workloads");
    }

    #[test]
    fn kv_fragmentation_is_bounded() {
        let m = engine().run_batch(&RunConfig::new(Llm::Llama31_8b, Precision::Fp16)).unwrap();
        // ≤ one partly-used block per sequence.
        assert!((0.0..0.5).contains(&m.kv_fragmentation));
    }

    #[test]
    fn seed_changes_only_jitter() {
        let a = engine().run_batch(&RunConfig::new(Llm::Phi2, Precision::Fp16).seed(1)).unwrap();
        let b = engine().run_batch(&RunConfig::new(Llm::Phi2, Precision::Fp16).seed(2)).unwrap();
        assert_eq!(a.latency_s, b.latency_s);
        assert_eq!(a.peak_mem_gb, b.peak_mem_gb);
        assert_ne!(a.energy_j, b.energy_j); // jitter differs
    }
}
