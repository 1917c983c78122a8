//! Iteration-level ("continuous") batching — the serving-engine
//! optimization the paper's conclusion points to ("dedicated inference
//! engines"), simulated over the same calibrated performance model so the
//! head-room over the measured static-batching regime is quantified.
//!
//! New requests join the running batch at decode-iteration boundaries
//! (Orca-style); finished sequences leave immediately, so the GPU never
//! idles waiting for the longest sequence in a batch.
//!
//! The simulation itself lives in [`crate::serve`]: [`ContinuousBatcher::run`]
//! runs a [`ServeSim`] with the blocking-prefill policy (the legacy regime
//! this type always modelled) and keeps only its report;
//! [`ContinuousBatcher::run_static`] models the measured static-batching
//! regime it is compared against. Use [`ServeSim`] directly for chunked
//! prefill, KV-pressure preemption knobs and the per-iteration trace.

use crate::arrivals::Request;
use crate::config::RunConfig;
use crate::error::RunError;
use crate::metrics::quantile;
use crate::serve::{ServeConfig, ServeSim};
use edgellm_hw::DeviceSpec;
use edgellm_perf::PerfModel;
use edgellm_power::{LoadProfile, RailModel};

/// Outcome of a serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuousReport {
    /// Wall time until the last request completes (s).
    pub makespan_s: f64,
    /// Mean request completion latency, arrival → last token (s).
    pub mean_latency_s: f64,
    /// 95th-percentile request latency (s), nearest-rank.
    pub p95_latency_s: f64,
    /// Output tokens per second over the makespan.
    pub output_tok_s: f64,
    /// Mean number of live sequences per decode iteration.
    pub mean_occupancy: f64,
    /// Requests served.
    pub requests: usize,
    /// Energy integrated over every iteration and idle gap (J).
    pub energy_j: f64,
    /// Sequences preempted (KV blocks freed, re-queued with recompute).
    pub preemptions: usize,
    /// Mean time to first token, arrival → prefill completion (s).
    pub mean_ttft_s: f64,
    /// Median TTFT (s), nearest-rank.
    pub p50_ttft_s: f64,
    /// 99th-percentile TTFT (s), nearest-rank.
    pub p99_ttft_s: f64,
    /// Decode time lost to prompt processing: full solo prefills under
    /// the blocking policy, chunk compute-excess under chunked prefill (s).
    pub prefill_stall_s: f64,
}

/// An iteration-level batching simulator.
#[derive(Debug, Clone)]
pub struct ContinuousBatcher {
    /// Maximum concurrent sequences (memory-capped internally too).
    pub max_batch: usize,
}

impl ContinuousBatcher {
    /// A batcher with the given concurrency cap.
    pub fn new(max_batch: usize) -> Self {
        ContinuousBatcher { max_batch }
    }

    /// Drive all `requests` to completion on the device in `cfg`
    /// (its batch/sequence fields are ignored; shapes come from the
    /// requests).
    ///
    /// A [`ServeSim`] run with [`ServeConfig::blocking`]: admissions pay a
    /// solo prefill that stalls the live batch, the historical behaviour
    /// of this type.
    pub fn run(
        &self,
        device: &DeviceSpec,
        cfg: &RunConfig,
        requests: &[Request],
    ) -> Result<ContinuousReport, RunError> {
        ServeSim::new(ServeConfig::blocking(self.max_batch), device, cfg, requests)
            .and_then(ServeSim::run)
            .map(|r| r.report)
    }

    /// The measured regime for comparison: static batches of `max_batch`
    /// formed in arrival order — a batch launches when full (or when no
    /// requests remain) and runs to the completion of its longest member.
    pub fn run_static(
        &self,
        device: &DeviceSpec,
        cfg: &RunConfig,
        requests: &[Request],
    ) -> Result<ContinuousReport, RunError> {
        if requests.is_empty() {
            return Err(RunError::InvalidConfig("no requests".into()));
        }
        cfg.power_mode.validate(device)?;
        let perf = PerfModel::new(device.clone(), cfg.llm, cfg.precision, cfg.power_mode.clocks);
        let rails = RailModel::orin_agx(device.clone());
        let maxn = PerfModel::new(device.clone(), cfg.llm, cfg.precision, device.max_clocks());
        let bw_ratio = perf.effective_bandwidth() / maxn.effective_bandwidth();
        let clocks = &cfg.power_mode.clocks;
        let profile = |u: edgellm_perf::Utilization| LoadProfile {
            gpu_util: u.gpu,
            cpu_util: u.cpu,
            bw_util: u.mem_bw,
            bw_ratio,
        };
        let idle_power = rails.total_w(clocks, &LoadProfile::idle());
        let mut queue: Vec<Request> = requests.to_vec();
        queue.sort_by(|a, b| {
            a.arrival_s.partial_cmp(&b.arrival_s).expect("finite").then(a.id.cmp(&b.id))
        });
        let mut t = 0.0f64;
        let mut latencies = Vec::with_capacity(queue.len());
        let mut ttfts = Vec::with_capacity(queue.len());
        let mut out_tokens = 0u64;
        let mut energy_j = 0.0f64;
        let mut prefill_stall_s = 0.0f64;
        for chunk in queue.chunks(self.max_batch.max(1)) {
            let ready = chunk.last().expect("non-empty chunk").arrival_s;
            let start = t.max(ready);
            if start > t {
                energy_j += idle_power * (start - t);
            }
            let bs = chunk.len() as u64;
            let n_in = chunk.iter().map(|r| r.input_tokens).max().expect("non-empty");
            let n_out = chunk.iter().map(|r| r.output_tokens).max().expect("non-empty");
            let prefill_s = perf.prefill_time(bs, n_in.max(1));
            let lat = perf.latency_s(bs, n_in, n_out);
            let decode_s = (lat - prefill_s).max(0.0);
            prefill_stall_s += prefill_s;
            energy_j += rails.total_w(clocks, &profile(perf.prefill_utilization(bs, n_in.max(1))))
                * prefill_s;
            energy_j += rails
                .total_w(clocks, &profile(perf.decode_utilization(bs, n_in + n_out / 2)))
                * decode_s;
            t = start + lat;
            for r in chunk {
                latencies.push(t - r.arrival_s);
                // First token lands when the batch's shared prefill ends.
                ttfts.push(start + prefill_s - r.arrival_s);
                out_tokens += r.output_tokens;
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ok(ContinuousReport {
            makespan_s: t,
            mean_latency_s: latencies.iter().sum::<f64>() / latencies.len() as f64,
            p95_latency_s: quantile(&latencies, 0.95),
            output_tok_s: out_tokens as f64 / t,
            mean_occupancy: self.max_batch as f64,
            requests: latencies.len(),
            energy_j,
            preemptions: 0,
            mean_ttft_s: ttfts.iter().sum::<f64>() / ttfts.len() as f64,
            p50_ttft_s: quantile(&ttfts, 0.50),
            p99_ttft_s: quantile(&ttfts, 0.99),
            prefill_stall_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::PoissonArrivals;
    use edgellm_models::{Llm, Precision};

    fn setup() -> (DeviceSpec, RunConfig) {
        (DeviceSpec::orin_agx_64gb(), RunConfig::new(Llm::Llama31_8b, Precision::Fp16))
    }

    #[test]
    fn all_requests_complete() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(40, 1);
        let r = ContinuousBatcher::new(16).run(&dev, &cfg, &reqs).unwrap();
        assert_eq!(r.requests, 40);
        assert!(r.makespan_s >= reqs.last().unwrap().arrival_s);
        assert!(r.mean_occupancy >= 1.0 && r.mean_occupancy <= 16.0);
        assert!(r.p95_latency_s >= r.mean_latency_s * 0.8);
        assert!(r.energy_j > 0.0);
        assert!(r.mean_ttft_s > 0.0 && r.mean_ttft_s <= r.mean_latency_s);
        assert!(r.p50_ttft_s <= r.p99_ttft_s);
        assert!(r.prefill_stall_s > 0.0, "blocking prefill must stall");
    }

    #[test]
    fn run_is_a_wrapper_over_the_blocking_scheduler() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.5).generate(25, 8);
        let wrapped = ContinuousBatcher::new(16).run(&dev, &cfg, &reqs).unwrap();
        let direct =
            ServeSim::new(ServeConfig::blocking(16), &dev, &cfg, &reqs).unwrap().run().unwrap();
        assert_eq!(wrapped, direct.report);
    }

    #[test]
    fn continuous_beats_static_on_mean_latency() {
        // At moderate load, joining mid-flight avoids waiting for batch
        // formation and for the batch's longest member.
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.5).generate(60, 2);
        let cont = ContinuousBatcher::new(16).run(&dev, &cfg, &reqs).unwrap();
        let stat = ContinuousBatcher::new(16).run_static(&dev, &cfg, &reqs).unwrap();
        assert!(
            cont.mean_latency_s < stat.mean_latency_s,
            "continuous {:.1}s vs static {:.1}s",
            cont.mean_latency_s,
            stat.mean_latency_s
        );
    }

    #[test]
    fn higher_load_raises_latency() {
        let (dev, cfg) = setup();
        let lo = ContinuousBatcher::new(16)
            .run(&dev, &cfg, &PoissonArrivals::paper_shape(0.2).generate(30, 3))
            .unwrap();
        let hi = ContinuousBatcher::new(16)
            .run(&dev, &cfg, &PoissonArrivals::paper_shape(4.0).generate(30, 3))
            .unwrap();
        assert!(hi.mean_latency_s > lo.mean_latency_s);
        assert!(hi.mean_occupancy > lo.mean_occupancy);
    }

    #[test]
    fn memory_caps_concurrency() {
        // Phi-2 with long outputs: the memory model must clamp the batch
        // below the requested 128 (quadratic activations).
        let (dev, _) = setup();
        let cfg = RunConfig::new(Llm::Phi2, Precision::Fp16);
        let mut arr = PoissonArrivals::paper_shape(50.0);
        arr.input_tokens = 64;
        arr.output_tokens = 192;
        arr.shape_jitter = 0.0;
        let reqs = arr.generate(200, 4);
        let r = ContinuousBatcher::new(128).run(&dev, &cfg, &reqs).unwrap();
        assert!(r.mean_occupancy < 128.0, "occupancy {}", r.mean_occupancy);
        assert_eq!(r.requests, 200);
    }

    #[test]
    fn static_energy_and_ttft_populated() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(32, 6);
        let r = ContinuousBatcher::new(16).run_static(&dev, &cfg, &reqs).unwrap();
        assert!(r.energy_j > 0.0);
        assert_eq!(r.preemptions, 0);
        assert!(r.mean_ttft_s > 0.0 && r.mean_ttft_s < r.mean_latency_s);
        assert!(r.prefill_stall_s > 0.0);
    }

    #[test]
    fn unloadable_model_fails_fast() {
        let (dev, _) = setup();
        let cfg = RunConfig::new(Llm::DeepseekQwen32b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(1.0).generate(5, 5);
        assert!(matches!(
            ContinuousBatcher::new(8).run(&dev, &cfg, &reqs),
            Err(RunError::ModelDoesNotLoad { .. })
        ));
    }

    #[test]
    fn empty_queue_is_invalid() {
        let (dev, cfg) = setup();
        assert!(matches!(
            ContinuousBatcher::new(8).run(&dev, &cfg, &[]),
            Err(RunError::InvalidConfig(_))
        ));
    }
}
