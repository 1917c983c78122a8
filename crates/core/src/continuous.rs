//! Iteration-level ("continuous") batching — the serving-engine
//! optimization the paper's conclusion points to ("dedicated inference
//! engines"), simulated over the same calibrated performance model so the
//! head-room over the measured static-batching regime is quantified.
//!
//! New requests join the running batch at decode-iteration boundaries
//! (Orca-style); finished sequences leave immediately, so the GPU never
//! idles waiting for the longest sequence in a batch.
//!
//! The simulation lives in [`crate::serve`]: [`ServeSim`](crate::ServeSim)
//! runs it (with [`ServeConfig::blocking`](crate::ServeConfig::blocking),
//! admissions pay a solo prefill that stalls the live batch), and
//! [`serve::run_static`](crate::serve::run_static) models the measured
//! static-batching regime it is compared against. Both report a
//! [`ContinuousReport`].

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{PoissonArrivals, Request};
    use crate::serve::{run_static, ServeConfig, ServeSim};
    use crate::{RunConfig, RunError};
    use edgellm_hw::DeviceSpec;
    use edgellm_models::{Llm, Precision};

    fn setup() -> (DeviceSpec, RunConfig) {
        (DeviceSpec::orin_agx_64gb(), RunConfig::new(Llm::Llama31_8b, Precision::Fp16))
    }

    /// The report of a blocking-prefill [`ServeSim`] run.
    fn blocking(
        max_batch: usize,
        cfg: &RunConfig,
        reqs: &[Request],
    ) -> Result<ContinuousReport, RunError> {
        let dev = DeviceSpec::orin_agx_64gb();
        ServeSim::new(ServeConfig::blocking(max_batch), &dev, cfg, reqs)
            .and_then(ServeSim::run)
            .map(|r| r.report)
    }

    #[test]
    fn all_requests_complete() {
        let (_, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(40, 1);
        let r = blocking(16, &cfg, &reqs).unwrap();
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
    fn continuous_beats_static_on_mean_latency() {
        // At moderate load, joining mid-flight avoids waiting for batch
        // formation and for the batch's longest member.
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.5).generate(60, 2);
        let cont = blocking(16, &cfg, &reqs).unwrap();
        let stat = run_static(16, &dev, &cfg, &reqs).unwrap();
        assert!(
            cont.mean_latency_s < stat.mean_latency_s,
            "continuous {:.1}s vs static {:.1}s",
            cont.mean_latency_s,
            stat.mean_latency_s
        );
    }

    #[test]
    fn higher_load_raises_latency() {
        let (_, cfg) = setup();
        let lo = blocking(16, &cfg, &PoissonArrivals::paper_shape(0.2).generate(30, 3)).unwrap();
        let hi = blocking(16, &cfg, &PoissonArrivals::paper_shape(4.0).generate(30, 3)).unwrap();
        assert!(hi.mean_latency_s > lo.mean_latency_s);
        assert!(hi.mean_occupancy > lo.mean_occupancy);
    }

    #[test]
    fn memory_caps_concurrency() {
        // Phi-2 with long outputs: the memory model must clamp the batch
        // below the requested 128 (quadratic activations).
        let cfg = RunConfig::new(Llm::Phi2, Precision::Fp16);
        let mut arr = PoissonArrivals::paper_shape(50.0);
        arr.input_tokens = 64;
        arr.output_tokens = 192;
        arr.shape_jitter = 0.0;
        let reqs = arr.generate(200, 4);
        let r = blocking(128, &cfg, &reqs).unwrap();
        assert!(r.mean_occupancy < 128.0, "occupancy {}", r.mean_occupancy);
        assert_eq!(r.requests, 200);
    }

    #[test]
    fn static_energy_and_ttft_populated() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(32, 6);
        let r = run_static(16, &dev, &cfg, &reqs).unwrap();
        assert!(r.energy_j > 0.0);
        assert_eq!(r.preemptions, 0);
        assert!(r.mean_ttft_s > 0.0 && r.mean_ttft_s < r.mean_latency_s);
        assert!(r.prefill_stall_s > 0.0);
    }

    #[test]
    fn unloadable_model_fails_fast() {
        let cfg = RunConfig::new(Llm::DeepseekQwen32b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(1.0).generate(5, 5);
        assert!(matches!(blocking(8, &cfg, &reqs), Err(RunError::ModelDoesNotLoad { .. })));
    }

    #[test]
    fn empty_queue_is_invalid() {
        let (dev, cfg) = setup();
        assert!(matches!(blocking(8, &cfg, &[]), Err(RunError::InvalidConfig(_))));
        assert!(matches!(run_static(8, &dev, &cfg, &[]), Err(RunError::InvalidConfig(_))));
    }
}
