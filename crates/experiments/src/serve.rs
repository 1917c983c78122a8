//! `serve`: static vs blocking-prefill vs chunked-prefill serving on the
//! paper's four models — the iteration-level scheduler extension.
//!
//! The paper measures the static HF-generate regime; its conclusion
//! points at "dedicated inference engines" as the head-room. This driver
//! quantifies that head-room one scheduler feature at a time: iteration-
//! level batching with blocking prefills, then chunked prefill fused into
//! the decode batch, under the same Poisson arrivals.

use crate::batch_sweep::serving_precision;
use crate::report::{Check, ExperimentResult, Table};
use edgellm_core::serve::{run_static, ServeConfig, ServeSim};
use edgellm_core::{ContinuousReport, PoissonArrivals, RunConfig};
use edgellm_hw::DeviceSpec;
use edgellm_models::Llm;

/// Arrival rate exercising queue pressure (req/s) — the acceptance load.
const RATE: f64 = 1.5;
/// Requests per policy per model — enough for real queueing at `RATE`.
const N_REQS: usize = 60;
/// Arrival seed.
const SEED: u64 = 2;

/// Run the serving-policy comparison.
pub fn run() -> ExperimentResult {
    let dev = DeviceSpec::orin_agx_64gb();
    let mut t = Table::new(vec![
        "model",
        "policy",
        "mean lat s",
        "p95 lat s",
        "mean TTFT s",
        "p99 TTFT s",
        "stall s",
        "energy J",
        "preempt",
    ]);
    let mut csv = Table::new(vec![
        "model",
        "policy",
        "mean_lat_s",
        "p95_lat_s",
        "mean_ttft_s",
        "p50_ttft_s",
        "p99_ttft_s",
        "stall_s",
        "energy_j",
        "preemptions",
    ]);
    let mut checks = Vec::new();
    let mut llama: Option<(ContinuousReport, ContinuousReport)> = None;
    for llm in Llm::ALL {
        let cfg = RunConfig::new(llm, serving_precision(llm));
        let reqs = PoissonArrivals::paper_shape(RATE).generate(N_REQS, SEED);
        let stat = run_static(16, &dev, &cfg, &reqs).expect("fits");
        let run = |serve| ServeSim::new(serve, &dev, &cfg, &reqs).and_then(ServeSim::run);
        let block = run(ServeConfig::blocking(16)).expect("fits").report;
        let chunked = run(ServeConfig::chunked(16)).expect("fits").report;
        for (policy, r) in [("static", &stat), ("blocking", &block), ("chunked", &chunked)] {
            t.row(vec![
                llm.short_name().to_string(),
                policy.to_string(),
                format!("{:.1}", r.mean_latency_s),
                format!("{:.1}", r.p95_latency_s),
                format!("{:.2}", r.mean_ttft_s),
                format!("{:.2}", r.p99_ttft_s),
                format!("{:.2}", r.prefill_stall_s),
                format!("{:.0}", r.energy_j),
                r.preemptions.to_string(),
            ]);
            csv.row(vec![
                llm.short_name().to_string(),
                policy.to_string(),
                format!("{:.3}", r.mean_latency_s),
                format!("{:.3}", r.p95_latency_s),
                format!("{:.4}", r.mean_ttft_s),
                format!("{:.4}", r.p50_ttft_s),
                format!("{:.4}", r.p99_ttft_s),
                format!("{:.4}", r.prefill_stall_s),
                format!("{:.1}", r.energy_j),
                r.preemptions.to_string(),
            ]);
        }
        checks.push(Check::new(
            format!("{}: every request completes under all three policies", llm.short_name()),
            stat.requests == N_REQS && block.requests == N_REQS && chunked.requests == N_REQS,
            format!("{}/{}/{}", stat.requests, block.requests, chunked.requests),
        ));
        checks.push(Check::new(
            format!("{}: chunked prefill stalls decode less than blocking", llm.short_name()),
            chunked.prefill_stall_s < block.prefill_stall_s,
            format!("{:.2}s vs {:.2}s", chunked.prefill_stall_s, block.prefill_stall_s),
        ));
        if llm == Llm::Llama31_8b {
            llama = Some((block, chunked));
        }
    }
    let (block, chunked) = llama.expect("Llama ran");
    checks.push(Check::new(
        format!("Llama FP16 at {RATE} req/s: chunked prefill cuts mean TTFT vs blocking"),
        chunked.mean_ttft_s < block.mean_ttft_s,
        format!("{:.3}s vs {:.3}s", chunked.mean_ttft_s, block.mean_ttft_s),
    ));
    checks.push(Check::new(
        "iteration-level energy accounting is live (positive, finite)".to_string(),
        block.energy_j > 0.0 && chunked.energy_j > 0.0 && chunked.energy_j.is_finite(),
        format!("{:.0} J / {:.0} J", block.energy_j, chunked.energy_j),
    ));
    ExperimentResult {
        id: "ext-chunked",
        title: "Extension — event-driven scheduler: static vs blocking vs chunked prefill"
            .to_string(),
        tables: vec![t.render()],
        checks,
        csv: vec![("serve_policies".to_string(), csv.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_experiment_passes() {
        let r = run();
        assert!(r.all_pass(), "{}", r.render());
    }
}
