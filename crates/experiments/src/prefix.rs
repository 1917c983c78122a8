//! `ext-prefix`: paged KV cache with radix-tree prefix sharing — TTFT
//! and J/token versus the shared-system-prompt ratio.
//!
//! Agent and chat deployments prepend one system prompt to most
//! requests; a radix prefix cache serves those tokens from blocks
//! already resident in the KV pool, skipping their prefill compute and
//! energy entirely. This driver sweeps the fraction of the trace that
//! carries a shared system prompt and measures how mean TTFT and serving
//! energy per token fall as the cache hit rate rises, against the same
//! schedule served with the cache off.

use crate::report::{Check, ExperimentResult, Table};
use edgellm_core::serve::{record_serve_run, ServeConfig};
use edgellm_core::{Request, RunConfig, ServeSim};
use edgellm_hw::DeviceSpec;
use edgellm_models::{Llm, Precision};
use std::collections::HashMap;

/// Requests per sweep point.
const N_REQS: usize = 40;
/// Total prompt length of every request (tokens).
const PROMPT_TOKENS: u64 = 256;
/// Shared system prompt length (tokens) — the cacheable prefix.
const SYSTEM_TOKENS: u64 = 192;
/// Output length per request (tokens).
const OUTPUT_TOKENS: u64 = 32;
/// Arrival gap (s): just under the cold per-request service time, so
/// the device stays busy. Skipped prefill then shortens the busy
/// makespan directly — visible in J/token, not just TTFT — and queueing
/// amplifies the TTFT benefit the way a loaded deployment would see it.
const GAP_S: f64 = 1.0;
/// Shared-system-prompt ratios swept (percent of the trace).
const RATIOS: [u32; 5] = [0, 25, 50, 75, 100];

/// One sweep point's scorecard.
struct PrefixRun {
    mean_ttft_s: f64,
    p99_ttft_s: f64,
    energy_j: f64,
    energy_per_token_j: f64,
    hit_rate: f64,
    completed: usize,
}

/// Whether request `i` carries the shared system prompt at ratio `pct`
/// (interleaved, so sharing is spread across the trace rather than
/// front-loaded): exactly `pct`% of every four consecutive requests.
fn shares(i: usize, pct: u32) -> bool {
    ((i % 4) as u32) < pct / 25
}

fn requests() -> Vec<Request> {
    (0..N_REQS as u64)
        .map(|id| Request {
            id,
            arrival_s: id as f64 * GAP_S,
            input_tokens: PROMPT_TOKENS,
            output_tokens: OUTPUT_TOKENS,
        })
        .collect()
}

/// Serve the trace at one sweep point. `cached` toggles the radix
/// prefix cache; `export` additionally renders the run onto the process
/// trace sink (cache-occupancy counter track included).
fn serve(pct: u32, cached: bool, export: bool) -> PrefixRun {
    let dev = DeviceSpec::orin_agx_64gb();
    let run_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    let mut cfg = ServeConfig::chunked(16);
    if cached {
        cfg = cfg.with_prefix_cache();
    }
    let system: Vec<u32> = (0..SYSTEM_TOKENS as u32).map(|i| 500_000 + i).collect();
    let reqs = requests();
    let prompts: HashMap<u64, Vec<u32>> = reqs
        .iter()
        .filter(|r| shares(r.id as usize, pct))
        .map(|r| (r.id, system.clone()))
        .collect();
    let mut sim = ServeSim::new_with_prompts(cfg, &dev, &run_cfg, &reqs, &prompts)
        .expect("Llama FP16 fits the 64 GB AGX");
    while let Some(t) = sim.next_event_s() {
        sim.step(t).expect("stock mode validates");
    }
    if export {
        edgellm_trace::sink::with(|out| {
            let pid = out.next_pid();
            let label = format!("prefix-{pct}pct");
            record_serve_run(out, pid, &label, sim.trace(), &sim.preemption_events());
        });
    }
    let r = sim.report();
    let audit = sim.audit();
    PrefixRun {
        mean_ttft_s: r.mean_ttft_s,
        p99_ttft_s: r.p99_ttft_s,
        energy_j: r.energy_j,
        energy_per_token_j: r.energy_j / sim.served_output_tokens().max(1) as f64,
        hit_rate: audit.kv_cache_hit_tokens as f64 / (N_REQS as u64 * PROMPT_TOKENS) as f64,
        completed: r.requests,
    }
}

/// Run the prefix-sharing extension experiment.
pub fn run() -> ExperimentResult {
    let mut t = Table::new(vec![
        "shared %",
        "cache",
        "hit rate",
        "mean TTFT s",
        "p99 TTFT s",
        "energy J",
        "J/tok",
    ]);
    let mut csv = Table::new(vec![
        "shared_pct",
        "cached",
        "hit_rate",
        "mean_ttft_s",
        "p99_ttft_s",
        "energy_j",
        "energy_per_token_j",
    ]);
    let mut checks = Vec::new();

    // The no-cache baseline ignores prompts entirely, so one run covers
    // every ratio.
    let base = serve(50, false, false);
    let warm: Vec<(u32, PrefixRun)> = RATIOS
        .iter()
        .map(|&pct| (pct, serve(pct, true, edgellm_trace::sink::enabled() && pct == 50)))
        .collect();
    let mut render = |pct: u32, label: &str, r: &PrefixRun| {
        t.row(vec![
            pct.to_string(),
            label.to_string(),
            format!("{:.0}%", r.hit_rate * 100.0),
            format!("{:.3}", r.mean_ttft_s),
            format!("{:.3}", r.p99_ttft_s),
            format!("{:.0}", r.energy_j),
            format!("{:.3}", r.energy_per_token_j),
        ]);
        csv.row(vec![
            pct.to_string(),
            label.to_string(),
            format!("{:.4}", r.hit_rate),
            format!("{:.4}", r.mean_ttft_s),
            format!("{:.4}", r.p99_ttft_s),
            format!("{:.1}", r.energy_j),
            format!("{:.4}", r.energy_per_token_j),
        ]);
    };
    render(50, "off", &base);
    for (pct, r) in &warm {
        render(*pct, "on", r);
    }

    checks.push(Check::new(
        "every configuration completes the whole trace",
        base.completed == N_REQS && warm.iter().all(|(_, r)| r.completed == N_REQS),
        format!("{} requests × {} sweep points", N_REQS, warm.len() + 1),
    ));
    checks.push(Check::new(
        "cache hit rate rises monotonically with the shared-prompt ratio",
        warm.windows(2).all(|w| w[1].1.hit_rate >= w[0].1.hit_rate)
            && warm.last().map(|(_, r)| r.hit_rate > 0.5).unwrap_or(false),
        warm.iter()
            .map(|(p, r)| format!("{p}%→{:.0}%", r.hit_rate * 100.0))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    checks.push(Check::new(
        "mean TTFT drops monotonically as the hit rate rises",
        warm.windows(2).all(|w| w[1].1.mean_ttft_s <= w[0].1.mean_ttft_s + 1e-9),
        warm.iter().map(|(_, r)| format!("{:.3}s", r.mean_ttft_s)).collect::<Vec<_>>().join(" ≥ "),
    ));
    checks.push(Check::new(
        "J/token drops monotonically as the hit rate rises",
        warm.windows(2).all(|w| w[1].1.energy_per_token_j <= w[0].1.energy_per_token_j + 1e-9),
        warm.iter()
            .map(|(_, r)| format!("{:.3}", r.energy_per_token_j))
            .collect::<Vec<_>>()
            .join(" ≥ "),
    ));
    let p50 = &warm.iter().find(|(p, _)| *p == 50).expect("50% point swept").1;
    let ttft_cut = 1.0 - p50.mean_ttft_s / base.mean_ttft_s;
    checks.push(Check::new(
        "50% shared-prompt ratio cuts mean TTFT ≥30% vs the no-cache baseline",
        ttft_cut >= 0.30,
        format!("{:.3}s → {:.3}s (−{:.0}%)", base.mean_ttft_s, p50.mean_ttft_s, ttft_cut * 100.0),
    ));
    checks.push(Check::new(
        "50% shared-prompt ratio serves measurably cheaper J/token than no-cache",
        p50.energy_per_token_j < base.energy_per_token_j * 0.995,
        format!("{:.3} vs {:.3} J/tok", p50.energy_per_token_j, base.energy_per_token_j),
    ));
    checks.push(Check::new(
        "a 0% shared ratio with the cache on costs nothing vs cache-off",
        (warm[0].1.mean_ttft_s - base.mean_ttft_s).abs() < 1e-9
            && (warm[0].1.energy_j - base.energy_j).abs() < 1e-6,
        format!("{:.3}s vs {:.3}s TTFT", warm[0].1.mean_ttft_s, base.mean_ttft_s),
    ));

    ExperimentResult {
        id: "ext-prefix",
        title: "Extension — paged KV + radix prefix sharing: TTFT and J/token vs shared-prompt \
                ratio"
            .to_string(),
        tables: vec![t.render()],
        checks,
        csv: vec![("prefix_sharing".to_string(), csv.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_experiment_passes() {
        let r = run();
        assert!(r.all_pass(), "{}", r.render());
    }

    #[test]
    fn share_selection_is_exact_per_window() {
        for pct in RATIOS {
            let selected = (0..N_REQS).filter(|&i| shares(i, pct)).count();
            assert_eq!(selected, N_REQS * pct as usize / 100, "ratio {pct}%");
        }
    }
}
