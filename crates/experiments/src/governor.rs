//! `ext-governor`: online SLO-aware power-mode governance — closing the
//! loop the paper leaves open. The paper characterizes the nine static
//! Table 2 power modes offline; `ext-pmsearch` picks the best *fixed*
//! mode for a known workload. This driver asks the deployment question
//! one step further: when the workload is bursty and unknown in advance,
//! can an online governor that retunes the mode at iteration boundaries
//! beat every static choice?
//!
//! Three arrival patterns (steady Poisson, bursty, adversarial
//! everything-at-once) are each served on the Orin AGX under every
//! static stock mode and under three online policies from
//! `edgellm-governor`: the hysteretic SLO ladder, the energy-budget
//! enforcer, and the thermal-headroom governor. A separate sustained
//! scenario pits the thermal governor against static MAXN inside a
//! fanless enclosure where MAXN would trip the thermal guard.
//!
//! The headline acceptance check: on the bursty pattern the hysteretic
//! ladder spends *less energy* than the best static mode (highest SLO
//! attainment, ties broken on energy) at equal-or-better attainment —
//! because it sprints through bursts on the high rungs and idles the
//! gaps on the low ones, which no fixed mode can do.

use crate::report::{Check, ExperimentResult, Table};
use crate::runner::GovernorChoice;
use edgellm_core::serve::{Completion, ServeConfig, ServeSim};
use edgellm_core::{IterationTrace, PoissonArrivals, Request, RunConfig};
use edgellm_governor::{
    verify_budget, EnergyBudget, Governor, GovernorAudit, GovernorPolicy, HystereticLadder,
    ModeLadder, SloSpec, ThermalHeadroom,
};
use edgellm_hw::DeviceSpec;
use edgellm_models::{Llm, Precision};
use edgellm_power::ThermalModel;

/// Model and precision served throughout (the paper's headline pair).
const LLM: Llm = Llm::Llama31_8b;
const PRECISION: Precision = Precision::Fp16;

/// Latency targets the ladder policy defends and every run is scored
/// against: tight enough that the low rungs miss them under load.
const SLO: SloSpec = SloSpec { ttft_s: 8.0, tbt_s: 0.5 };

/// Budget policy: sustained cap as a multiple of the floor rung's peak
/// power (device-relative, so the floor always stays feasible).
const BUDGET_CAP_FACTOR: f64 = 1.5;

/// Thermal scenario: headroom the governor defends below the trip limit
/// (°C), and the fanless enclosure it runs in. The small thermal mass
/// (short `tau_s`) makes the trip dynamics visible within one serving
/// run rather than one afternoon.
const THERMAL_MARGIN_C: f64 = 6.0;
fn fanless_enclosure() -> ThermalModel {
    ThermalModel { r_c_per_w: 2.1, tau_s: 60.0, t_ambient_c: 30.0, t_limit_c: 95.0 }
}

/// One served configuration's scorecard.
struct GovRun {
    policy: String,
    completed: usize,
    energy_j: f64,
    energy_per_token_j: f64,
    attainment: f64,
    makespan_s: f64,
    decisions: usize,
    /// Peak junction temperature a fleet `ThermalGuard` integrating the
    /// run's trace would have seen (°C), under [`fanless_enclosure`].
    peak_c: f64,
    audit: Option<GovernorAudit>,
    trace: Vec<IterationTrace>,
}

/// The three arrival patterns of the policy comparison.
fn workloads() -> Vec<(&'static str, Vec<Request>)> {
    let steady = PoissonArrivals::paper_shape(0.6).generate(24, 11);
    // Three bursts of five identical requests with long idle gaps — the
    // shape a static mode cannot serve efficiently: it either idles the
    // gaps at a hot mode's floor power or crawls through the bursts.
    let mut bursty = Vec::new();
    for (b, t0) in [0.0, 45.0, 90.0].into_iter().enumerate() {
        for i in 0..5u64 {
            bursty.push(Request {
                id: (b as u64) * 5 + i,
                arrival_s: t0,
                input_tokens: 64,
                output_tokens: 48,
            });
        }
    }
    let adversarial = (0..12u64)
        .map(|i| Request { id: i, arrival_s: 0.0, input_tokens: 64, output_tokens: 48 })
        .collect();
    vec![("steady", steady), ("bursty", bursty), ("adversarial", adversarial)]
}

/// Fraction of completions meeting both SLO targets.
fn attainment(completions: &[Completion]) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let ok = completions
        .iter()
        .filter(|c| {
            let tbt = if c.output_tokens > 1 {
                (c.latency_s - c.ttft_s) / (c.output_tokens - 1) as f64
            } else {
                0.0
            };
            c.ttft_s <= SLO.ttft_s && tbt <= SLO.tbt_s
        })
        .count();
    ok as f64 / completions.len() as f64
}

/// Integrate the fleet `ThermalGuard`'s RC junction model over a trace
/// and return the peak temperature — "would this run have tripped?".
fn guard_peak_c(model: &ThermalModel, trace: &[IterationTrace]) -> f64 {
    let mut temp = model.t_ambient_c;
    let mut peak = temp;
    for it in trace {
        temp += (it.power_w * model.r_c_per_w - (temp - model.t_ambient_c)) / model.tau_s * it.dt_s;
        peak = peak.max(temp);
    }
    peak
}

/// Serve `reqs` on the AGX starting in `initial` (a ladder rung index),
/// optionally governed. Returns the scorecard and, for governed runs,
/// the live simulation + governor pair for trace export.
fn serve(
    ladder: &ModeLadder,
    initial: usize,
    policy: Option<Box<dyn GovernorPolicy>>,
    label: &str,
    reqs: &[Request],
) -> (GovRun, Option<(ServeSim, Governor)>) {
    let dev = DeviceSpec::orin_agx_64gb();
    let mode = ladder.rung(initial).mode.clone();
    let run_cfg = RunConfig::new(LLM, PRECISION).power_mode(mode.clone());
    let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &run_cfg, reqs)
        .expect("Llama FP16 fits the 64 GB AGX");
    let mut gov = policy.map(|p| Governor::new(p, &dev, LLM, PRECISION, &mode));
    while let Some(t) = sim.next_event_s() {
        match &mut gov {
            Some(g) => sim.step_governed(t, g),
            None => sim.step(t),
        }
        .expect("stock modes validate on their own device");
    }
    // These sims stay live for trace export instead of being consumed by
    // `ServeSim::run`, so mirror its forensics hook here: every served
    // configuration contributes a run document when collection is on.
    if edgellm_trace::forensics::sink::enabled() {
        edgellm_trace::forensics::sink::record(edgellm_trace::forensics::reconstruct(
            &sim.forensics(),
        ));
    }
    let r = sim.report();
    let run = GovRun {
        policy: label.to_string(),
        completed: r.requests,
        energy_j: r.energy_j,
        energy_per_token_j: r.energy_j / sim.served_output_tokens().max(1) as f64,
        attainment: attainment(sim.completions()),
        makespan_s: r.makespan_s,
        decisions: gov.as_ref().map(|g| g.decisions().len()).unwrap_or(0),
        peak_c: guard_peak_c(&fanless_enclosure(), sim.trace()),
        audit: gov.as_ref().map(|g| g.audit()),
        trace: sim.trace().to_vec(),
    };
    (run, gov.map(|g| (sim, g)))
}

/// The online policy menu; every governed run starts on the floor rung.
fn policies(ladder: &ModeLadder) -> Vec<(&'static str, Box<dyn GovernorPolicy>)> {
    let cap_w = ladder.rung(0).cost.peak_power_w * BUDGET_CAP_FACTOR;
    vec![
        ("ladder", Box::new(HystereticLadder::new(SLO)) as Box<dyn GovernorPolicy>),
        ("budget", Box::new(EnergyBudget::new(cap_w))),
        ("thermal", Box::new(ThermalHeadroom::new(fanless_enclosure(), THERMAL_MARGIN_C))),
    ]
}

/// Run the extension experiment. `opts.governor` picks which governed
/// bursty run is exported to the process trace sink (`--trace-out`).
pub fn run(opts: crate::runner::ExperimentOpts) -> ExperimentResult {
    let dev = DeviceSpec::orin_agx_64gb();
    let ladder = ModeLadder::stock(&dev, LLM, PRECISION);
    let mut t = Table::new(vec![
        "workload",
        "policy",
        "done",
        "energy J",
        "J/tok",
        "SLO",
        "makespan s",
        "decisions",
    ]);
    let mut csv = Table::new(vec![
        "workload",
        "policy",
        "completed",
        "energy_j",
        "energy_per_token_j",
        "slo_attainment",
        "makespan_s",
        "decisions",
    ]);
    let mut checks = Vec::new();
    let traced_policy = match opts.governor {
        GovernorChoice::Ladder => "ladder",
        GovernorChoice::Budget => "budget",
        GovernorChoice::Thermal => "thermal",
    };

    for (wname, reqs) in workloads() {
        let mut runs: Vec<GovRun> = Vec::new();
        for (i, rung) in ladder.rungs().iter().enumerate() {
            let (r, _) = serve(&ladder, i, None, &format!("static:{}", rung.mode.name), &reqs);
            runs.push(r);
        }
        for (pname, policy) in policies(&ladder) {
            let (r, live) = serve(&ladder, 0, Some(policy), pname, &reqs);
            if wname == "bursty" && pname == traced_policy {
                if let Some((sim, gov)) = &live {
                    edgellm_trace::sink::with(|out| {
                        edgellm_governor::trace::record_governed_run(out, sim, gov);
                    });
                }
            }
            runs.push(r);
        }
        for r in &runs {
            t.row(vec![
                wname.to_string(),
                r.policy.clone(),
                r.completed.to_string(),
                format!("{:.0}", r.energy_j),
                format!("{:.2}", r.energy_per_token_j),
                format!("{:.0}%", r.attainment * 100.0),
                format!("{:.1}", r.makespan_s),
                r.decisions.to_string(),
            ]);
            csv.row(vec![
                wname.to_string(),
                r.policy.clone(),
                r.completed.to_string(),
                format!("{:.2}", r.energy_j),
                format!("{:.4}", r.energy_per_token_j),
                format!("{:.4}", r.attainment),
                format!("{:.3}", r.makespan_s),
                r.decisions.to_string(),
            ]);
        }
        let n = reqs.len();
        checks.push(Check::new(
            format!("{wname}: every run completes all {n} requests"),
            runs.iter().all(|r| r.completed == n),
            format!("{} configurations", runs.len()),
        ));

        // The best static mode: highest attainment, ties on energy.
        let statics: Vec<&GovRun> = runs.iter().filter(|r| r.audit.is_none()).collect();
        let best_static = statics
            .iter()
            .copied()
            .max_by(|a, b| {
                (a.attainment, -a.energy_j)
                    .partial_cmp(&(b.attainment, -b.energy_j))
                    .expect("finite scores")
            })
            .expect("static rungs ran");
        let find = |name: &str| runs.iter().find(|r| r.policy == name).expect("policy ran");
        let lad = find("ladder");
        if wname == "bursty" {
            checks.push(Check::new(
                "bursty: the hysteretic ladder beats the best static mode on energy \
                 at equal-or-better SLO attainment",
                lad.energy_j < best_static.energy_j && lad.attainment >= best_static.attainment,
                format!(
                    "ladder {:.0} J @ {:.0}% vs {} {:.0} J @ {:.0}%",
                    lad.energy_j,
                    lad.attainment * 100.0,
                    best_static.policy,
                    best_static.energy_j,
                    best_static.attainment * 100.0
                ),
            ));
            checks.push(Check::new(
                "bursty: the ladder actually governs (sprints up, idles down)",
                lad.decisions >= 4,
                format!("{} mode changes", lad.decisions),
            ));
            // Determinism: the governed run replays bit-identically.
            let (replay, _) =
                serve(&ladder, 0, Some(Box::new(HystereticLadder::new(SLO))), "ladder", &reqs);
            checks.push(Check::new(
                "bursty: the governed run replays to identical decisions and energy",
                replay.audit.as_ref().map(|a| &a.decisions)
                    == lad.audit.as_ref().map(|a| &a.decisions)
                    && replay.energy_j == lad.energy_j,
                format!("{} decisions, {:.3} J either way", replay.decisions, replay.energy_j),
            ));
        }
        let bud = find("budget");
        checks.push(Check::new(
            format!("{wname}: the budget policy never violates its energy cap"),
            verify_budget(bud.audit.as_ref().expect("budget audit"), &bud.trace).is_ok(),
            format!("{} mode changes, {:.0} J total", bud.decisions, bud.energy_j),
        ));
    }

    // Thermal scenario: sustained load in the fanless enclosure. Static
    // MAXN would trip the fleet's thermal guard; the thermal-headroom
    // governor sheds rungs first and never reaches the limit.
    let sustained = PoissonArrivals::paper_shape(1.2).generate(160, 5);
    let top = ladder.len() - 1;
    let (maxn, _) =
        serve(&ladder, top, None, &format!("static:{}", ladder.rung(top).mode.name), &sustained);
    let (gov, _) = serve(
        &ladder,
        0,
        Some(Box::new(ThermalHeadroom::new(fanless_enclosure(), THERMAL_MARGIN_C))),
        "thermal",
        &sustained,
    );
    let limit = fanless_enclosure().t_limit_c;
    let mut tt = Table::new(vec!["config", "peak °C", "trip limit °C", "done", "energy J"]);
    for r in [&maxn, &gov] {
        tt.row(vec![
            r.policy.clone(),
            format!("{:.1}", r.peak_c),
            format!("{limit:.0}"),
            r.completed.to_string(),
            format!("{:.0}", r.energy_j),
        ]);
    }
    checks.push(Check::new(
        "sustained: static MAXN would trip the fanless enclosure's thermal guard",
        maxn.peak_c >= limit,
        format!("{:.1} °C vs {limit:.0} °C limit", maxn.peak_c),
    ));
    checks.push(Check::new(
        "sustained: the thermal-headroom governor stays below the trip limit",
        gov.peak_c < limit && gov.completed == sustained.len(),
        format!("{:.1} °C peak, {} mode changes", gov.peak_c, gov.decisions),
    ));

    ExperimentResult {
        id: "ext-governor",
        title: format!(
            "Extension — online power-mode governance (Orin AGX, Llama-3.1 FP16; \
             SLO {:.0} s TTFT / {:.2} s TBT; budget cap {BUDGET_CAP_FACTOR}× floor peak)",
            SLO.ttft_s, SLO.tbt_s
        ),
        tables: vec![t.render(), tt.render()],
        checks,
        csv: vec![("governor_policies".to_string(), csv.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentOpts;

    #[test]
    fn governor_experiment_passes() {
        let r = run(ExperimentOpts { fast: true, ..Default::default() });
        assert!(r.all_pass(), "{}", r.render());
    }
}
