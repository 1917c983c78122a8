//! Perfetto export of a governed run: decision instants plus an
//! active-power-mode counter track, composable with the serve adapter's
//! per-process timeline.

use edgellm_core::serve::record_serve_run;
use edgellm_core::ServeSim;
use edgellm_trace::{Arg, Trace};

use crate::governor::{Governor, GovernorAudit};

/// Track (thread) id the governor's decision instants land on, beside
/// the serve adapter's scheduler track (tid 1).
pub const TID_GOVERNOR: u32 = 2;

/// Record a governed run's decision timeline onto process `pid`:
///
/// * one `mode_change` instant per applied decision (on the `governor`
///   track), annotated with the policy, the rungs, and the mode name;
/// * an `active_power_mode` counter track sampling the rung index at
///   every change (stepped line from `start_s` to `end_s`), so the mode
///   trajectory is visible next to the power-rail counters in Perfetto.
pub fn record_governor(out: &mut Trace, pid: u32, audit: &GovernorAudit, start_s: f64, end_s: f64) {
    out.set_thread_name(pid, TID_GOVERNOR, "governor");
    out.counter(pid, "active_power_mode", start_s * 1e6, &[("rung", audit.initial as f64)]);
    for d in &audit.decisions {
        out.instant(
            pid,
            TID_GOVERNOR,
            "mode_change",
            "governor",
            d.t_s * 1e6,
            vec![
                ("policy".to_string(), Arg::Str(audit.policy.clone())),
                ("from".to_string(), Arg::U64(d.from as u64)),
                ("to".to_string(), Arg::U64(d.to as u64)),
                ("mode".to_string(), Arg::Str(d.mode.clone())),
            ],
        );
        out.counter(pid, "active_power_mode", d.t_s * 1e6, &[("rung", d.to as f64)]);
    }
    if end_s > start_s {
        let last = audit.decisions.last().map(|d| d.to).unwrap_or(audit.initial);
        out.counter(pid, "active_power_mode", end_s * 1e6, &[("rung", last as f64)]);
    }
}

/// Record a still-live governed serve run — the scheduler/KV/rail
/// timeline via the serve adapter plus the governor tracks — as one
/// process named `"<label> [governed]"`. The one-stop shop for
/// experiments that drive [`ServeSim::step_governed`] directly (and so
/// never reach the trace sink recording in [`ServeSim::run`]).
pub fn record_governed_run(out: &mut Trace, sim: &ServeSim, governor: &Governor) -> u32 {
    let pid = out.next_pid();
    let name = format!("{} [governed]", sim.label());
    record_serve_run(out, pid, &name, sim.trace(), &sim.preemption_events());
    let start_s = sim.trace().first().map(|it| it.t_s - it.dt_s).unwrap_or(0.0);
    record_governor(out, pid, &governor.audit(), start_s, sim.now());
    pid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ModeChange;
    use edgellm_trace::validate_chrome_trace;

    #[test]
    fn governor_tracks_validate_as_chrome_json() {
        let audit = GovernorAudit {
            policy: "ladder".to_string(),
            min_dwell_s: 0.5,
            rung_names: vec!["A".into(), "MaxN".into()],
            initial: 1,
            decisions: vec![ModeChange { t_s: 2.0, from: 1, to: 0, mode: "A".into() }],
            budget: None,
        };
        let mut out = Trace::new();
        out.set_process_name(1, "test");
        record_governor(&mut out, 1, &audit, 0.0, 5.0);
        assert_eq!(out.len(), 4, "one instant + three counter samples");
        let json = out.to_chrome_json();
        validate_chrome_trace(&json).expect("valid trace-event JSON");
    }

    #[test]
    fn governed_run_names_its_process_governed() {
        use crate::policy::{HystereticLadder, SloSpec};
        use edgellm_core::serve::ServeConfig;
        use edgellm_core::{PoissonArrivals, RunConfig};
        use edgellm_hw::DeviceSpec;
        use edgellm_models::{Llm, Precision};
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(1.0).generate(4, 3);
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        let policy = Box::new(HystereticLadder::new(SloSpec { ttft_s: 10.0, tbt_s: 0.5 }));
        let mut gov = Governor::new(policy, &dev, cfg.llm, cfg.precision, &cfg.power_mode);
        while let Some(t) = sim.next_event_s() {
            sim.step_governed(t, &mut gov).unwrap();
        }
        let mut out = Trace::new();
        record_governed_run(&mut out, &sim, &gov);
        let json = out.to_chrome_json();
        let name = format!("\"{} [governed]\"", sim.label());
        assert!(json.contains(&name), "process not named {name}");
    }
}
