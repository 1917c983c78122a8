//! Pure verifiers over a governed run's records.
//!
//! These functions are the single implementation behind the
//! `edgellm-check` governor oracles *and* the experiment assertions, so
//! a claim like "the budget was never violated" means the same thing in
//! both places. They take only plain data (audits, the iteration
//! trace) and return `Err(description)` on the first violation.

use edgellm_core::IterationTrace;

use crate::governor::GovernorAudit;

/// Relative tolerance for energy comparisons, matching the checking
/// harness's energy-integral oracle.
pub const ENERGY_RTOL: f64 = 1e-9;

/// Min-dwell/hysteresis oracle: consecutive applied mode changes must be
/// at least `min_dwell_s` apart (the anti-flapping contract).
pub fn verify_min_dwell(audit: &GovernorAudit) -> Result<(), String> {
    for pair in audit.decisions.windows(2) {
        let gap = pair[1].t_s - pair[0].t_s;
        if gap + 1e-9 < audit.min_dwell_s {
            return Err(format!(
                "changes at t={:.6} and t={:.6} are {:.6}s apart; min dwell {}s",
                pair[0].t_s, pair[1].t_s, gap, audit.min_dwell_s
            ));
        }
    }
    for d in &audit.decisions {
        if d.from == d.to {
            return Err(format!("no-op decision recorded at t={:.6}", d.t_s));
        }
        if d.to >= audit.rung_names.len() {
            return Err(format!("decision at t={:.6} targets rung {} off the ladder", d.t_s, d.to));
        }
    }
    Ok(())
}

/// Energy-budget oracle: between engagement and every subsequent
/// iteration boundary, the deficit against the cap line
/// (`E(t) − E₀ − cap·(t − t₀)`) must stay within the burst reserve plus
/// the control loop's unavoidable reaction slack:
///
/// * one iteration's above-cap excess (the governor only acts at
///   boundaries, so a hot iteration lands before it can react), and
/// * one dwell window at the ladder ceiling's peak draw (an applied
///   step-up blocks the corrective step-down for `min_dwell_s`).
///
/// Anything beyond that means the policy held a hot rung while the
/// reserve was spent — a genuine cap violation.
pub fn verify_budget(audit: &GovernorAudit, trace: &[IterationTrace]) -> Result<(), String> {
    let Some(b) = &audit.budget else {
        return Ok(());
    };
    let dwell_slack_j = audit.min_dwell_s * (b.ceiling_peak_w - b.cap_w).max(0.0);
    let mut cum_e = 0.0f64;
    let mut max_excess_j = 0.0f64;
    for it in trace {
        let e = it.power_w * it.dt_s;
        cum_e += e;
        if it.t_s < b.engaged_t_s {
            continue;
        }
        max_excess_j = max_excess_j.max(e - b.cap_w * it.dt_s);
        let deficit = (cum_e - b.engaged_energy_j) - b.cap_w * (it.t_s - b.engaged_t_s);
        let bound = b.burst_j + max_excess_j + dwell_slack_j;
        let tol = ENERGY_RTOL * (1.0 + cum_e.abs() + bound.abs());
        if deficit > bound + tol {
            return Err(format!(
                "deficit {:.6} J at t={:.6} exceeds burst reserve {:.6} J \
                 (+ {:.6} J iteration excess + {:.6} J dwell slack)",
                deficit, it.t_s, b.burst_j, max_excess_j, dwell_slack_j
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ModeChange;
    use crate::policy::BudgetAudit;
    use edgellm_core::IterPhase;

    fn audit(decisions: Vec<ModeChange>, budget: Option<BudgetAudit>) -> GovernorAudit {
        GovernorAudit {
            policy: "test".to_string(),
            min_dwell_s: 1.0,
            rung_names: vec!["low".into(), "high".into()],
            initial: 1,
            decisions,
            budget,
        }
    }

    fn change(t_s: f64, from: usize, to: usize) -> ModeChange {
        ModeChange { t_s, from, to, mode: "x".to_string() }
    }

    fn iter(t_s: f64, dt_s: f64, power_w: f64) -> IterationTrace {
        IterationTrace {
            t_s,
            dt_s,
            phase: IterPhase::Decode,
            decoding: 1,
            prefilling: 0,
            kv_blocks_used: 1,
            kv_blocks_total: 4,
            power_w,
            tokens: 1,
            rails: Default::default(),
            kv_cached_blocks: None,
        }
    }

    #[test]
    fn dwell_verifier_catches_flapping() {
        let ok = audit(vec![change(0.0, 1, 0), change(1.0, 0, 1)], None);
        assert!(verify_min_dwell(&ok).is_ok());
        let flap = audit(vec![change(0.0, 1, 0), change(0.3, 0, 1)], None);
        assert!(verify_min_dwell(&flap).is_err());
        let noop = audit(vec![change(0.0, 1, 1)], None);
        assert!(verify_min_dwell(&noop).is_err());
    }

    #[test]
    fn budget_verifier_allows_quantization_but_not_overruns() {
        let b = BudgetAudit {
            cap_w: 10.0,
            burst_j: 5.0,
            engaged_t_s: 0.0,
            engaged_energy_j: 0.0,
            ceiling_peak_w: 30.0,
        };
        // One iteration 20 J over the line: reserve (5) is blown but a
        // single iteration's excess is unavoidable quantization.
        let one_hot = [iter(1.0, 1.0, 30.0)];
        assert!(verify_budget(&audit(vec![], Some(b)), &one_hot).is_ok());
        // Sustained 20 J/s over the line: deficit 100 J after 5 s, far
        // past reserve + one-iteration excess + dwell slack (5+20+20).
        let sustained: Vec<_> = (1..=5).map(|k| iter(k as f64, 1.0, 30.0)).collect();
        assert!(verify_budget(&audit(vec![], Some(b)), &sustained).is_err());
        // No budget policy: vacuously fine.
        assert!(verify_budget(&audit(vec![], None), &sustained).is_ok());
    }
}
