//! The actuation wrapper around a policy: dwell enforcement, decision
//! logging, and the audit record the invariant oracles consume.

use edgellm_core::serve::{GovernorHook, GovernorObs};
use edgellm_hw::{DeviceSpec, PowerMode};
use edgellm_models::{Llm, Precision};

use crate::cost::ModeLadder;
use crate::policy::{BudgetAudit, GovernorPolicy};

/// One applied mode change.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeChange {
    /// Simulation instant of the change (an iteration boundary, s).
    pub t_s: f64,
    /// Ladder rung before.
    pub from: usize,
    /// Ladder rung after.
    pub to: usize,
    /// Name of the mode stepped to.
    pub mode: String,
}

/// Post-run record of everything a [`Governor`] did, consumed by the
/// `edgellm-check` oracles and the experiment reports. Deterministic:
/// byte-identical across thread counts for the same run.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorAudit {
    /// Policy name.
    pub policy: String,
    /// Dwell floor between changes (s).
    pub min_dwell_s: f64,
    /// Rung names, floor first (the ladder order).
    pub rung_names: Vec<String>,
    /// Rung the run started on.
    pub initial: usize,
    /// Every applied change, in time order.
    pub decisions: Vec<ModeChange>,
    /// Budget engagement, when the policy meters energy.
    pub budget: Option<BudgetAudit>,
}

impl GovernorAudit {
    /// The rung active at time `t_s` (decisions apply at their instant).
    pub fn rung_at(&self, t_s: f64) -> usize {
        self.decisions.iter().rev().find(|d| d.t_s <= t_s).map(|d| d.to).unwrap_or(self.initial)
    }
}

/// A policy bound to a ladder: the object a simulation drives.
///
/// The wrapper owns everything the policies should not re-implement —
/// clamping the desired rung, refusing changes inside the dwell window,
/// logging applied decisions — so every policy automatically satisfies
/// the min-dwell oracle.
#[derive(Debug, Clone)]
pub struct Governor {
    policy: Box<dyn GovernorPolicy>,
    ladder: ModeLadder,
    current: usize,
    last_change_s: f64,
    decisions: Vec<ModeChange>,
}

/// Default dwell floor between mode changes (s).
pub const DEFAULT_MIN_DWELL_S: f64 = 0.5;

impl Governor {
    /// Bind `policy` to the device's stock ladder, starting from the
    /// rung `initial_mode` maps to.
    pub fn new(
        policy: Box<dyn GovernorPolicy>,
        device: &DeviceSpec,
        llm: Llm,
        precision: Precision,
        initial_mode: &PowerMode,
    ) -> Self {
        let ladder = ModeLadder::stock(device, llm, precision);
        let current = ladder.position_of(device, llm, precision, initial_mode);
        Governor {
            policy,
            ladder,
            current,
            last_change_s: f64::NEG_INFINITY,
            decisions: Vec::new(),
        }
    }

    /// The ladder this governor steps on.
    pub fn ladder(&self) -> &ModeLadder {
        &self.ladder
    }

    /// The rung currently active.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Applied changes so far (grows during the run).
    pub fn decisions(&self) -> &[ModeChange] {
        &self.decisions
    }

    /// Re-base on an externally-applied mode change (a scripted power
    /// flip): the governor's notion of the current rung follows the
    /// actual hardware mode, without logging a decision or opening a
    /// dwell window — the next decision may correct immediately.
    pub fn resync(
        &mut self,
        device: &DeviceSpec,
        llm: Llm,
        precision: Precision,
        mode: &PowerMode,
    ) {
        self.current = self.ladder.position_of(device, llm, precision, mode);
    }

    /// Snapshot the run's governance record.
    pub fn audit(&self) -> GovernorAudit {
        let mut budget = self.policy.budget();
        if let Some(b) = &mut budget {
            // The policy does not own the ladder; fill in the worst
            // sustained draw a dwell window can lock in.
            b.ceiling_peak_w =
                self.ladder.rungs().iter().map(|r| r.cost.peak_power_w).fold(0.0f64, f64::max);
        }
        GovernorAudit {
            policy: self.policy.name().to_string(),
            min_dwell_s: DEFAULT_MIN_DWELL_S,
            rung_names: self.ladder.rungs().iter().map(|r| r.mode.name.clone()).collect(),
            initial: self.decisions.first().map(|d| d.from).unwrap_or(self.current),
            decisions: self.decisions.clone(),
            budget,
        }
    }
}

impl GovernorHook for Governor {
    fn on_iteration(&mut self, obs: &GovernorObs<'_>) -> Option<PowerMode> {
        let want = self.policy.decide(obs, &self.ladder, self.current)?;
        let want = want.min(self.ladder.len().saturating_sub(1));
        if want == self.current || obs.now_s - self.last_change_s < DEFAULT_MIN_DWELL_S {
            return None;
        }
        self.decisions.push(ModeChange {
            t_s: obs.now_s,
            from: self.current,
            to: want,
            mode: self.ladder.rung(want).mode.name.clone(),
        });
        self.current = want;
        self.last_change_s = obs.now_s;
        Some(self.ladder.rung(want).mode.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HystereticLadder, SloSpec};
    use edgellm_core::serve::GovernorObs;

    fn governor() -> Governor {
        let dev = DeviceSpec::orin_agx_64gb();
        let maxn = PowerMode::maxn_for(&dev);
        Governor::new(
            Box::new(HystereticLadder::new(SloSpec { ttft_s: 10.0, tbt_s: 0.5 })),
            &dev,
            Llm::Llama31_8b,
            Precision::Fp16,
            &maxn,
        )
    }

    fn idle_obs(now_s: f64) -> GovernorObs<'static> {
        GovernorObs {
            now_s,
            queue_depth: 0,
            live: 0,
            backlog_tokens: 0,
            kv_occupancy: 0.0,
            energy_j: 0.0,
            oldest_wait_s: 0.0,
            mode: "MaxN",
            temp_c: None,
            iters: &[],
        }
    }

    #[test]
    fn dwell_window_suppresses_flapping() {
        let dwell = DEFAULT_MIN_DWELL_S;
        let mut g = governor();
        let top = g.current();
        assert!(g.on_iteration(&idle_obs(0.0)).is_some(), "idle steps down immediately");
        assert_eq!(g.current(), top - 1);
        // Inside the dwell window the same comfort signal is ignored.
        assert!(g.on_iteration(&idle_obs(dwell / 2.0)).is_none());
        assert!(g.on_iteration(&idle_obs(dwell * 0.999)).is_none());
        assert_eq!(g.current(), top - 1);
        // Once the window has elapsed it steps again.
        assert!(g.on_iteration(&idle_obs(dwell)).is_some());
        assert_eq!(g.current(), top - 2);
        let audit = g.audit();
        assert_eq!(audit.min_dwell_s, dwell);
        assert_eq!(audit.decisions.len(), 2);
        assert_eq!(audit.initial, top);
        assert_eq!(audit.rung_at(-1.0), top);
        assert_eq!(audit.rung_at(dwell / 2.0), top - 1);
        assert_eq!(audit.rung_at(2.0 * dwell), top - 2);
        crate::verify::verify_min_dwell(&audit).expect("wrapper enforces its own dwell");
    }
}
