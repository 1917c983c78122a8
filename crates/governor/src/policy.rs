//! The governor's policy catalog.
//!
//! A [`GovernorPolicy`] maps one telemetry snapshot to a desired ladder
//! rung; the [`Governor`](crate::Governor) wrapper owns actuation
//! (min-dwell enforcement, decision logging, mode lookup). Policies are
//! plain deterministic state machines over `f64` arithmetic — no clocks,
//! no randomness — so governed runs replay bit-identically.
//!
//! Shipped policies:
//!
//! * [`Static`] — never moves; the baseline every experiment compares
//!   against.
//! * [`HystereticLadder`] — step up on SLO risk, step down on idle, with
//!   distinct up/down thresholds (hysteresis) so the governor does not
//!   flap around a load level.
//! * [`EnergyBudget`] — track the energy deficit against a J/s cap and
//!   pick the highest rung whose *peak* power fits the instantaneous
//!   allowance, degrading to the floor when the burst reserve is spent.
//! * [`ThermalHeadroom`] — integrate the same RC junction model the
//!   fleet's `ThermalGuard` uses and shed rungs *before* the trip
//!   limit, stepping back up once headroom returns.

use edgellm_core::serve::GovernorObs;
use edgellm_power::ThermalModel;

use crate::cost::ModeLadder;

/// Audit record of an [`EnergyBudget`] engagement, consumed by the
/// budget verifier and the `edgellm-check` oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetAudit {
    /// Sustained power cap (J/s).
    pub cap_w: f64,
    /// Burst reserve: transient energy the policy may spend above the
    /// cap line before it must degrade (J).
    pub burst_j: f64,
    /// Instant the budget meter engaged (first observation, s).
    pub engaged_t_s: f64,
    /// Energy already integrated at engagement (J).
    pub engaged_energy_j: f64,
    /// Peak power of the ladder's top rung (W) — the worst sustained
    /// draw a dwell window can lock in. Filled by the governor wrapper
    /// (the policy does not own the ladder).
    pub ceiling_peak_w: f64,
}

/// One policy: a deterministic map from telemetry to a desired rung.
///
/// `decide` receives the current rung and the ladder and returns the
/// rung the policy wants (`None` = hold). The wrapper clamps, applies
/// min-dwell, and records the change.
pub trait GovernorPolicy: std::fmt::Debug + Send {
    /// Stable policy name used in audits and reports.
    fn name(&self) -> &'static str;

    /// Observe one iteration boundary and pick a desired rung.
    fn decide(
        &mut self,
        obs: &GovernorObs<'_>,
        ladder: &ModeLadder,
        current: usize,
    ) -> Option<usize>;

    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn GovernorPolicy>;

    /// Budget engagement record, when this policy meters energy.
    fn budget(&self) -> Option<BudgetAudit> {
        None
    }
}

impl Clone for Box<dyn GovernorPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The do-nothing baseline: hold whatever rung the run started on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Static;

impl GovernorPolicy for Static {
    fn name(&self) -> &'static str {
        "static"
    }

    fn decide(&mut self, _: &GovernorObs<'_>, _: &ModeLadder, _: usize) -> Option<usize> {
        None
    }

    fn clone_box(&self) -> Box<dyn GovernorPolicy> {
        Box::new(*self)
    }
}

/// Latency targets the hysteretic ladder defends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Time-to-first-token target (s).
    pub ttft_s: f64,
    /// Time-between-tokens target (s).
    pub tbt_s: f64,
}

/// Step up on SLO risk, step down on idle — with hysteresis.
///
/// Risk (any of these) steps one rung up:
/// * the oldest first-token wait has burned `up_frac` of the TTFT target;
/// * the last decode iteration exceeded the TBT target;
/// * queue depth reached `hi_depth`.
///
/// Comfort (all of these) steps one rung down:
/// * nothing queued or live (the device idles);
/// * or queue depth ≤ 1 with the oldest wait under `down_frac` of the
///   TTFT target *and* the last decode iteration under `down_frac` of
///   the TBT target.
///
/// `down_frac < up_frac` opens the hysteresis band: between the two
/// thresholds the policy holds, so a load level near one threshold
/// cannot make it flap (the wrapper's min-dwell bounds the rate
/// besides).
#[derive(Debug, Clone, Copy)]
pub struct HystereticLadder {
    /// The latency targets.
    pub slo: SloSpec,
    /// Queue depth that always counts as SLO risk.
    pub hi_depth: usize,
    /// Fraction of a target that triggers a step up.
    pub up_frac: f64,
    /// Fraction of a target below which stepping down is safe.
    pub down_frac: f64,
}

impl HystereticLadder {
    /// A ladder defending the given targets with the default band
    /// (up at 50% of target, down under 25%, depth 6).
    pub fn new(slo: SloSpec) -> Self {
        HystereticLadder { slo, hi_depth: 6, up_frac: 0.5, down_frac: 0.25 }
    }
}

impl GovernorPolicy for HystereticLadder {
    fn name(&self) -> &'static str {
        "ladder"
    }

    fn decide(
        &mut self,
        obs: &GovernorObs<'_>,
        ladder: &ModeLadder,
        current: usize,
    ) -> Option<usize> {
        let tbt = obs.last_decode_dt_s();
        let risk = obs.oldest_wait_s > self.up_frac * self.slo.ttft_s
            || tbt.is_some_and(|dt| dt > self.slo.tbt_s)
            || obs.queue_depth >= self.hi_depth;
        if risk {
            return (current + 1 < ladder.len()).then_some(current + 1);
        }
        let comfortable = obs.queue_depth == 0
            || (obs.queue_depth <= 1
                && obs.oldest_wait_s < self.down_frac * self.slo.ttft_s
                && tbt.is_none_or(|dt| dt < self.down_frac * self.slo.tbt_s));
        if comfortable {
            return current.checked_sub(1);
        }
        None
    }

    fn clone_box(&self) -> Box<dyn GovernorPolicy> {
        Box::new(*self)
    }
}

/// Horizon over which the energy-budget policy plans to repay
/// accumulated credit/deficit (s). Purely a smoothing constant: shorter
/// horizons react harder to the deficit signal.
const BUDGET_HORIZON_S: f64 = 5.0;

/// Stay under a sustained J/s cap, degrading gracefully.
///
/// The policy meters the *deficit* `D(t) = (E(t) − E₀) − cap·(t − t₀)`
/// from its first observation. `D ≤ 0` means the run is under its
/// budget line (credit); `D > 0` means it is borrowing from the burst
/// reserve. Each boundary it computes the instantaneous allowance
/// `cap + max(0, −D)/horizon` and picks the *highest* rung whose peak
/// power fits (via the shared cost predicate) — so credit earned while
/// idle can be spent sprinting, but a run at the cap line can never
/// select a rung able to out-draw it. When `D` exceeds the burst
/// reserve the policy pins the floor until the deficit drains.
#[derive(Debug, Clone, Copy)]
pub struct EnergyBudget {
    /// Sustained power cap (J/s).
    pub cap_w: f64,
    /// Burst reserve (J) tolerated above the cap line before pinning
    /// the floor.
    pub burst_j: f64,
    engaged: Option<(f64, f64)>,
}

impl EnergyBudget {
    /// A budget enforcer for the given cap, with a reserve worth two
    /// seconds at the cap line.
    pub fn new(cap_w: f64) -> Self {
        EnergyBudget { cap_w, burst_j: 2.0 * cap_w, engaged: None }
    }

    /// Override the burst reserve.
    pub fn burst(mut self, burst_j: f64) -> Self {
        self.burst_j = burst_j;
        self
    }

    /// Current deficit against the cap line, given total run energy and
    /// the clock. Negative = credit.
    pub fn deficit_j(&self, now_s: f64, energy_j: f64) -> f64 {
        match self.engaged {
            Some((t0, e0)) => (energy_j - e0) - self.cap_w * (now_s - t0),
            None => 0.0,
        }
    }
}

impl GovernorPolicy for EnergyBudget {
    fn name(&self) -> &'static str {
        "budget"
    }

    fn decide(
        &mut self,
        obs: &GovernorObs<'_>,
        ladder: &ModeLadder,
        current: usize,
    ) -> Option<usize> {
        if self.engaged.is_none() {
            self.engaged = Some((obs.now_s, obs.energy_j));
        }
        let deficit = self.deficit_j(obs.now_s, obs.energy_j);
        let want = if deficit > self.burst_j {
            0 // reserve spent: pin the floor until the deficit drains
        } else {
            let allowance = self.cap_w + (-deficit).max(0.0) / BUDGET_HORIZON_S;
            ladder.highest_under_power(allowance).unwrap_or(0)
        };
        (want != current).then_some(want)
    }

    fn clone_box(&self) -> Box<dyn GovernorPolicy> {
        Box::new(*self)
    }

    fn budget(&self) -> Option<BudgetAudit> {
        self.engaged.map(|(t0, e0)| BudgetAudit {
            cap_w: self.cap_w,
            burst_j: self.burst_j,
            engaged_t_s: t0,
            engaged_energy_j: e0,
            ceiling_peak_w: 0.0,
        })
    }
}

/// Throttle *before* the thermal trip, not after.
///
/// Integrates the same RC junction model the fleet's `ThermalGuard`
/// uses (falling back to its own integrator when the driver supplies no
/// junction estimate) and sheds one rung whenever the junction is
/// within `margin_c` of the trip limit; once it has cooled an extra
/// `margin_c` of slack, it climbs back. A guarded device governed by
/// this policy never reaches the limit under loads the floor rung can
/// sustain — the guard's cooldown machinery stays idle.
#[derive(Debug, Clone, Copy)]
pub struct ThermalHeadroom {
    /// The enclosure model (limit, RC constants).
    pub model: ThermalModel,
    /// Headroom kept below the trip limit (°C).
    pub margin_c: f64,
    temp_c: f64,
}

impl ThermalHeadroom {
    /// Defend `margin_c` of headroom under the given enclosure model.
    pub fn new(model: ThermalModel, margin_c: f64) -> Self {
        ThermalHeadroom { model, margin_c, temp_c: model.t_ambient_c }
    }

    /// The integrator's current junction estimate (°C).
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }
}

impl GovernorPolicy for ThermalHeadroom {
    fn name(&self) -> &'static str {
        "thermal"
    }

    fn decide(
        &mut self,
        obs: &GovernorObs<'_>,
        ladder: &ModeLadder,
        current: usize,
    ) -> Option<usize> {
        // Keep the private integrator in sync regardless of the driver:
        // same RC update as fleet::ThermalGuard::absorb.
        for it in obs.iters {
            let dtemp = (it.power_w * self.model.r_c_per_w
                - (self.temp_c - self.model.t_ambient_c))
                / self.model.tau_s
                * it.dt_s;
            self.temp_c += dtemp;
        }
        let temp = obs.temp_c.unwrap_or(self.temp_c);
        if temp >= self.model.t_limit_c - self.margin_c {
            return current.checked_sub(1);
        }
        if temp < self.model.t_limit_c - 2.0 * self.margin_c && current + 1 < ladder.len() {
            return Some(current + 1);
        }
        None
    }

    fn clone_box(&self) -> Box<dyn GovernorPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_core::IterationTrace;
    use edgellm_hw::DeviceSpec;
    use edgellm_models::{Llm, Precision};

    fn ladder() -> ModeLadder {
        ModeLadder::stock(&DeviceSpec::orin_agx_64gb(), Llm::Llama31_8b, Precision::Fp16)
    }

    fn obs(
        now_s: f64,
        queue_depth: usize,
        oldest_wait_s: f64,
        energy_j: f64,
    ) -> GovernorObs<'static> {
        GovernorObs {
            now_s,
            queue_depth,
            live: queue_depth.min(1),
            backlog_tokens: queue_depth as u64 * 32,
            kv_occupancy: 0.1,
            energy_j,
            oldest_wait_s,
            mode: "MaxN",
            temp_c: None,
            iters: &[],
        }
    }

    #[test]
    fn hysteretic_band_holds_between_thresholds() {
        let l = ladder();
        let mut p = HystereticLadder::new(SloSpec { ttft_s: 10.0, tbt_s: 0.5 });
        // Risk: oldest wait beyond half the TTFT target.
        assert_eq!(p.decide(&obs(1.0, 3, 6.0, 0.0), &l, 4), Some(5));
        // Comfort: empty queue.
        assert_eq!(p.decide(&obs(2.0, 0, 0.0, 0.0), &l, 4), Some(3));
        // In between: hold.
        assert_eq!(p.decide(&obs(3.0, 3, 3.0, 0.0), &l, 4), None);
        // Clamped at the ceiling.
        assert_eq!(p.decide(&obs(4.0, 9, 9.0, 0.0), &l, l.len() - 1), None);
    }

    #[test]
    fn budget_pins_floor_once_reserve_is_spent() {
        let l = ladder();
        let cap = l.rung(0).cost.peak_power_w * 1.3;
        let mut p = EnergyBudget::new(cap).burst(10.0);
        // Engagement at t=0, E=0; the first decision has zero deficit and
        // wants the highest rung whose peak fits the bare cap.
        let sustainable = l.highest_under_power(cap).expect("cap above floor peak");
        let first = p.decide(&obs(0.0, 2, 0.0, 0.0), &l, 3);
        assert_eq!(first, (sustainable != 3).then_some(sustainable));
        // Burn far past the reserve: floor demanded.
        assert_eq!(p.decide(&obs(1.0, 2, 0.0, cap + 50.0), &l, sustainable.max(1)), Some(0));
        // Long idle accrues credit; the allowance lets it climb again.
        let e_idle = cap + 50.1;
        let d = p.deficit_j(100.0, e_idle);
        assert!(d < 0.0, "idle stretch repays the deficit");
        let climbed = p.decide(&obs(100.0, 2, 0.0, e_idle), &l, 0);
        assert!(climbed.is_some_and(|r| r > 0), "credit funds a sprint");
    }

    #[test]
    fn thermal_policy_sheds_before_the_limit() {
        let model = ThermalModel::orin_agx_passive();
        let l = ladder();
        let mut p = ThermalHeadroom::new(model, 8.0);
        // One long hot entry drives the integrator near steady state.
        let hot = IterationTrace {
            t_s: 4000.0,
            dt_s: 4000.0,
            phase: edgellm_core::IterPhase::Decode,
            decoding: 1,
            prefilling: 0,
            kv_blocks_used: 0,
            kv_blocks_total: 1,
            power_w: 60.0,
            tokens: 1,
            rails: Default::default(),
            kv_cached_blocks: None,
        };
        let mut o = obs(4000.0, 2, 0.0, 0.0);
        o.iters = std::slice::from_ref(&hot);
        let decision = p.decide(&o, &l, 5);
        assert!(p.temp_c() > model.t_limit_c - 8.0, "integrator ran hot");
        assert_eq!(decision, Some(4), "sheds one rung before the trip");
        // Cool ambient observation steps back up.
        let mut cool = ThermalHeadroom::new(model, 8.0);
        assert_eq!(cool.decide(&obs(0.0, 2, 0.0, 0.0), &l, 5), Some(6));
    }

    #[test]
    fn static_policy_never_moves() {
        let l = ladder();
        let mut p = Static;
        assert_eq!(p.decide(&obs(0.0, 50, 100.0, 0.0), &l, 0), None);
    }
}
