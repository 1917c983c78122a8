//! One fleet member: a configured device wrapping a steppable
//! [`ServeSim`], plus health state and an optional thermal guard.

use edgellm_core::serve::{GovernorHook, ServeConfig, ServeSim};
use edgellm_core::{RunConfig, RunError};
use edgellm_governor::{cost, Governor, GovernorPolicy};
use edgellm_hw::DeviceSpec;
use edgellm_power::ThermalModel;

use crate::routing::DeviceView;

/// How far below the trip limit the junction must cool before a
/// thermally-tripped device rejoins the fleet (°C).
pub const THERMAL_REARM_MARGIN_C: f64 = 10.0;

/// Configuration of one fleet member.
#[derive(Debug, Clone)]
pub struct FleetDevice {
    /// Display name used in reports (defaults to the device spec name).
    pub name: String,
    /// The hardware.
    pub device: DeviceSpec,
    /// Model, precision and power mode this member serves with.
    pub run_cfg: RunConfig,
    /// Scheduler knobs for the member's [`ServeSim`].
    pub serve_cfg: ServeConfig,
    /// Optional enclosure thermal model. `None` models active cooling
    /// that never trips (the paper's devkit regime).
    pub thermal: Option<ThermalModel>,
    /// Optional online power-mode governor policy. When set, the
    /// member's serve simulation consults it at every iteration
    /// boundary and retunes its power mode in flight.
    pub governor: Option<Box<dyn GovernorPolicy>>,
}

impl FleetDevice {
    /// A member with default chunked-prefill serving and active cooling.
    pub fn new(device: DeviceSpec, run_cfg: RunConfig) -> Self {
        FleetDevice {
            name: device.name.to_string(),
            device,
            run_cfg,
            serve_cfg: ServeConfig::chunked(16),
            thermal: None,
            governor: None,
        }
    }

    /// Override the display name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Override the serving configuration.
    pub fn serve(mut self, cfg: ServeConfig) -> Self {
        self.serve_cfg = cfg;
        self
    }

    /// Attach an enclosure thermal model; sustained load can now trip the
    /// device into a cooldown outage.
    pub fn thermal(mut self, model: ThermalModel) -> Self {
        self.thermal = Some(model);
        self
    }

    /// Attach an online power-mode governor; the member retunes its own
    /// power mode at iteration boundaries and the router's estimates
    /// follow every change.
    pub fn governed(mut self, policy: Box<dyn GovernorPolicy>) -> Self {
        self.governor = Some(policy);
        self
    }
}

/// RC junction-temperature integrator fed by the serve trace.
#[derive(Debug, Clone)]
pub(crate) struct ThermalGuard {
    model: ThermalModel,
    temp_c: f64,
    /// Trace entries already integrated.
    consumed: usize,
}

impl ThermalGuard {
    fn new(model: ThermalModel) -> Self {
        ThermalGuard { model, temp_c: model.t_ambient_c, consumed: 0 }
    }

    /// Integrate trace entries not yet seen; returns `true` when the
    /// junction reaches the trip limit.
    fn absorb(&mut self, trace: &[edgellm_core::IterationTrace]) -> bool {
        let mut tripped = false;
        for it in &trace[self.consumed.min(trace.len())..] {
            // Same RC update as power::thermal::simulate_sustained.
            let dtemp = (it.power_w * self.model.r_c_per_w
                - (self.temp_c - self.model.t_ambient_c))
                / self.model.tau_s
                * it.dt_s;
            self.temp_c += dtemp;
            if self.temp_c >= self.model.t_limit_c {
                tripped = true;
            }
        }
        self.consumed = trace.len();
        tripped
    }

    /// When a tripped device can rejoin: the analytic instant the RC
    /// decay at idle power reaches the re-arm temperature. `None` if idle
    /// steady state never cools that far (the device stays down).
    fn recovery_s(&self, now: f64, idle_power_w: f64) -> Option<f64> {
        let t_ss = self.model.steady_state_c(idle_power_w);
        let rearm = self.model.t_limit_c - THERMAL_REARM_MARGIN_C;
        if rearm <= t_ss || self.temp_c <= rearm {
            return if self.temp_c <= rearm { Some(now) } else { None };
        }
        let dt = self.model.tau_s * ((self.temp_c - t_ss) / (rearm - t_ss)).ln();
        Some(now + dt)
    }

    fn rearm(&mut self) {
        self.temp_c = self.temp_c.min(self.model.t_limit_c - THERMAL_REARM_MARGIN_C);
    }
}

/// What one member step hands back to the fleet.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stepped {
    /// An ordinary scheduler turn.
    Ran,
    /// The thermal guard tripped: the member leaves the fleet until the
    /// cooldown ends (`None` = it never recovers unaided).
    Tripped(Option<f64>),
    /// The governor stepped the member to this ladder rung at the step's
    /// closing boundary.
    Governed(usize),
}

/// Live simulation state of one fleet member.
#[derive(Debug, Clone)]
pub(crate) struct DeviceSim {
    pub(crate) cfg: FleetDevice,
    pub(crate) sim: ServeSim,
    pub(crate) up: bool,
    /// Thermal-cooldown end, when down for thermal reasons.
    pub(crate) down_until: Option<f64>,
    guard: Option<ThermalGuard>,
    gov: Option<Governor>,
    idle_power_w: f64,
    est_decode_tok_s: f64,
    est_energy_per_token_j: f64,
}

impl DeviceSim {
    /// Build the member's serve simulation sized for sequences up to
    /// `max_seq_tokens`, and pre-compute the routing estimates.
    pub(crate) fn new(cfg: FleetDevice, max_seq_tokens: u64) -> Result<Self, RunError> {
        let sim =
            ServeSim::with_seq_hint(cfg.serve_cfg, &cfg.device, &cfg.run_cfg, max_seq_tokens)?;
        let guard = cfg.thermal.as_ref().map(|m| ThermalGuard::new(*m));
        let (llm, precision) = (cfg.run_cfg.llm, cfg.run_cfg.precision);
        let gov = cfg
            .governor
            .clone()
            .map(|p| Governor::new(p, &cfg.device, llm, precision, &cfg.run_cfg.power_mode));
        let mut d = DeviceSim {
            cfg,
            sim,
            up: true,
            down_until: None,
            guard,
            gov,
            idle_power_w: 0.0,
            est_decode_tok_s: 0.0,
            est_energy_per_token_j: 0.0,
        };
        d.refresh_estimates();
        Ok(d)
    }

    /// (Re)compute the routing estimates for the simulation's current
    /// power mode through the governor's shared cost model
    /// ([`edgellm_governor::cost::mode_cost`]), so routing and governing
    /// score a mode bit-identically. Called at build time and after
    /// every mode change (governor decisions and scripted flips).
    pub(crate) fn refresh_estimates(&mut self) {
        let mc = cost::mode_cost(
            &self.cfg.device,
            self.cfg.run_cfg.llm,
            self.cfg.run_cfg.precision,
            self.sim.power_mode(),
        );
        self.idle_power_w = mc.idle_power_w;
        self.est_decode_tok_s = mc.decode_tok_s;
        self.est_energy_per_token_j = mc.energy_per_token_j;
    }

    /// The member's governor, when one is attached.
    pub(crate) fn governor(&self) -> Option<&Governor> {
        self.gov.as_ref()
    }

    /// Re-base the governor's current rung on the simulation's actual
    /// power mode, after an externally-scripted flip.
    pub(crate) fn resync_governor(&mut self) {
        if let Some(g) = &mut self.gov {
            let mode = self.sim.power_mode().clone();
            g.resync(&self.cfg.device, self.cfg.run_cfg.llm, self.cfg.run_cfg.precision, &mode);
        }
    }

    /// Snapshot this member for one routing decision. `prompt` is the
    /// routed request's prompt token ids, when known — the view's
    /// `prefix_hit_tokens` probes the member's radix cache against it
    /// (without bumping recency), so routing sees exactly what admission
    /// would reuse.
    pub(crate) fn view(&self, index: usize, prompt: Option<&[u32]>) -> DeviceView {
        DeviceView {
            index,
            up: self.up,
            now_s: self.sim.now(),
            queue_depth: self.sim.queue_depth(),
            backlog_tokens: self.sim.backlog_tokens(),
            kv_occupancy: self.sim.kv_occupancy(),
            est_decode_tok_s: self.est_decode_tok_s,
            est_energy_per_token_j: self.est_energy_per_token_j,
            prefix_hit_tokens: prompt.map_or(0, |p| self.sim.prefix_match_tokens(p)),
        }
    }

    /// Step the serve simulation one event.
    ///
    /// When a governor is attached it observes the iteration right after
    /// the thermal guard integrates it (so it sees the live junction
    /// temperature) and its decision is applied at the iteration
    /// boundary — the same boundary-exact semantics as
    /// [`ServeSim::step_governed`] — with the routing estimates
    /// refreshed for the new mode. A step that trips the guard skips
    /// the governor: the device is about to leave the fleet.
    pub(crate) fn step(&mut self, now: f64) -> Result<Stepped, RunError> {
        let mark = self.sim.trace().len();
        self.sim.step(now)?;
        if let Some(guard) = &mut self.guard {
            if guard.absorb(self.sim.trace()) {
                return Ok(Stepped::Tripped(guard.recovery_s(self.sim.now(), self.idle_power_w)));
            }
        }
        if self.sim.trace().len() > mark {
            if let Some(gov) = &mut self.gov {
                let temp = self.guard.as_ref().map(|g| g.temp_c);
                if let Some(pm) = gov.on_iteration(&self.sim.observe(mark, temp)) {
                    let rung = gov.current();
                    self.sim.set_power_mode(&pm)?;
                    self.refresh_estimates();
                    return Ok(Stepped::Governed(rung));
                }
            }
        }
        Ok(Stepped::Ran)
    }

    /// Bring a thermally-tripped device back: reset the junction to the
    /// re-arm temperature.
    pub(crate) fn rearm_thermal(&mut self) {
        if let Some(g) = &mut self.guard {
            g.rearm();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_models::{Llm, Precision};

    #[test]
    fn estimates_rank_devices_sensibly() {
        let agx = DeviceSim::new(
            FleetDevice::new(
                DeviceSpec::orin_agx_64gb(),
                RunConfig::new(Llm::Llama31_8b, Precision::Fp16),
            ),
            512,
        )
        .unwrap();
        let nx = DeviceSim::new(
            FleetDevice::new(
                DeviceSpec::orin_nx_16gb(),
                RunConfig::new(Llm::Llama31_8b, Precision::Int4)
                    .power_mode(edgellm_hw::PowerMode::maxn_for(&DeviceSpec::orin_nx_16gb())),
            ),
            512,
        )
        .unwrap();
        assert!(agx.est_decode_tok_s > nx.est_decode_tok_s, "AGX decodes faster than NX");
        assert!(agx.est_decode_tok_s > 0.0 && nx.est_energy_per_token_j > 0.0);
    }

    #[test]
    fn thermal_guard_trips_and_recovers_analytically() {
        let model = ThermalModel::orin_agx_passive();
        let mut g = ThermalGuard::new(model);
        // Sustained 45 W far exceeds the ~44 W passive cap; feed one long
        // hot entry and expect a trip.
        let hot = edgellm_core::IterationTrace {
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
        assert!(g.absorb(&[hot]), "sustained over-cap load must trip");
        let rec = g.recovery_s(4000.0, 10.0).expect("idle cools below re-arm");
        assert!(rec > 4000.0, "cooling takes time");
        g.rearm();
        assert!(g.temp_c <= model.t_limit_c - THERMAL_REARM_MARGIN_C + 1e-9);
    }
}
