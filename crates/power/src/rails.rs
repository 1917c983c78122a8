//! Component (rail) power model for a Jetson-class module.

use edgellm_hw::{ClockState, DeviceSpec};

/// Utilization inputs for one execution phase, produced by the perf model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadProfile {
    /// GPU busy fraction (jtop-style).
    pub gpu_util: f64,
    /// CPU busy fraction across the complex.
    pub cpu_util: f64,
    /// DRAM bandwidth fraction.
    pub bw_util: f64,
    /// Achieved bandwidth relative to the MAXN effective bandwidth — a
    /// memory-stalled GPU (low ratio) draws less power per busy cycle.
    pub bw_ratio: f64,
}

impl LoadProfile {
    /// An idle profile.
    pub fn idle() -> Self {
        LoadProfile { gpu_util: 0.0, cpu_util: 0.05, bw_util: 0.02, bw_ratio: 1.0 }
    }
}

/// Per-rail power draw in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RailBreakdown {
    /// Always-on SoC + board power.
    pub idle_w: f64,
    /// GPU rail.
    pub gpu_w: f64,
    /// CPU rail.
    pub cpu_w: f64,
    /// DDR rail.
    pub mem_w: f64,
}

impl RailBreakdown {
    /// Total module power.
    pub fn total_w(&self) -> f64 {
        self.idle_w + self.gpu_w + self.cpu_w + self.mem_w
    }
}

/// The rail model. Constants are calibrated so the §3.4 power-mode deltas
/// reproduce (see crate docs); exponents follow the usual `P ∝ f·V²`
/// DVFS behaviour (voltage tracks frequency on Jetson rails).
#[derive(Debug, Clone)]
pub struct RailModel {
    device: DeviceSpec,
    /// Idle/board power (W).
    pub idle_w: f64,
    /// GPU rail at MAXN, fully busy (W).
    pub gpu_max_w: f64,
    /// CPU rail at MAXN, fully busy (W).
    pub cpu_max_w: f64,
    /// DDR rail at MAXN, fully streamed (W).
    pub mem_max_w: f64,
    /// GPU frequency-power exponent.
    pub gpu_exp: f64,
    /// CPU frequency-power exponent.
    pub cpu_exp: f64,
    /// Memory frequency-power exponent.
    pub mem_exp: f64,
}

impl RailModel {
    /// Calibrated rail model for the Orin AGX 64GB (peak 60 W module).
    pub fn orin_agx(device: DeviceSpec) -> Self {
        RailModel {
            device,
            idle_w: 8.0,
            gpu_max_w: 28.0,
            cpu_max_w: 14.0,
            mem_max_w: 12.0,
            gpu_exp: 1.5,
            cpu_exp: 1.8,
            mem_exp: 1.5,
        }
    }

    /// The clock-dependent half of [`RailModel::power`]: each rail's
    /// full-load draw under `clocks`. A simulator holding one power mode
    /// computes this once per mode and prices every iteration's load
    /// against it with [`RailPoint::power`].
    pub fn at(&self, clocks: &ClockState) -> RailPoint {
        let gs = clocks.gpu_scale(&self.device);
        let cs = clocks.cpu_scale(&self.device);
        let ms = clocks.mem_scale(&self.device);
        let core_frac = clocks.cores_online as f64 / self.device.cpu.cores as f64;
        RailPoint {
            idle_w: self.idle_w,
            gpu_w: self.gpu_max_w * gs.powf(self.gpu_exp),
            cpu_w: self.cpu_max_w * cs.powf(self.cpu_exp) * core_frac.powf(0.6),
            mem_w: self.mem_max_w * ms.powf(self.mem_exp),
        }
    }

    /// Power draw under the given clocks and load.
    pub fn power(&self, clocks: &ClockState, load: &LoadProfile) -> RailBreakdown {
        self.at(clocks).power(load)
    }

    /// Total watts, convenience.
    pub fn total_w(&self, clocks: &ClockState, load: &LoadProfile) -> f64 {
        self.power(clocks, load).total_w()
    }

    /// Energy of `dt_s` seconds spent under one load (J) — the
    /// per-iteration accounting primitive for iteration-level schedulers,
    /// where each scheduler step holds a single load profile.
    pub fn energy_j(&self, clocks: &ClockState, load: &LoadProfile, dt_s: f64) -> f64 {
        self.total_w(clocks, load) * dt_s
    }
}

/// A [`RailModel`] at fixed clocks (see [`RailModel::at`]): each rail's
/// draw before its load factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailPoint {
    /// Always-on SoC + board power (W).
    idle_w: f64,
    /// GPU rail, fully busy and unstalled (W).
    gpu_w: f64,
    /// CPU rail before its utilization factor (W).
    cpu_w: f64,
    /// DDR rail before its bandwidth factor (W).
    mem_w: f64,
}

impl RailPoint {
    /// Power draw under `load` at these clocks.
    pub fn power(&self, load: &LoadProfile) -> RailBreakdown {
        // A bandwidth-starved GPU spends cycles stalled, drawing less than
        // a compute-active one at the same "busy" fraction.
        let stall_factor = 0.35 + 0.65 * load.bw_ratio.clamp(0.0, 1.0);
        RailBreakdown {
            idle_w: self.idle_w,
            gpu_w: self.gpu_w * load.gpu_util * stall_factor,
            cpu_w: self.cpu_w * (0.12 + 0.88 * load.cpu_util),
            mem_w: self.mem_w * (0.3 + 0.7 * load.bw_util),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_hw::{PowerMode, PowerModeId};

    fn rails() -> RailModel {
        RailModel::orin_agx(DeviceSpec::orin_agx_64gb())
    }

    fn busy() -> LoadProfile {
        // Representative FP16 decode load (from the perf model).
        LoadProfile { gpu_util: 0.95, cpu_util: 0.1, bw_util: 0.8, bw_ratio: 1.0 }
    }

    fn clocks(id: PowerModeId) -> ClockState {
        PowerMode::table2(id).clocks
    }

    #[test]
    fn maxn_power_in_module_envelope() {
        let p = rails().total_w(&clocks(PowerModeId::MaxN), &busy());
        assert!((30.0..60.0).contains(&p), "MAXN power {p} W");
    }

    #[test]
    fn idle_power_is_small() {
        let p = rails().total_w(&clocks(PowerModeId::MaxN), &LoadProfile::idle());
        assert!((8.0..18.0).contains(&p), "idle {p} W");
    }

    #[test]
    fn pm_a_reduces_power_about_28_percent() {
        let r = rails();
        let maxn = r.total_w(&clocks(PowerModeId::MaxN), &busy());
        let a = r.total_w(&clocks(PowerModeId::A), &busy());
        let saving = 1.0 - a / maxn;
        assert!((0.18..0.40).contains(&saving), "PM-A saving {saving}");
    }

    #[test]
    fn pm_b_reduces_power_about_half() {
        let r = rails();
        let maxn = r.total_w(&clocks(PowerModeId::MaxN), &busy());
        let b = r.total_w(&clocks(PowerModeId::B), &busy());
        let saving = 1.0 - b / maxn;
        assert!((0.40..0.60).contains(&saving), "PM-B saving {saving}");
    }

    #[test]
    fn pm_h_reduces_power_about_half() {
        // PM-H starves the GPU of bandwidth: its rail power must collapse
        // (bw_ratio ≈ 0.09 at 665 MHz).
        let r = rails();
        let maxn = r.total_w(&clocks(PowerModeId::MaxN), &busy());
        let mut load = busy();
        load.bw_ratio = 0.09;
        load.bw_util = 1.0;
        let h = r.total_w(&clocks(PowerModeId::H), &load);
        let saving = 1.0 - h / maxn;
        assert!((0.40..0.65).contains(&saving), "PM-H saving {saving}");
    }

    #[test]
    fn core_count_modes_change_power_little() {
        let r = rails();
        let maxn = r.total_w(&clocks(PowerModeId::MaxN), &busy());
        let f = r.total_w(&clocks(PowerModeId::F), &busy());
        let saving = 1.0 - f / maxn;
        assert!((0.0..0.10).contains(&saving), "PM-F saving {saving}");
    }

    #[test]
    fn higher_gpu_util_draws_more_power() {
        let r = rails();
        let mut lo = busy();
        lo.gpu_util = 0.55; // INT8-style dispatch-bound load
        let hi = busy();
        let p_lo = r.total_w(&clocks(PowerModeId::MaxN), &lo);
        let p_hi = r.total_w(&clocks(PowerModeId::MaxN), &hi);
        assert!(p_hi > p_lo * 1.15, "{p_hi} vs {p_lo}");
    }

    #[test]
    fn energy_is_power_times_time() {
        let r = rails();
        let c = clocks(PowerModeId::MaxN);
        let p = r.total_w(&c, &busy());
        assert!((r.energy_j(&c, &busy(), 2.5) - p * 2.5).abs() < 1e-12);
        assert_eq!(r.energy_j(&c, &busy(), 0.0), 0.0);
    }

    #[test]
    fn rail_point_matches_the_one_shot_formula_bit_for_bit() {
        // The per-mode split must not move a single bit of any rail: this
        // is the formula `power` evaluated in one expression per rail.
        let r = rails();
        let dev = DeviceSpec::orin_agx_64gb();
        let loads = [busy(), LoadProfile::idle(), LoadProfile { bw_ratio: 0.09, ..busy() }];
        for id in PowerModeId::ALL {
            let c = clocks(id);
            let point = r.at(&c);
            for load in &loads {
                let core_frac = c.cores_online as f64 / dev.cpu.cores as f64;
                let stall = 0.35 + 0.65 * load.bw_ratio.clamp(0.0, 1.0);
                let want = RailBreakdown {
                    idle_w: r.idle_w,
                    gpu_w: r.gpu_max_w * c.gpu_scale(&dev).powf(r.gpu_exp) * load.gpu_util * stall,
                    cpu_w: r.cpu_max_w
                        * c.cpu_scale(&dev).powf(r.cpu_exp)
                        * core_frac.powf(0.6)
                        * (0.12 + 0.88 * load.cpu_util),
                    mem_w: r.mem_max_w
                        * c.mem_scale(&dev).powf(r.mem_exp)
                        * (0.3 + 0.7 * load.bw_util),
                };
                let got = point.power(load);
                for (g, w) in [
                    (got.idle_w, want.idle_w),
                    (got.gpu_w, want.gpu_w),
                    (got.cpu_w, want.cpu_w),
                    (got.mem_w, want.mem_w),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{id:?}: {got:?} vs {want:?}");
                }
                assert_eq!(r.power(&c, load), got);
            }
        }
    }

    #[test]
    fn rails_sum_to_total() {
        let r = rails();
        let b = r.power(&clocks(PowerModeId::MaxN), &busy());
        assert!((b.total_w() - (b.idle_w + b.gpu_w + b.cpu_w + b.mem_w)).abs() < 1e-12);
        assert!(b.gpu_w > b.cpu_w, "LLM decode is GPU-dominated");
    }
}
