//! Adapters from power telemetry to Perfetto counter tracks.
//!
//! The paper's figures correlate a `jtop` power log with inference phase
//! timings; these adapters put the same data on a loadable timeline —
//! per-rail samples ([`RailBreakdown`]) as a stacked counter track
//! (SoC/GPU/CPU/DDR, the rails `jtop` reports on Jetson), and a plain
//! [`PowerTrace`] as a single total-power series.

use edgellm_trace::Trace;

use crate::rails::RailBreakdown;
use crate::trace::PowerTrace;

/// Seconds → trace microseconds.
const S_TO_US: f64 = 1e6;

/// Render `(time_s, rail breakdown)` samples as one stacked counter
/// track named `name` under process `pid`.
pub fn record_rail_counters(
    out: &mut Trace,
    pid: u32,
    name: &str,
    samples: impl IntoIterator<Item = (f64, RailBreakdown)>,
) {
    for (t_s, b) in samples {
        out.counter(
            pid,
            name,
            t_s * S_TO_US,
            &[("soc_w", b.idle_w), ("gpu_w", b.gpu_w), ("cpu_w", b.cpu_w), ("ddr_w", b.mem_w)],
        );
    }
}

/// Render a total-power [`PowerTrace`] as a single-series counter track
/// named `name` under process `pid`.
pub fn record_power_trace(out: &mut Trace, pid: u32, name: &str, trace: &PowerTrace) {
    for &(t_s, p) in trace.samples() {
        out.counter(pid, name, t_s * S_TO_US, &[("total_w", p)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_samples_become_counter_events() {
        let mut t = Trace::new();
        let b = RailBreakdown { idle_w: 8.0, gpu_w: 20.0, cpu_w: 3.0, mem_w: 6.0 };
        record_rail_counters(&mut t, 1, "power_rails_w", [(0.0, b), (2.0, b)]);
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        assert!(json.contains("\"gpu_w\":20"));
        assert!(json.contains("\"ph\":\"C\""));
        edgellm_trace::validate_chrome_trace(&json).expect("schema-valid");
    }

    #[test]
    fn power_trace_becomes_total_series() {
        let mut pt = PowerTrace::new();
        pt.push(0.0, 30.0);
        pt.push(2.0, 35.5);
        let mut t = Trace::new();
        record_power_trace(&mut t, 2, "module_w", &pt);
        assert_eq!(t.len(), 2);
        assert!(t.to_chrome_json().contains("\"total_w\":35.5"));
    }
}
