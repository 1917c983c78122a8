//! Adapter from serving telemetry to a Perfetto timeline.
//!
//! [`record_serve_run`] renders one serving run — the scheduler's
//! [`IterationTrace`] records and the KV-pressure preemption instants —
//! as one process on a [`edgellm_trace::Trace`]: iteration spans on a
//! `scheduler` track, `kv_blocks` and `power_rails_w` counter tracks
//! beneath it, so phase timing and the paper's power rails line up on a
//! shared clock. [`ServeSim::run`](crate::serve::ServeSim::run) calls it
//! automatically whenever the global trace sink is enabled.

use edgellm_power::record_rail_counters;
use edgellm_trace::{Arg, Trace};

use crate::serve::trace::{IterPhase, IterationTrace};

/// Seconds → trace microseconds.
const S_TO_US: f64 = 1e6;

/// Track id for scheduler iteration spans and preemption instants.
const TID_SCHEDULER: u32 = 1;

/// Span/track name for one iteration phase.
fn phase_name(phase: IterPhase) -> &'static str {
    match phase {
        IterPhase::Prefill => "prefill",
        IterPhase::Decode => "decode",
        IterPhase::Mixed => "mixed",
        IterPhase::Idle => "idle",
    }
}

/// Append one serving run as process `pid` (named `label`) of `out`.
///
/// * every [`IterationTrace`] becomes a complete event on the
///   `scheduler` track, named after its phase, spanning
///   `[t_s - dt_s, t_s]`, carrying batch composition and power as args;
/// * KV pool occupancy becomes a `kv_blocks` counter track;
/// * each iteration's rail breakdown becomes a sample of the stacked
///   `power_rails_w` counter track;
/// * prefix-cache occupancy becomes a `kv_cached_blocks` counter track —
///   emitted only for iterations that carry it, i.e. only for runs
///   serving with the prefix cache on;
/// * `preemptions` (`(time, request id)`) become thread-scoped instants
///   on the scheduler track.
pub fn record_serve_run(
    out: &mut Trace,
    pid: u32,
    label: &str,
    iters: &[IterationTrace],
    preemptions: &[(f64, u64)],
) {
    out.set_process_name(pid, label);
    out.set_thread_name(pid, TID_SCHEDULER, "scheduler");
    for it in iters {
        let args = vec![
            ("decoding".to_string(), Arg::U64(it.decoding as u64)),
            ("prefilling".to_string(), Arg::U64(it.prefilling as u64)),
            ("tokens".to_string(), Arg::U64(it.tokens)),
            ("kv_blocks_used".to_string(), Arg::U64(it.kv_blocks_used as u64)),
            ("power_w".to_string(), Arg::F64(it.power_w)),
        ];
        out.complete(
            pid,
            TID_SCHEDULER,
            phase_name(it.phase),
            "serve",
            (it.t_s - it.dt_s) * S_TO_US,
            it.dt_s * S_TO_US,
            args,
        );
        out.counter(pid, "kv_blocks", it.t_s * S_TO_US, &[("used", it.kv_blocks_used as f64)]);
    }
    record_rail_counters(out, pid, "power_rails_w", iters.iter().map(|it| (it.t_s, it.rails)));
    for it in iters {
        if let Some(cached) = it.kv_cached_blocks {
            out.counter(pid, "kv_cached_blocks", it.t_s * S_TO_US, &[("cached", cached as f64)]);
        }
    }
    for &(t_s, rid) in preemptions {
        out.instant(
            pid,
            TID_SCHEDULER,
            "preempt",
            "serve",
            t_s * S_TO_US,
            vec![("rid".to_string(), Arg::U64(rid))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_power::RailBreakdown;

    fn iter(t_s: f64, phase: IterPhase, kv_cached_blocks: Option<usize>) -> IterationTrace {
        IterationTrace {
            t_s,
            dt_s: 0.25,
            phase,
            decoding: 3,
            prefilling: 1,
            kv_blocks_used: 40,
            kv_blocks_total: 128,
            power_w: 35.0,
            tokens: 19,
            rails: RailBreakdown { idle_w: 8.0, gpu_w: 20.0, cpu_w: 3.0, mem_w: 6.0 },
            kv_cached_blocks,
        }
    }

    #[test]
    fn run_renders_spans_counters_and_instants() {
        let mut out = Trace::new();
        record_serve_run(
            &mut out,
            1,
            "orin · llama-3.1-8b fp16",
            &[iter(0.25, IterPhase::Mixed, None), iter(0.5, IterPhase::Decode, None)],
            &[(0.5, 7)],
        );
        // 2 spans + 2 kv counters + 2 rail counters + 1 instant.
        assert_eq!(out.len(), 7);
        let json = out.to_chrome_json();
        assert!(json.contains("\"mixed\""));
        assert!(json.contains("\"kv_blocks\""));
        assert!(json.contains("\"power_rails_w\""));
        assert!(!json.contains("\"kv_cached_blocks\""), "cache-off runs render no cache track");
        assert!(json.contains("\"preempt\""));
        assert!(json.contains("\"rid\":7"));
        edgellm_trace::validate_chrome_trace(&json).expect("schema-valid");
    }

    #[test]
    fn cache_occupancy_track_renders_when_sampled() {
        let mut out = Trace::new();
        record_serve_run(
            &mut out,
            1,
            "dev",
            &[iter(0.25, IterPhase::Decode, Some(5)), iter(0.5, IterPhase::Decode, Some(7))],
            &[],
        );
        // 2 spans + 2 kv counters + 2 rail counters + 2 cache counters.
        assert_eq!(out.len(), 8);
        let json = out.to_chrome_json();
        assert!(json.contains("\"kv_cached_blocks\""));
        assert!(json.contains("\"cached\":7"), "{json}");
        edgellm_trace::validate_chrome_trace(&json).expect("schema-valid");
    }

    #[test]
    fn span_start_precedes_end_timestamp() {
        let mut out = Trace::new();
        record_serve_run(&mut out, 1, "dev", &[iter(1.0, IterPhase::Prefill, None)], &[]);
        let json = out.to_chrome_json();
        // t_s = 1.0 s, dt_s = 0.25 s → span starts at 750 000 µs.
        assert!(json.contains("\"ts\":750000"), "{json}");
        assert!(json.contains("\"dur\":250000"), "{json}");
    }
}
