//! Cross-thread-count trace determinism.
//!
//! The exporter promises that two identical simulations serialize to
//! byte-identical Chrome JSON at any parallelism (`EDGELLM_THREADS=1`,
//! `2`, `8`, …). These tests pin that end to end for the two simulated
//! timeline producers — the serving scheduler recording through the
//! process-wide sink, and the fleet co-simulator's explicit
//! [`FleetSim::run_traced`] — using `rayon::with_num_threads`, the
//! in-process equivalent of the `EDGELLM_THREADS` environment override.
//!
//! Scope: simulated (event-clock) timelines only. Wall-clock kernel
//! spans (the `trace` cargo feature) measure real elapsed time and are
//! deliberately outside this guarantee.

use std::sync::Mutex;

use edgellm::core::serve::{ServeConfig, ServeSim};
use edgellm::core::{PoissonArrivals, RunConfig};
use edgellm::fleet::{FaultPlan, FleetConfig, FleetDevice, FleetSim, JoinShortestQueue};
use edgellm::hw::DeviceSpec;
use edgellm::models::{Llm, Precision};
use edgellm::trace::sink;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The serving workloads whose exported timelines are pinned.
#[derive(Debug, Clone, Copy)]
enum ServeInput {
    /// Chunked prefill on an uncapped pool: iteration spans plus the KV
    /// and rail-power counter tracks.
    Plain,
    /// Prefix cache with a shared system prompt, adaptive speculation
    /// and a KV cap tight enough to preempt: adds the cached-block track
    /// and the preemption instants.
    Pressured,
}

/// FNV-1a over `s`'s bytes: pins a timeline without committing it.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Run one online-arrivals serving workload with the trace sink enabled
/// and return the exported JSON. Serialized: the sink is process-global.
fn serve_trace_json(input: ServeInput, threads: usize) -> String {
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().expect("sink lock");
    rayon::with_num_threads(threads, || {
        sink::disable();
        let _ = sink::take();
        sink::enable();
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(2.0).generate(12, 42);
        let sim = match input {
            ServeInput::Plain => ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs),
            ServeInput::Pressured => {
                let pool = 160 * cfg.llm.arch().kv_bytes_per_token();
                let serve = ServeConfig::chunked(8)
                    .with_prefix_cache()
                    .with_adaptive_speculation(4, 0.7)
                    .kv_pool_cap(pool);
                let system: Vec<u32> = (0..16).map(|i| 7_000 + i).collect();
                let prompts = reqs.iter().map(|r| (r.id, system.clone())).collect();
                ServeSim::new_with_prompts(serve, &dev, &cfg, &reqs, &prompts)
            }
        };
        sim.and_then(ServeSim::run).expect("serve run succeeds");
        sink::disable();
        sink::take().to_chrome_json()
    })
}

/// Run one two-device fleet (with an outage, so routing and evacuation
/// instants are on the timeline too) and return the exported JSON.
fn fleet_trace_json(threads: usize) -> String {
    rayon::with_num_threads(threads, || {
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let members = vec![
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("agx-0"),
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg).named("agx-1"),
        ];
        let reqs = PoissonArrivals::paper_shape(2.0).generate(16, 7);
        let faults = FaultPlan::none().outage(0, 3.0, 1e9);
        let fleet_cfg = FleetConfig { faults, ..FleetConfig::default() };
        let sim = FleetSim::new(members, Box::new(JoinShortestQueue), fleet_cfg, &reqs)
            .expect("fleet builds");
        let (_report, trace) = sim.run_traced().expect("fleet run succeeds");
        trace.to_chrome_json()
    })
}

#[test]
fn serve_timeline_is_byte_identical_across_thread_counts() {
    // FNV-1a digests of each input's timeline at the last intended change
    // to simulated behaviour; re-pin from the failure message.
    let pins = [
        (ServeInput::Plain, 0xb035_7474_4eb2_db06u64, &["\"decode\"", "\"power_rails_w\""][..]),
        (
            ServeInput::Pressured,
            0x6cfa_5666_d02c_aaa9,
            &["\"kv_cached_blocks\"", "\"preempt\"", "\"power_rails_w\""][..],
        ),
    ];
    for (input, pinned, tracks) in pins {
        let reference = serve_trace_json(input, THREAD_COUNTS[0]);
        edgellm::trace::validate_chrome_trace(&reference).expect("schema-valid serve trace");
        for track in tracks {
            assert!(reference.contains(track), "{input:?}: {track} missing from the timeline");
        }
        for &t in &THREAD_COUNTS[1..] {
            assert_eq!(
                reference,
                serve_trace_json(input, t),
                "{input:?}: serve trace diverges between {} and {t} threads",
                THREAD_COUNTS[0]
            );
        }
        let got = fnv1a(&reference);
        assert_eq!(
            got, pinned,
            "{input:?}: timeline digest is now {got:#018x}, pinned {pinned:#018x}"
        );
    }
}

#[test]
fn fleet_timeline_is_byte_identical_across_thread_counts() {
    let reference = fleet_trace_json(THREAD_COUNTS[0]);
    assert!(!reference.is_empty());
    edgellm::trace::validate_chrome_trace(&reference).expect("schema-valid fleet trace");
    assert!(reference.contains("\"route\""), "router instants present");
    for &t in &THREAD_COUNTS[1..] {
        assert_eq!(
            reference,
            fleet_trace_json(t),
            "fleet trace diverges between {} and {t} threads",
            THREAD_COUNTS[0]
        );
    }
    let (got, pinned) = (fnv1a(&reference), 0xeff3_e88a_2eb5_8e51u64);
    assert_eq!(got, pinned, "fleet timeline digest is now {got:#018x}, pinned {pinned:#018x}");
}

#[test]
fn repeated_runs_are_byte_identical_at_fixed_threads() {
    assert_eq!(fleet_trace_json(2), fleet_trace_json(2), "same seed, same bytes");
}
