//! Tier-1 coverage for the `edgellm-check` deterministic simulation-
//! testing harness: the checked-in seed corpus runs clean, outcomes are
//! digest-identical at any parallelism, and serve/fleet telemetry under
//! *active fault plans* (outages plus the mid-run knobs: KV shrink,
//! power flip, cancellation, clock skew) is byte-identical across
//! `EDGELLM_THREADS=1/2/8` — exercised in-process via
//! `rayon::with_num_threads`, the same override the env var reaches.
//!
//! The simulators are single-threaded by design (the thread knob only
//! shards tensor kernels), so any divergence here means nondeterminism
//! leaked into the serving or fleet paths — exactly what would make an
//! `edgellm-check --seed N` reproducer useless.

use edgellm::check::corpus;
use edgellm::check::runner::{run_scenario, Outcome};
use edgellm::check::scenario::Scenario;
use edgellm::check::Repro;
use edgellm::core::serve::{ServeConfig, ServeSim};
use edgellm::core::{PoissonArrivals, RunConfig};
use edgellm::fleet::{FaultPlan, FleetConfig, FleetDevice, FleetSim, JoinShortestQueue};
use edgellm::hw::{DeviceSpec, PowerModeRegistry};
use edgellm::models::{Llm, Precision};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// `(seed, outcome digest)` of every corpus seed, in corpus order, as the
/// simulators produced them at the last intended change to simulated
/// behaviour. A refactor leaves every one of them alone; after an
/// intended change, re-pin each from the failure message or from
/// `edgellm-check corpus`.
const CORPUS_DIGESTS: [(u64, u64); 28] = [
    (0, 0x73e8_4317_b6e9_6d12),
    (1, 0xe481_4425_0d53_a85d),
    (2, 0xeee6_48a0_79d8_7e08),
    (4, 0x09c4_ffd6_c4a9_db6d),
    (5, 0xe948_7e30_b5e4_d0b2),
    (7, 0x4f69_7c39_a61f_c17d),
    (8, 0x7a6f_1cdc_5334_1caf),
    (10, 0x63b1_0d18_ccd7_92ac),
    (11, 0xbee5_1b8f_2ec1_c7d7),
    (12, 0xf395_55c4_8d14_d1a1),
    (14, 0x5294_4119_3881_1aaa),
    (15, 0x9c69_2993_5430_0e75),
    (16, 0xd8fa_f8cb_2c28_44ea),
    (17, 0xd449_2450_fee8_610b),
    (18, 0x1736_d157_78d5_1003),
    (19, 0x5a34_8dce_704f_f987),
    (22, 0x6dfc_368a_d11e_4694),
    (24, 0x122a_4bad_e542_9cfb),
    (28, 0x38e4_a8ad_dc34_97cf),
    (48, 0xb0c8_58dc_5a00_a7f7),
    (21, 0x941e_6136_0ce2_35ac),
    (23, 0xfe73_14ce_c0d6_9c7f),
    (33, 0xf198_999c_4a23_1def),
    (51, 0x369e_0c5a_d591_7800),
    (90, 0xa327_a2fa_b823_a680),
    (104, 0x5c02_782e_bda3_d22a),
    (43, 0x0b15_423f_86c6_48f9),
    (39, 0x72bb_1bdf_9d35_610e),
];

#[test]
fn corpus_seeds_run_clean_and_digest_identically_across_thread_counts() {
    let seeds = corpus::default_seeds();
    assert!(seeds.len() >= 16, "corpus carries at least the PR-gate matrix");
    let reference: Vec<u64> = rayon::with_num_threads(THREAD_COUNTS[0], || {
        seeds
            .iter()
            .map(|&s| {
                let out = run_scenario(&Scenario::from_seed(s));
                assert!(matches!(out, Outcome::Clean(_)), "corpus seed {s} must be clean: {out}");
                out.digest()
            })
            .collect()
    });
    for &t in &THREAD_COUNTS[1..] {
        let digests: Vec<u64> = rayon::with_num_threads(t, || {
            seeds.iter().map(|&s| run_scenario(&Scenario::from_seed(s)).digest()).collect()
        });
        assert_eq!(reference, digests, "outcome digests diverge at {t} threads");
    }
    let pinned_seeds: Vec<u64> = CORPUS_DIGESTS.iter().map(|&(s, _)| s).collect();
    assert_eq!(seeds, pinned_seeds, "the corpus changed: re-pin CORPUS_DIGESTS");
    for ((&seed, &got), &(_, want)) in seeds.iter().zip(&reference).zip(&CORPUS_DIGESTS) {
        assert_eq!(
            got, want,
            "seed {seed}: outcome digest is now {got:#018x}, pinned {want:#018x}"
        );
    }
}

#[test]
fn replaying_a_full_repro_reproduces_the_outcome_digest() {
    for &seed in &corpus::default_seeds()[..4] {
        let direct = run_scenario(&Scenario::from_seed(seed));
        let replayed = run_scenario(&Repro::full(seed).materialize());
        assert_eq!(direct.digest(), replayed.digest(), "seed {seed} replay drifts");
    }
}

/// Drive one single-device serving sim with every mid-run knob active —
/// a KV-pool shrink mid-decode, a power-mode flip, a cancellation — and
/// return its full audit, formatted. Byte-compared across parallelism.
fn faulted_serve_audit(threads: usize) -> String {
    rayon::with_num_threads(threads, || {
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(2.0).generate(12, 42);
        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        let pool = 8 * 160 * kv_per_token;
        let mut sim =
            ServeSim::new(ServeConfig::chunked(8).kv_pool_cap(pool), &dev, &cfg, &reqs).unwrap();
        let registry = PowerModeRegistry::stock_for(dev.clone());
        let mut fired = 0u32;
        while let Some(now) = sim.next_event_s() {
            if fired == 0 && now > 2.0 {
                sim.cancel(reqs[3].id);
                fired = 1;
            } else if fired == 1 && now > 4.0 {
                let target = sim.kv_total_blocks() / 2;
                sim.shrink_kv_pool(target);
                fired = 2;
            } else if fired == 2 && now > 6.0 {
                let mode = registry.iter().nth(2).unwrap().clone();
                sim.set_power_mode(&mode).unwrap();
                fired = 3;
            }
            sim.step(now).unwrap();
        }
        format!("{:?}", sim.audit())
    })
}

#[test]
fn faulted_serve_audit_is_byte_identical_across_thread_counts() {
    let reference = faulted_serve_audit(THREAD_COUNTS[0]);
    assert!(reference.contains("cancelled: [("), "the cancellation actually landed");
    for &t in &THREAD_COUNTS[1..] {
        assert_eq!(
            reference,
            faulted_serve_audit(t),
            "faulted serve audit diverges between {} and {t} threads",
            THREAD_COUNTS[0]
        );
    }
}

/// Run a two-device fleet under an active fault plan spanning every
/// event kind — outage, KV shrink, power flip, cancellation, clock
/// skew — and export the Perfetto timeline.
fn faulted_fleet_trace_json(threads: usize) -> String {
    rayon::with_num_threads(threads, || {
        let agx = DeviceSpec::orin_agx_64gb();
        let nx = DeviceSpec::orin_nx_16gb();
        let agx_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16)
            .power_mode(edgellm::hw::PowerMode::maxn_for(&agx));
        let nx_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Int4)
            .power_mode(edgellm::hw::PowerMode::maxn_for(&nx));
        let members = vec![
            FleetDevice::new(agx.clone(), agx_cfg).named("agx-0"),
            FleetDevice::new(nx.clone(), nx_cfg).named("nx-1"),
        ];
        let reqs = PoissonArrivals::paper_shape(2.0).generate(16, 7);
        let faults = FaultPlan::none()
            .outage(0, 3.0, 9.0)
            .kv_shrink(1, 2.0, 500)
            .power_flip(1, 4.0, 3)
            .cancel(reqs[5].arrival_s + 0.05, reqs[5].id)
            .clock_skew(0, 10.0, 750);
        let fleet_cfg = FleetConfig { faults, ..FleetConfig::default() };
        let sim = FleetSim::new(members, Box::new(JoinShortestQueue), fleet_cfg, &reqs)
            .expect("fleet builds");
        let (_report, trace) = sim.run_traced().expect("fleet run succeeds");
        trace.to_chrome_json()
    })
}

/// FNV-1a over `s`'s bytes: pins a timeline without committing it.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn faulted_fleet_timeline_is_byte_identical_across_thread_counts() {
    let reference = faulted_fleet_trace_json(THREAD_COUNTS[0]);
    edgellm::trace::validate_chrome_trace(&reference).expect("schema-valid fleet trace");
    for mark in ["\"down\"", "\"kv_shrink\"", "\"power_flip\"", "\"cancel\"", "\"clock_skew\""] {
        assert!(reference.contains(mark), "fault mark {mark} missing from timeline");
    }
    for &t in &THREAD_COUNTS[1..] {
        assert_eq!(
            reference,
            faulted_fleet_trace_json(t),
            "faulted fleet trace diverges between {} and {t} threads",
            THREAD_COUNTS[0]
        );
    }
    // Digest at the last intended change to simulated behaviour; re-pin
    // from the failure message.
    let (got, pinned) = (fnv1a(&reference), 0xca43_d50f_f778_6108u64);
    assert_eq!(
        got, pinned,
        "faulted fleet timeline digest is now {got:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn smoke_matrix_has_no_violations() {
    // The CI `check-smoke` gate in library form: seeds 0..16 plus the
    // governor-active and prefix-cache smoke seeds, whatever their
    // outcome class, must never violate an invariant.
    for seed in (0..16u64).chain(corpus::GOVERNOR_SMOKE_SEEDS).chain(corpus::PREFIX_SMOKE_SEEDS) {
        let out = run_scenario(&Scenario::from_seed(seed));
        assert!(!out.is_violation(), "seed {seed}: {out}");
    }
}

#[test]
fn prefix_smoke_reports_are_byte_identical_across_thread_counts() {
    // Prefix-cache seeds run with the kv-sharing and kv-refcount
    // oracles armed; the full formatted reports (hit counters included)
    // must agree byte-for-byte between 1 and 8 threads, and every seed
    // must record real cache reuse.
    let render = |threads: usize| {
        rayon::with_num_threads(threads, || {
            corpus::PREFIX_SMOKE_SEEDS
                .iter()
                .map(|&s| {
                    let out = run_scenario(&Scenario::from_seed(s));
                    match &out {
                        Outcome::Clean(stats) => assert!(
                            stats.cache_hit_tokens > 0,
                            "prefix smoke seed {s} must hit the cache"
                        ),
                        other => panic!("prefix smoke seed {s} must be clean: {other}"),
                    }
                    format!("seed {s}: {out}")
                })
                .collect::<Vec<_>>()
                .join("\n")
        })
    };
    assert_eq!(render(1), render(8), "prefix smoke reports diverge across thread counts");
}
