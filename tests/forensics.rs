//! Request-scoped forensics: energy-ledger reconciliation, cross-thread
//! byte-identity, the SLO-breach flight dump, and the bursty governed
//! fleet acceptance scenario.
//!
//! The central promise under test: for any run, the per-request energy
//! shares plus the idle integral reconstruct the report's power integral
//! exactly (Σ per-request J + idle J == `report.energy_j` to 1e-9
//! relative), and the forensic artifacts — exports, analyses, flight
//! dumps — are byte-identical at any `EDGELLM_THREADS`.
//!
//! Every test here serializes on one lock: the flight recorder and the
//! forensics sink are process-global, and byte-identity claims need the
//! event window to themselves.

use std::sync::Mutex;

use edgellm::core::serve::{ServeConfig, ServeSim};
use edgellm::core::{CloudEndpoint, PoissonArrivals, Request, RunConfig};
use edgellm::fleet::{
    FaultPlan, FleetConfig, FleetDevice, FleetReport, FleetSim, JoinShortestQueue, SloAware,
};
use edgellm::governor::{HystereticLadder, ModeLadder, SloSpec};
use edgellm::hw::{DeviceSpec, PowerMode};
use edgellm::models::{Llm, Precision};
use edgellm::trace::forensics::{self, ForensicsLog};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// `|total − idle − Σ per-request| ≤ 1e-9 · max(|total|, 1)`.
fn assert_ledger_reconciles(log: &ForensicsLog, what: &str) {
    let attributed: f64 = log.req_energy.iter().map(|&(_, e)| e).sum();
    let residual = log.total_energy_j - log.idle_energy_j - attributed;
    let tol = 1e-9 * log.total_energy_j.abs().max(1.0);
    assert!(
        residual.abs() <= tol,
        "{what}: energy ledger does not reconcile: total {} = idle {} + attributed {} + residual {residual}",
        log.total_energy_j,
        log.idle_energy_j,
        attributed
    );
}

/// Drive one standalone serve simulation to completion and return its
/// forensic log alongside the report's energy integral.
fn serve_log(cfg: ServeConfig, rate: f64, count: usize, seed: u64) -> (ForensicsLog, f64) {
    let dev = DeviceSpec::orin_agx_64gb();
    let run_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    let reqs = PoissonArrivals::paper_shape(rate).generate(count, seed);
    let mut sim = ServeSim::new(cfg, &dev, &run_cfg, &reqs).expect("AGX serves Llama FP16");
    while let Some(t) = sim.next_event_s() {
        sim.step(t).expect("static mode steps");
    }
    let energy = sim.report().energy_j;
    (sim.forensics(), energy)
}

/// Three bursts of fifteen identical requests with long idle gaps — the
/// governed-fleet acceptance workload (mirrors `ext-governor`'s bursty
/// pattern, scaled up so each burst overflows the admission batch).
fn bursty_requests() -> Vec<Request> {
    let mut reqs = Vec::new();
    for (b, t0) in [0.0, 45.0, 90.0].into_iter().enumerate() {
        for i in 0..15u64 {
            reqs.push(Request {
                id: (b as u64) * 15 + i,
                arrival_s: t0,
                input_tokens: 64,
                output_tokens: 48,
            });
        }
    }
    reqs
}

/// A two-member fleet, one self-governed and starting on the mode
/// ladder's floor rung, both admitting at most four requests at a
/// time: the shape whose forensics mix queueing, governor downclocks
/// and routing on one timeline. Each fifteen-request burst overflows
/// the batch, so late arrivals queue behind a full decode wave and
/// their TTFTs tower over the burst leaders' — guaranteed outliers.
fn governed_pair() -> Vec<FleetDevice> {
    let dev = DeviceSpec::orin_agx_64gb();
    let ladder = ModeLadder::stock(&dev, Llm::Llama31_8b, Precision::Fp16);
    let floor = ladder.rung(0).mode.clone();
    let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16).power_mode(floor);
    vec![
        FleetDevice::new(dev.clone(), cfg.clone())
            .named("governed")
            .serve(ServeConfig::chunked(4))
            .governed(Box::new(HystereticLadder::new(SloSpec { ttft_s: 8.0, tbt_s: 0.5 }))),
        FleetDevice::new(dev, cfg).named("static").serve(ServeConfig::chunked(4)),
    ]
}

/// The bursty governed fleet.
fn governed_fleet() -> FleetSim {
    FleetSim::new(
        governed_pair(),
        Box::new(JoinShortestQueue),
        FleetConfig::default(),
        &bursty_requests(),
    )
    .expect("fleet builds")
}

/// A lone Xavier behind the deadline-aware router with a cloud endpoint,
/// loaded hot enough to spill, and dark from 5 s to 15 s: its evacuated
/// work and every arrival in that window go to the cloud too.
fn cloud_fleet() -> FleetSim {
    let xav = DeviceSpec::xavier_agx_32gb();
    let cfg =
        RunConfig::new(Llm::Llama31_8b, Precision::Int4).power_mode(PowerMode::maxn_for(&xav));
    let fleet_cfg = FleetConfig {
        slo_latency_s: 20.0,
        cloud: Some(CloudEndpoint::datacenter()),
        faults: FaultPlan::none().outage(0, 5.0, 15.0),
    };
    let reqs = PoissonArrivals::paper_shape(4.0).generate(40, 13);
    FleetSim::new(vec![FleetDevice::new(xav, cfg)], Box::new(SloAware::new(20.0)), fleet_cfg, &reqs)
        .expect("fleet builds")
}

/// Two AGX twins dark together from 1 s to 60 s with no cloud: their
/// evacuated work and every arrival in the window wait in the hold
/// queue until recovery. One held request is cancelled there, and one
/// more on a device after recovery.
fn held_fleet() -> FleetSim {
    let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    let members = vec![
        FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("agx-0"),
        FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg).named("agx-1"),
    ];
    let reqs = PoissonArrivals::paper_shape(2.0).generate(20, 5);
    let held = reqs.iter().find(|r| r.arrival_s > 1.0).expect("an arrival inside the outage");
    let faults = FaultPlan::none()
        .outage(0, 1.0, 60.0)
        .outage(1, 1.0, 60.0)
        .cancel(30.0, held.id)
        .cancel(60.5, reqs[19].id);
    let fleet_cfg = FleetConfig { faults, ..FleetConfig::default() };
    FleetSim::new(members, Box::new(JoinShortestQueue), fleet_cfg, &reqs).expect("fleet builds")
}

/// Run the fleet `build` makes and return `(report, forensic export
/// JSON, flight dump)` — everything the byte-identity and acceptance
/// tests compare.
fn fleet_artifacts(threads: usize, build: fn() -> FleetSim) -> (FleetReport, String, String) {
    rayon::with_num_threads(threads, || {
        forensics::flight::clear();
        forensics::sink::disable();
        let _ = forensics::sink::take();
        forensics::sink::enable();
        let report = build().run().expect("fleet drains");
        forensics::sink::disable();
        let docs = forensics::sink::take();
        assert_eq!(docs.len(), 1, "one fleet run, one document");
        (report, forensics::export_forensics(&docs), forensics::flight::dump())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random serve scenarios the per-request energy attribution sums
    /// to the report's power integral within 1e-9 relative, for both
    /// prefill disciplines, and reconstruction preserves the residual.
    #[test]
    fn serve_energy_attribution_reconciles(
        rate in 0.5f64..4.0,
        count in 4usize..20,
        seed in 0u64..500,
        chunked in proptest::bool::ANY,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = if chunked { ServeConfig::chunked(16) } else { ServeConfig::blocking(16) };
        let (log, report_energy_j) = serve_log(cfg, rate, count, seed);
        prop_assert!(
            (log.total_energy_j - report_energy_j).abs() <= 1e-9 * report_energy_j.max(1.0),
            "forensic total {} vs report {}", log.total_energy_j, report_energy_j
        );
        assert_ledger_reconciles(&log, "serve");
        let doc = forensics::reconstruct(&log);
        prop_assert!(doc.residual_j.abs() <= 1e-9 * log.total_energy_j.abs().max(1.0));
        prop_assert_eq!(doc.requests.len(), count, "every request reconstructs");
        for r in &doc.requests {
            prop_assert!(r.completed, "rid {} completes", r.rid);
            prop_assert!(r.energy_j > 0.0, "rid {} burned energy", r.rid);
            prop_assert!(r.ttft_s.is_some() && r.latency_s.is_some());
        }
    }

    /// Fleet runs reconcile too: device integrals plus cloud-offload
    /// energy, with faults stirring re-routes into the timeline.
    #[test]
    fn fleet_energy_attribution_reconciles(
        rate in 1.0f64..3.0,
        count in 6usize..16,
        seed in 0u64..200,
        outage in proptest::bool::ANY,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let members = vec![
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("agx-0"),
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg).named("agx-1"),
        ];
        let faults =
            if outage { FaultPlan::none().outage(0, 3.0, 1e9) } else { FaultPlan::none() };
        let fleet_cfg = FleetConfig { faults, ..FleetConfig::default() };
        let reqs = PoissonArrivals::paper_shape(rate).generate(count, seed);
        let sim = FleetSim::new(members, Box::new(JoinShortestQueue), fleet_cfg, &reqs)
            .expect("fleet builds");
        let (log, report_energy_j) = fleet_log_and_energy(sim);
        assert_ledger_reconciles(&log, "fleet");
        prop_assert!(
            (log.total_energy_j - report_energy_j).abs() <= 1e-9 * report_energy_j.max(1.0),
            "forensic total {} vs fleet report {}", log.total_energy_j, report_energy_j
        );
    }
}

/// Run a fleet to completion and return a ledger-shaped view of its
/// forensic document plus the report's energy integral. `run()` consumes
/// the simulator, so the document travels through the process sink.
fn fleet_log_and_energy(sim: FleetSim) -> (ForensicsLog, f64) {
    forensics::sink::disable();
    let _ = forensics::sink::take();
    forensics::sink::enable();
    let report = sim.run().expect("fleet drains");
    forensics::sink::disable();
    let docs = forensics::sink::take();
    assert_eq!(docs.len(), 1);
    let d = &docs[0];
    let log = ForensicsLog {
        label: d.label.clone(),
        events: Vec::new(),
        req_energy: d.requests.iter().map(|r| (r.rid, r.energy_j)).collect(),
        idle_energy_j: d.idle_energy_j,
        cloud_energy_j: d.cloud_energy_j,
        total_energy_j: d.total_energy_j,
    };
    (log, report.energy_j)
}

/// Acceptance: on the bursty governed fleet, `analyze` names a nonzero
/// blame component for every request whose TTFT exceeds 2× p50, and the
/// energy ledger reconciles to 1e-9.
#[test]
fn bursty_governed_fleet_blames_every_ttft_outlier() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (report, export, _dump) = fleet_artifacts(1, governed_fleet);
    let report_energy_j = report.energy_j;
    let docs = forensics::parse_forensics(&export).expect("export parses");
    let stats = forensics::validate_forensics(&export).expect("export is schema-valid");
    assert_eq!(stats.runs, 1);
    let doc = &docs[0];
    assert_eq!(doc.requests.len(), 45, "all bursty requests reconstruct");
    assert!(
        (doc.total_energy_j - report_energy_j).abs() <= 1e-9 * report_energy_j.max(1.0),
        "forensic total {} vs report {}",
        doc.total_energy_j,
        report_energy_j
    );
    assert!(
        doc.residual_j.abs() <= 1e-9 * doc.total_energy_j.max(1.0),
        "ledger reconciles: residual {}",
        doc.residual_j
    );
    let rep = forensics::analyze(std::slice::from_ref(doc), 3);
    let run = &rep.runs[0];
    assert!(!run.outliers.is_empty(), "bursts must produce TTFT outliers (p50 {})", run.p50_ttft_s);
    for o in &run.outliers {
        assert!(
            o.blame.names_nonzero_wait(),
            "outlier rid {} (ttft {:.3}s > 2x p50 {:.3}s) has no named wait blame: {:?}",
            o.rid,
            o.ttft_s,
            run.p50_ttft_s,
            o.blame
        );
    }
    // The human-readable report names the outliers table.
    assert!(rep.render().contains("TTFT outliers"));
}

/// FNV-1a over `s`'s bytes: pins an artifact without committing it.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Forensic exports and flight dumps are byte-identical across
/// `EDGELLM_THREADS` — same bytes at 1, 2 and 8 workers — and match the
/// digests pinned at the last intended change to simulated behaviour
/// (re-pin from the failure message). Besides the governed fleet, the
/// inputs cover the fleet's cloud path (offloads with their cloud first
/// token and completion) and its hold path (requests held while every
/// device is down, a cancel in the hold queue).
#[test]
fn forensic_artifacts_are_byte_identical_across_thread_counts() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    type Build = fn() -> FleetSim;
    let inputs: [(&str, Build, &[&str], u64, u64); 3] = [
        (
            "governed",
            governed_fleet,
            &[" mode_change"],
            0x31b1_bfa8_35b9_7e50,
            0x5d76_4704_1049_75b0,
        ),
        (
            "cloud",
            cloud_fleet,
            &[" offloaded", " first_token"],
            0xb87c_549b_aca0_dfb5,
            0xfdfd_f15f_62bc_9f96,
        ),
        (
            "hold",
            held_fleet,
            &[" held", " cancelled"],
            0xdf6c_4a1c_fc14_a53a,
            0x7058_b875_975f_77ec,
        ),
    ];
    for (name, build, kinds, export_pin, dump_pin) in inputs {
        let (report, export, dump) = fleet_artifacts(THREAD_COUNTS[0], build);
        for kind in kinds {
            assert!(dump.contains(kind), "{name}: no{kind} event in the flight dump");
        }
        for &t in &THREAD_COUNTS[1..] {
            let (r, x, d) = fleet_artifacts(t, build);
            assert_eq!(
                report.energy_j.to_bits(),
                r.energy_j.to_bits(),
                "{name}: report energy diverges at {t} threads"
            );
            assert_eq!(export, x, "{name}: forensics export diverges at {t} threads");
            assert_eq!(dump, d, "{name}: flight dump diverges at {t} threads");
        }
        for (what, text, pinned) in
            [("export", &export, export_pin), ("flight dump", &dump, dump_pin)]
        {
            let got = fnv1a(text);
            assert_eq!(
                got, pinned,
                "{name}: forensics {what} digest is now {got:#018x}, pinned {pinned:#018x}"
            );
        }
    }
}

/// The first SLO breach of a run dumps the flight-recorder window to
/// `EDGELLM_FLIGHT_DUMP`.
#[test]
fn slo_breach_dumps_flight_window() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join("edgellm-flight-breach-test.txt");
    let _ = std::fs::remove_file(&path);
    std::env::set_var("EDGELLM_FLIGHT_DUMP", &path);
    forensics::flight::clear();
    // One modest device, everything at once, a 2-second deadline: the
    // tail blows the SLO and the device dumps its window.
    let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    let members = vec![FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg).named("solo")];
    let reqs: Vec<Request> = (0..8)
        .map(|i| Request { id: i, arrival_s: 0.0, input_tokens: 64, output_tokens: 48 })
        .collect();
    let fleet_cfg = FleetConfig { slo_latency_s: 2.0, ..FleetConfig::default() };
    let report = FleetSim::new(members, Box::new(JoinShortestQueue), fleet_cfg, &reqs)
        .expect("fleet builds")
        .run()
        .expect("fleet drains");
    std::env::remove_var("EDGELLM_FLIGHT_DUMP");
    assert_eq!(report.completed, 8);
    let body = std::fs::read_to_string(&path).expect("breach dump written");
    let _ = std::fs::remove_file(&path);
    assert!(body.starts_with("SLO breach in run"), "dump header: {}", &body[..60.min(body.len())]);
    assert!(body.contains("admitted"), "dump carries lifecycle events");
}
