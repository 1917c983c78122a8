//! Golden-regression harness for the serving stack.
//!
//! Pins every field of [`ServingReport`] (static batching) and
//! [`ContinuousReport`] (blocking and chunked event scheduling) for fixed
//! seeds on the paper's four models at their serving precisions. Token
//! counts must match exactly; floats to 1e-9. Any unintended change to
//! the perf/mem/power numerics or the scheduler's event loop fails here
//! loudly, with the field name in the message.
//!
//! If a change is *intended* to move these numbers, re-pin by running:
//!
//! ```sh
//! GOLDEN_DUMP=1 cargo test --test golden_serving -- --nocapture
//! ```
//!
//! and pasting the emitted tables over the `GOLDEN` constants below.

use edgellm::core::serve::{ServeConfig, ServeSim};
use edgellm::core::{
    ContinuousReport, Engine, PoissonArrivals, RunConfig, SequenceSpec, ServingReport,
    StaticBatcher,
};
use edgellm::fleet::{
    run_fleet, EnergyGreedy, FaultPlan, FleetConfig, FleetDevice, FleetReport, JoinShortestQueue,
    RoutingPolicy,
};
use edgellm::hw::{DeviceSpec, PowerMode};
use edgellm::models::{Llm, Precision};

/// Arrival seed for the continuous/chunked scenarios.
const SEED: u64 = 7;
/// Requests per scenario.
const N_REQS: usize = 24;
/// Arrival rate (req/s).
const RATE: f64 = 1.5;
/// Queue size for the static scenario.
const STATIC_QUEUE: usize = 32;

fn serving_precision(llm: Llm) -> Precision {
    if llm == Llm::DeepseekQwen32b {
        Precision::Int8
    } else {
        Precision::Fp16
    }
}

fn static_report(llm: Llm) -> ServingReport {
    let engine = Engine::orin_agx_64gb();
    let cfg = RunConfig::new(llm, serving_precision(llm))
        .batch_size(8)
        .sequence(SequenceSpec::paper_96());
    StaticBatcher::new(STATIC_QUEUE).run(&engine, &cfg).expect("model serves")
}

fn continuous_report(llm: Llm, chunked: bool) -> ContinuousReport {
    let engine = Engine::orin_agx_64gb();
    let cfg = RunConfig::new(llm, serving_precision(llm));
    let reqs = PoissonArrivals::paper_shape(RATE).generate(N_REQS, SEED);
    let serve = if chunked { ServeConfig::chunked(16) } else { ServeConfig::blocking(16) };
    ServeSim::new(serve, engine.device(), &cfg, &reqs)
        .and_then(ServeSim::run)
        .expect("model serves")
        .report
}

/// The heterogeneous fleet the `ext-fleet` goldens run on: the paper's
/// board serving FP16 next to an Orin NX and a Xavier AGX serving INT4.
fn fleet_members() -> Vec<FleetDevice> {
    let nx = DeviceSpec::orin_nx_16gb();
    let xav = DeviceSpec::xavier_agx_32gb();
    vec![
        FleetDevice::new(
            DeviceSpec::orin_agx_64gb(),
            RunConfig::new(Llm::Llama31_8b, Precision::Fp16),
        ),
        FleetDevice::new(
            nx.clone(),
            RunConfig::new(Llm::Llama31_8b, Precision::Int4).power_mode(PowerMode::maxn_for(&nx)),
        ),
        FleetDevice::new(
            xav.clone(),
            RunConfig::new(Llm::Llama31_8b, Precision::Int4).power_mode(PowerMode::maxn_for(&xav)),
        ),
    ]
}

/// Fleet scenarios pinned below: join-shortest-queue rides through an
/// outage of the strongest device; energy-greedy runs fault-free.
fn fleet_report(policy: &'static str) -> FleetReport {
    let reqs = PoissonArrivals::paper_shape(RATE).generate(N_REQS, SEED);
    let (boxed, faults): (Box<dyn RoutingPolicy>, FaultPlan) = match policy {
        "join-shortest-queue" => {
            (Box::new(JoinShortestQueue), FaultPlan::none().outage(0, 4.0, 18.0))
        }
        "energy-greedy" => (Box::new(EnergyGreedy::default()), FaultPlan::none()),
        other => panic!("no golden fleet scenario '{other}'"),
    };
    let cfg = FleetConfig { slo_latency_s: 30.0, cloud: None, faults };
    run_fleet(fleet_members(), boxed, cfg, &reqs).expect("fleet serves")
}

/// `assert_close!(context, field_expr, pinned)` — 1e-9 absolute tolerance.
macro_rules! assert_close {
    ($ctx:expr, $got:expr, $want:expr) => {
        assert!(
            ($got - $want).abs() <= 1e-9,
            "{}: {} = {:?}, pinned {:?}",
            $ctx,
            stringify!($got),
            $got,
            $want
        );
    };
}

struct StaticGolden {
    llm: Llm,
    makespan_s: f64,
    batches: usize,
    mean_request_latency_s: f64,
    throughput_tok_s: f64,
    energy_j: f64,
}

struct ContinuousGolden {
    llm: Llm,
    chunked: bool,
    makespan_s: f64,
    mean_latency_s: f64,
    p95_latency_s: f64,
    output_tok_s: f64,
    mean_occupancy: f64,
    requests: usize,
    energy_j: f64,
    preemptions: usize,
    mean_ttft_s: f64,
    p50_ttft_s: f64,
    p99_ttft_s: f64,
    prefill_stall_s: f64,
}

// Pinned on the calibrated models; regenerate with GOLDEN_DUMP=1 (above).
const GOLDEN_STATIC: [StaticGolden; 4] = [
    StaticGolden {
        llm: Llm::Phi2,
        makespan_s: 16.381925619121567,
        batches: 4,
        mean_request_latency_s: 10.23870351195098,
        throughput_tok_s: 187.523742411225,
        energy_j: 681.6920897063801,
    },
    StaticGolden {
        llm: Llm::Llama31_8b,
        makespan_s: 28.54666032737882,
        batches: 4,
        mean_request_latency_s: 17.841662704611764,
        throughput_tok_s: 107.61328872693647,
        energy_j: 1375.413304065361,
    },
    StaticGolden {
        llm: Llm::MistralSmall24b,
        makespan_s: 83.37604091935164,
        batches: 4,
        mean_request_latency_s: 52.11002557459477,
        throughput_tok_s: 36.845117207849896,
        energy_j: 4059.1262222276987,
    },
    StaticGolden {
        llm: Llm::DeepseekQwen32b,
        makespan_s: 181.20006975580606,
        batches: 4,
        mean_request_latency_s: 113.25004359737879,
        throughput_tok_s: 16.95363585753568,
        energy_j: 6316.975494746382,
    },
];

const GOLDEN_CONTINUOUS: [ContinuousGolden; 8] = [
    ContinuousGolden {
        llm: Llm::Phi2,
        chunked: false,
        makespan_s: 18.275617367107944,
        mean_latency_s: 4.342370179671207,
        p95_latency_s: 5.031536299209895,
        output_tok_s: 87.98608373657697,
        mean_occupancy: 5.661971830985915,
        requests: 24,
        energy_j: 742.9927521216849,
        preemptions: 0,
        mean_ttft_s: 0.06654972515020684,
        p50_ttft_s: 0.06510997262793694,
        p99_ttft_s: 0.10697530791456433,
        prefill_stall_s: 0.9481631225599999,
    },
    ContinuousGolden {
        llm: Llm::Phi2,
        chunked: true,
        makespan_s: 18.236582367107943,
        mean_latency_s: 4.241217359773015,
        p95_latency_s: 4.92403060025344,
        output_tok_s: 88.17441599694897,
        mean_occupancy: 5.450847457627119,
        requests: 24,
        energy_j: 734.7202431587906,
        preemptions: 0,
        mean_ttft_s: 0.1413219422592911,
        p50_ttft_s: 0.12927630639770804,
        p99_ttft_s: 0.1976014292896764,
        prefill_stall_s: 0.22425845589333337,
    },
    ContinuousGolden {
        llm: Llm::Llama31_8b,
        chunked: false,
        makespan_s: 22.063475674972647,
        mean_latency_s: 8.435491806596207,
        p95_latency_s: 9.764586675189934,
        output_tok_s: 72.88062967449908,
        mean_occupancy: 8.835164835164836,
        requests: 24,
        energy_j: 1070.6319352295336,
        preemptions: 0,
        mean_ttft_s: 0.19296115500202624,
        p50_ttft_s: 0.18850640595219392,
        p99_ttft_s: 0.34482221122869383,
        prefill_stall_s: 2.726630822229333,
    },
    ContinuousGolden {
        llm: Llm::Llama31_8b,
        chunked: true,
        makespan_s: 21.810413763861533,
        mean_latency_s: 7.559150879058913,
        p95_latency_s: 8.718961843514064,
        output_tok_s: 73.72624918580654,
        mean_occupancy: 8.04,
        requests: 24,
        energy_j: 1055.6866895335345,
        preemptions: 0,
        mean_ttft_s: 0.24191029652812512,
        p50_ttft_s: 0.2567167809807165,
        p99_ttft_s: 0.37311997223650195,
        prefill_stall_s: 0.6354169555626668,
    },
    ContinuousGolden {
        llm: Llm::MistralSmall24b,
        chunked: false,
        makespan_s: 54.657521928746654,
        mean_latency_s: 30.4699271070611,
        p95_latency_s: 41.55749904336005,
        output_tok_s: 29.419555502282773,
        mean_occupancy: 10.791946308724832,
        requests: 24,
        energy_j: 2669.7215431307695,
        preemptions: 0,
        mean_ttft_s: 5.856857148920795,
        p50_ttft_s: 0.7639418314536406,
        p99_ttft_s: 17.989873769728426,
        prefill_stall_s: 8.077624632746668,
    },
    ContinuousGolden {
        llm: Llm::MistralSmall24b,
        chunked: true,
        makespan_s: 50.48848920652443,
        mean_latency_s: 26.822945271316396,
        p95_latency_s: 37.26878954854851,
        output_tok_s: 31.848843672513862,
        mean_occupancy: 10.374193548387098,
        requests: 24,
        energy_j: 2458.093923608735,
        preemptions: 0,
        mean_ttft_s: 4.911636952841448,
        p50_ttft_s: 0.947479420850156,
        p99_ttft_s: 14.691962843869318,
        prefill_stall_s: 1.9389779660799997,
    },
    ContinuousGolden {
        llm: Llm::DeepseekQwen32b,
        chunked: false,
        makespan_s: 107.34069788052395,
        mean_latency_s: 62.43708001806587,
        p95_latency_s: 92.3089300706627,
        output_tok_s: 14.980338601764931,
        mean_occupancy: 11.089655172413794,
        requests: 24,
        energy_j: 3820.7564028462425,
        preemptions: 0,
        mean_ttft_s: 12.882084559837226,
        p50_ttft_s: 0.8147686926091078,
        p99_ttft_s: 40.69199377065115,
        prefill_stall_s: 6.148459959434241,
    },
    ContinuousGolden {
        llm: Llm::DeepseekQwen32b,
        chunked: true,
        makespan_s: 105.54826354719061,
        mean_latency_s: 60.90363563009684,
        p95_latency_s: 91.68079441699308,
        output_tok_s: 15.234736659415182,
        mean_occupancy: 10.864864864864865,
        requests: 24,
        energy_j: 3699.55798943397,
        preemptions: 0,
        mean_ttft_s: 13.305558916217954,
        p50_ttft_s: 1.9415043554949918,
        p99_ttft_s: 39.59363457226698,
        prefill_stall_s: 1.6791771594342397,
    },
];

struct FleetGolden {
    policy: &'static str,
    completed: usize,
    lost: usize,
    reroutes: usize,
    preemptions: usize,
    output_tokens: u64,
    makespan_s: f64,
    output_tok_s: f64,
    energy_j: f64,
    mean_latency_s: f64,
    p95_latency_s: f64,
    p50_ttft_s: f64,
    slo_attainment: f64,
}

// Pinned fleet scenarios; regenerate with GOLDEN_DUMP=1 (above).
const GOLDEN_FLEET: [FleetGolden; 2] = [
    FleetGolden {
        policy: "join-shortest-queue",
        completed: 24,
        lost: 0,
        reroutes: 2,
        preemptions: 0,
        output_tokens: 1608,
        makespan_s: 44.391549101868705,
        output_tok_s: 36.223110761690215,
        energy_j: 3751.437935710612,
        mean_latency_s: 28.564131588897755,
        p95_latency_s: 33.864533512210414,
        p50_ttft_s: 1.750940944838593,
        slo_attainment: 0.5416666666666666,
    },
    FleetGolden {
        policy: "energy-greedy",
        completed: 24,
        lost: 0,
        reroutes: 0,
        preemptions: 0,
        output_tokens: 1608,
        makespan_s: 21.810413763861533,
        output_tok_s: 73.72624918580654,
        energy_j: 1055.6866895335345,
        mean_latency_s: 7.559150879058913,
        p95_latency_s: 8.718961843514064,
        p50_ttft_s: 0.2567167809807165,
        slo_attainment: 1.0,
    },
];

/// With `GOLDEN_DUMP=1`, print paste-ready pinned tables instead of
/// asserting (used to regenerate after an intended numeric change).
fn dumping() -> bool {
    std::env::var_os("GOLDEN_DUMP").is_some()
}

#[test]
fn static_batcher_matches_golden() {
    if dumping() {
        for llm in Llm::ALL {
            let r = static_report(llm);
            println!(
                "    StaticGolden {{\n        llm: Llm::{llm:?},\n        \
                 makespan_s: {:?},\n        batches: {:?},\n        \
                 mean_request_latency_s: {:?},\n        throughput_tok_s: {:?},\n        \
                 energy_j: {:?},\n    }},",
                r.makespan_s, r.batches, r.mean_request_latency_s, r.throughput_tok_s, r.energy_j
            );
        }
        return;
    }
    for g in &GOLDEN_STATIC {
        let r = static_report(g.llm);
        let ctx = format!("{:?} static", g.llm);
        assert_eq!(r.batches, g.batches, "{ctx}: batches");
        assert_close!(&ctx, r.makespan_s, g.makespan_s);
        assert_close!(&ctx, r.mean_request_latency_s, g.mean_request_latency_s);
        assert_close!(&ctx, r.throughput_tok_s, g.throughput_tok_s);
        assert_close!(&ctx, r.energy_j, g.energy_j);
    }
}

#[test]
fn continuous_schedulers_match_golden() {
    if dumping() {
        for llm in Llm::ALL {
            for chunked in [false, true] {
                let r = continuous_report(llm, chunked);
                println!(
                    "    ContinuousGolden {{\n        llm: Llm::{llm:?},\n        \
                     chunked: {chunked:?},\n        makespan_s: {:?},\n        \
                     mean_latency_s: {:?},\n        p95_latency_s: {:?},\n        \
                     output_tok_s: {:?},\n        mean_occupancy: {:?},\n        \
                     requests: {:?},\n        energy_j: {:?},\n        \
                     preemptions: {:?},\n        mean_ttft_s: {:?},\n        \
                     p50_ttft_s: {:?},\n        p99_ttft_s: {:?},\n        \
                     prefill_stall_s: {:?},\n    }},",
                    r.makespan_s,
                    r.mean_latency_s,
                    r.p95_latency_s,
                    r.output_tok_s,
                    r.mean_occupancy,
                    r.requests,
                    r.energy_j,
                    r.preemptions,
                    r.mean_ttft_s,
                    r.p50_ttft_s,
                    r.p99_ttft_s,
                    r.prefill_stall_s
                );
            }
        }
        return;
    }
    for g in &GOLDEN_CONTINUOUS {
        let r = continuous_report(g.llm, g.chunked);
        let ctx = format!("{:?} {}", g.llm, if g.chunked { "chunked" } else { "blocking" });
        assert_eq!(r.requests, g.requests, "{ctx}: requests");
        assert_eq!(r.preemptions, g.preemptions, "{ctx}: preemptions");
        assert_close!(&ctx, r.makespan_s, g.makespan_s);
        assert_close!(&ctx, r.mean_latency_s, g.mean_latency_s);
        assert_close!(&ctx, r.p95_latency_s, g.p95_latency_s);
        assert_close!(&ctx, r.output_tok_s, g.output_tok_s);
        assert_close!(&ctx, r.mean_occupancy, g.mean_occupancy);
        assert_close!(&ctx, r.energy_j, g.energy_j);
        assert_close!(&ctx, r.mean_ttft_s, g.mean_ttft_s);
        assert_close!(&ctx, r.p50_ttft_s, g.p50_ttft_s);
        assert_close!(&ctx, r.p99_ttft_s, g.p99_ttft_s);
        assert_close!(&ctx, r.prefill_stall_s, g.prefill_stall_s);
    }
}

#[test]
fn fleet_scenarios_match_golden() {
    if dumping() {
        for policy in ["join-shortest-queue", "energy-greedy"] {
            let r = fleet_report(policy);
            println!(
                "    FleetGolden {{\n        policy: {policy:?},\n        \
                 completed: {:?},\n        lost: {:?},\n        reroutes: {:?},\n        \
                 preemptions: {:?},\n        output_tokens: {:?},\n        \
                 makespan_s: {:?},\n        output_tok_s: {:?},\n        \
                 energy_j: {:?},\n        mean_latency_s: {:?},\n        \
                 p95_latency_s: {:?},\n        p50_ttft_s: {:?},\n        \
                 slo_attainment: {:?},\n    }},",
                r.completed,
                r.lost,
                r.reroutes,
                r.preemptions,
                r.output_tokens,
                r.makespan_s,
                r.output_tok_s,
                r.energy_j,
                r.mean_latency_s,
                r.p95_latency_s,
                r.p50_ttft_s,
                r.slo_attainment
            );
        }
        return;
    }
    for g in &GOLDEN_FLEET {
        let r = fleet_report(g.policy);
        let ctx = format!("fleet {}", g.policy);
        assert_eq!(r.completed, g.completed, "{ctx}: completed");
        assert_eq!(r.lost, g.lost, "{ctx}: lost");
        assert_eq!(r.reroutes, g.reroutes, "{ctx}: reroutes");
        assert_eq!(r.preemptions, g.preemptions, "{ctx}: preemptions");
        assert_eq!(r.output_tokens, g.output_tokens, "{ctx}: output_tokens");
        assert_close!(&ctx, r.makespan_s, g.makespan_s);
        assert_close!(&ctx, r.output_tok_s, g.output_tok_s);
        assert_close!(&ctx, r.energy_j, g.energy_j);
        assert_close!(&ctx, r.mean_latency_s, g.mean_latency_s);
        assert_close!(&ctx, r.p95_latency_s, g.p95_latency_s);
        assert_close!(&ctx, r.p50_ttft_s, g.p50_ttft_s);
        assert_close!(&ctx, r.slo_attainment, g.slo_attainment);
    }
}

/// Exact-token regression: the output token totals behind the reports.
/// `u64` counts must never drift, preemption or not.
#[test]
fn served_token_counts_are_exact() {
    let engine = Engine::orin_agx_64gb();
    for llm in Llm::ALL {
        let cfg = RunConfig::new(llm, serving_precision(llm));
        let reqs = PoissonArrivals::paper_shape(RATE).generate(N_REQS, SEED);
        let submitted: u64 = reqs.iter().map(|r| r.output_tokens).sum();
        let run = ServeSim::new(ServeConfig::chunked(16), engine.device(), &cfg, &reqs)
            .and_then(ServeSim::run)
            .expect("model serves");
        let a = &run.audit;
        assert_eq!(a.served_output_tokens, submitted, "{llm:?}: token drift");
        assert_eq!(a.kv_blocks_allocated, a.kv_blocks_freed, "{llm:?}: KV leak");
    }
}
