//! Serving planner: choose the batch size that maximizes throughput under
//! a per-request latency SLO — the operational question behind the paper's
//! Fig 1 trade-off ("larger batch sizes improve GPU efficiency, but ...").
//! Then, for the online-arrivals version of the same question, compare the
//! serving policies of the event-driven scheduler: static batch formation,
//! iteration-level admission with blocking prefill, and chunked prefill.
//!
//! ```sh
//! cargo run --release --example serving_planner
//! ```

use edgellm::core::serve::{run_static, ServeConfig, ServeSim};
use edgellm::core::{Engine, PoissonArrivals, RunConfig, SequenceSpec, StaticBatcher};
use edgellm::models::{Llm, Precision};

/// Requests waiting in the queue.
const QUEUE: usize = 256;
/// Per-request completion SLO in seconds (includes queueing delay).
const SLO_S: f64 = 60.0;

fn main() {
    let engine = Engine::orin_agx_64gb();
    println!(
        "Planning batched serving of {QUEUE} requests (sl=96) under a {SLO_S:.0} s \
         mean-completion SLO on {}:\n",
        engine.device().name
    );

    for llm in Llm::ALL {
        let prec = if llm == Llm::DeepseekQwen32b { Precision::Int8 } else { Precision::Fp16 };
        let mut best: Option<(u64, f64, f64)> = None;
        println!("{} ({prec:?}):", llm.arch().name);
        for bs in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let cfg = RunConfig::new(llm, prec).batch_size(bs).sequence(SequenceSpec::paper_96());
            let report = match StaticBatcher::new(QUEUE).run(&engine, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    println!("  bs={bs:<3}  {e}");
                    continue;
                }
            };
            let ok = report.mean_request_latency_s <= SLO_S;
            println!(
                "  bs={bs:<3}  makespan {:7.1} s  mean-latency {:7.1} s  \
                 {:7.1} tok/s  energy {:7.0} J  {}",
                report.makespan_s,
                report.mean_request_latency_s,
                report.throughput_tok_s,
                report.energy_j,
                if ok { "meets SLO" } else { "violates SLO" }
            );
            if ok {
                let better = best.is_none_or(|(_, tp, _)| report.throughput_tok_s > tp);
                if better {
                    best = Some((bs, report.throughput_tok_s, report.energy_j));
                }
            }
        }
        match best {
            Some((bs, tp, e)) => {
                println!("  → pick bs={bs}: {tp:.1} tok/s at {e:.0} J within the SLO\n")
            }
            None => println!("  → no batch size meets the SLO for this model\n"),
        }
    }

    online_policies(&engine);
}

/// Online arrivals: how much does the serving policy itself buy, holding the
/// model (Llama-3.1-8B FP16) and the arrival trace fixed?
fn online_policies(engine: &Engine) {
    const N_REQS: usize = 60;
    const SEED: u64 = 2;
    let dev = engine.device();
    let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    println!(
        "Online serving policies, Llama-3.1-8B FP16 on {}, {N_REQS} Poisson \
         requests (in 32 / out 64):\n",
        dev.name
    );
    println!(
        "  {:>6}  {:<9} {:>9} {:>10} {:>9} {:>9} {:>8}",
        "req/s", "policy", "mean lat", "mean TTFT", "stall s", "energy J", "preempt"
    );
    for rate in [0.5, 1.5, 3.0] {
        let reqs = PoissonArrivals::paper_shape(rate).generate(N_REQS, SEED);
        let stat = run_static(16, dev, &cfg, &reqs).expect("model fits");
        let run = |serve| ServeSim::new(serve, dev, &cfg, &reqs).and_then(ServeSim::run);
        let block = run(ServeConfig::blocking(16)).expect("model fits");
        let chunked = run(ServeConfig::chunked(16)).expect("model fits");
        for (name, r) in
            [("static", &stat), ("blocking", &block.report), ("chunked", &chunked.report)]
        {
            println!(
                "  {rate:>6.1}  {name:<9} {:>8.1}s {:>9.2}s {:>8.2}s {:>9.0} {:>8}",
                r.mean_latency_s, r.mean_ttft_s, r.prefill_stall_s, r.energy_j, r.preemptions
            );
        }
        println!();
    }
    println!(
        "Chunked prefill folds prompt processing into the decode batch, so \
         admissions stop stalling live sequences; the KV pool preempts (and \
         later recomputes) the youngest sequence instead of worst-casing \
         admission, and every iteration is billed through the rail power model."
    );
}
