//! Traced serving: run a short online-arrivals workload through the
//! event-driven scheduler with the process-wide trace sink enabled, write
//! the merged serve + power timeline as Chrome trace-event JSON, and
//! print a per-phase time/energy attribution table — the paper's
//! prefill/decode power asymmetry (§3.3), measured per iteration instead
//! of per batch.
//!
//! ```sh
//! cargo run --release --example serve_trace [out.json]
//! ```
//!
//! Open the output in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: the scheduler track shows prefill/decode/mixed
//! iteration spans, with KV-pool occupancy and the stacked
//! SoC/GPU/CPU/DDR power rails as counter tracks beneath them.

use edgellm::core::serve::{IterPhase, ServeConfig, ServeSim};
use edgellm::core::{PoissonArrivals, RunConfig};
use edgellm::hw::DeviceSpec;
use edgellm::models::{Llm, Precision};
use edgellm::trace::forensics;
use edgellm::trace::sink;

fn phase_label(p: IterPhase) -> &'static str {
    match p {
        IterPhase::Prefill => "prefill",
        IterPhase::Decode => "decode",
        IterPhase::Mixed => "mixed",
        IterPhase::Idle => "idle",
    }
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "serve_trace.json".to_string());
    let dev = DeviceSpec::orin_agx_64gb();
    let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    let reqs = PoissonArrivals::paper_shape(2.0).generate(40, 42);

    sink::enable();
    forensics::sink::enable();
    let run = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs)
        .and_then(ServeSim::run)
        .expect("serve run failed");
    let events = sink::export(&out).expect("failed to write trace");
    let docs = forensics::sink::take();

    println!(
        "Served {} requests on {} in {:.1} s ({:.1} tok/s, {:.0} J, {} preemptions).\n",
        run.report.requests,
        dev.name,
        run.report.makespan_s,
        run.report.output_tok_s,
        run.report.energy_j,
        run.report.preemptions,
    );

    // Attribute wall time and energy to iteration phases. Energy is the
    // same per-iteration integral the report sums, so the column total
    // matches report.energy_j exactly.
    println!("phase     iterations     time (s)    share     energy (J)    mean power (W)");
    let phases = [IterPhase::Prefill, IterPhase::Decode, IterPhase::Mixed, IterPhase::Idle];
    for phase in phases {
        let (mut iters, mut time_s, mut energy_j) = (0usize, 0.0f64, 0.0f64);
        for it in run.audit.trace.iter().filter(|it| it.phase == phase) {
            iters += 1;
            time_s += it.dt_s;
            energy_j += it.energy_j();
        }
        let mean_w = if time_s > 0.0 { energy_j / time_s } else { 0.0 };
        println!(
            "{:<9} {:>10} {:>12.2} {:>8.1}% {:>13.1} {:>17.1}",
            phase_label(phase),
            iters,
            time_s,
            100.0 * time_s / run.report.makespan_s.max(f64::MIN_POSITIVE),
            energy_j,
            mean_w,
        );
    }
    let total_j: f64 = run.audit.trace.iter().map(|it| it.energy_j()).sum();
    println!("\ntotal iteration energy {total_j:.1} J (report: {:.1} J)", run.report.energy_j);

    // Request-scoped forensics: the same run, reconstructed into
    // per-request timelines. Show the three worst TTFTs with their
    // blame decomposition — where each slow request's wait actually
    // went (queueing vs preemption vs service).
    let rep = forensics::analyze(&docs, 3);
    let a = &rep.runs[0];
    println!("\nworst TTFT (of {} requests, p50 {:.2} s):", a.requests, a.p50_ttft_s);
    println!("rid    ttft (s)   dominant     queue (s)   preempt (s)    J/token");
    for o in &a.worst_ttft {
        println!(
            "{:<5} {:>9.2}   {:<10} {:>11.2} {:>13.2} {:>10.2}",
            o.rid, o.ttft_s, o.dominant, o.blame.queueing_s, o.blame.preemption_s, o.j_per_token,
        );
    }
    println!(
        "energy ledger: {:.1} J total = {:.1} J attributed + {:.1} J idle (residual {:.1e} J)",
        a.total_energy_j, a.attributed_j, a.idle_energy_j, a.residual_j
    );
    println!("wrote {out} ({events} events) — load it at https://ui.perfetto.dev");
}
