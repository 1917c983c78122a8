//! `bench_kernels` — wall-clock kernel benchmarks emitted as
//! `BENCH_kernels.json`, so the repo's bench trajectory is tracked
//! PR-over-PR.
//!
//! Measures ns/op for the f32 / f16 / int8 / int4 NT products at the
//! paper's decode shapes (Phi-2: hidden 2560 → FFN 10240; Llama-3-8B:
//! hidden 4096 → FFN 14336) plus a chunked-prefill shape, each serial
//! (1 thread) vs parallel (4 threads), and fused vs dequantize-then-dot
//! for the quantized formats.
//!
//! It is the workspace's one timing harness below `perfbench`, a plain
//! binary that runs from `cargo run --release`: timing is best-of-N
//! `Instant` sampling and the JSON is written by hand. Each precision's
//! fused and dequant variants are timed back to back within every
//! repetition, so host noise hits both sides of their ratio.
//!
//! Usage: `bench_kernels [--iters N] [--out PATH] [--trace-out PATH]
//!                       [--check-against PATH] [--tolerance F]`
//!
//! `--check-against <baseline.json>` compares this run's serial
//! fused-vs-dequant speedups (dequant ns / fused ns, per shape and
//! precision) against a committed baseline and exits non-zero when any
//! shared shape regresses by more than `--tolerance` (default 0.25,
//! i.e. 25%), or when `int8_fused` or `int4_fused` is slower than its
//! dequant reference (serial) at any shape of this run; the f16 ordering
//! is printed, not gated. The
//! parallel-speedup comparison is skipped — with a message — when either
//! side's `parallel_valid` is false: a single-core host time-slices
//! everything and its parallel timings are too noisy to gate on.
//!
//! `--trace-out <path>` (or `EDGELLM_TRACE=<path>`) also renders the
//! best-of measurements as a synthetic Perfetto timeline: one span per
//! kernel × shape on a `serial` and a `parallel` track, laid end to end.
//! The emitted JSON additionally reports `trace_feature` — whether
//! `edgellm-tensor` was compiled with its `trace` instrumentation,
//! detected at runtime from the kernel counters, so CI can assert the
//! default bench build carries zero instrumentation — and
//! `parallel_valid` (`host_cores > 1`): on a single-core runner the
//! parallel pass time-slices on one core, so speedup figures are noise
//! and consumers must not assert on them.

use edgellm_tensor::matmul::matmul_nt;
use edgellm_tensor::{F16Matrix, Matrix, QInt4Matrix, QInt8Matrix};
use edgellm_trace::{Arg, Trace};
use std::hint::black_box;
use std::time::Instant;

const SERIAL_THREADS: usize = 1;
const PARALLEL_THREADS: usize = 4;

struct Record {
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    kernel: String,
    serial_ns: u128,
    parallel_ns: u128,
}

/// A named kernel variant and one invocation of it.
type Variant<'a> = (&'static str, &'a mut dyn FnMut());

/// Best-of-`iters` wall-clock nanoseconds for one invocation of each
/// variant of `group` (after one warm-up call each). Every repetition
/// times the whole group back to back, so a slow stretch of the host
/// lands on every variant alike instead of on one side of a
/// fused-vs-dequant ratio.
fn time_ns(iters: usize, group: &mut [Variant]) -> Vec<u128> {
    for (_, f) in group.iter_mut() {
        f();
    }
    let mut best = vec![u128::MAX; group.len()];
    for _ in 0..iters.max(1) {
        for (b, (_, f)) in best.iter_mut().zip(group.iter_mut()) {
            let t0 = Instant::now();
            f();
            *b = (*b).min(t0.elapsed().as_nanos());
        }
    }
    best
}

fn bench_shape(
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    out: &mut Vec<Record>,
) {
    eprintln!("# shape {shape}: ({m} x {k}) . ({n} x {k})^T");
    let x = Matrix::rand_kaiming(m, k, 1);
    let w = Matrix::rand_normal(n, k, 0.05, 2);

    // One group of kernel variants per precision — fused and dequant
    // together, so both sides of a ratio share each repetition's host
    // state. Quantized weights are built per group and dropped right
    // after so the peak footprint stays near one precision at a time.
    let mut run = |group: &mut [Variant]| {
        let serial = rayon::with_num_threads(SERIAL_THREADS, || time_ns(iters, group));
        let parallel = rayon::with_num_threads(PARALLEL_THREADS, || time_ns(iters, group));
        for ((&mut (kernel, _), serial_ns), parallel_ns) in
            group.iter_mut().zip(serial).zip(parallel)
        {
            eprintln!("  {kernel:<16} serial {serial_ns:>12} ns  parallel {parallel_ns:>12} ns");
            out.push(Record { shape, m, k, n, kernel: kernel.to_string(), serial_ns, parallel_ns });
        }
    };

    run(&mut [("f32", &mut || {
        black_box(matmul_nt(black_box(&x), black_box(&w)));
    })]);
    {
        let w16 = F16Matrix::from_f32(&w);
        run(&mut [
            ("f16_fused", &mut || {
                black_box(w16.matmul_nt(black_box(&x)));
            }),
            ("f16_dequant", &mut || {
                black_box(w16.matmul_nt_dequant(black_box(&x)));
            }),
        ]);
    }
    {
        let w8 = QInt8Matrix::from_f32(&w);
        run(&mut [
            ("int8_fused", &mut || {
                black_box(w8.matmul_nt(black_box(&x)));
            }),
            ("int8_dequant", &mut || {
                black_box(w8.matmul_nt_dequant(black_box(&x)));
            }),
        ]);
    }
    {
        let w4 = QInt4Matrix::from_f32(&w);
        run(&mut [
            ("int4_fused", &mut || {
                black_box(w4.matmul_nt(black_box(&x)));
            }),
            ("int4_dequant", &mut || {
                black_box(w4.matmul_nt_dequant(black_box(&x)));
            }),
        ]);
    }
}

/// Whether the tensor crate was built with its `trace` feature: the
/// kernel timers register `kernel.<variant>.*` counters on first use, so
/// after a benchmark pass their presence is the ground truth (a plain
/// `cfg!` here would only reflect *this* crate's features).
fn kernel_instrumentation_live() -> bool {
    edgellm_trace::registry().counter_names().iter().any(|k| k.starts_with("kernel."))
}

/// Render the best-of measurements as a synthetic timeline: spans laid
/// end to end on one `serial` and one `parallel` track, in record order.
fn render_trace(records: &[Record]) -> Trace {
    let mut t = Trace::new();
    t.set_process_name(1, "bench_kernels");
    t.set_thread_name(1, 1, "serial");
    t.set_thread_name(1, 2, "parallel");
    let (mut cursor_serial, mut cursor_parallel) = (0.0f64, 0.0f64);
    for r in records {
        let args = vec![
            ("shape".to_string(), Arg::Str(r.shape.to_string())),
            ("m".to_string(), Arg::U64(r.m as u64)),
            ("k".to_string(), Arg::U64(r.k as u64)),
            ("n".to_string(), Arg::U64(r.n as u64)),
        ];
        let dur_s = r.serial_ns as f64 / 1_000.0;
        t.complete(1, 1, r.kernel.clone(), "bench", cursor_serial, dur_s, args.clone());
        cursor_serial += dur_s;
        let dur_p = r.parallel_ns as f64 / 1_000.0;
        t.complete(1, 2, r.kernel.clone(), "bench", cursor_parallel, dur_p, args);
        cursor_parallel += dur_p;
    }
    t
}

/// Precisions whose fused kernel must be at least as fast as
/// dequantize-then-dot, serial, at every shape of a run. The f16 ordering
/// is printed, not gated.
const FUSED_MUST_WIN: &[&str] = &["int4", "int8"];

/// Serial fused-vs-dequant speedups (`dequant_ns / fused_ns`) keyed by
/// `shape/precision`, e.g. `phi2_decode/int4`. Sorted for stable output.
fn fused_speedups(entries: &[(String, String, u128)]) -> Vec<(String, f64)> {
    let serial = |shape: &str, kernel: &str| {
        entries.iter().find(|(s, k, _)| s == shape && k == kernel).map(|&(_, _, ns)| ns)
    };
    let mut out = Vec::new();
    for (shape, kernel, _) in entries {
        let Some(precision) = kernel.strip_suffix("_fused") else { continue };
        let (Some(fused), Some(dequant)) =
            (serial(shape, kernel), serial(shape, &format!("{precision}_dequant")))
        else {
            continue;
        };
        out.push((format!("{shape}/{precision}"), dequant as f64 / fused.max(1) as f64));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A parsed `bench_kernels/v1` baseline.
struct Baseline {
    /// The baseline document's own `parallel_valid` flag. When false the
    /// baseline's parallel timings came from a single-core host and its
    /// parallel speedups must not be gated against — skipping them is
    /// announced, never silent.
    parallel_valid: bool,
    /// `(shape, kernel, serial_ns, parallel_ns)` per record.
    entries: Vec<(String, String, u128, u128)>,
}

/// Pull a `bench_kernels/v1` JSON back into records. The format is our
/// own line-per-record emission, so a field scanner is enough — no JSON
/// dependency.
fn parse_baseline(text: &str) -> Result<Baseline, String> {
    if !text.contains("\"schema\": \"bench_kernels/v1\"") {
        return Err("baseline is not a bench_kernels/v1 document".into());
    }
    let field = |line: &str, key: &str| -> Option<String> {
        let tail = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let tail = tail.trim_start();
        Some(if let Some(rest) = tail.strip_prefix('"') {
            rest[..rest.find('"')?].to_string()
        } else {
            tail[..tail.find([',', '}']).unwrap_or(tail.len())].trim().to_string()
        })
    };
    // A baseline predating the flag is treated as invalid-parallel: the
    // conservative reading (no parallel gate) rather than a guess.
    let parallel_valid = text
        .lines()
        .find(|l| l.contains("\"parallel_valid\":"))
        .and_then(|l| field(l, "parallel_valid"))
        .map(|v| v == "true")
        .unwrap_or(false);
    let mut entries = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"kernel\":")) {
        let (Some(shape), Some(kernel), Some(ns)) =
            (field(line, "shape"), field(line, "kernel"), field(line, "serial_ns_per_op"))
        else {
            return Err(format!("malformed record line: {line}"));
        };
        let ns = ns.parse::<u128>().map_err(|e| format!("serial_ns_per_op {ns:?}: {e}"))?;
        let pns =
            field(line, "parallel_ns_per_op").and_then(|v| v.parse::<u128>().ok()).unwrap_or(ns);
        entries.push((shape, kernel, ns, pns));
    }
    if entries.is_empty() {
        return Err("baseline carries no records".into());
    }
    Ok(Baseline { parallel_valid, entries })
}

/// Gate this run against a committed baseline. Three families of checks:
///
/// * **serial fused-vs-dequant speedups** per `shape/precision` — always
///   compared (best-of serial timings are stable even on small hosts);
/// * **fused-vs-dequant ordering** in this run alone — a precision in
///   [`FUSED_MUST_WIN`] whose fused kernel is slower than its dequant
///   reference at any shape is a regression; the others are printed;
/// * **parallel speedups** per `shape/kernel` — compared only when BOTH
///   the baseline and this run have `parallel_valid` timings. A
///   `parallel_valid: false` baseline skips this family with an explicit
///   message instead of silently passing.
///
/// Returns the number of regressions beyond `tolerance`.
fn check_against(
    baseline: &str,
    fresh: &[Record],
    tolerance: f64,
    fresh_parallel_valid: bool,
) -> Result<usize, String> {
    let base = parse_baseline(baseline)?;
    let base_serial: Vec<(String, String, u128)> =
        base.entries.iter().map(|(s, k, ns, _)| (s.clone(), k.clone(), *ns)).collect();
    let base_fused = fused_speedups(&base_serial);
    let now: Vec<(String, String, u128)> =
        fresh.iter().map(|r| (r.shape.to_string(), r.kernel.clone(), r.serial_ns)).collect();
    let now_fused = fused_speedups(&now);
    let mut shared = 0usize;
    let mut regressions = 0usize;
    for (key, base_speedup) in &base_fused {
        let Some((_, fresh_speedup)) = now_fused.iter().find(|(k, _)| k == key) else { continue };
        shared += 1;
        let floor = base_speedup * (1.0 - tolerance);
        let verdict = if *fresh_speedup < floor { "REGRESSED" } else { "ok" };
        eprintln!(
            "  {key:<24} fused-vs-dequant {fresh_speedup:.3}x (baseline {base_speedup:.3}x, \
             floor {floor:.3}x) {verdict}"
        );
        regressions += usize::from(*fresh_speedup < floor);
    }
    if shared == 0 {
        return Err("baseline and this run share no shape/precision pairs".into());
    }
    for (key, speedup) in &now_fused {
        let precision = key.rsplit('/').next().unwrap_or_default();
        if FUSED_MUST_WIN.contains(&precision) {
            let verdict = if *speedup < 1.0 { "SLOWER THAN DEQUANT" } else { "ok" };
            eprintln!("  {key:<24} fused {speedup:.3}x dequant (must be >= 1) {verdict}");
            regressions += usize::from(*speedup < 1.0);
        } else {
            eprintln!("  {key:<24} fused {speedup:.3}x dequant (reported, not gated)");
        }
    }
    if !base.parallel_valid {
        eprintln!(
            "  parallel comparison skipped — baseline has parallel_valid: false (single-core \
             timings are noise, not a gate)"
        );
    } else if !fresh_parallel_valid {
        eprintln!(
            "  parallel comparison skipped — this host is single-core (parallel_valid false)"
        );
    } else {
        for (shape, kernel, serial_ns, parallel_ns) in &base.entries {
            let Some(r) = fresh.iter().find(|r| r.shape == shape && &r.kernel == kernel) else {
                continue;
            };
            let base_speedup = *serial_ns as f64 / (*parallel_ns).max(1) as f64;
            let fresh_speedup = r.serial_ns as f64 / r.parallel_ns.max(1) as f64;
            let floor = base_speedup * (1.0 - tolerance);
            let verdict = if fresh_speedup < floor { "REGRESSED" } else { "ok" };
            eprintln!(
                "  {shape}/{kernel:<14} parallel {fresh_speedup:.3}x (baseline \
                 {base_speedup:.3}x, floor {floor:.3}x) {verdict}"
            );
            regressions += usize::from(fresh_speedup < floor);
        }
    }
    Ok(regressions)
}

fn write_json(path: &str, records: &[Record]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"bench_kernels/v1\",\n");
    s.push_str(&format!("  \"threads_serial\": {SERIAL_THREADS},\n"));
    s.push_str(&format!("  \"threads_parallel\": {PARALLEL_THREADS},\n"));
    s.push_str(&format!("  \"trace_feature\": {},\n", kernel_instrumentation_live()));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    // On a single-core host the "parallel" pass is concurrency theater:
    // rayon still splits the work but every shard runs on the one core,
    // so speedup numbers are meaningless noise. Consumers (CI's speedup
    // assertion, trend dashboards) must skip speedup assertions when false.
    s.push_str(&format!("  \"parallel_valid\": {},\n", host_cores > 1));
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let speedup = r.serial_ns as f64 / r.parallel_ns.max(1) as f64;
        s.push_str(&format!(
            "    {{\"shape\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"kernel\": \"{}\", \
             \"serial_ns_per_op\": {}, \"parallel_ns_per_op\": {}, \"parallel_speedup\": {:.3}}}{}\n",
            r.shape,
            r.m,
            r.k,
            r.n,
            r.kernel,
            r.serial_ns,
            r.parallel_ns,
            speedup,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

fn main() {
    let mut iters = 3usize;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut trace_out = std::env::var("EDGELLM_TRACE").ok();
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs an integer argument");
            }
            "--out" => out_path = args.next().expect("--out needs a path argument"),
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a path argument"));
            }
            "--check-against" => {
                baseline_path = Some(args.next().expect("--check-against needs a path argument"));
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a fraction argument (e.g. 0.25)");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_kernels [--iters N] [--out PATH] [--trace-out PATH] \
                     [--check-against PATH] [--tolerance F]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut records = Vec::new();
    // Paper decode shapes: single token against the FFN up-projection.
    bench_shape("phi2_decode", 1, 2560, 10240, iters, &mut records);
    bench_shape("llama8b_decode", 1, 4096, 14336, iters, &mut records);
    // Chunked-prefill shape (32-token chunk through the Phi-2 FFN).
    bench_shape("phi2_prefill32", 32, 2560, 10240, iters, &mut records);
    // Verify-batch shapes: speculative decoding scores 1+k draft rows in
    // one pass, so the decode GEMV becomes a skinny GEMM at m = 2/4/8 —
    // shapes the INT8/INT4 fused-vs-dequant gate must cover.
    bench_shape("phi2_verify2", 2, 2560, 10240, iters, &mut records);
    bench_shape("phi2_verify4", 4, 2560, 10240, iters, &mut records);
    bench_shape("phi2_verify8", 8, 2560, 10240, iters, &mut records);
    bench_shape("llama8b_verify2", 2, 4096, 14336, iters, &mut records);
    bench_shape("llama8b_verify4", 4, 4096, 14336, iters, &mut records);
    bench_shape("llama8b_verify8", 8, 4096, 14336, iters, &mut records);

    write_json(&out_path, &records).expect("failed to write bench JSON");
    eprintln!("wrote {out_path} ({} records)", records.len());
    if let Some(path) = trace_out {
        let t = render_trace(&records);
        t.write_chrome_json(&path).expect("failed to write trace JSON");
        eprintln!("wrote {path} ({} spans)", t.len());
    }
    if let Some(path) = baseline_path {
        // A single-core host used to skip the whole gate; now only the
        // parallel family is skipped (announced inside check_against) and
        // the serial fused-vs-dequant speedups — which best-of timing
        // keeps stable even time-sliced — are still enforced.
        let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        eprintln!("# checking kernel speedups against {path} (tolerance {tolerance})");
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_against(&baseline, &records, tolerance, host_cores > 1) {
            Ok(0) => eprintln!("check-against: all shared shapes within tolerance"),
            Ok(n) => {
                eprintln!(
                    "check-against: {n} shape/precision pair(s) regressed beyond {tolerance}"
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("check-against: {e}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "schema": "bench_kernels/v1",
  "parallel_valid": true,
  "results": [
    {"shape": "phi2_decode", "m": 1, "k": 2560, "n": 10240, "kernel": "int4_fused", "serial_ns_per_op": 100, "parallel_ns_per_op": 50, "parallel_speedup": 2.000},
    {"shape": "phi2_decode", "m": 1, "k": 2560, "n": 10240, "kernel": "int4_dequant", "serial_ns_per_op": 300, "parallel_ns_per_op": 150, "parallel_speedup": 2.000}
  ]
}
"#;

    fn fresh(fused_ns: u128, dequant_ns: u128) -> Vec<Record> {
        let rec = |kernel: &str, serial_ns| Record {
            shape: "phi2_decode",
            m: 1,
            k: 2560,
            n: 10240,
            kernel: kernel.to_string(),
            serial_ns,
            parallel_ns: serial_ns,
        };
        vec![rec("int4_fused", fused_ns), rec("int4_dequant", dequant_ns)]
    }

    fn serial_view(b: &Baseline) -> Vec<(String, String, u128)> {
        b.entries.iter().map(|(s, k, ns, _)| (s.clone(), k.clone(), *ns)).collect()
    }

    #[test]
    fn baseline_parses_and_speedups_pair_fused_with_dequant() {
        let base = parse_baseline(BASELINE).expect("baseline parses");
        assert!(base.parallel_valid);
        assert_eq!(base.entries.len(), 2);
        let speedups = fused_speedups(&serial_view(&base));
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, "phi2_decode/int4");
        assert!((speedups[0].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matching_speedup_passes_and_deep_regression_fails() {
        // Same 3.0x speedup: clean. 2.0x against a 3.0x baseline is a
        // 33% regression — beyond the 25% tolerance. fresh() records have
        // parallel_ns == serial_ns (1.0x parallel speedup vs the 2.0x
        // baseline), so run with fresh_parallel_valid=false to exercise
        // only the serial family here.
        assert_eq!(check_against(BASELINE, &fresh(100, 300), 0.25, false).unwrap(), 0);
        assert_eq!(check_against(BASELINE, &fresh(150, 300), 0.25, false).unwrap(), 1);
        // ...but within a looser 50% tolerance.
        assert_eq!(check_against(BASELINE, &fresh(150, 300), 0.5, false).unwrap(), 0);
    }

    #[test]
    fn quantized_fused_must_not_lose_to_dequant_but_f16_may() {
        // The fixture's INT4 pair, renamed to `precision`.
        let at = |precision: &str, fused_ns, dequant_ns| {
            let mut recs = fresh(fused_ns, dequant_ns);
            for r in &mut recs {
                r.kernel = r.kernel.replace("int4_", precision);
            }
            (BASELINE.replace("int4_", precision), recs)
        };
        // A 0.9 tolerance puts the speedup floor at 0.3x against the
        // 3.0x baseline, so only the ordering can fail here.
        for precision in ["int8_", "int4_"] {
            let (base, recs) = at(precision, 240, 300);
            assert_eq!(check_against(&base, &recs, 0.9, false).unwrap(), 0, "{precision}");
            let (base, recs) = at(precision, 310, 300);
            assert_eq!(check_against(&base, &recs, 0.9, false).unwrap(), 1, "{precision}");
        }
        // The same ordering at f16 is reported, not counted.
        let (base, recs) = at("f16_", 310, 300);
        assert_eq!(check_against(&base, &recs, 0.9, false).unwrap(), 0);
    }

    #[test]
    fn parallel_gate_counts_regressions_only_when_both_sides_are_valid() {
        // fresh() has parallel_ns == serial_ns: a 1.0x parallel speedup
        // against the baseline's 2.0x — two records regressed when the
        // parallel family is armed.
        assert_eq!(check_against(BASELINE, &fresh(100, 300), 0.25, true).unwrap(), 2);
        // Single-core host: the parallel family is skipped, not failed.
        assert_eq!(check_against(BASELINE, &fresh(100, 300), 0.25, false).unwrap(), 0);
        // A parallel_valid:false baseline skips the family even on a
        // multi-core host — its timings were never a gate.
        let invalid = BASELINE.replace("\"parallel_valid\": true", "\"parallel_valid\": false");
        assert_eq!(check_against(&invalid, &fresh(100, 300), 0.25, true).unwrap(), 0);
        // A baseline predating the flag is treated the same way.
        let legacy: String = BASELINE
            .lines()
            .filter(|l| !l.contains("parallel_valid"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!parse_baseline(&legacy).unwrap().parallel_valid);
        assert_eq!(check_against(&legacy, &fresh(100, 300), 0.25, true).unwrap(), 0);
    }

    #[test]
    fn disjoint_shapes_are_an_error_not_a_silent_pass() {
        let mut other = fresh(100, 300);
        for r in &mut other {
            r.shape = "llama8b_decode";
        }
        assert!(check_against(BASELINE, &other, 0.25, true).is_err());
        assert!(parse_baseline("{}").is_err());
    }

    #[test]
    fn committed_baseline_stays_parseable() {
        // The repo-root baseline this binary gates against in CI.
        let text = include_str!("../../../../BENCH_kernels.json");
        let base = parse_baseline(text).expect("committed baseline parses");
        assert!(
            fused_speedups(&serial_view(&base)).len() >= 9,
            "decode + prefill + verify-batch shapes x three quantized precisions expected"
        );
        let verify_shapes = base.entries.iter().filter(|(s, ..)| s.contains("_verify")).count();
        assert!(
            verify_shapes >= 6,
            "verify-batch shapes (m=2/4/8 at both decode dims) must stay pinned for the INT8/INT4 fused-vs-dequant gate"
        );
    }
}
