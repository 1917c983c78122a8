//! The `trace` feature's kernel timers, one product call at a time.
//!
//! Every product is timed by `matmul::drive`, the one function that runs
//! every product's split, under `kernel.<family>.<path>.{calls, macs, ns}`. This file holds a single
//! test, so no other test bumps the process-wide counters while it reads
//! them. Run with `cargo test -p edgellm-tensor --features trace`.

#![cfg(feature = "trace")]

use edgellm_tensor::matmul::{matmul_nn, matmul_nt, matmul_tn};
use edgellm_tensor::{F16Matrix, Matrix, QInt4Matrix, QInt8Matrix};

const PATHS: [&str; 3] = ["serial", "rows", "cols"];

/// A product's `(m, n, k)`: `(m × k)` activations against `n` weight rows.
type Shape = (usize, usize, usize);

/// Each product on each path its policy can pick: `(family, path,
/// threads, (m, n, k))`. Serial runs at one thread; every parallel shape
/// sits at or just above its policy's work floor at two threads.
const CASES: [(&str, &str, usize, Shape); 15] = [
    ("matmul_nt", "serial", 1, (4, 8, 8)),
    ("matmul_nt", "rows", 2, (32, 128, 128)),
    ("matmul_nt", "cols", 2, (1, 2048, 256)),
    ("matmul_nn", "serial", 1, (4, 8, 8)),
    ("matmul_nn", "rows", 2, (8, 256, 256)),
    ("matmul_tn", "serial", 1, (4, 8, 8)),
    ("matmul_tn", "rows", 2, (8, 256, 256)),
    ("f16_nt", "serial", 1, (4, 8, 8)),
    ("f16_nt", "rows", 2, (2, 256, 256)),
    ("f16_nt", "cols", 2, (1, 512, 256)),
    ("qint4_nt", "serial", 1, (4, 8, 8)),
    ("qint4_nt", "rows", 2, (2, 256, 256)),
    ("qint4_nt", "cols", 2, (1, 512, 256)),
    ("qint8_nt", "serial", 1, (4, 8, 8)),
    ("qint8_nt", "rows", 2, (2, 256, 256)),
];

fn counter(name: &str) -> u64 {
    edgellm_trace::registry().counter(name).get()
}

/// `kernel.<variant>.{calls, macs, ns}`.
fn read(variant: &str) -> [u64; 3] {
    ["calls", "macs", "ns"].map(|what| counter(&format!("kernel.{variant}.{what}")))
}

/// The `family` product at `shape`, with its inputs built up front.
fn product(family: &str, (m, n, k): Shape) -> Box<dyn Fn() -> Matrix> {
    let x = Matrix::rand_kaiming(m, k, 1);
    let w = Matrix::rand_kaiming(n, k, 2);
    match family {
        "matmul_nt" => Box::new(move || matmul_nt(&x, &w)),
        "matmul_nn" => {
            let w = w.transposed();
            Box::new(move || matmul_nn(&x, &w))
        }
        "matmul_tn" => {
            let (x, w) = (x.transposed(), w.transposed());
            Box::new(move || matmul_tn(&x, &w))
        }
        "f16_nt" => {
            let w = F16Matrix::from_f32(&w);
            Box::new(move || w.matmul_nt(&x))
        }
        "qint4_nt" => {
            let w = QInt4Matrix::from_f32(&w);
            Box::new(move || w.matmul_nt(&x))
        }
        "qint8_nt" => {
            let w = QInt8Matrix::from_f32(&w);
            Box::new(move || w.matmul_nt(&x))
        }
        _ => unreachable!("unknown product {family}"),
    }
}

#[test]
fn every_product_is_timed_once_on_the_path_it_takes() {
    for (family, path, threads, (m, n, k)) in CASES {
        let run = product(family, (m, n, k));
        let variants = PATHS.map(|p| format!("{family}.{p}"));
        let before = variants.clone().map(|v| read(&v));
        let quantize_before = read("qint8_nt.quantize");
        let y = rayon::with_num_threads(threads, &run);
        assert_eq!((y.rows, y.cols), (m, n), "{family}.{path}");
        let after = variants.clone().map(|v| read(&v));
        let quantize_after = read("qint8_nt.quantize");

        for (i, v) in variants.iter().enumerate() {
            let calls = u64::from(PATHS[i] == path);
            let [dc, dm, _] = [0, 1, 2].map(|j| after[i][j] - before[i][j]);
            assert_eq!(dc, calls, "kernel.{v}.calls after one {family}.{path} call");
            assert_eq!(dm, calls * (m * n * k) as u64, "kernel.{v}.macs");
        }
        // INT8 quantizes its activations once per call, inside the
        // product's own timer.
        let [qc, qm, qns] = [0, 1, 2].map(|j| quantize_after[j] - quantize_before[j]);
        let is_int8 = u64::from(family == "qint8_nt");
        assert_eq!(qc, is_int8, "kernel.qint8_nt.quantize.calls after {family}.{path}");
        assert_eq!(qm, is_int8 * (m * k) as u64, "kernel.qint8_nt.quantize.macs");
        let p = PATHS.iter().position(|&p| p == path).expect("a known path");
        let path_ns = after[p][2] - before[p][2];
        assert!(qns <= path_ns, "quantize took {qns} ns of a {path_ns} ns {family}.{path} call");
    }
}
