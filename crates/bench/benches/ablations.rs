//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! Each ablation prints its comparison once (the quantity of interest is
//! usually accuracy/footprint, not time) and Criterion-measures the
//! alternatives where speed is the trade-off.

use criterion::{criterion_group, criterion_main, Criterion};
use edgellm_hw::DeviceSpec;
use edgellm_mem::{ActivationCalib, MemoryModel, PagedKv};
use edgellm_models::{Llm, Precision};
use edgellm_perf::{ModelCalib, PerfModel};
use edgellm_tensor::{matmul::matmul_nt, Matrix, QInt8Matrix};
use std::hint::black_box;

/// LLM.int8() outlier decomposition on/off: accuracy vs speed.
fn ablate_outlier_decomposition(c: &mut Criterion) {
    let mut w = Matrix::rand_normal(512, 256, 0.05, 1);
    // Plant outlier feature columns like real transformer activations have.
    for r in 0..512 {
        w.set(r, 17, 1.5);
        w.set(r, 200, -1.2);
    }
    let x = Matrix::rand_kaiming(32, 256, 2);
    let exact = matmul_nt(&x, &w);
    let with = QInt8Matrix::from_f32(&w);
    let without = QInt8Matrix::from_f32_with_factor(&w, f32::INFINITY);
    let err = |m: &Matrix| -> f64 {
        m.as_slice()
            .iter()
            .zip(exact.as_slice())
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / m.len() as f64
    };
    println!(
        "[ablate_outlier_decomposition] mse with outliers: {:.3e} ({} cols), without: {:.3e}",
        err(&with.matmul_nt(&x)),
        with.n_outliers(),
        err(&without.matmul_nt(&x)),
    );
    let mut g = c.benchmark_group("ablate_outlier_decomposition");
    g.bench_function("with_outliers", |b| b.iter(|| with.matmul_nt(black_box(&x))));
    g.bench_function("pure_int8", |b| b.iter(|| without.matmul_nt(black_box(&x))));
    g.finish();
}

/// Host-overhead term zeroed: shows why a pure roofline mispredicts Jetson
/// latencies (the paper's CPU-frequency sensitivity, §3.4, vanishes).
fn ablate_host_overhead(c: &mut Criterion) {
    let dev = DeviceSpec::orin_agx_64gb();
    let clocks = dev.max_clocks();
    let full = PerfModel::new(dev.clone(), Llm::DeepseekQwen32b, Precision::Int8, clocks);
    let mut calib = ModelCalib::for_llm(Llm::DeepseekQwen32b);
    calib.host_s = 0.0;
    calib.int8_layer_s = 0.0;
    let roofline =
        PerfModel::with_calib(dev.clone(), Llm::DeepseekQwen32b, Precision::Int8, clocks, calib);
    println!(
        "[ablate_host_overhead] DeepSeek bs=1 sl=96: full model {:.1}s (paper: 43.25s), \
         pure roofline {:.1}s — the host/dispatch term carries the difference",
        full.latency_s(1, 32, 64),
        roofline.latency_s(1, 32, 64),
    );
    let mut g = c.benchmark_group("ablate_host_overhead");
    g.bench_function("full_model", |b| b.iter(|| full.latency_s(32, 32, 64)));
    g.bench_function("pure_roofline", |b| b.iter(|| roofline.latency_s(32, 32, 64)));
    g.finish();
}

/// GQA vs MHA KV footprint: why Phi-2 (MHA + FP32 cache) OoMs first.
fn ablate_gqa(_c: &mut Criterion) {
    let mut mha = Llm::Llama31_8b.arch();
    mha.kv_heads = mha.heads; // hypothetical MHA Llama
    let gqa = Llm::Llama31_8b.arch();
    let per_tok = |a: &edgellm_models::ModelArch| a.kv_bytes_per_token() as f64 / 1e3;
    println!(
        "[ablate_gqa] Llama-3.1 KV/token: GQA {:.0} KB vs hypothetical MHA {:.0} KB \
         (×{:.0}); Phi-2 (MHA+FP32 cache) {:.0} KB — the Table 6/7 OoM mechanism",
        per_tok(&gqa),
        per_tok(&mha),
        per_tok(&mha) / per_tok(&gqa),
        Llm::Phi2.arch().kv_bytes_per_token() as f64 / 1e3,
    );
}

/// Paged vs contiguous KV reservation: fragmentation head-room.
fn ablate_kv_paging(c: &mut Criterion) {
    // Contiguous: every sequence reserves max-context up front. Paged:
    // blocks on demand. Compare how many 96-token sequences fit in 8 GB.
    let bytes_per_token = Llm::Llama31_8b.arch().kv_bytes_per_token();
    let pool: u64 = 8 << 30;
    let max_ctx = 1024u64;
    let contiguous_fit = pool / (max_ctx * bytes_per_token);
    let mut paged = PagedKv::new(pool, 16, bytes_per_token);
    let mut paged_fit = 0u32;
    loop {
        paged.register(paged_fit);
        if paged.append(paged_fit, 96).is_err() {
            break;
        }
        paged_fit += 1;
    }
    // Reserved-but-unused share of the held blocks.
    let fragmentation =
        1.0 - (paged_fit as u64 * 96 * bytes_per_token) as f64 / paged.reserved_bytes() as f64;
    println!(
        "[ablate_kv_paging] 8 GB KV pool, 96-token sequences: contiguous \
         (1024-token reservations) fits {contiguous_fit}, paged fits {paged_fit} \
         (fragmentation {:.1}%)",
        fragmentation * 100.0
    );
    c.bench_function("ablate_kv_paging/paged_append_96tok", |b| {
        b.iter(|| {
            let mut a = PagedKv::new(1 << 26, 16, bytes_per_token);
            a.register(0);
            a.append(0, 96).unwrap();
            black_box(a.reserved_bytes())
        })
    });
}

/// Quadratic activation term on/off vs the paper's Phi-2 memory column.
fn ablate_quadratic_activations(_c: &mut Criterion) {
    let with = MemoryModel::new(Llm::Phi2, Precision::Fp16, 64.0);
    let mut no_quad = ActivationCalib::for_llm(Llm::Phi2);
    no_quad.c_quad = 0.0;
    let arch = Llm::Phi2.arch();
    let linear_only = |bs: u64, sl: u64| {
        (arch.weight_bytes(Precision::Fp16) as f64
            + (bs * sl * arch.kv_bytes_per_token()) as f64
            + no_quad.bytes(bs, sl))
            / 1e9
    };
    println!("[ablate_quadratic_activations] Phi-2 peak GB at bs=32 (paper Table 7):");
    for (sl, paper) in [(128u64, Some(9.19)), (256, Some(19.98)), (512, None)] {
        let p = paper.map_or("OOM".to_string(), |v| format!("{v:.1}"));
        println!(
            "  sl={sl:4}: quadratic {:.1} GB, linear-only {:.1} GB, paper {p}",
            with.peak_total_gb(32, sl),
            linear_only(32, sl),
        );
    }
    println!(
        "  → without the quadratic term Phi-2 would wrongly fit at sl=512 \
         ({:.1} GB < 62 GB usable)",
        linear_only(32, 512)
    );
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(20);
    targets = ablate_outlier_decomposition, ablate_host_overhead, ablate_gqa,
        ablate_kv_paging, ablate_quadratic_activations
}
criterion_main!(ablations);
