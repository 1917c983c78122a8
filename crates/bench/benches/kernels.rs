//! Microbenchmarks on the *executable* substrate: quantization codecs,
//! full transformer decode steps, the BPE tokenizer and the KV block
//! allocator.
//!
//! The NT matrix products themselves — f32, f16, INT8 and INT4, fused and
//! dequantize-then-dot, serial and parallel — are timed by the
//! `bench_kernels` binary at the committed paper shapes
//! (`BENCH_kernels.json`), so they have no criterion group here.

use criterion::{criterion_group, criterion_main, Criterion};
use edgellm_corpus::{BpeTokenizer, CorpusKind, SyntheticCorpus};
use edgellm_nn::{TinyCausalLm, TinyConfig, WeightPrecision};
use edgellm_quant::QuantizedWeights;
use edgellm_tensor::Matrix;
use std::hint::black_box;

/// Transformer-ish weight shape: (ffn × hidden).
const K: usize = 256;
const N: usize = 512;

fn bench_quantize_codecs(c: &mut Criterion) {
    let w = Matrix::rand_normal(N, K, 0.05, 3);
    let mut g = c.benchmark_group("quantize_512x256");
    for prec in [WeightPrecision::Fp16, WeightPrecision::Int8, WeightPrecision::Int4] {
        g.bench_function(prec.label(), |b| {
            b.iter(|| QuantizedWeights::quantize(black_box(&w), prec))
        });
    }
    g.finish();
}

fn bench_transformer_decode(c: &mut Criterion) {
    // Full decode steps at each precision on a real transformer — the
    // §3.3 mechanism end-to-end: smaller models feel dequant overhead.
    let base = TinyCausalLm::new(TinyConfig::small(7));
    let mut g = c.benchmark_group("transformer_decode_step");
    for prec in
        [WeightPrecision::Fp32, WeightPrecision::Fp16, WeightPrecision::Int8, WeightPrecision::Int4]
    {
        let model = base.to_precision(prec);
        g.bench_function(prec.label(), |b| {
            b.iter(|| {
                let mut cache = model.new_cache();
                for t in 0..16u32 {
                    black_box(model.forward_step(t, &mut cache));
                }
            })
        });
    }
    g.finish();
}

fn bench_bpe(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(CorpusKind::WikiText2Like, 5_000, 9);
    let tok = BpeTokenizer::train(&corpus.text, 512);
    let sample = SyntheticCorpus::generate(CorpusKind::WikiText2Like, 1_000, 10).text;
    let mut g = c.benchmark_group("bpe");
    g.bench_function("encode_1k_words", |b| b.iter(|| tok.encode(black_box(&sample))));
    let ids = tok.encode(&sample);
    g.bench_function("decode_1k_words", |b| b.iter(|| tok.decode(black_box(&ids))));
    g.finish();
}

fn bench_kv_allocator(c: &mut Criterion) {
    use edgellm_mem::PagedKv;
    c.bench_function("kv_alloc/register_append_release_32seq", |b| {
        b.iter(|| {
            // 32 seqs × 96 tokens need 192 two-MB blocks; give the pool 256.
            let mut a = PagedKv::new(1 << 29, 16, 131_072);
            for s in 0..32 {
                a.register(s);
                a.append(s, 96).unwrap();
            }
            for s in 0..32 {
                a.release(s).unwrap();
            }
            black_box(a.free_blocks())
        })
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(30);
    targets = bench_quantize_codecs, bench_transformer_decode, bench_bpe, bench_kv_allocator
}
criterion_main!(kernels);
