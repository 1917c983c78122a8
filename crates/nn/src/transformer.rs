//! A decoder-only transformer with a real KV cache.
//!
//! This is the executable stand-in for the serving stack the paper drives
//! through HuggingFace `transformers`: RoPE positions, grouped-query
//! attention, SwiGLU MLPs and per-layer KV caching. It is used to (a)
//! validate decode mechanics — the logits a cached incremental decode
//! produces are exactly those of a from-scratch forward — and (b) put the
//! quantized kernels under a transformer-shaped load in the benchmarks,
//! demonstrating on a real code path why dequantization makes small models
//! slower (the paper's §3.3 finding).

use crate::linear::Linear;
use edgellm_quant::WeightPrecision;
use edgellm_tensor::ops::{rmsnorm_rows, rope_inplace, rope_table, silu_inplace, softmax_inplace};
use edgellm_tensor::Matrix;
use rayon::prelude::*;

/// Transformer hyperparameters (a scaled-down `edgellm_models::ModelArch`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TinyConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Residual width.
    pub d_model: usize,
    /// Layer count.
    pub layers: usize,
    /// Query heads.
    pub heads: usize,
    /// Key/value heads (< heads ⇒ GQA).
    pub kv_heads: usize,
    /// Per-head width.
    pub head_dim: usize,
    /// MLP intermediate width.
    pub ffn: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl TinyConfig {
    /// A small config for tests and benches.
    pub fn small(seed: u64) -> Self {
        TinyConfig {
            vocab: 256,
            d_model: 64,
            layers: 2,
            heads: 4,
            kv_heads: 2,
            head_dim: 16,
            ffn: 128,
            seed,
        }
    }

    fn q_dim(&self) -> usize {
        self.heads * self.head_dim
    }

    fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }
}

#[derive(Debug, Clone)]
struct Block {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    w_gate: Linear,
    w_up: Linear,
    w_down: Linear,
    norm_attn: Vec<f32>,
    norm_mlp: Vec<f32>,
}

/// Per-sequence key/value cache: one growable `(tokens × kv_dim)` buffer
/// per layer for keys and values.
#[derive(Debug, Clone)]
pub struct KvCache {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    kv_dim: usize,
    tokens: usize,
}

impl KvCache {
    /// Empty cache for a model with `layers` layers.
    pub fn new(layers: usize, kv_dim: usize) -> Self {
        KvCache { k: vec![Vec::new(); layers], v: vec![Vec::new(); layers], kv_dim, tokens: 0 }
    }

    /// Tokens cached so far.
    pub fn len(&self) -> usize {
        self.tokens
    }

    /// True for a fresh cache.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }

    /// Bytes held (f32 storage).
    pub fn bytes(&self) -> usize {
        self.k.iter().map(|l| l.len() * 4).sum::<usize>()
            + self.v.iter().map(|l| l.len() * 4).sum::<usize>()
    }

    /// Discard every cached token past the first `tokens` — the model
    /// half of block-granular preemption: the paged allocator keeps a
    /// prefix's blocks, the cache rolls back to exactly that prefix and
    /// [`TinyCausalLm::prefill_from`] resumes from there. No-op when
    /// the cache is already at or below `tokens`.
    pub fn truncate(&mut self, tokens: usize) {
        if tokens >= self.tokens {
            return;
        }
        for l in &mut self.k {
            l.truncate(tokens * self.kv_dim);
        }
        for l in &mut self.v {
            l.truncate(tokens * self.kv_dim);
        }
        self.tokens = tokens;
    }
}

/// The model.
#[derive(Debug, Clone)]
pub struct TinyCausalLm {
    /// Hyperparameters.
    pub cfg: TinyConfig,
    emb: Matrix,
    blocks: Vec<Block>,
    final_norm: Vec<f32>,
    lm_head: Linear,
}

impl TinyCausalLm {
    /// Randomly-initialized model (deterministic under the config seed).
    pub fn new(cfg: TinyConfig) -> Self {
        let mut seed = cfg.seed;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed
        };
        let mk = |inf: usize, outf: usize, s: u64| {
            let mut l = Linear::new(inf, outf, s);
            l.bias = None;
            l
        };
        let blocks = (0..cfg.layers)
            .map(|_| Block {
                wq: mk(cfg.d_model, cfg.q_dim(), next()),
                wk: mk(cfg.d_model, cfg.kv_dim(), next()),
                wv: mk(cfg.d_model, cfg.kv_dim(), next()),
                wo: mk(cfg.q_dim(), cfg.d_model, next()),
                w_gate: mk(cfg.d_model, cfg.ffn, next()),
                w_up: mk(cfg.d_model, cfg.ffn, next()),
                w_down: mk(cfg.ffn, cfg.d_model, next()),
                norm_attn: vec![1.0; cfg.d_model],
                norm_mlp: vec![1.0; cfg.d_model],
            })
            .collect();
        TinyCausalLm {
            cfg,
            emb: Matrix::rand_normal(cfg.vocab, cfg.d_model, 0.05, next()),
            blocks,
            final_norm: vec![1.0; cfg.d_model],
            lm_head: mk(cfg.d_model, cfg.vocab, next()),
        }
    }

    /// Fresh cache sized for this model.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.cfg.layers, self.cfg.kv_dim())
    }

    /// Decode one token: append it to the cache and return next-token
    /// logits. This is the auto-regressive inner loop whose cost the
    /// perf model simulates at device scale: [`Self::prefill`]'s layer
    /// stack over a single row.
    pub fn forward_step(&self, token: u32, cache: &mut KvCache) -> Vec<f32> {
        #[cfg(feature = "trace")]
        let _span = edgellm_trace::span!("decode_step", "nn");
        self.forward_rows(&[token], cache).into_vec()
    }

    /// Batched prefill: consume all of `tokens` in one pass and return the
    /// `(tokens × vocab)` logits matrix (row `i` = logits after consuming
    /// `tokens[..=i]`).
    ///
    /// This is the compute-bound phase of the paper's prefill/decode split:
    /// every projection runs as one `(T × in)·(out × in)ᵀ` matmul instead
    /// of `T` single-row products, which is what lets the blocked kernels
    /// reuse weight tiles across the batch. Because every matmul kernel in
    /// `edgellm-tensor` computes each output element in a fixed
    /// per-element accumulation order (independent of batch size, dispatch
    /// path and thread count), the logits and the cache contents are
    /// **bit-identical** to calling [`Self::forward_step`] per token.
    pub fn prefill(&self, tokens: &[u32], cache: &mut KvCache) -> Matrix {
        #[cfg(feature = "trace")]
        let _span = edgellm_trace::span!("prefill", "nn");
        if tokens.is_empty() {
            return Matrix::zeros(0, self.cfg.vocab);
        }
        self.forward_rows(tokens, cache)
    }

    /// The layer stack over `T = tokens.len() ≥ 1` rows: row `i` sits at
    /// position `cache.len() + i`, appends its keys and values to every
    /// layer's cache and attends causally over the cache through itself.
    /// Returns the `(T × vocab)` logits.
    fn forward_rows(&self, tokens: &[u32], cache: &mut KvCache) -> Matrix {
        let cfg = &self.cfg;
        let t = tokens.len();
        let base = cache.tokens;
        let mut h = Matrix::zeros(t, cfg.d_model);
        for (i, &tok) in tokens.iter().enumerate() {
            h.row_mut(i).copy_from_slice(self.emb.row(tok as usize));
        }
        // One `(sin, cos)` table for the rows' positions, shared by q and
        // k of every head and layer.
        let rope = rope_table(cfg.head_dim, base..base + t, 10000.0);

        for (l, blk) in self.blocks.iter().enumerate() {
            // --- attention ---
            #[cfg(feature = "trace")]
            let attention_span = edgellm_trace::span!("attention", "nn");
            let mut xn = h.clone();
            rmsnorm_rows(&mut xn, &blk.norm_attn, 1e-6);
            let mut q = blk.wq.forward(&xn);
            let mut k = blk.wk.forward(&xn);
            let v = blk.wv.forward(&xn);
            {
                #[cfg(feature = "trace")]
                let _span = edgellm_trace::span!("rope", "nn");
                for (i, sin_cos) in rope.chunks_exact(cfg.head_dim / 2).enumerate() {
                    rope_inplace(q.row_mut(i), cfg.head_dim, sin_cos);
                    rope_inplace(k.row_mut(i), cfg.head_dim, sin_cos);
                }
            }
            cache.k[l].extend_from_slice(k.as_slice());
            cache.v[l].extend_from_slice(v.as_slice());

            let group = cfg.heads / cfg.kv_heads;
            let scale = 1.0 / (cfg.head_dim as f32).sqrt();
            let mut attn = Matrix::zeros(t, cfg.q_dim());
            // Each token's causal attention (over its own prefix only) is
            // independent — parallelize across the rows. The per-row math
            // does not depend on the partition, so neither do the bits; a
            // single row (decode) is one part and runs inline.
            let (kl, vl) = (&cache.k[l], &cache.v[l]);
            let kv_dim = cache.kv_dim;
            attn.as_mut_slice().par_chunks_mut(cfg.q_dim()).enumerate().for_each(|(i, arow)| {
                let ctx = base + i + 1;
                let mut scores = vec![0.0f32; ctx];
                for head in 0..cfg.heads {
                    let kv_head = head / group;
                    let qh = &q.row(i)[head * cfg.head_dim..(head + 1) * cfg.head_dim];
                    for (tt, s) in scores.iter_mut().enumerate() {
                        let koff = tt * kv_dim + kv_head * cfg.head_dim;
                        *s =
                            edgellm_tensor::matmul::dot(qh, &kl[koff..koff + cfg.head_dim]) * scale;
                    }
                    softmax_inplace(&mut scores);
                    let oh = &mut arow[head * cfg.head_dim..(head + 1) * cfg.head_dim];
                    for (tt, &w) in scores.iter().enumerate() {
                        let voff = tt * kv_dim + kv_head * cfg.head_dim;
                        for (o, &x) in oh.iter_mut().zip(&vl[voff..voff + cfg.head_dim]) {
                            *o += w * x;
                        }
                    }
                }
            });
            let proj = blk.wo.forward(&attn);
            for i in 0..t {
                edgellm_tensor::ops::add_inplace(h.row_mut(i), proj.row(i));
            }
            #[cfg(feature = "trace")]
            drop(attention_span);

            // --- SwiGLU MLP ---
            #[cfg(feature = "trace")]
            let _span = edgellm_trace::span!("mlp", "nn");
            let mut xn = h.clone();
            rmsnorm_rows(&mut xn, &blk.norm_mlp, 1e-6);
            let mut gate = blk.w_gate.forward(&xn);
            silu_inplace(gate.as_mut_slice());
            let up = blk.w_up.forward(&xn);
            for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                *g *= u;
            }
            let down = blk.w_down.forward(&gate);
            for i in 0..t {
                edgellm_tensor::ops::add_inplace(h.row_mut(i), down.row(i));
            }
        }
        cache.tokens += t;

        #[cfg(feature = "trace")]
        let _span = edgellm_trace::span!("lm_head", "nn");
        rmsnorm_rows(&mut h, &self.final_norm, 1e-6);
        self.lm_head.forward(&h)
    }

    /// Resume prefill from a cached prefix: roll `cache` back to its
    /// first `cache_len` tokens (what the paged KV cache still holds —
    /// a radix prefix hit, or the surviving blocks after a preemption)
    /// and prefill only the uncached suffix `tokens[cache_len..]`.
    ///
    /// Returns the suffix logits (row `i` = logits after
    /// `tokens[..=cache_len + i]`; zero rows when the prompt was fully
    /// cached). Because every kernel accumulates in a fixed per-element
    /// order regardless of batch shape, the resumed logits and final
    /// cache are **bit-identical** to a cold [`Self::prefill`] of the
    /// whole prompt — the equivalence the serve scheduler's
    /// cached-suffix billing relies on.
    ///
    /// # Panics
    /// When `cache_len` exceeds the prompt length or the cache's fill.
    pub fn prefill_from(&self, cache_len: usize, tokens: &[u32], cache: &mut KvCache) -> Matrix {
        assert!(
            cache_len <= tokens.len(),
            "cached prefix {cache_len} longer than prompt {}",
            tokens.len()
        );
        assert!(
            cache_len <= cache.len(),
            "cache holds {} tokens, cannot resume from {cache_len}",
            cache.len()
        );
        cache.truncate(cache_len);
        self.prefill(&tokens[cache_len..], cache)
    }

    /// Logits after consuming all of `tokens` from a fresh cache.
    pub fn full_logits(&self, tokens: &[u32]) -> Vec<f32> {
        let mut cache = self.new_cache();
        let logits = self.prefill(tokens, &mut cache);
        if logits.rows == 0 {
            return Vec::new();
        }
        logits.row(logits.rows - 1).to_vec()
    }

    /// Greedy-decode `n` tokens after a prompt (batched prefill, then the
    /// auto-regressive decode loop).
    pub fn generate_greedy(&self, prompt: &[u32], n: usize) -> Vec<u32> {
        let mut cache = self.new_cache();
        let mut logits = if prompt.is_empty() {
            vec![0.0]
        } else {
            let lg = self.prefill(prompt, &mut cache);
            lg.row(lg.rows - 1).to_vec()
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = edgellm_tensor::sampling::argmax(&logits) as u32;
            out.push(t);
            logits = self.forward_step(t, &mut cache);
        }
        out
    }

    /// A copy with every projection at the given precision (embeddings and
    /// norms stay high precision, as on device).
    pub fn to_precision(&self, prec: WeightPrecision) -> TinyCausalLm {
        TinyCausalLm {
            cfg: self.cfg,
            emb: self.emb.clone(),
            blocks: self
                .blocks
                .iter()
                .map(|b| Block {
                    wq: b.wq.to_precision(prec),
                    wk: b.wk.to_precision(prec),
                    wv: b.wv.to_precision(prec),
                    wo: b.wo.to_precision(prec),
                    w_gate: b.w_gate.to_precision(prec),
                    w_up: b.w_up.to_precision(prec),
                    w_down: b.w_down.to_precision(prec),
                    norm_attn: b.norm_attn.clone(),
                    norm_mlp: b.norm_mlp.clone(),
                })
                .collect(),
            final_norm: self.final_norm.clone(),
            lm_head: self.lm_head.to_precision(prec),
        }
    }
}

impl crate::scorer::CausalScorer for TinyCausalLm {
    fn vocab_size(&self) -> usize {
        self.cfg.vocab
    }

    /// NLL of `window[pos]` given the full preceding window — a real
    /// transformer scorer (O(n) per position through the KV cache).
    fn nll_at(&self, window: &[u32], pos: usize) -> f64 {
        let logits = self.full_logits(&window[..pos]);
        let ls = edgellm_tensor::ops::log_softmax(&logits);
        -ls[window[pos] as usize % self.cfg.vocab] as f64
    }

    /// Batched span scoring: one batched prefill over the window — token
    /// `window[start + i]` is scored against logits row `start + i − 1`
    /// (the logits after its prefix), all produced by a single pass.
    fn nll_span(&self, window: &[u32], start: usize) -> Vec<f64> {
        assert!(start >= 1, "need at least one context token");
        let mut cache = self.new_cache();
        let logits = self.prefill(window, &mut cache);
        window[start..]
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let ls = edgellm_tensor::ops::log_softmax(logits.row(start + i - 1));
                -ls[t as usize % self.cfg.vocab] as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logits_are_finite_and_deterministic() {
        let m = TinyCausalLm::new(TinyConfig::small(1));
        let a = m.full_logits(&[1, 2, 3, 4]);
        let b = m.full_logits(&[1, 2, 3, 4]);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn cache_prefix_purity() {
        // Logits observed mid-stream must not depend on future tokens.
        let m = TinyCausalLm::new(TinyConfig::small(2));
        let prefix = [5u32, 9, 17];
        let last_of_prefix = m.full_logits(&prefix);
        let mut cache = m.new_cache();
        let mut seen = Vec::new();
        for &t in prefix.iter().chain([33u32, 44].iter()) {
            let l = m.forward_step(t, &mut cache);
            seen.push(l);
        }
        assert_eq!(seen[2], last_of_prefix);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn prefill_is_bitwise_equal_to_stepping() {
        // The load-bearing equivalence: batched prefill and token-by-token
        // decode must agree to the bit, at every precision. Both run one
        // layer stack, so this pins the kernels: T rows at once and one
        // row at a time give the same bits. 21 rows run two full groups
        // of the batched INT4 kernel and five leftover rows.
        let base_model = TinyCausalLm::new(TinyConfig::small(11));
        let tokens: Vec<u32> = (0..21u32).map(|i| (i * 37 + 3) % 256).collect();
        for prec in [
            None,
            Some(WeightPrecision::Fp16),
            Some(WeightPrecision::Int8),
            Some(WeightPrecision::Int4),
        ] {
            let m = match prec {
                None => base_model.clone(),
                Some(p) => base_model.to_precision(p),
            };
            let mut step_cache = m.new_cache();
            let stepped: Vec<Vec<f32>> =
                tokens.iter().map(|&t| m.forward_step(t, &mut step_cache)).collect();
            let mut pre_cache = m.new_cache();
            let batched = m.prefill(&tokens, &mut pre_cache);
            for (i, srow) in stepped.iter().enumerate() {
                assert_eq!(batched.row(i), srow.as_slice(), "{prec:?} row {i}");
            }
            assert_eq!(pre_cache.len(), step_cache.len(), "{prec:?}");
            assert_eq!(pre_cache.k, step_cache.k, "{prec:?} cached keys");
            assert_eq!(pre_cache.v, step_cache.v, "{prec:?} cached values");
        }
    }

    #[test]
    fn prefill_resumes_mid_stream() {
        // prefill after a partially-filled cache continues the sequence.
        let m = TinyCausalLm::new(TinyConfig::small(12));
        let mut cache = m.new_cache();
        m.forward_step(9, &mut cache);
        m.forward_step(30, &mut cache);
        let batched = m.prefill(&[7, 2, 101], &mut cache);
        assert_eq!(cache.len(), 5);
        assert_eq!(batched.row(2), m.full_logits(&[9, 30, 7, 2, 101]).as_slice());
    }

    #[test]
    fn prefill_from_matches_cold_prefill_at_all_precisions() {
        // The serve-layer equivalence: resuming from a cached shared
        // prefix (what a radix hit hands the model) must reproduce the
        // cold full-prompt prefill bit for bit — logits and cache. The
        // cold prefill runs 27 rows and the warm one 21, so both cross
        // the batched INT4 kernel's groups and remainders.
        let base_model = TinyCausalLm::new(TinyConfig::small(21));
        let shared: Vec<u32> = vec![4, 90, 7, 255, 31, 18];
        let mut a = shared.clone();
        a.extend([10, 11, 12]);
        let mut b = shared.clone();
        b.extend((0..21u32).map(|i| (i * 53 + 25) % 256));
        for prec in [
            None,
            Some(WeightPrecision::Fp16),
            Some(WeightPrecision::Int8),
            Some(WeightPrecision::Int4),
        ] {
            let m = match prec {
                None => base_model.clone(),
                Some(p) => base_model.to_precision(p),
            };
            let mut cold_cache = m.new_cache();
            let cold = m.prefill(&b, &mut cold_cache);
            // Warm path: request `a` populated the cache; request `b`
            // resumes from the shared prefix `a` left behind.
            let mut cache = m.new_cache();
            m.prefill(&a, &mut cache);
            let warm = m.prefill_from(shared.len(), &b, &mut cache);
            assert_eq!(warm.rows, b.len() - shared.len());
            for i in 0..warm.rows {
                assert_eq!(warm.row(i), cold.row(shared.len() + i), "{prec:?} suffix row {i}");
            }
            assert_eq!(cache.len(), cold_cache.len(), "{prec:?}");
            assert_eq!(cache.k, cold_cache.k, "{prec:?} resumed keys");
            assert_eq!(cache.v, cold_cache.v, "{prec:?} resumed values");
        }
    }

    #[test]
    fn truncate_rolls_back_to_the_prefix_exactly() {
        let m = TinyCausalLm::new(TinyConfig::small(22));
        let tokens = [9u32, 30, 7, 2, 101];
        let mut full = m.new_cache();
        m.prefill(&tokens, &mut full);
        let mut prefix_only = m.new_cache();
        m.prefill(&tokens[..3], &mut prefix_only);
        full.truncate(3);
        assert_eq!(full.len(), 3);
        assert_eq!(full.k, prefix_only.k);
        assert_eq!(full.v, prefix_only.v);
        // Truncating past the fill is a no-op.
        full.truncate(10);
        assert_eq!(full.len(), 3);
    }

    #[test]
    fn fully_cached_prompt_resumes_to_nothing() {
        let m = TinyCausalLm::new(TinyConfig::small(23));
        let tokens = [1u32, 2, 3, 4];
        let mut cache = m.new_cache();
        m.prefill(&tokens, &mut cache);
        let lg = m.prefill_from(tokens.len(), &tokens, &mut cache);
        assert_eq!(lg.rows, 0, "nothing left to prefill");
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn empty_prefill_is_a_no_op() {
        let m = TinyCausalLm::new(TinyConfig::small(13));
        let mut cache = m.new_cache();
        let lg = m.prefill(&[], &mut cache);
        assert_eq!((lg.rows, lg.cols), (0, 256));
        assert_eq!(cache.len(), 0);
        assert_eq!(m.full_logits(&[]), Vec::<f32>::new());
    }

    #[test]
    fn position_matters() {
        // RoPE: the same token at different positions yields different
        // logits (a pure bag-of-tokens bug would make these equal).
        let m = TinyCausalLm::new(TinyConfig::small(3));
        let a = m.full_logits(&[7, 7]);
        let b = m.full_logits(&[7, 7, 7]);
        assert_ne!(a, b);
    }

    #[test]
    fn cache_grows_linearly() {
        let m = TinyCausalLm::new(TinyConfig::small(4));
        let mut cache = m.new_cache();
        m.forward_step(1, &mut cache);
        let one = cache.bytes();
        for t in 2..=8 {
            m.forward_step(t, &mut cache);
        }
        assert_eq!(cache.bytes(), one * 8);
        // Per-token bytes: 2 (K,V) × layers × kv_dim × 4.
        assert_eq!(one, 2 * 2 * 32 * 4);
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let m = TinyCausalLm::new(TinyConfig::small(5));
        assert_eq!(m.generate_greedy(&[1, 2], 6), m.generate_greedy(&[1, 2], 6));
    }

    #[test]
    fn quantized_models_track_f32_logits() {
        let m = TinyCausalLm::new(TinyConfig::small(6));
        let tokens = [3u32, 14, 15, 9, 2];
        let base = m.full_logits(&tokens);
        for (prec, tol) in [
            (WeightPrecision::Fp16, 0.02f32),
            (WeightPrecision::Int8, 0.25),
            (WeightPrecision::Int4, 1.5),
        ] {
            let q = m.to_precision(prec).full_logits(&tokens);
            let rms: f32 = base.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt()
                / (base.len() as f32).sqrt();
            assert!(rms < tol, "{prec:?} rms {rms}");
        }
    }

    #[test]
    fn scorer_span_matches_pointwise() {
        use crate::scorer::CausalScorer;
        let m = TinyCausalLm::new(TinyConfig::small(8));
        let w: Vec<u32> = (0..12).map(|i| (i * 13 % 256) as u32).collect();
        let span = m.nll_span(&w, 3);
        assert_eq!(span.len(), 9);
        for (i, &v) in span.iter().enumerate() {
            let p = m.nll_at(&w, 3 + i);
            assert!((v - p).abs() < 1e-5, "pos {i}: {v} vs {p}");
        }
    }

    #[test]
    fn untrained_transformer_scores_near_uniform() {
        use crate::scorer::CausalScorer;
        let m = TinyCausalLm::new(TinyConfig::small(9));
        let w: Vec<u32> = (0..40).map(|i| (i * 7 % 256) as u32).collect();
        let mean: f64 = m.nll_span(&w, 1).iter().sum::<f64>() / (w.len() - 1) as f64;
        let uniform = (256f64).ln();
        assert!((mean - uniform).abs() < 1.5, "mean nll {mean} vs ln V {uniform}");
    }

    #[test]
    fn gqa_uses_fewer_kv_bytes_than_mha() {
        let mut cfg = TinyConfig::small(7);
        cfg.kv_heads = cfg.heads; // MHA variant
        let mha = TinyCausalLm::new(cfg);
        let gqa = TinyCausalLm::new(TinyConfig::small(7));
        let mut cm = mha.new_cache();
        let mut cg = gqa.new_cache();
        for t in 0..4 {
            mha.forward_step(t, &mut cm);
            gqa.forward_step(t, &mut cg);
        }
        assert_eq!(cm.bytes(), 2 * cg.bytes());
    }
}
