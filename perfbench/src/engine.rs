//! Closed-loop streams through the real `TinyCausalLm` engine
//! (`edgellm-nn` over `edgellm-tensor`).
//!
//! One client sends each prompt, waits for its last token, then sends
//! the next. Every prompt is served once per pass and passes run back to
//! back until the time budget is spent. A request's TTFT and TPOT are
//! built from the fastest repetition of each of its operations seen in
//! the run (see [`Op`] and [`Phase`]), so a co-tenant stretch that slows
//! part of the run does not set the figures.

use crate::gen;
use crate::host::Cpus;
use crate::stats::{self, Digest};
use crate::tracer::Tracer;
use crate::{Measured, Metrics};
use edgellm_nn::{
    verify_step, Drafter, Linear, Matrix, PromptLookupDrafter, TinyCausalLm, TinyConfig,
    WeightPrecision,
};
use edgellm_tensor::sampling::argmax;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One engine workload.
#[derive(Debug, Clone)]
pub struct EnginePlan {
    /// The model.
    pub cfg: TinyConfig,
    /// Projection precision.
    pub prec: WeightPrecision,
    /// Distinct prompts per pass.
    pub requests: usize,
    /// Prompt lengths: `lo..=hi` on a grid of `step`.
    pub prompt: gen::Lengths,
    /// Retrieval-style prompts (repeated passages) instead of random ones.
    pub rag: bool,
    /// Greedy output tokens per request.
    pub out_tokens: usize,
    /// Draft length for prompt-lookup speculation; 0 decodes with
    /// `forward_step` one token at a time.
    pub draft_k: usize,
    /// Fewest passes, whatever the budget.
    pub min_passes: usize,
    /// Output-token digest pinned for [`crate::DEFAULT_SEED`].
    pub pinned: Option<u64>,
}

/// The measured model: vocab 512, d_model 128, 4 layers, 4 query and 2
/// KV heads of width 32, FFN 384 — 851,968 projection weights, so the
/// weights stay inside one core's 2 MiB L2 at INT8 (0.85 MB) and INT4.
pub fn model_config() -> TinyConfig {
    TinyConfig {
        vocab: 512,
        d_model: 128,
        layers: 4,
        heads: 4,
        kv_heads: 2,
        head_dim: 32,
        ffn: 384,
        seed: 0x00ed_6e11,
    }
}

/// `chat-int4`: decode-bound greedy streaming.
pub fn chat_int4() -> EnginePlan {
    EnginePlan {
        cfg: model_config(),
        prec: WeightPrecision::Int4,
        requests: 100,
        prompt: (16, 64, 8),
        rag: false,
        out_tokens: 48,
        draft_k: 0,
        min_passes: 3,
        pinned: Some(0x69a6_e4ac_050a_a279),
    }
}

/// `rag-int8`: prefill- and verify-bound speculative decoding.
pub fn rag_int8() -> EnginePlan {
    EnginePlan {
        cfg: model_config(),
        prec: WeightPrecision::Int8,
        requests: 100,
        prompt: (48, 64, 4),
        rag: true,
        out_tokens: 32,
        draft_k: 4,
        min_passes: 3,
        pinned: Some(0x2a3d_45f8_dc90_319a),
    }
}

impl EnginePlan {
    /// A seconds-long version for tests: small model, short prompts.
    pub fn smoke(mut self) -> Self {
        self.cfg = TinyConfig::small(7);
        self.prompt = if self.rag { (16, 24, 4) } else { (4, 12, 4) };
        self.requests = 100;
        self.out_tokens = 6;
        self.min_passes = 2;
        self.pinned = None;
        self
    }

    fn prompts(&self, seed: u64) -> Vec<Vec<u32>> {
        let vocab = self.cfg.vocab as u32;
        if self.rag {
            gen::rag_prompts(seed, self.requests, self.prompt, vocab)
        } else {
            gen::chat_prompts(seed, self.requests, self.prompt, vocab)
        }
    }
}

/// One build of the model: random init, then quantization.
struct Build {
    model: TinyCausalLm,
    new_s: f64,
    quantize_s: f64,
}

fn build(plan: &EnginePlan, tr: &mut Tracer) -> Build {
    let t0 = Instant::now();
    let base = tr.call("setup.model_new", 0, || TinyCausalLm::new(plan.cfg));
    let t1 = Instant::now();
    let model = tr.call("setup.quantize", 0, || base.to_precision(plan.prec));
    let t2 = Instant::now();
    Build {
        model,
        new_s: t1.duration_since(t0).as_secs_f64(),
        quantize_s: t2.duration_since(t1).as_secs_f64(),
    }
}

/// What a timed engine operation computes; two operations with the same
/// key are identical repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    /// A model call (`prefill`, `forward_step`, `verify_step`): `(cached
    /// tokens before the call, rows it processes)`. Every kernel does the
    /// same arithmetic for the same shape whatever the token values.
    Model(usize, usize),
    /// A `PromptLookupDrafter::draft` call: `(prompt, decode iteration)`.
    /// Its longest-suffix scan stops at the first match, so its work
    /// depends on the context's contents; the same draft recurs only in
    /// later passes over the same prompt.
    Draft(usize, usize),
}

/// One served request.
struct Served {
    /// Time to first token and its prefill's key.
    ttft: (Op, f64),
    /// Each operation after the first token, with its time (s).
    ops: Vec<(Op, f64)>,
    tokens: Vec<u32>,
    drafted: u64,
    accepted: u64,
    verifies: u64,
    kv_bytes: usize,
}

/// Serve prompt number `pid` as request `rid`.
fn serve(
    model: &TinyCausalLm,
    prompt: &[u32],
    pid: usize,
    plan: &EnginePlan,
    tr: &mut Tracer,
    rid: u64,
) -> Served {
    let n = plan.out_tokens;
    let span = tr.open("bench.request", rid);
    let t0 = Instant::now();
    let mut cache = model.new_cache();
    let lg = tr.call("nn.prefill", rid, || model.prefill(prompt, &mut cache));
    let mut tok = argmax(lg.row(lg.rows - 1)) as u32;
    let ttft = (Op::Model(0, prompt.len()), t0.elapsed().as_secs_f64());
    let mut out = Vec::with_capacity(n);
    out.push(tok);
    let mut ops = Vec::with_capacity(n);
    let mut last = Instant::now();
    let mut lap = |ops: &mut Vec<(Op, f64)>, op: Op| {
        let now = Instant::now();
        ops.push((op, now.duration_since(last).as_secs_f64()));
        last = now;
    };
    let (mut drafted, mut accepted, mut verifies) = (0, 0, 0);
    if plan.draft_k == 0 {
        while out.len() < n {
            let op = Op::Model(cache.len(), 1);
            let logits = tr.call("nn.forward_step", rid, || model.forward_step(tok, &mut cache));
            tok = argmax(&logits) as u32;
            out.push(tok);
            lap(&mut ops, op);
        }
    } else {
        // The loop `TinyCausalLm::generate_speculative` runs, unrolled so
        // each draft and verify call is timed on its own.
        let drafter = PromptLookupDrafter::default();
        let mut context = prompt.to_vec();
        context.push(tok);
        let mut iteration = 0;
        while out.len() < n {
            let want = plan.draft_k.min(n - out.len());
            let draft = tr.call("nn.draft", rid, || drafter.draft(&context, want));
            lap(&mut ops, Op::Draft(pid, iteration));
            let mut pending = Vec::with_capacity(1 + draft.len());
            pending.push(tok);
            pending.extend_from_slice(&draft);
            let op = Op::Model(cache.len(), pending.len());
            let vo = tr.call("nn.verify_step", rid, || verify_step(model, &mut cache, &pending));
            drafted += draft.len() as u64;
            accepted += vo.accepted as u64;
            verifies += 1;
            out.extend_from_slice(&draft[..vo.accepted]);
            context.extend_from_slice(&draft[..vo.accepted]);
            tok = argmax(&vo.logits) as u32;
            if out.len() < n {
                out.push(tok);
                context.push(tok);
            }
            lap(&mut ops, op);
            iteration += 1;
        }
    }
    tr.close(span);
    Served { ttft, ops, tokens: out, drafted, accepted, verifies, kv_bytes: cache.bytes() }
}

/// The fastest repetition of each operation over the passes of one
/// phase, and the operations each request needs. A request's figures are
/// built from the fastest repetition of each of its operations: its
/// prefill, and each decode iteration (a `forward_step`, or a draft and
/// its `verify_step`).
struct Phase {
    best: HashMap<Op, f64>,
    requests: Vec<(Op, Vec<Op>)>,
    passes: usize,
    pass_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Speculation and KV counts over the first pass (every pass repeats
    /// them exactly).
    counters: Counters,
}

impl Phase {
    fn keep(&mut self, op: Op, secs: f64) {
        let b = self.best.entry(op).or_insert(secs);
        *b = b.min(secs);
    }

    /// Each request's time to first token (s).
    fn ttft(&self) -> Vec<f64> {
        self.requests.iter().map(|(p, _)| self.best[p]).collect()
    }

    /// Each request's decode time after its first token (s).
    fn decode(&self) -> Vec<f64> {
        self.requests.iter().map(|(_, d)| d.iter().map(|s| self.best[s]).sum()).collect()
    }

    /// Each request's time per output token after the first (s).
    fn tpot(&self, out_tokens: usize) -> Vec<f64> {
        let gaps = (out_tokens.max(2) - 1) as f64;
        self.decode().iter().map(|d| d / gaps).collect()
    }

    /// Output tokens per second of summed request latency.
    fn tokens_per_s(&self, out_tokens: usize) -> f64 {
        let engine_s: f64 = self.ttft().iter().chain(&self.decode()).sum();
        (self.requests.len() * out_tokens) as f64 / engine_s
    }

    /// Requests per second of summed request latency.
    fn req_per_s(&self) -> f64 {
        self.requests.len() as f64 / self.ttft().iter().chain(&self.decode()).sum::<f64>()
    }
}

#[derive(Default)]
struct Counters {
    drafted: u64,
    accepted: u64,
    verifies: u64,
    kv_bytes: usize,
}

/// Set-up is timed again after every this many requests, so its samples
/// spread over the whole run.
const BUILD_EVERY: usize = 10;

/// Serve every prompt once per pass until `budget_s` is spent, timing
/// another model build and moving to the next CPU every [`BUILD_EVERY`]
/// requests.
fn run_passes(
    plan: &EnginePlan,
    model: &TinyCausalLm,
    prompts: &[Vec<u32>],
    reference: &[Vec<u32>],
    budget_s: f64,
    tr: &mut Tracer,
    builds: &mut Vec<(f64, f64)>,
) -> Phase {
    let n = prompts.len();
    let mut ph = Phase {
        best: HashMap::new(),
        requests: Vec::with_capacity(n),
        passes: 0,
        pass_s: Vec::new(),
        attempted: 0,
        failed: 0,
        counters: Counters::default(),
    };
    let mut cpus = Cpus::new();
    let start = Instant::now();
    loop {
        let p0 = Instant::now();
        for (i, prompt) in prompts.iter().enumerate() {
            let rid = (ph.passes * n + i) as u64;
            let s = serve(model, prompt, i, plan, tr, rid);
            ph.attempted += 1;
            if s.tokens != reference[i] {
                ph.failed += 1;
            }
            ph.keep(s.ttft.0, s.ttft.1);
            s.ops.iter().for_each(|&(op, secs)| ph.keep(op, secs));
            if ph.passes == 0 {
                ph.requests.push((s.ttft.0, s.ops.iter().map(|o| o.0).collect()));
            }
            if i % BUILD_EVERY == BUILD_EVERY - 1 {
                let b = build(plan, tr);
                builds.push((b.new_s, b.quantize_s));
                cpus.rotate();
            }
            if ph.passes == 0 {
                ph.counters.drafted += s.drafted;
                ph.counters.accepted += s.accepted;
                ph.counters.verifies += s.verifies;
                ph.counters.kv_bytes += s.kv_bytes;
            }
        }
        ph.passes += 1;
        ph.pass_s.push(p0.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let pass_s = p0.elapsed().as_secs_f64();
        if ph.passes >= plan.min_passes && elapsed + pass_s > budget_s {
            return ph;
        }
    }
}

/// The workload's projection shapes `(in, out)` for one token.
fn projections(cfg: &TinyConfig) -> Vec<(usize, usize)> {
    let (d, q, kv) = (cfg.d_model, cfg.heads * cfg.head_dim, cfg.kv_heads * cfg.head_dim);
    let block = [(d, q), (d, kv), (d, kv), (q, d), (d, cfg.ffn), (d, cfg.ffn), (cfg.ffn, d)];
    let mut v: Vec<(usize, usize)> = (0..cfg.layers).flat_map(|_| block).collect();
    v.push((d, cfg.vocab));
    v
}

/// Fastest of `reps` sweeps of `Linear::forward` over every projection
/// at `m` input rows (s).
fn replay(layers: &[Linear], m: usize, reps: usize, tr: &mut Tracer, name: &'static str) -> f64 {
    let inputs: Vec<Matrix> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| Matrix::rand_normal(m, l.in_features(), 1.0, 0x5eed + i as u64))
        .collect();
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let span = tr.open(name, rep as u64);
        let t0 = Instant::now();
        for (l, x) in layers.iter().zip(&inputs) {
            black_box(tr.call("tensor.linear_forward", rep as u64, || l.forward(black_box(x))));
        }
        best = best.min(t0.elapsed().as_secs_f64());
        tr.close(span);
    }
    best
}

/// Run one engine workload for `seconds`; with `trace`, half the budget
/// runs untraced (for the overhead figure) and half traced.
pub fn run(plan: &EnginePlan, seed: u64, seconds: f64, trace: bool, tr: &mut Tracer) -> Measured {
    // A traced run splits its budget in two; two passes a phase suffice
    // for per-call medians and the overhead figure.
    let plan = &EnginePlan { min_passes: if trace { 2 } else { plan.min_passes }, ..plan.clone() };
    let mut m = Measured::default();
    let prompts = plan.prompts(seed);
    let n = prompts.len();
    tr.set_enabled(false);
    // The first build is the warm-up; `setup_s` comes from the builds
    // timed across the passes.
    let model = build(plan, tr).model;
    let mut builds = Vec::new();

    // Reference outputs, outside timing; this pass is also the warm-up.
    let reference: Vec<Vec<u32>> =
        prompts.iter().map(|p| model.generate_greedy(p, plan.out_tokens)).collect();
    let mut digest = Digest::default();
    for r in &reference {
        digest.u64(r.len() as u64);
        r.iter().for_each(|&t| digest.u64(u64::from(t)));
    }
    m.check_digest(plan.pinned, seed, digest.value());

    let budget = if trace { seconds / 2.0 } else { seconds };
    let plain = run_passes(plan, &model, &prompts, &reference, budget, tr, &mut builds);
    m.attempted += plain.attempted;
    m.failed += plain.failed;
    m.note(format!(
        "requests: {} distinct prompts x {} passes; each operation keeps its fastest repetition",
        prompts.len(),
        plain.passes
    ));
    let pass_ms: Vec<String> = plain.pass_s.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    m.note(format!("pass wall times (ms): {}", pass_ms.join(" ")));

    let setup: Vec<f64> = builds.iter().map(|(a, b)| a + b).collect();
    let setup_s = stats::setup_time(&setup);
    if !trace {
        let mut e = Metrics::default();
        e.latency_pair(&mut m, "ttft_ms", "ttft_p90_ms", &plain.ttft(), 1e3);
        e.latency_pair(&mut m, "tpot_ms", "tpot_p90_ms", &plain.tpot(plan.out_tokens), 1e3);
        e.set("tokens_per_s", plain.tokens_per_s(plan.out_tokens));
        e.set("sim_req_per_s", plain.req_per_s());
        e.set("setup_s", setup_s);
        m.note(format!("setup_s: from {} model builds spread over the run", setup.len()));
        m.metrics = e;
        return m;
    }

    tr.set_enabled(true);
    let traced = run_passes(plan, &model, &prompts, &reference, budget, tr, &mut builds);
    let spec = &traced.counters;
    m.attempted += traced.attempted;
    m.failed += traced.failed;
    let (untraced_tps, traced_tps) =
        (plain.tokens_per_s(plan.out_tokens), traced.tokens_per_s(plan.out_tokens));
    m.note(format!(
        "tracing overhead: tokens_per_s {untraced_tps:.1} untraced vs {traced_tps:.1} traced ({:+.2}%)",
        (traced_tps / untraced_tps - 1.0) * 100.0
    ));

    let layers: Vec<Linear> = projections(&plan.cfg)
        .iter()
        .enumerate()
        .map(|(i, &(inf, outf))| {
            let mut l = Linear::new(inf, outf, 0xab + i as u64);
            l.bias = None;
            l.to_precision(plan.prec)
        })
        .collect();
    let mid_prompt = stats::median(&prompts.iter().map(|p| p.len() as f64).collect::<Vec<_>>());
    let mid_prompt = mid_prompt.round() as usize;
    let gemv = replay(&layers, 1, 200, tr, "tensor.replay_m1");
    let verify = replay(&layers, 5, 100, tr, "tensor.replay_m5");
    let prefill = replay(&layers, mid_prompt, 20, tr, "tensor.replay_prefill");

    let mut p = Metrics::default();
    let us = |v: &[f64]| stats::median(v) * 1e6;
    let phase_ms = |f: fn(&(f64, f64)) -> f64| {
        stats::setup_time(&builds.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    p.set("setup.model_new_ms", phase_ms(|b| b.0));
    p.set("setup.quantize_ms", phase_ms(|b| b.1));
    let prefill_per_tok: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "nn.prefill")
        .map(|s| s.secs() / prompts[s.rid as usize % n].len() as f64)
        .collect();
    p.set("nn.prefill_us_per_token", us(&prefill_per_tok));
    let steps = tr.durations("nn.forward_step");
    p.set("nn.forward_step_us", us(&steps));
    if !steps.is_empty() {
        p.tail(&mut m, "nn.forward_step_p99_us", &steps, 0.99, 1e6);
    }
    p.set("nn.verify_step_us", us(&tr.durations("nn.verify_step")));
    p.set("nn.draft_us", us(&tr.durations("nn.draft")));
    if spec.drafted > 0 {
        p.set("nn.spec_accept_ratio", spec.accepted as f64 / spec.drafted as f64);
    }
    if spec.verifies > 0 {
        p.set("nn.tokens_per_verify", (n * (plan.out_tokens - 1)) as f64 / spec.verifies as f64);
    }
    p.set("nn.kv_bytes_per_request", spec.kv_bytes as f64 / n as f64);
    p.set("tensor.gemv_us", gemv * 1e6);
    p.set("tensor.verify_gemm_us", verify * 1e6);
    p.set("tensor.prefill_gemm_us_per_row", prefill * 1e6 / mid_prompt as f64);
    let shapes = projections(&plan.cfg);
    p.set("tensor.macs_per_token", shapes.iter().map(|&(i, o)| (i * o) as f64).sum());
    p.set("tensor.weight_bytes_per_token", layers.iter().map(|l| l.weight_bytes() as f64).sum());
    m.note(format!("tensor replay: prefill rows = median prompt length {mid_prompt}"));
    m.metrics = p;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_model_fits_the_l2_sizing_rule() {
        let shapes = projections(&model_config());
        let weights: usize = shapes.iter().map(|&(i, o)| i * o).sum();
        assert_eq!(weights, 851_968);
        // INT8 stores a byte per weight (plus scales): under 1 MiB.
        assert!(weights < 1 << 20);
    }

    #[test]
    fn served_tokens_equal_generate_greedy() {
        for plan in [chat_int4().smoke(), rag_int8().smoke()] {
            let mut tr = Tracer::new(true);
            let model = build(&plan, &mut tr).model;
            for (pid, p) in plan.prompts(3).iter().enumerate().take(5) {
                let s = serve(&model, p, pid, &plan, &mut tr, 0);
                assert_eq!(s.tokens, model.generate_greedy(p, plan.out_tokens));
                assert_eq!(s.ttft.0, Op::Model(0, p.len()));
                assert!(s.ttft.1 > 0.0);
                if plan.draft_k == 0 {
                    assert_eq!(s.ops.len(), plan.out_tokens - 1, "one forward_step per token");
                } else {
                    // Each iteration is a draft, keyed by prompt and
                    // iteration, then its verify.
                    for (j, pair) in s.ops.chunks(2).enumerate() {
                        assert_eq!(pair[0].0, Op::Draft(pid, j));
                        assert!(matches!(pair[1].0, Op::Model(_, rows) if rows >= 1));
                    }
                }
                assert!(s.ops.iter().all(|&(op, t)| t > 0.0
                    && match op {
                        Op::Model(cached, rows) => cached >= p.len() && rows >= 1,
                        Op::Draft(id, _) => id == pid,
                    }));
            }
        }
    }
}
