//! Configuration and outcome of the event-driven, iteration-level
//! serving scheduler.
//!
//! [`ServeSim`](crate::serve::ServeSim) drives a trace of requests to
//! completion one engine iteration at a time, with three upgrades over
//! static batching:
//!
//! 1. **Chunked prefill** ([`PrefillPolicy::Chunked`]): prompt processing
//!    advances a fixed token chunk per iteration, fused with the running
//!    decode batch. On an edge accelerator decode is weight-stream bound,
//!    so a chunk's FLOPs largely ride the bandwidth the decode step
//!    already pays — only the compute *excess* over the shared stream
//!    lengthens the iteration. The blocking policy instead charges each
//!    admission a full solo prefill that stalls every live sequence
//!    (HF-generate style), accumulated in
//!    [`ContinuousReport::prefill_stall_s`].
//! 2. **Live KV accounting**: every cached token is drawn from a
//!    [`PagedKv`](edgellm_mem::PagedKv) block pool sized from
//!    what the device has left after weights and an activation reserve —
//!    not from a static worst-case concurrency clamp. When an iteration's
//!    growth cannot be served, the youngest live sequence is preempted:
//!    its blocks are freed and it is re-queued with a recompute penalty
//!    (its regenerated tokens join the prompt it must prefill again).
//! 3. **Per-iteration energy**: each iteration charges
//!    `dt × RailModel::total_w` under the phase's utilization profile
//!    (idle gaps at the idle profile), emitting an
//!    [`IterationTrace`](crate::serve::IterationTrace) so the energy
//!    integral and KV pressure are inspectable step by step.
//!
//! This module holds the knobs ([`ServeConfig`]) and the outcome of a
//! finished run ([`ServeRun`]).

use crate::continuous::ContinuousReport;
use crate::serve::sim::ServeAudit;

/// Tokens per KV-cache block (matches the engine's paged allocator).
pub const KV_BLOCK_TOKENS: u64 = 16;

/// Default prefill chunk, in tokens, fused into each decode iteration.
///
/// Matches the paper workload's mean prompt (32 tokens): typical prompts
/// finish prefill in one or two fused iterations while long prompts
/// cannot monopolize the engine.
pub const DEFAULT_CHUNK_TOKENS: u64 = 32;

/// How prompt processing is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillPolicy {
    /// Each admission runs its whole prefill as a solo iteration,
    /// stalling every decoding sequence (the measured HF-stack regime).
    Blocking,
    /// Prefill advances at most `chunk_tokens` per iteration, fused with
    /// the decode batch (Sarathi/vLLM-style chunked prefill).
    Chunked {
        /// Prompt tokens processed per fused iteration (≥ 1).
        chunk_tokens: u64,
    },
}

/// Speculative draft-and-verify decoding knobs.
///
/// With speculation on, each decode iteration drafts up to `k` tokens per
/// sequence and verifies them in one batched pass: the iteration takes
/// verify-batch time (weights streamed once, k+1 compute rows) but emits
/// `1 + accepted` tokens per sequence. Drafted-then-rejected tokens are
/// appended to the paged KV and rolled back block-exactly, and their
/// verify work is billed to the drafting request's energy share — the
/// rejected rows really ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecConfig {
    /// Maximum draft tokens verified per sequence per iteration (≥ 1).
    pub k: u64,
    /// Modeled per-token acceptance rate in `[0, 1]` — how often the
    /// prompt-lookup drafter's guess matches the greedy token. Acceptance
    /// draws are deterministic per `(request, output position)`, so runs
    /// replay bit-identically.
    pub alpha: f64,
    /// Enable the adaptive-k controller: an EWMA of the *measured*
    /// acceptance rate shrinks the live draft length when drafts stop
    /// landing and regrows it (never past `k`) when they land again.
    pub adaptive: bool,
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum concurrent sequences (memory may cap admission lower).
    pub max_batch: usize,
    /// Prompt-processing policy.
    pub prefill: PrefillPolicy,
    /// Optional cap on the KV pool in bytes, below what the memory model
    /// derives — models co-tenant memory reservations and lets tests
    /// exercise KV pressure deterministically.
    pub kv_pool_bytes: Option<u64>,
    /// Enable the radix-tree prefix cache: prompts sharing a cached
    /// token-id prefix skip that prefix's prefill compute and energy,
    /// sharing its KV blocks by refcount (vLLM/SGLang-style). Off by
    /// default — with it off the scheduler is bit-identical to the flat
    /// pre-cache accounting.
    pub prefix_cache: bool,
    /// Speculative decoding configuration. `None` (the default) keeps
    /// the scheduler bit-identical to plain one-token-per-step decode.
    pub spec: Option<SpecConfig>,
}

impl ServeConfig {
    /// Blocking-prefill configuration: each admission's solo prefill stalls the live batch.
    pub fn blocking(max_batch: usize) -> Self {
        ServeConfig {
            max_batch,
            prefill: PrefillPolicy::Blocking,
            kv_pool_bytes: None,
            prefix_cache: false,
            spec: None,
        }
    }

    /// Chunked-prefill configuration with the default chunk size.
    pub fn chunked(max_batch: usize) -> Self {
        ServeConfig {
            max_batch,
            prefill: PrefillPolicy::Chunked { chunk_tokens: DEFAULT_CHUNK_TOKENS },
            kv_pool_bytes: None,
            prefix_cache: false,
            spec: None,
        }
    }

    /// Override the prefill chunk size (switches to the chunked policy).
    pub fn chunk_tokens(mut self, tokens: u64) -> Self {
        self.prefill = PrefillPolicy::Chunked { chunk_tokens: tokens.max(1) };
        self
    }

    /// Cap the KV pool (co-tenancy reservation / deterministic tests).
    pub fn kv_pool_cap(mut self, bytes: u64) -> Self {
        self.kv_pool_bytes = Some(bytes);
        self
    }

    /// Enable the radix-tree prefix cache.
    pub fn with_prefix_cache(mut self) -> Self {
        self.prefix_cache = true;
        self
    }

    /// Enable speculative decoding with a fixed draft length `k` and
    /// modeled acceptance rate `alpha`.
    pub fn with_speculation(mut self, k: u64, alpha: f64) -> Self {
        self.spec = Some(SpecConfig { k: k.max(1), alpha: alpha.clamp(0.0, 1.0), adaptive: false });
        self
    }

    /// Enable speculative decoding with the adaptive-k controller
    /// (`k` is the ceiling the controller never exceeds).
    pub fn with_adaptive_speculation(mut self, k: u64, alpha: f64) -> Self {
        self.spec = Some(SpecConfig { k: k.max(1), alpha: alpha.clamp(0.0, 1.0), adaptive: true });
        self
    }
}

/// The outcome of driving a request trace to completion.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Aggregate serving metrics.
    pub report: ContinuousReport,
    /// The drained simulation's accounting: one record per scheduler
    /// iteration (incl. idle gaps), completions, cancellations and the
    /// KV, prefix-cache and speculation counters.
    pub audit: ServeAudit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::PoissonArrivals;
    use crate::config::RunConfig;
    use crate::error::RunError;
    use crate::serve::ServeSim;
    use edgellm_hw::DeviceSpec;
    use edgellm_models::{Llm, Precision};

    fn setup() -> (DeviceSpec, RunConfig) {
        (DeviceSpec::orin_agx_64gb(), RunConfig::new(Llm::Llama31_8b, Precision::Fp16))
    }

    #[test]
    fn chunked_run_completes_and_accounts() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(30, 7);
        let r = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap().run().unwrap();
        assert_eq!(r.report.requests, 30);
        let a = &r.audit;
        assert_eq!(a.served_output_tokens, reqs.iter().map(|q| q.output_tokens).sum::<u64>());
        assert_eq!(a.kv_blocks_allocated, a.kv_blocks_freed, "pool drains clean");
        assert_eq!(a.trace.last().unwrap().kv_blocks_used, 0);
        assert!(r.report.energy_j > 0.0);
        assert!(r.report.mean_ttft_s > 0.0 && r.report.mean_ttft_s <= r.report.mean_latency_s);
        assert!(r.report.p50_ttft_s <= r.report.p99_ttft_s);
        assert_eq!(r.report.preemptions, 0, "64 GB pool needs no preemption here");
    }

    #[test]
    fn chunked_prefill_cuts_mean_ttft_under_load() {
        // Acceptance: at ≥ 1.5 req/s on Llama-3.1-8B FP16, fusing prefill
        // chunks into decode iterations must beat solo blocking prefills
        // on mean TTFT (the blocking stall compounds down the queue).
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.5).generate(60, 2);
        let run = |serve| ServeSim::new(serve, &dev, &cfg, &reqs).unwrap().run().unwrap();
        let chunked = run(ServeConfig::chunked(16));
        let blocking = run(ServeConfig::blocking(16));
        assert!(
            chunked.report.mean_ttft_s < blocking.report.mean_ttft_s,
            "chunked {:.3}s vs blocking {:.3}s",
            chunked.report.mean_ttft_s,
            blocking.report.mean_ttft_s
        );
        assert!(chunked.report.prefill_stall_s < blocking.report.prefill_stall_s);
    }

    #[test]
    fn preemption_recovers_under_kv_pressure() {
        // A deliberately tiny KV pool: the batch outgrows it mid-decode,
        // the youngest sequence is preempted (recompute penalty), and the
        // workload still drains completely with exact token accounting.
        let (dev, cfg) = setup();
        let mut arr = PoissonArrivals::paper_shape(4.0);
        arr.input_tokens = 48;
        arr.output_tokens = 96;
        arr.shape_jitter = 0.0;
        let reqs = arr.generate(12, 9);
        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        // Room for ~4 full sequences of 144 tokens — 12 want in.
        let pool = 4 * 144 * kv_per_token;
        let r = ServeSim::new(ServeConfig::chunked(8).kv_pool_cap(pool), &dev, &cfg, &reqs)
            .unwrap()
            .run()
            .unwrap();
        assert!(r.report.preemptions > 0, "pool pressure must preempt");
        assert_eq!(r.report.requests, 12, "every request still completes");
        let a = &r.audit;
        assert_eq!(
            a.served_output_tokens,
            reqs.iter().map(|q| q.output_tokens).sum::<u64>(),
            "preemption must not double-count served tokens"
        );
        assert_eq!(a.kv_blocks_allocated, a.kv_blocks_freed);
        assert_eq!(a.trace.last().unwrap().kv_blocks_used, 0);
    }

    #[test]
    fn single_oversized_request_errors_not_loops() {
        let (dev, cfg) = setup();
        let mut arr = PoissonArrivals::paper_shape(1.0);
        arr.input_tokens = 4096;
        arr.output_tokens = 16;
        arr.shape_jitter = 0.0;
        let reqs = arr.generate(1, 3);
        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        let pool = 64 * kv_per_token; // 4 blocks: far below one prompt
        let err = ServeSim::new(ServeConfig::chunked(4).kv_pool_cap(pool), &dev, &cfg, &reqs)
            .and_then(ServeSim::run)
            .unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn trace_time_is_consistent() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(2.0).generate(20, 5);
        let r = ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap().run().unwrap();
        let mut t = 0.0;
        let mut e = 0.0;
        for it in &r.audit.trace {
            assert!(it.dt_s >= 0.0);
            t += it.dt_s;
            e += it.energy_j();
            assert!((it.t_s - t).abs() < 1e-6, "trace clock drift at {}", it.t_s);
            assert!(it.kv_blocks_used <= it.kv_blocks_total);
        }
        assert!((t - r.report.makespan_s).abs() < 1e-6);
        assert!((e - r.report.energy_j).abs() < 1e-6 * r.report.energy_j.max(1.0));
    }

    #[test]
    fn unloadable_model_and_empty_queue_fail_fast() {
        let (dev, _) = setup();
        let cfg = RunConfig::new(Llm::DeepseekQwen32b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(1.0).generate(4, 1);
        assert!(matches!(
            ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs),
            Err(RunError::ModelDoesNotLoad { .. })
        ));
        let (dev, cfg) = setup();
        assert!(matches!(
            ServeSim::new(ServeConfig::blocking(8), &dev, &cfg, &[]),
            Err(RunError::InvalidConfig(_))
        ));
    }
}
