//! The steppable single-device serving simulation.
//!
//! [`ServeSim`] owns one device's complete serving state — admission
//! queue, live batch, KV pool, clock, energy integral, per-iteration
//! trace — and exposes it one event at a time:
//!
//! * [`ServeSim::next_event_s`] — when this device can next make
//!   progress (now, if sequences are live; the earliest pending arrival
//!   otherwise);
//! * [`ServeSim::step`] — advance to that instant and perform one
//!   scheduler turn (idle gap billing, admission, KV-pressure
//!   preemption, one fused iteration);
//! * [`ServeSim::submit`] / [`ServeSim::drain_incomplete`] — inject a
//!   request mid-flight or evacuate everything unfinished (device
//!   failure), so a fleet co-simulator can route work across many
//!   `ServeSim`s on a shared clock.
//!
//! [`ServeSim::run`] steps until [`ServeSim::next_event_s`] returns
//! `None` and consumes the simulation into a [`ServeRun`].
//!
//! # Records
//!
//! A run keeps two records, and what is reported about it is read from
//! them:
//!
//! * one [`IterationTrace`] per iteration — fused iteration, blocking
//!   solo prefill or idle gap — appended by one private function, with
//!   the iteration's rail breakdown and, with the prefix cache on, its
//!   cached-block count. The timeline's counter tracks and the report's
//!   mean occupancy are folds over it.
//! * the forensic lifecycle log (submit, admit, prefill chunk, first
//!   token, preempt, cancel, complete, mode change). Preemption instants
//!   and counts and the audit's cancellations are filtered from it.
//!
//! Some values stay independent state because an oracle in the
//! `edgellm-check` crate checks a record against them, and deriving them
//! from that record would leave the oracle checking nothing: `energy_j`,
//! billed where each iteration is billed (energy-integral, against the
//! trace), served output tokens, counted at completion (token
//! conservation, against the request shapes), KV blocks allocated and
//! freed, counted at each pool call (KV accounting, against the pool's
//! occupancy), and submissions (request conservation, against
//! completions, cancellations and the queue). The prefill stall, the
//! speculation counters and the per-request energy ledger are also kept
//! as they happen: no record holds them, and storing every iteration's
//! per-request energy shares to fold later would cost memory.

use std::collections::{HashMap, VecDeque};

use crate::arrivals::{self, Request};
use crate::config::RunConfig;
use crate::continuous::ContinuousReport;
use crate::error::RunError;
use crate::metrics::quantile;
use crate::serve::governor::{GovernorHook, GovernorObs};
use crate::serve::scheduler::{PrefillPolicy, ServeConfig, ServeRun, KV_BLOCK_TOKENS};
use crate::serve::trace::{IterPhase, IterationTrace};
use edgellm_hw::{ClockState, DeviceSpec, PowerMode};
use edgellm_mem::{IdMap, MemoryModel, PagedKv, PrefixMatch, TokenId, GB, OOM_HEADROOM_GB};
use edgellm_perf::PerfModel;
use edgellm_power::{LoadProfile, RailBreakdown, RailModel, RailPoint};
use edgellm_trace::forensics::{self, ForensicsLog};
use edgellm_trace::Histogram;

/// One completed request's record, kept for SLO accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The request's stable id ([`Request::id`]).
    pub rid: u64,
    /// Original arrival time (s).
    pub arrival_s: f64,
    /// Time to first token, arrival → prefill completion (s).
    pub ttft_s: f64,
    /// End-to-end latency, arrival → last token (s).
    pub latency_s: f64,
    /// Output tokens delivered.
    pub output_tokens: u64,
}

/// A post-run accounting snapshot of one [`ServeSim`], consumed by
/// invariant oracles (see the `edgellm-check` crate). Everything here is
/// observable while the simulation is still owned elsewhere — fleet
/// co-simulators surface one per device after a run — and
/// [`ServeSim::run`] returns one inside its [`ServeRun`].
#[derive(Debug, Clone)]
pub struct ServeAudit {
    /// Device/model/precision display label.
    pub label: String,
    /// Requests submitted to this simulation (including re-routes).
    pub submitted: usize,
    /// Completed-request records, in completion order.
    pub completions: Vec<Completion>,
    /// `(time, request id)` of every mid-run cancellation.
    pub cancelled: Vec<(f64, u64)>,
    /// Per-iteration telemetry.
    pub trace: Vec<IterationTrace>,
    /// KV blocks taken from the pool over the run.
    pub kv_blocks_allocated: u64,
    /// KV blocks returned to the pool over the run.
    pub kv_blocks_freed: u64,
    /// KV blocks still held at snapshot time (0 once drained with the
    /// prefix cache off; cached blocks keep it nonzero otherwise).
    pub kv_blocks_in_use: usize,
    /// Total pool blocks at snapshot time (after any shrink).
    pub kv_blocks_total: usize,
    /// Prompt tokens served from the prefix cache (0 with it off).
    pub kv_cache_hit_tokens: u64,
    /// Copy-on-write allocations (divergence inside a shared block).
    pub kv_blocks_cow: u64,
    /// Blocks parked in the prefix cache at snapshot time.
    pub kv_blocks_cached: usize,
    /// Violations from the paged allocator's refcount/structure
    /// self-check — one message each, empty when healthy.
    pub kv_integrity: Vec<String>,
    /// Requests still queued or live at snapshot time.
    pub queue_depth: usize,
    /// Energy integrated so far (J).
    pub energy_j: f64,
    /// Sequences preempted under KV pressure.
    pub preemptions: usize,
    /// Output tokens delivered to completed requests.
    pub served_output_tokens: u64,
    /// Draft tokens submitted to verification (0 with speculation off).
    pub spec_drafted: u64,
    /// Draft tokens accepted and emitted as output.
    pub spec_accepted: u64,
    /// Draft tokens rejected and rolled back out of the paged KV.
    pub spec_rolled_back: u64,
}

/// One request's scheduling state, preserved across preemptions.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Stable request id (tie-breaks equal arrivals; reroute identity).
    rid: u64,
    arrival_s: f64,
    /// The prompt as originally submitted (reroutes restart from this).
    orig_input: u64,
    /// Prompt tokens to prefill; grows by the regenerated tokens when the
    /// sequence is preempted (the recompute penalty).
    prompt_tokens: u64,
    /// Output tokens the request asked for.
    output_total: u64,
    /// Output tokens still to deliver.
    output_remaining: u64,
    /// Time to first token, recorded once at first prefill completion and
    /// kept across preemptions.
    ttft_s: Option<f64>,
}

impl Job {
    fn from_request(r: &Request) -> Self {
        Job {
            rid: r.id,
            arrival_s: r.arrival_s,
            orig_input: r.input_tokens,
            prompt_tokens: r.input_tokens,
            output_total: r.output_tokens,
            output_remaining: r.output_tokens,
            ttft_s: None,
        }
    }

    fn to_request(self) -> Request {
        Request {
            id: self.rid,
            arrival_s: self.arrival_s,
            input_tokens: self.orig_input,
            output_tokens: self.output_total,
        }
    }
}

/// A sequence currently holding KV blocks.
#[derive(Debug, Clone, Copy)]
struct Live {
    id: u32,
    job: Job,
    /// Prompt tokens prefilled so far.
    prompt_done: u64,
    /// Output tokens already delivered when this admission began. A
    /// re-admission after preemption resumes mid-stream: its earlier
    /// tokens are part of `prompt_tokens` (the recompute penalty), and
    /// counting them again would inflate the context — and, at the next
    /// preemption, the prompt itself — without bound.
    gen_base: u64,
}

impl Live {
    /// Output tokens delivered since this admission began.
    fn gen_since(&self) -> u64 {
        (self.job.output_total - self.job.output_remaining) - self.gen_base
    }

    fn ctx(&self) -> u64 {
        self.job.prompt_tokens + self.gen_since()
    }

    fn decoding(&self) -> bool {
        self.prompt_done == self.job.prompt_tokens && self.job.output_remaining > 0
    }
}

/// One device's serving simulation, advanced one event at a time.
#[derive(Debug, Clone)]
pub struct ServeSim {
    cfg: ServeConfig,
    /// The hardware, kept so mid-run power-mode flips can rebuild the
    /// perf model against the same device.
    device: DeviceSpec,
    /// The run configuration (tracks the *current* power mode after a
    /// [`ServeSim::set_power_mode`] flip).
    run_cfg: RunConfig,
    /// Everything that depends on the current power mode.
    op: OperatingPoint,
    /// Device/model/precision display label for exported timelines.
    label: String,
    /// Prefill chunk tokens (0 under the blocking policy).
    chunk: u64,
    /// Admission concurrency cap after the live-footprint clamp.
    cap: usize,
    reserve: u64,
    usable: u64,
    block_bytes: u64,
    kv: PagedKv,
    /// Prompt token ids, keyed by request id; only kept with the prefix
    /// cache on. An entry starts as the ids the caller provided via
    /// [`ServeSim::submit_with_prompt`] (or empty) and is padded with
    /// deterministic per-request synthetic ids out to the prompt's
    /// length when admission first plans it, and again when recompute
    /// grows the prompt (see [`ServeSim::prompt_ids`]). It leaves on
    /// completion, cancel and drain.
    prompts: IdMap<u64, Vec<TokenId>>,
    /// Queued jobs, sorted by `(arrival_s, rid)`.
    pending: VecDeque<Job>,
    live: Vec<Live>,
    next_id: u32,
    t: f64,
    submitted: usize,
    completions: Vec<Completion>,
    /// One record per iteration, appended only by [`ServeSim::record`].
    trace: Vec<IterationTrace>,
    energy_j: f64,
    prefill_stall_s: f64,
    served_tokens: u64,
    kv_allocated: u64,
    kv_freed: u64,
    /// Draft tokens submitted to verification (0 with speculation off).
    spec_drafted: u64,
    /// Draft tokens accepted and emitted as output.
    spec_accepted: u64,
    /// Draft tokens rejected and rolled back out of the paged KV.
    spec_rolled_back: u64,
    /// The adaptive-k controller's live draft length (pinned at the
    /// configured `k` when the controller is off; 0 with speculation
    /// off).
    spec_k_now: u64,
    /// The draft length actually available *this iteration*: starts at
    /// `spec_k_now` each scheduler turn and is degraded toward 0 by
    /// [`ServeSim::secure_kv`] under KV pressure before any sequence is
    /// preempted. Speculation is an optimization — it must never cause a
    /// preemption (or a livelock against the `prompt + 1` admission
    /// watermark) that plain greedy decode would avoid.
    spec_k_iter: u64,
    /// EWMA of the measured per-iteration acceptance rate — the
    /// controller's shrink/grow signal. Seeded from the configured α.
    spec_alpha_ewma: f64,
    /// Rid-stamped forensic lifecycle events (always kept, like the
    /// iteration trace; a few dozen bytes per request) — the record
    /// preemptions and cancellations are read from. Every push also
    /// feeds the process-wide flight recorder.
    flog: Vec<forensics::Event>,
    /// Per-request attributed energy (J). Together with
    /// `idle_energy_j` this partitions `energy_j`: every iteration's
    /// integral is pro-rated token-proportionally over the sequences it
    /// served, remainder-corrected so the shares sum bit-exactly.
    /// Exported sorted by request id.
    req_energy: IdMap<u64, f64>,
    /// Idle-gap energy (J) — the unattributable ledger remainder.
    idle_energy_j: f64,
    /// Fleet device index stamped on forensic events (0 standalone).
    dev_tag: u32,
    /// Set by [`ServeSim::set_forensics_device`]: the fleet assembles
    /// the merged forensic record, so per-device `run` must not
    /// record its own into the sink.
    fleet_member: bool,
    /// Construction-time clocks — the baseline `ModeChange` events
    /// judge `downclock` against.
    base_clocks: ClockState,
    /// Arms automatic flight-recorder dumps: first completion whose
    /// end-to-end latency exceeds this triggers one.
    slo_latency_s: Option<f64>,
    slo_dumped: bool,
    /// Buffers [`ServeSim::iterate`] refills every iteration, kept so an
    /// iteration allocates nothing.
    scratch: Scratch,
}

/// Per-iteration working lists of [`ServeSim::iterate`], cleared at the
/// start of each iteration.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Indices into `live` of the decoding sequences.
    deks: Vec<usize>,
    /// Indices into `live` of the sequences whose prefill just finished.
    finished_prefill: Vec<usize>,
    /// `(rid, tokens)` of each prefill chunk.
    chunk_bill: Vec<(u64, u64)>,
    /// `(live index, drafted, accepted)` of each decoding sequence.
    plans: Vec<(usize, u64, u64)>,
    /// `(rid, weight)` energy-split weights.
    bill: Vec<(u64, u64)>,
}

impl Scratch {
    fn clear(&mut self) {
        self.deks.clear();
        self.finished_prefill.clear();
        self.chunk_bill.clear();
        self.plans.clear();
        self.bill.clear();
    }
}

/// The power-mode-dependent constants of a [`ServeSim`], built by the
/// constructor and rebuilt by every mode flip.
#[derive(Debug, Clone)]
struct OperatingPoint {
    perf: PerfModel,
    /// The rail model at the mode's clocks.
    rail_point: RailPoint,
    /// Effective memory bandwidth relative to MaxN clocks.
    bw_ratio: f64,
    idle_rails: RailBreakdown,
    idle_power: f64,
    /// One decode step's weight-stream time.
    t_stream: f64,
}

impl OperatingPoint {
    /// The operating point of `run_cfg`'s power mode on `device`.
    fn new(device: &DeviceSpec, run_cfg: &RunConfig) -> Self {
        let clocks = run_cfg.power_mode.clocks;
        let perf = PerfModel::new(device.clone(), run_cfg.llm, run_cfg.precision, clocks);
        let maxn =
            PerfModel::new(device.clone(), run_cfg.llm, run_cfg.precision, device.max_clocks());
        let bw_ratio = perf.effective_bandwidth() / maxn.effective_bandwidth();
        let rail_point = RailModel::orin_agx(device.clone()).at(&clocks);
        let idle_rails = rail_point.power(&LoadProfile::idle());
        let idle_power = idle_rails.total_w();
        let t_stream = perf.weight_stream_time();
        OperatingPoint { perf, rail_point, bw_ratio, idle_rails, idle_power, t_stream }
    }

    /// Rail power under utilization `u`.
    fn rail_power(&self, u: edgellm_perf::Utilization) -> RailBreakdown {
        self.rail_point.power(&LoadProfile {
            gpu_util: u.gpu,
            cpu_util: u.cpu,
            bw_util: u.mem_bw,
            bw_ratio: self.bw_ratio,
        })
    }
}

/// The measured regime [`ServeSim`] is compared against: static batches
/// of `max_batch` formed in arrival order on `run_cfg`'s operating point.
/// A batch launches when full (or when no requests remain) and runs to
/// the completion of its longest member. Errors on an empty trace, a
/// non-finite arrival time or an invalid power mode.
pub fn run_static(
    max_batch: usize,
    device: &DeviceSpec,
    run_cfg: &RunConfig,
    requests: &[Request],
) -> Result<ContinuousReport, RunError> {
    arrivals::check_trace(requests)?;
    run_cfg.power_mode.validate(device)?;
    let op = OperatingPoint::new(device, run_cfg);
    let mut queue = requests.to_vec();
    queue.sort_by(|a, b| {
        a.arrival_s.partial_cmp(&b.arrival_s).expect("checked finite").then(a.id.cmp(&b.id))
    });
    let mut t = 0.0f64;
    let mut latencies = Vec::with_capacity(queue.len());
    let mut ttfts = Vec::with_capacity(queue.len());
    let mut out_tokens = 0u64;
    let mut energy_j = 0.0f64;
    let mut prefill_stall_s = 0.0f64;
    for chunk in queue.chunks(max_batch.max(1)) {
        let ready = chunk.last().expect("non-empty chunk").arrival_s;
        let start = t.max(ready);
        if start > t {
            energy_j += op.idle_power * (start - t);
        }
        let bs = chunk.len() as u64;
        let n_in = chunk.iter().map(|r| r.input_tokens).max().expect("non-empty");
        let n_out = chunk.iter().map(|r| r.output_tokens).max().expect("non-empty");
        let prefill_s = op.perf.prefill_time(bs, n_in.max(1));
        let lat = op.perf.latency_s(bs, n_in, n_out);
        let decode_s = (lat - prefill_s).max(0.0);
        prefill_stall_s += prefill_s;
        energy_j +=
            op.rail_power(op.perf.prefill_utilization(bs, n_in.max(1))).total_w() * prefill_s;
        energy_j +=
            op.rail_power(op.perf.decode_utilization(bs, n_in + n_out / 2)).total_w() * decode_s;
        t = start + lat;
        for r in chunk {
            latencies.push(t - r.arrival_s);
            // First token lands when the batch's shared prefill ends.
            ttfts.push(start + prefill_s - r.arrival_s);
            out_tokens += r.output_tokens;
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok(ContinuousReport {
        makespan_s: t,
        mean_latency_s: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p95_latency_s: quantile(&latencies, 0.95),
        output_tok_s: out_tokens as f64 / t,
        mean_occupancy: max_batch as f64,
        requests: latencies.len(),
        energy_j,
        preemptions: 0,
        mean_ttft_s: ttfts.iter().sum::<f64>() / ttfts.len() as f64,
        p50_ttft_s: quantile(&ttfts, 0.50),
        p99_ttft_s: quantile(&ttfts, 0.99),
        prefill_stall_s,
    })
}

impl ServeSim {
    /// A simulation pre-loaded with `requests`, whose shapes size the
    /// activation reserve. Errors on an empty trace or a non-finite
    /// arrival time.
    pub fn new(
        cfg: ServeConfig,
        device: &DeviceSpec,
        run_cfg: &RunConfig,
        requests: &[Request],
    ) -> Result<Self, RunError> {
        Self::new_with_prompts(cfg, device, run_cfg, requests, &HashMap::new())
    }

    /// [`ServeSim::new`], with prompt token ids attached to requests by
    /// id. Requests with an entry submit via
    /// [`ServeSim::submit_with_prompt`] so a prefix-cache-enabled config
    /// can recognize shared prefixes; ids without one (and every request
    /// under a cache-less config) behave exactly as [`ServeSim::new`].
    pub fn new_with_prompts(
        cfg: ServeConfig,
        device: &DeviceSpec,
        run_cfg: &RunConfig,
        requests: &[Request],
        prompts: &HashMap<u64, Vec<TokenId>>,
    ) -> Result<Self, RunError> {
        let max_sl = arrivals::check_trace(requests)?;
        let mut sim = Self::with_seq_hint(cfg, device, run_cfg, max_sl)?;
        for r in requests {
            match prompts.get(&r.id) {
                Some(p) => sim.submit_with_prompt(r, p)?,
                None => sim.submit(r)?,
            }
        }
        Ok(sim)
    }

    /// An empty simulation whose activation reserve is sized for
    /// sequences up to `max_seq_tokens` (prompt + output). Use this when
    /// requests arrive later via [`ServeSim::submit`] — a fleet router,
    /// for instance — and size the hint to the workload's longest shape.
    pub fn with_seq_hint(
        cfg: ServeConfig,
        device: &DeviceSpec,
        run_cfg: &RunConfig,
        max_seq_tokens: u64,
    ) -> Result<Self, RunError> {
        run_cfg.power_mode.validate(device)?;
        let mm = MemoryModel::new(run_cfg.llm, run_cfg.precision, device.capacity_gb());
        if !mm.model_loads() {
            return Err(RunError::ModelDoesNotLoad {
                required_gb: mm.weight_bytes() / GB,
                usable_gb: device.capacity_gb() - OOM_HEADROOM_GB,
            });
        }
        let usable = ((device.capacity_gb() - OOM_HEADROOM_GB) * GB) as u64;
        let max_sl = max_seq_tokens.max(1);
        let kv_per_token = run_cfg.llm.arch().kv_bytes_per_token();
        let block_bytes = KV_BLOCK_TOKENS * kv_per_token;

        // Admission cap from the *live* footprint — weights, activations
        // at the concurrency, one KV block per sequence. KV growth beyond
        // that is tracked by the allocator, not worst-cased here.
        let footprint =
            |b: u64| mm.weight_bytes() + mm.activation_bytes(b, max_sl) + (b * block_bytes) as f64;
        let mut cap = cfg.max_batch.max(1) as u64;
        while cap > 1 && footprint(cap) > usable as f64 {
            cap -= 1;
        }
        if footprint(cap) > usable as f64 {
            return Err(RunError::OutOfMemory {
                peak_gb: footprint(cap) / GB,
                usable_gb: usable as f64 / GB,
            });
        }
        let cap = cap as usize;
        let reserve = (mm.weight_bytes() + mm.activation_bytes(cap as u64, max_sl)) as u64;
        let mut pool = usable.saturating_sub(reserve);
        if let Some(limit) = cfg.kv_pool_bytes {
            pool = pool.min(limit);
        }
        if pool < block_bytes {
            return Err(RunError::OutOfMemory {
                peak_gb: (reserve + block_bytes) as f64 / GB,
                usable_gb: usable as f64 / GB,
            });
        }
        let mut kv = PagedKv::new(pool, KV_BLOCK_TOKENS, kv_per_token);
        if cfg.prefix_cache {
            kv = kv.with_prefix_cache();
        }

        let label =
            format!("{} · {} {}", device.name, run_cfg.llm.short_name(), run_cfg.precision.label());
        let chunk = match cfg.prefill {
            PrefillPolicy::Chunked { chunk_tokens } => chunk_tokens.max(1),
            PrefillPolicy::Blocking => 0,
        };

        Ok(ServeSim {
            cfg,
            device: device.clone(),
            run_cfg: run_cfg.clone(),
            op: OperatingPoint::new(device, run_cfg),
            label,
            chunk,
            cap,
            reserve,
            usable,
            block_bytes,
            kv,
            prompts: IdMap::default(),
            pending: VecDeque::new(),
            live: Vec::new(),
            next_id: 0,
            t: 0.0,
            submitted: 0,
            completions: Vec::new(),
            trace: Vec::new(),
            energy_j: 0.0,
            prefill_stall_s: 0.0,
            served_tokens: 0,
            kv_allocated: 0,
            kv_freed: 0,
            spec_drafted: 0,
            spec_accepted: 0,
            spec_rolled_back: 0,
            spec_k_now: cfg.spec.map(|s| s.k).unwrap_or(0),
            spec_k_iter: cfg.spec.map(|s| s.k).unwrap_or(0),
            spec_alpha_ewma: cfg.spec.map(|s| s.alpha).unwrap_or(0.0),
            flog: Vec::new(),
            req_energy: IdMap::default(),
            idle_energy_j: 0.0,
            dev_tag: 0,
            fleet_member: false,
            base_clocks: run_cfg.power_mode.clocks,
            slo_latency_s: None,
            slo_dumped: false,
            scratch: Scratch::default(),
        })
    }

    /// Record one forensic lifecycle event at instant `t_s`, into both
    /// the run log and the process-wide flight recorder.
    fn femit(&mut self, t_s: f64, rid: u64, kind: forensics::EventKind) {
        let ev = forensics::Event { t_s, rid, device: self.dev_tag, kind };
        self.flog.push(ev);
        forensics::flight::record(ev);
    }

    /// Bill one iteration's energy `e` to the integral and pro-rate it
    /// over the `(rid, tokens)` weights of the sequences it served (an
    /// idle gap, serving none, goes to the idle ledger). The last share
    /// takes the exact remainder, so the pieces always sum to `e` and the
    /// ledger `Σ per-request + idle == energy_j` reconciles to well under
    /// 1e-9.
    fn bill_energy(&mut self, e: f64, bill: &[(u64, u64)]) {
        self.energy_j += e;
        let w_total: u64 = bill.iter().map(|&(_, w)| w).sum();
        if w_total == 0 {
            self.idle_energy_j += e;
            return;
        }
        let mut assigned = 0.0;
        for (i, &(rid, w)) in bill.iter().enumerate() {
            let share =
                if i + 1 == bill.len() { e - assigned } else { e * w as f64 / w_total as f64 };
            assigned += share;
            *self.req_energy.entry(rid).or_insert(0.0) += share;
        }
    }

    /// Append the record of an iteration that just ended at the current
    /// clock, with the pool as it stands now. The only writer of `trace`.
    fn record(
        &mut self,
        dt_s: f64,
        phase: IterPhase,
        decoding: usize,
        prefilling: usize,
        tokens: u64,
        (power_w, rails): (f64, RailBreakdown),
    ) {
        self.trace.push(IterationTrace {
            t_s: self.t,
            dt_s,
            phase,
            decoding,
            prefilling,
            kv_blocks_used: self.kv.used_blocks(),
            kv_blocks_total: self.kv.total_blocks(),
            power_w,
            tokens,
            rails,
            kv_cached_blocks: self.cfg.prefix_cache.then(|| self.kv.cached_blocks()),
        });
    }

    /// `(time, request id)` of every lifecycle event of unit kind `kind`.
    fn instants(&self, kind: forensics::EventKind) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.flog.iter().filter(move |e| e.kind == kind).map(|e| (e.t_s, e.rid))
    }

    /// Queue `job` behind every queued job at or before it in
    /// `(arrival_s, rid)` order, found by binary search: the queue is
    /// kept sorted, and arrival times are finite.
    fn enqueue(&mut self, job: Job) {
        let pos = self.pending.partition_point(|p| {
            p.arrival_s < job.arrival_s || (p.arrival_s == job.arrival_s && p.rid <= job.rid)
        });
        self.pending.insert(pos, job);
    }

    /// Queue a request. Ordering is by `(arrival_s, id)` so equal-time
    /// arrivals schedule identically regardless of submission order.
    /// Errors with [`RunError::InvalidConfig`], queueing nothing, when
    /// `r.arrival_s` is not finite.
    pub fn submit(&mut self, r: &Request) -> Result<(), RunError> {
        arrivals::check_arrival(r)?;
        let job = Job::from_request(r);
        self.enqueue(job);
        self.submitted += 1;
        // Stamped at the semantic arrival: pre-loaded traces submit at
        // construction (clock 0) for future instants, fleet re-routes
        // submit at the shared now.
        self.femit(job.arrival_s.max(self.t), job.rid, forensics::EventKind::Submitted);
        Ok(())
    }

    /// Queue a request together with its prompt token ids. The ids feed
    /// the radix prefix cache: two requests sharing a leading run of
    /// ids (a common system prompt, say) share the KV blocks caching
    /// it. A prompt shorter than `input_tokens` is padded with the
    /// synthetic per-request ids plain [`ServeSim::submit`] would use;
    /// a longer one is truncated. With the prefix cache off this is
    /// exactly [`ServeSim::submit`], and it errors the same way.
    pub fn submit_with_prompt(&mut self, r: &Request, prompt: &[TokenId]) -> Result<(), RunError> {
        self.submit(r)?;
        if self.cfg.prefix_cache {
            let n = (r.input_tokens as usize).min(prompt.len());
            self.prompts.insert(r.id, prompt[..n].to_vec());
        }
        Ok(())
    }

    /// Deterministic synthetic token id for position `pos` of request
    /// `rid` (splitmix64 finalizer) — unique enough that unrelated
    /// requests never alias in the radix cache, and stable across
    /// preemption/re-admission so a sequence always re-derives the same
    /// ids for its regenerated tokens.
    fn synth_token(rid: u64, pos: u64) -> TokenId {
        let mut x = rid.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(pos);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        (x >> 32) as TokenId
    }

    /// Deterministic acceptance draw for draft output position `pos` of
    /// request `rid` (splitmix64 bits mapped to [0, 1) against α).
    /// Keyed by the *absolute* output index, so a sequence replays the
    /// same accept/reject outcomes across preemption and re-admission —
    /// the modeled drafter sees the same text either way.
    fn spec_accepts(rid: u64, pos: u64, alpha: f64) -> bool {
        let mut x = rid
            .wrapping_mul(0x632b_e59b_d9b4_e019)
            .wrapping_add(pos.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        ((x >> 11) as f64 / (1u64 << 53) as f64) < alpha
    }

    /// Draft tokens this decoding sequence submits this iteration: the
    /// iteration's draft budget (the controller's live k, possibly
    /// degraded by [`ServeSim::secure_kv`] under KV pressure), capped so
    /// the sequence can never emit past its requested output (the
    /// committed token always lands, so at most `output_remaining - 1`
    /// drafts can be of any use).
    fn spec_k_for(&self, s: &Live) -> u64 {
        if self.cfg.spec.is_some() && s.job.output_remaining > 1 {
            self.spec_k_iter.min(s.job.output_remaining - 1)
        } else {
            0
        }
    }

    /// The token ids a job's current prompt prefills: the submitted
    /// prompt prefix (when one was provided), padded out to
    /// `prompt_tokens` — which includes recompute-grown generated
    /// tokens — with synthetic ids. The padding is written into the
    /// job's `prompts` entry, so each id is built once per request.
    fn prompt_ids<'a>(prompts: &'a mut IdMap<u64, Vec<TokenId>>, job: &Job) -> &'a [TokenId] {
        let n = job.prompt_tokens as usize;
        let ids = prompts.entry(job.rid).or_default();
        let built = ids.len() as u64;
        ids.extend((built..n as u64).map(|pos| Self::synth_token(job.rid, pos)));
        &ids[..n]
    }

    /// Current simulation clock (s).
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Whether every submitted request has completed.
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.live.is_empty()
    }

    /// When this device can next make progress: now if sequences are
    /// live, the earliest pending arrival otherwise, `None` when drained.
    pub fn next_event_s(&self) -> Option<f64> {
        if !self.live.is_empty() {
            Some(self.t)
        } else {
            self.pending.front().map(|j| j.arrival_s.max(self.t))
        }
    }

    /// Jump a quiescent simulation's clock to `now` without billing
    /// energy: the device was powered off across the gap (e.g. a fleet
    /// outage), not idling. No-op while sequences are live or when `now`
    /// is not ahead of the local clock. Errors with
    /// [`RunError::InvalidConfig`], changing nothing, when `now` is not
    /// finite.
    pub fn skip_to(&mut self, now: f64) -> Result<(), RunError> {
        check_instant("clock skip", now)?;
        if self.live.is_empty() && now > self.t {
            self.t = now;
        }
        Ok(())
    }

    /// Advance a quiescent simulation's clock to `now`, billing the gap
    /// at idle power — the device stayed powered across it (e.g. a
    /// thermal cooldown). No-op while sequences are live or when `now`
    /// is not ahead of the local clock. Errors with
    /// [`RunError::InvalidConfig`], changing nothing, when `now` is not
    /// finite.
    pub fn idle_to(&mut self, now: f64) -> Result<(), RunError> {
        check_instant("clock advance", now)?;
        if self.live.is_empty() && now > self.t {
            let dt = now - self.t;
            self.bill_energy(self.op.idle_power * dt, &[]);
            self.t = now;
            self.record(dt, IterPhase::Idle, 0, 0, 0, (self.op.idle_power, self.op.idle_rails));
        }
        Ok(())
    }

    /// Advance the clock to `now` and perform one scheduler turn:
    /// idle-gap billing, admission, KV-pressure preemption, and (when
    /// sequences are live) one fused iteration.
    ///
    /// Drive it with [`ServeSim::next_event_s`]; stepping to an earlier
    /// instant is a no-op beyond admission. Errors with
    /// [`RunError::InvalidConfig`], changing nothing, when `now` is not
    /// finite.
    pub fn step(&mut self, now: f64) -> Result<(), RunError> {
        self.idle_to(now)?;
        self.admit()?;
        if self.live.is_empty() {
            return Ok(());
        }
        self.secure_kv();
        if self.live.is_empty() {
            // Everything was preempted; re-admission (or the pool error
            // above) decides what happens next turn.
            return Ok(());
        }
        self.iterate();
        Ok(())
    }

    /// The error for a request whose prompt needs `blocks` KV blocks in
    /// an otherwise empty pool. Summed in f64, which is exact below
    /// 2^53 bytes, so a prompt near `u64::MAX` tokens cannot overflow it.
    fn pool_oom(&self, blocks: u64) -> RunError {
        RunError::OutOfMemory {
            peak_gb: (self.reserve as f64 + blocks as f64 * self.block_bytes as f64) / GB,
            usable_gb: self.usable as f64 / GB,
        }
    }

    /// Admission at the iteration boundary.
    fn admit(&mut self) -> Result<(), RunError> {
        while let Some(job) = self.pending.front().copied() {
            if job.arrival_s > self.t || self.live.len() >= self.cap {
                break;
            }
            // A prompt needing more blocks than the whole pool never
            // fits: it is the same error at quiescence that the gate
            // below reaches, and it waits while sequences are live. No
            // ids are built and no cached block is evicted for it.
            let full_blocks = (job.prompt_tokens + 1).div_ceil(KV_BLOCK_TOKENS);
            if full_blocks > self.kv.total_blocks() as u64 {
                if self.live.is_empty() {
                    return Err(self.pool_oom(full_blocks));
                }
                break;
            }
            // Watermark gate: the *uncached* part of the prompt plus the
            // first decode token must have room, or admission waits for
            // blocks to free. Planning against the radix cache evicts
            // cold cached blocks (never the matched path) as needed.
            // With the cache off no ids are built, the plan is the bare
            // block count with an empty match, and admitting reduces to
            // registering the sequence.
            let prompt_ids =
                if self.cfg.prefix_cache { Self::prompt_ids(&mut self.prompts, &job) } else { &[] };
            let mut plan = self.kv.plan_admission(prompt_ids, job.prompt_tokens + 1);
            self.kv_freed += plan.evicted as u64;
            let mut need = plan.need_blocks;
            if need > self.kv.free_blocks() && self.live.is_empty() && self.kv.cached_blocks() > 0 {
                // Quiescent shortage with a populated cache: the plan
                // already evicted everything off the matched path, and
                // sacrificing matched nodes cannot help (each one freed
                // is a block the prompt must immediately re-take). Drop
                // the cache wholesale and admit cold: the match named
                // blocks the clear just freed.
                self.kv_freed += self.kv.clear_cache() as u64;
                need = full_blocks as usize;
                plan.matched = PrefixMatch::default();
            }
            if need > self.kv.free_blocks() {
                if self.live.is_empty() {
                    // Every block is free and the prompt still does
                    // not fit: the request alone exceeds the pool.
                    return Err(self.pool_oom(need as u64));
                }
                break;
            }
            self.pending.pop_front();
            let id = self.next_id;
            self.next_id += 1;
            let admitted = self.kv.admit(id, &plan);
            self.kv_allocated += admitted.new_blocks as u64;
            let hit = admitted.hit_tokens;
            self.femit(self.t, job.rid, forensics::EventKind::Admitted { cache_hit_tokens: hit });
            match self.cfg.prefill {
                PrefillPolicy::Blocking => {
                    // The joining sequence pays its solo prefill now,
                    // stalling everything live. A cached prefix skips
                    // its share of the compute — and its energy: only
                    // the uncached suffix bills. A full hit skips the
                    // stall entirely (TTFT lands on the first decode
                    // token, like a zero-length prompt).
                    let suffix = job.prompt_tokens - hit;
                    self.kv_allocated += self.kv.append(id, suffix).expect("gated on free") as u64;
                    let mut job = job;
                    if suffix > 0 || !self.cfg.prefix_cache {
                        let dt = self.op.perf.prefill_time(1, suffix.max(1));
                        self.t += dt;
                        self.prefill_stall_s += dt;
                        let rb =
                            self.op.rail_power(self.op.perf.prefill_utilization(1, suffix.max(1)));
                        let p = rb.total_w();
                        // A solo stall serves exactly one request: its
                        // whole integral is that request's energy.
                        self.bill_energy(p * dt, &[(job.rid, 1)]);
                        job.ttft_s = Some(self.t - job.arrival_s);
                        self.femit(
                            self.t,
                            job.rid,
                            forensics::EventKind::PrefillChunk { tokens: suffix },
                        );
                        self.femit(self.t, job.rid, forensics::EventKind::FirstToken);
                        self.record(dt, IterPhase::Prefill, 0, 1, suffix, (p, rb));
                    }
                    if self.cfg.prefix_cache {
                        self.kv.insert_prompt(id, Self::prompt_ids(&mut self.prompts, &job));
                    }
                    let gen_base = job.output_total - job.output_remaining;
                    self.live.push(Live { id, job, prompt_done: job.prompt_tokens, gen_base });
                }
                PrefillPolicy::Chunked { .. } => {
                    let gen_base = job.output_total - job.output_remaining;
                    self.live.push(Live { id, job, prompt_done: hit, gen_base });
                }
            }
        }
        Ok(())
    }

    /// Secure KV capacity for this iteration's growth. Under pressure the
    /// escape ladder is: evict a cold cached block, then shed draft depth
    /// (speculation degrades toward plain greedy decode before costing
    /// anyone a recompute), and only then preempt the youngest sequence.
    fn secure_kv(&mut self) {
        self.spec_k_iter = self.spec_k_now;
        loop {
            let mut need = 0usize;
            for s in &self.live {
                let grow = if s.prompt_done < s.job.prompt_tokens {
                    self.chunk.min(s.job.prompt_tokens - s.prompt_done)
                } else if s.job.output_remaining > 0 {
                    // The committed token plus every draft: rejected
                    // drafts occupy KV until the post-verify rollback,
                    // so the pool must hold the full verify footprint.
                    1 + self.spec_k_for(s)
                } else {
                    0
                };
                if grow > 0 {
                    need += self.kv.blocks_needed(s.id, grow).expect("live seq registered");
                }
            }
            // Cold cached blocks go first — dropping a cache entry only
            // costs a possible future re-prefill, while preempting a
            // live sequence costs a certain one. Evicting a cache-only
            // block changes no live sequence's demand, so one sum serves
            // every eviction of the round.
            while need > self.kv.free_blocks() && self.kv.evict_one_cached() {
                self.kv_freed += 1;
            }
            if need <= self.kv.free_blocks() {
                break;
            }
            if self.spec_k_iter > 0 {
                self.spec_k_iter -= 1;
                continue;
            }
            self.preempt_youngest();
            if self.live.is_empty() {
                break;
            }
        }
    }

    /// Preempt the youngest live sequence: free its KV blocks and
    /// re-queue it with the recompute penalty (its regenerated tokens
    /// join the prompt it must prefill again).
    fn preempt_youngest(&mut self) {
        let victim = self
            .live
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.job.arrival_s.partial_cmp(&b.job.arrival_s).expect("finite").then(a.id.cmp(&b.id))
            })
            .map(|(i, _)| i)
            .expect("live non-empty");
        let s = self.live.swap_remove(victim);
        self.kv_freed += self.kv.release(s.id).expect("live seq registered") as u64;
        self.femit(self.t, s.job.rid, forensics::EventKind::Preempted);
        // Recompute penalty: the discarded cache — including the tokens
        // generated *since this admission* — joins the prompt to
        // re-prefill. Earlier generations are already folded into the
        // prompt by previous preemptions; adding them again would grow
        // the sequence without bound (and deadlock a pool sized for
        // exactly one sequence).
        let mut job = s.job;
        job.prompt_tokens += s.gen_since();
        self.enqueue(job);
    }

    /// One fused iteration.
    fn iterate(&mut self) {
        let mut sc = std::mem::take(&mut self.scratch);
        sc.clear();
        sc.deks.extend(self.live.iter().enumerate().filter(|(_, s)| s.decoding()).map(|(i, _)| i));
        let deks = &sc.deks;
        let n_dec = deks.len();
        let avg_ctx = if n_dec > 0 {
            (deks.iter().map(|&i| self.live[i].ctx()).sum::<u64>() as f64 / n_dec as f64) as u64
        } else {
            0
        };

        let mut prefillers = 0usize;
        let mut prefill_tokens = 0u64;
        let mut chunk_excess_s = 0.0f64;
        let finished_prefill = &mut sc.finished_prefill;
        // `(rid, tokens)` billing weights for this iteration's energy
        // split and the per-segment forensic events.
        let chunk_bill = &mut sc.chunk_bill;
        if self.chunk > 0 {
            for (i, s) in self.live.iter_mut().enumerate() {
                if s.prompt_done < s.job.prompt_tokens {
                    let adv = self.chunk.min(s.job.prompt_tokens - s.prompt_done);
                    self.kv_allocated +=
                        self.kv.append(s.id, adv).expect("capacity pre-checked") as u64;
                    s.prompt_done += adv;
                    prefillers += 1;
                    prefill_tokens += adv;
                    chunk_bill.push((s.job.rid, adv));
                    // The chunk's weight traffic rides the decode
                    // batch's stream; only compute beyond it bills.
                    chunk_excess_s +=
                        (self.op.perf.prefill_time(1, adv) - self.op.t_stream).max(0.0);
                    if s.prompt_done == s.job.prompt_tokens {
                        finished_prefill.push(i);
                    }
                }
            }
        }

        // Speculation plan: per decoding sequence `(index, drafted,
        // accepted)`, with acceptance drawn deterministically per
        // absolute output position. `spec_k_for` returns 0 with
        // speculation off, collapsing every path below to the plain
        // one-token step bit-for-bit.
        let spec_alpha = self.cfg.spec.map(|sp| sp.alpha);
        let plans = &mut sc.plans;
        for &i in deks {
            let s = self.live[i];
            let k_eff = self.spec_k_for(&s);
            let done = s.job.output_total - s.job.output_remaining;
            let mut accepted = 0u64;
            if let Some(a) = spec_alpha {
                // Draft j proposes output position done+1+j; it lands
                // only if every draft before it landed (the greedy
                // prefix rule the nn verifier enforces exactly).
                while accepted < k_eff && Self::spec_accepts(s.job.rid, done + 1 + accepted, a) {
                    accepted += 1;
                }
            }
            plans.push((i, k_eff, accepted));
        }
        // The verify batch is as deep as its deepest sequence: shallower
        // sequences ride along (their extra rows are padding the engine
        // does not bill separately).
        let k_iter = plans.iter().map(|&(_, k, _)| k).max().unwrap_or(0);

        let perf = &self.op.perf;
        let dt = if n_dec > 0 {
            if k_iter > 0 {
                perf.verify_batch_time(n_dec as u64, avg_ctx.max(1), k_iter)
            } else {
                perf.decode_step_time(n_dec as u64, avg_ctx.max(1))
            }
        } else {
            self.op.t_stream + perf.host_per_step()
        } + chunk_excess_s;
        self.prefill_stall_s += chunk_excess_s;

        let mut dec_emitted = 0u64;
        for &(i, k_eff, accepted) in plans.iter() {
            let s = self.live[i];
            // Drafted tokens are written to the KV like real ones — the
            // writes happen before verification decides their fate —
            // then the rejected tail is rolled back block-exactly.
            self.kv_allocated +=
                self.kv.append(s.id, 1 + k_eff).expect("capacity pre-checked") as u64;
            if accepted < k_eff {
                let keep = s.ctx() + 1 + accepted;
                self.kv_freed += self.kv.truncate(s.id, keep).expect("live seq registered") as u64;
            }
            self.live[i].job.output_remaining -= 1 + accepted;
            dec_emitted += 1 + accepted;
            self.spec_drafted += k_eff;
            self.spec_accepted += accepted;
            self.spec_rolled_back += k_eff - accepted;
        }
        // Adaptive-k: an EWMA of the measured acceptance rate shrinks
        // the live draft length when drafts stop landing and regrows it
        // (never past the configured ceiling) when they land again.
        if let Some(sp) = self.cfg.spec {
            let drafted: u64 = plans.iter().map(|&(_, k, _)| k).sum();
            if sp.adaptive && drafted > 0 {
                let landed: u64 = plans.iter().map(|&(_, _, a)| a).sum();
                let rate = landed as f64 / drafted as f64;
                self.spec_alpha_ewma = 0.7 * self.spec_alpha_ewma + 0.3 * rate;
                if self.spec_alpha_ewma < 0.5 && self.spec_k_now > 1 {
                    self.spec_k_now -= 1;
                } else if self.spec_alpha_ewma > 0.75 && self.spec_k_now < sp.k {
                    self.spec_k_now += 1;
                }
            }
        }
        self.t += dt;
        for &(rid, tokens) in chunk_bill.iter() {
            self.femit(self.t, rid, forensics::EventKind::PrefillChunk { tokens });
        }
        for &i in finished_prefill.iter() {
            if self.live[i].job.ttft_s.is_none() {
                self.live[i].job.ttft_s = Some(self.t - self.live[i].job.arrival_s);
                let rid = self.live[i].job.rid;
                self.femit(self.t, rid, forensics::EventKind::FirstToken);
            }
        }
        // A zero-length prompt (or a full prefix-cache hit) never passes
        // through prefill, so its first token is the first *decode*
        // token; sequences that did prefill have their TTFT pinned at
        // prefill completion above and are never still unset here.
        for &i in deks {
            if self.live[i].job.ttft_s.is_none() {
                self.live[i].job.ttft_s = Some(self.t - self.live[i].job.arrival_s);
                let rid = self.live[i].job.rid;
                self.femit(self.t, rid, forensics::EventKind::FirstToken);
            }
        }
        // Prompts that just finished chunked prefill enter the prefix
        // cache: their full blocks become shareable with later prompts.
        // (Must precede the completion sweep — it invalidates indices.)
        if self.cfg.prefix_cache {
            for &i in finished_prefill.iter() {
                let Live { id, job, .. } = self.live[i];
                self.kv.insert_prompt(id, Self::prompt_ids(&mut self.prompts, &job));
            }
        }

        let phase = match (n_dec > 0, prefillers > 0) {
            (true, true) => IterPhase::Mixed,
            (true, false) => IterPhase::Decode,
            (false, _) => IterPhase::Prefill,
        };
        let op = &self.op;
        let (power_w, rail_b) = if n_dec == 0 {
            let u = op.perf.prefill_utilization(prefillers.max(1) as u64, self.chunk.max(1));
            let b = op.rail_power(u);
            (b.total_w(), b)
        } else {
            let b_dec = op.rail_power(op.perf.decode_utilization(n_dec as u64, avg_ctx.max(1)));
            let p_dec = b_dec.total_w();
            if prefillers == 0 || chunk_excess_s <= 0.0 {
                (p_dec, b_dec)
            } else {
                // Time-weighted blend of the decode and chunk shares. The
                // total blends rail *totals* — bit-identical to the
                // pre-instrumentation arithmetic — while the per-rail
                // view blends component-wise.
                let b_pre = op.rail_power(op.perf.prefill_utilization(1, self.chunk));
                let p_pre = b_pre.total_w();
                let (wd, wp) = (dt - chunk_excess_s, chunk_excess_s);
                let blend = RailBreakdown {
                    idle_w: (b_dec.idle_w * wd + b_pre.idle_w * wp) / dt,
                    gpu_w: (b_dec.gpu_w * wd + b_pre.gpu_w * wp) / dt,
                    cpu_w: (b_dec.cpu_w * wd + b_pre.cpu_w * wp) / dt,
                    mem_w: (b_dec.mem_w * wd + b_pre.mem_w * wp) / dt,
                };
                ((p_dec * wd + p_pre * wp) / dt, blend)
            }
        };
        // Attribute the iteration's integral token-proportionally: every
        // verify row per decoding sequence — the committed token plus all
        // drafts, *including* rejected ones, because the compute and KV
        // writes for a rolled-back draft really ran and belong to the
        // request that drafted it — and `adv` per prefill segment. With
        // speculation off each sequence weighs exactly 1, as before.
        let bill = &mut sc.bill;
        bill.extend(plans.iter().map(|&(i, k_eff, _)| (self.live[i].job.rid, 1 + k_eff)));
        bill.extend(chunk_bill.iter().copied());
        self.bill_energy(power_w * dt, bill);

        let mut i = 0;
        while i < self.live.len() {
            let s = self.live[i];
            if s.prompt_done == s.job.prompt_tokens && s.job.output_remaining == 0 {
                self.live.swap_remove(i);
                let latency_s = self.t - s.job.arrival_s;
                self.completions.push(Completion {
                    rid: s.job.rid,
                    arrival_s: s.job.arrival_s,
                    ttft_s: s.job.ttft_s.unwrap_or(latency_s),
                    latency_s,
                    output_tokens: s.job.output_total,
                });
                self.femit(
                    self.t,
                    s.job.rid,
                    forensics::EventKind::Completed { output_tokens: s.job.output_total },
                );
                if let Some(slo) = self.slo_latency_s {
                    if latency_s > slo && !self.slo_dumped {
                        self.slo_dumped = true;
                        forensics::flight::dump_on_breach(&self.label);
                    }
                }
                self.served_tokens += s.job.output_total;
                self.kv_freed += self.kv.release(s.id).expect("live seq registered") as u64;
                self.prompts.remove(&s.job.rid);
            } else {
                i += 1;
            }
        }

        self.record(dt, phase, n_dec, prefillers, prefill_tokens + dec_emitted, (power_w, rail_b));
        self.scratch = sc;
    }

    /// Remove every unfinished request (queued and live), releasing their
    /// KV blocks, and return them in their *original* submitted shape
    /// (recompute-grown prompts are reset — a different device has none
    /// of this one's cache). Fleet fault injection reroutes these.
    pub fn drain_incomplete(&mut self) -> Vec<Request> {
        let mut out: Vec<Request> = self.pending.drain(..).map(Job::to_request).collect();
        for s in self.live.drain(..) {
            self.kv_freed += self.kv.release(s.id).expect("live seq registered") as u64;
            out.push(s.job.to_request());
        }
        // A drained device's memory does not survive the fault: the
        // prefix cache goes with it (reroutes start cold elsewhere).
        if self.cfg.prefix_cache {
            self.kv_freed += self.kv.clear_cache() as u64;
            self.prompts.clear();
        }
        out.sort_by(|a, b| {
            a.arrival_s.partial_cmp(&b.arrival_s).expect("finite").then(a.id.cmp(&b.id))
        });
        out
    }

    /// Cancel a request wherever it stands — queued or live — releasing
    /// any KV blocks it holds and its prompt ids. Returns `true` when the
    /// request was found (a completed or unknown `rid` is a no-op).
    /// Cancelled requests count toward neither completions nor served
    /// tokens; the cancellation instant lands in the lifecycle log, and
    /// so in [`ServeAudit::cancelled`].
    pub fn cancel(&mut self, rid: u64) -> bool {
        if let Some(pos) = self.pending.iter().position(|j| j.rid == rid) {
            self.pending.remove(pos);
        } else if let Some(pos) = self.live.iter().position(|s| s.job.rid == rid) {
            let s = self.live.remove(pos);
            self.kv_freed += self.kv.release(s.id).expect("live seq registered") as u64;
        } else {
            return false;
        }
        self.prompts.remove(&rid);
        self.femit(self.t, rid, forensics::EventKind::Cancelled);
        true
    }

    /// Shrink the KV pool to `target_blocks` (floored at one block),
    /// preempting the youngest live sequences until the survivors fit the
    /// reduced pool. Models a co-tenant claiming memory mid-run; the
    /// fault injector's KV-shrink knob. Growing is a no-op.
    pub fn shrink_kv_pool(&mut self, target_blocks: usize) {
        let target = target_blocks.max(1);
        if target >= self.kv.total_blocks() {
            return;
        }
        while self.kv.used_blocks() > target {
            // Cached blocks yield before live sequences do — same order
            // of sacrifice as admission-time pressure.
            if self.kv.evict_one_cached() {
                self.kv_freed += 1;
                continue;
            }
            if self.live.is_empty() {
                break;
            }
            self.preempt_youngest();
        }
        self.kv.shrink_to(target).expect("live usage preempted below target");
    }

    /// Flip the device to a different power mode mid-run — a thermal
    /// governor stepping in, or the fault injector's power-flip knob.
    /// Rebuilds the perf model and idle/rail operating points; iterations
    /// already billed are untouched.
    pub fn set_power_mode(&mut self, pm: &PowerMode) -> Result<(), RunError> {
        pm.validate(&self.device)?;
        self.run_cfg.power_mode = pm.clone();
        self.op = OperatingPoint::new(&self.device, &self.run_cfg);
        // Every mode flip funnels through here — governor decisions,
        // scripted fault-injector flips, thermal recoveries — so this is
        // the single forensic emission point. `downclock` compares
        // against the run's *baseline* clocks: any domain below them
        // slows requests resident across the change.
        let (c, b) = (pm.clocks, self.base_clocks);
        let downclock = c.gpu_mhz < b.gpu_mhz
            || c.mem_mhz < b.mem_mhz
            || c.cpu_ghz < b.cpu_ghz
            || c.cores_online < b.cores_online;
        self.femit(self.t, forensics::NO_RID, forensics::EventKind::ModeChange { downclock });
        Ok(())
    }

    /// Flip the power mode at a known wall-clock instant, splitting the
    /// energy integral at the change.
    ///
    /// [`ServeSim::set_power_mode`] alone rebuilds the operating point
    /// but leaves the clock where it was — if the simulation is
    /// quiescent at `t < t_s`, the next step would bill the entire gap
    /// `[t, next]` at the *new* idle power, misattributing the
    /// `[t, t_s]` portion. This variant first advances a quiescent
    /// clock to `t_s` via [`ServeSim::idle_to`] (billing that stretch at
    /// the old mode's idle power, with its own trace entry) and only
    /// then flips, so `energy == Σ power·dt` holds exactly across the
    /// change. While sequences are live the local clock is already at or
    /// beyond any externally observed instant, so the flip lands on the
    /// current iteration boundary unchanged. Errors with
    /// [`RunError::InvalidConfig`], changing nothing, when `t_s` is not
    /// finite.
    pub fn set_power_mode_at(&mut self, pm: &PowerMode, t_s: f64) -> Result<(), RunError> {
        self.idle_to(t_s)?;
        self.set_power_mode(pm)
    }

    /// The power mode currently in effect (tracks mid-run flips).
    pub fn power_mode(&self) -> &PowerMode {
        &self.run_cfg.power_mode
    }

    /// Build a governor telemetry snapshot at the current iteration
    /// boundary. `since_iter` is the trace length before the step whose
    /// boundary this is (its appended entries become [`GovernorObs::iters`]);
    /// `temp_c` carries a thermal guard's junction estimate when the
    /// driver has one.
    pub fn observe(&self, since_iter: usize, temp_c: Option<f64>) -> GovernorObs<'_> {
        // Pre-submitted traces keep future arrivals in `pending`; they
        // are not queue pressure until their arrival instant, so the
        // governor must not see them (a policy watching depth would
        // otherwise pin the ceiling for the whole run).
        let arrived = self.pending.iter().filter(|j| j.arrival_s <= self.t);
        let mut queued = 0usize;
        let mut oldest: Option<f64> = None;
        for j in arrived {
            queued += 1;
            oldest = Some(match oldest {
                Some(a) => a.min(j.arrival_s),
                None => j.arrival_s,
            });
        }
        for s in &self.live {
            if s.job.ttft_s.is_none() {
                oldest = Some(match oldest {
                    Some(a) => a.min(s.job.arrival_s),
                    None => s.job.arrival_s,
                });
            }
        }
        GovernorObs {
            now_s: self.t,
            queue_depth: queued + self.live.len(),
            live: self.live.len(),
            backlog_tokens: self.backlog_tokens(),
            kv_occupancy: self.kv_occupancy(),
            energy_j: self.energy_j,
            oldest_wait_s: oldest.map(|a| (self.t - a).max(0.0)).unwrap_or(0.0),
            mode: &self.run_cfg.power_mode.name,
            temp_c,
            iters: &self.trace[since_iter.min(self.trace.len())..],
        }
    }

    /// One scheduler turn under a governor: [`ServeSim::step`], then —
    /// if the turn produced any trace entries — consult `hook` with the
    /// boundary snapshot and apply a requested mode change on the spot.
    ///
    /// Because the consultation happens exactly at the iteration
    /// boundary (the local clock equals the last billed instant), the
    /// flip needs no retroactive energy split: every iteration is billed
    /// entirely under the mode that was active while it ran.
    pub fn step_governed(&mut self, now: f64, hook: &mut dyn GovernorHook) -> Result<(), RunError> {
        let mark = self.trace.len();
        self.step(now)?;
        if self.trace.len() == mark {
            return Ok(());
        }
        let decision = hook.on_iteration(&self.observe(mark, None));
        if let Some(pm) = decision {
            self.set_power_mode(&pm)?;
        }
        Ok(())
    }

    /// Requests submitted so far (completed or not).
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Requests queued or live (work in the system).
    pub fn queue_depth(&self) -> usize {
        self.pending.len() + self.live.len()
    }

    /// Tokens still to process across queued and live requests (remaining
    /// prompt plus remaining output) — a router's work-ahead estimate.
    pub fn backlog_tokens(&self) -> u64 {
        let pending: u64 = self.pending.iter().map(|j| j.prompt_tokens + j.output_remaining).sum();
        let live: u64 = self
            .live
            .iter()
            .map(|s| (s.job.prompt_tokens - s.prompt_done) + s.job.output_remaining)
            .sum();
        pending + live
    }

    /// KV pool occupancy in [0, 1].
    pub fn kv_occupancy(&self) -> f64 {
        let total = self.kv.total_blocks();
        if total == 0 {
            0.0
        } else {
            self.kv.used_blocks() as f64 / total as f64
        }
    }

    /// Energy integrated so far (J).
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Sequences preempted so far.
    pub fn preemptions(&self) -> usize {
        self.instants(forensics::EventKind::Preempted).count()
    }

    /// Completed-request records, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Per-iteration telemetry so far.
    pub fn trace(&self) -> &[IterationTrace] {
        &self.trace
    }

    /// `(time, request id)` of every KV-pressure preemption so far.
    pub fn preemption_events(&self) -> Vec<(f64, u64)> {
        self.instants(forensics::EventKind::Preempted).collect()
    }

    /// Total KV pool blocks (shrinks after [`ServeSim::shrink_kv_pool`]).
    pub fn kv_total_blocks(&self) -> usize {
        self.kv.total_blocks()
    }

    /// KV blocks currently held by live sequences.
    pub fn kv_used_blocks(&self) -> usize {
        self.kv.used_blocks()
    }

    /// KV blocks taken from the pool over the run so far.
    pub fn kv_blocks_allocated(&self) -> u64 {
        self.kv_allocated
    }

    /// KV blocks returned to the pool over the run so far.
    pub fn kv_blocks_freed(&self) -> u64 {
        self.kv_freed
    }

    /// Speculation counters so far: `(drafted, accepted, rolled_back)`.
    /// `drafted == accepted + rolled_back` always; all zero with
    /// speculation off.
    pub fn spec_counters(&self) -> (u64, u64, u64) {
        (self.spec_drafted, self.spec_accepted, self.spec_rolled_back)
    }

    /// The adaptive-k controller's current draft length (the configured
    /// `k` when the controller is off; 0 with speculation off).
    pub fn spec_k_now(&self) -> u64 {
        self.spec_k_now
    }

    /// Prompt tokens served from the prefix cache so far.
    pub fn kv_cache_hit_tokens(&self) -> u64 {
        self.kv.cache_hit_tokens()
    }

    /// Copy-on-write block allocations so far.
    pub fn kv_blocks_cow(&self) -> u64 {
        self.kv.cow_events()
    }

    /// Blocks currently parked in the prefix cache.
    pub fn kv_cached_blocks(&self) -> usize {
        self.kv.cached_blocks()
    }

    /// How many leading tokens of `prompt` the prefix cache holds,
    /// without perturbing recency — a router's affinity probe.
    pub fn prefix_match_tokens(&self, prompt: &[TokenId]) -> u64 {
        self.kv.probe_prefix(prompt)
    }

    /// Accounting snapshot for invariant oracles. Fleet runs expose one
    /// per device (where the consumed [`ServeRun`] is unavailable); the
    /// checking harness replays its invariants against this.
    pub fn audit(&self) -> ServeAudit {
        ServeAudit {
            label: self.label.clone(),
            submitted: self.submitted,
            completions: self.completions.clone(),
            cancelled: self.instants(forensics::EventKind::Cancelled).collect(),
            trace: self.trace.clone(),
            kv_blocks_allocated: self.kv_allocated,
            kv_blocks_freed: self.kv_freed,
            kv_blocks_in_use: self.kv.used_blocks(),
            kv_blocks_total: self.kv.total_blocks(),
            kv_cache_hit_tokens: self.kv.cache_hit_tokens(),
            kv_blocks_cow: self.kv.cow_events(),
            kv_blocks_cached: self.kv.cached_blocks(),
            kv_integrity: self.kv.verify(),
            queue_depth: self.pending.len() + self.live.len(),
            energy_j: self.energy_j,
            preemptions: self.preemptions(),
            served_output_tokens: self.served_tokens,
            spec_drafted: self.spec_drafted,
            spec_accepted: self.spec_accepted,
            spec_rolled_back: self.spec_rolled_back,
        }
    }

    /// Device/model/precision display label used on exported timelines.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Tag this simulation's forensic events with a fleet device index
    /// and defer sink recording to the fleet's merged record (the fleet
    /// co-simulator calls this at construction; standalone sims keep
    /// device 0 and record themselves in [`ServeSim::run`]).
    pub fn set_forensics_device(&mut self, device: u32) {
        self.dev_tag = device;
        self.fleet_member = true;
    }

    /// Arm (or disarm, with `None`) automatic flight-recorder dumps:
    /// the first completion whose end-to-end latency exceeds the SLO
    /// writes the retained event window to the `EDGELLM_FLIGHT_DUMP`
    /// path. Purely a side channel — simulation state never depends on
    /// it.
    pub fn set_slo_latency(&mut self, slo_latency_s: Option<f64>) {
        self.slo_latency_s = slo_latency_s;
    }

    /// The run's forensic record so far: lifecycle events (time-sorted,
    /// stable for equal stamps) plus the partitioned energy ledger.
    /// Feed it to [`edgellm_trace::forensics::reconstruct`] for the
    /// per-request timelines.
    pub fn forensics(&self) -> ForensicsLog {
        let mut events = self.flog.clone();
        events.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).expect("finite event times"));
        let mut req_energy: Vec<(u64, f64)> =
            self.req_energy.iter().map(|(&r, &e)| (r, e)).collect();
        req_energy.sort_unstable_by_key(|&(rid, _)| rid);
        ForensicsLog {
            label: self.label.clone(),
            events,
            req_energy,
            idle_energy_j: self.idle_energy_j,
            cloud_energy_j: 0.0,
            total_energy_j: self.energy_j,
        }
    }

    /// Output tokens delivered to completed requests.
    pub fn served_output_tokens(&self) -> u64 {
        self.served_tokens
    }

    /// Aggregate serving metrics over what has completed so far (all
    /// zeros before the first completion).
    pub fn report(&self) -> ContinuousReport {
        let latencies = Histogram::from_samples(self.completions.iter().map(|c| c.latency_s));
        let ttfts = Histogram::from_samples(self.completions.iter().map(|c| c.ttft_s));
        let (mut occupancy_sum, mut decode_iters) = (0usize, 0usize);
        for it in self.trace.iter().filter(|it| it.decoding > 0) {
            occupancy_sum += it.decoding;
            decode_iters += 1;
        }
        ContinuousReport {
            makespan_s: self.t,
            mean_latency_s: latencies.mean(),
            p95_latency_s: latencies.quantile_or_zero(0.95),
            output_tok_s: if self.t > 0.0 { self.served_tokens as f64 / self.t } else { 0.0 },
            mean_occupancy: occupancy_sum as f64 / decode_iters.max(1) as f64,
            requests: latencies.count(),
            energy_j: self.energy_j,
            preemptions: self.preemptions(),
            mean_ttft_s: ttfts.mean(),
            p50_ttft_s: ttfts.quantile_or_zero(0.50),
            p99_ttft_s: ttfts.quantile_or_zero(0.99),
            prefill_stall_s: self.prefill_stall_s,
        }
    }

    /// Step to the end of the run, then consume the simulation into a
    /// [`ServeRun`]; on an already drained simulation this only does the
    /// latter.
    ///
    /// When the process-wide [`edgellm_trace::sink`] is enabled, the
    /// run's full timeline — iteration spans, preemption instants, KV and
    /// rail-power counter tracks — is appended to it as a new process,
    /// which is how `--trace-out` captures every serve run an experiment
    /// performs without code changes.
    pub fn run(mut self) -> Result<ServeRun, RunError> {
        while let Some(now) = self.next_event_s() {
            self.step(now)?;
        }
        if !self.fleet_member && forensics::sink::enabled() {
            forensics::sink::record(forensics::reconstruct(&self.forensics()));
        }
        if edgellm_trace::sink::enabled() {
            edgellm_trace::sink::with(|out| {
                let pid = out.next_pid();
                crate::serve::adapter::record_serve_run(
                    out,
                    pid,
                    &self.label,
                    &self.trace,
                    &self.preemption_events(),
                );
            });
        }
        Ok(ServeRun { report: self.report(), audit: self.audit() })
    }
}

/// Check a clock instant handed to the simulator is finite: a NaN or
/// infinite one would carry the clock and the energy integral with it.
fn check_instant(what: &str, t_s: f64) -> Result<(), RunError> {
    if t_s.is_finite() {
        Ok(())
    } else {
        Err(RunError::InvalidConfig(format!("{what} at non-finite time {t_s}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::PoissonArrivals;
    use edgellm_models::{Llm, Precision};

    fn setup() -> (DeviceSpec, RunConfig) {
        (DeviceSpec::orin_agx_64gb(), RunConfig::new(Llm::Llama31_8b, Precision::Fp16))
    }

    #[test]
    fn stepped_sim_matches_run_wrapper_exactly() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(2.0).generate(30, 13);
        let wrapped =
            ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap().run().unwrap();
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        let direct = sim.run().unwrap();
        assert_eq!(wrapped.report, direct.report);
        assert_eq!(wrapped.audit.trace, direct.audit.trace);
        assert_eq!(wrapped.audit.kv_blocks_allocated, direct.audit.kv_blocks_allocated);
        assert_eq!(wrapped.audit.served_output_tokens, direct.audit.served_output_tokens);
    }

    #[test]
    fn incremental_submission_matches_upfront_submission() {
        // Routing a trace request-by-request (as a fleet front-end does)
        // must reproduce the run started with the full trace, provided
        // the sim never outruns the next submission.
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.5).generate(20, 21);
        let max_sl = reqs.iter().map(|r| r.input_tokens + r.output_tokens).max().unwrap();
        let upfront = ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap();
        let mut inc = ServeSim::with_seq_hint(ServeConfig::chunked(8), &dev, &cfg, max_sl).unwrap();
        let mut queued = 0usize;
        let mut upfront = upfront;
        loop {
            // Feed every arrival that precedes the device's next event.
            let horizon = inc.next_event_s();
            while queued < reqs.len() && horizon.is_none_or(|h| reqs[queued].arrival_s <= h) {
                inc.submit(&reqs[queued]).unwrap();
                queued += 1;
            }
            match inc.next_event_s() {
                Some(now) => inc.step(now).unwrap(),
                None if queued == reqs.len() => break,
                None => {
                    inc.submit(&reqs[queued]).unwrap();
                    queued += 1;
                }
            }
        }
        while let Some(now) = upfront.next_event_s() {
            upfront.step(now).unwrap();
        }
        assert_eq!(upfront.report(), inc.report());
    }

    #[test]
    fn drain_returns_original_shapes_and_frees_kv() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(3.0).generate(12, 5);
        let mut sim = ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap();
        // Step a few events so some requests are live, some queued.
        for _ in 0..6 {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        let done = sim.completions().len();
        let drained = sim.drain_incomplete();
        assert_eq!(done + drained.len(), 12, "every request is completed or drained");
        assert!(sim.is_done());
        assert_eq!(sim.kv_occupancy(), 0.0, "drain releases all KV blocks");
        for d in &drained {
            let orig = reqs.iter().find(|r| r.id == d.id).expect("known id");
            assert_eq!(d.input_tokens, orig.input_tokens, "reroute restarts from the prompt");
            assert_eq!(d.output_tokens, orig.output_tokens);
            assert_eq!(d.arrival_s, orig.arrival_s, "latency stays end-to-end");
        }
    }

    #[test]
    fn tied_arrivals_order_by_request_id() {
        // Two identical traces whose tied requests are submitted in
        // opposite orders must serve identically: ids break the tie.
        let (dev, cfg) = setup();
        let mk = |id: u64| Request { id, arrival_s: 0.5, input_tokens: 32, output_tokens: 64 };
        let fwd = [mk(0), mk(1), mk(2)];
        let rev = [mk(2), mk(1), mk(0)];
        let run = |reqs: &[Request]| {
            ServeSim::new(ServeConfig::chunked(2), &dev, &cfg, reqs).unwrap().run().unwrap()
        };
        let (a, b) = (run(&fwd), run(&rev));
        assert_eq!(a.report, b.report);
        assert_eq!(a.audit.trace, b.audit.trace);
    }

    #[test]
    fn backlog_and_queue_depth_track_progress() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(2.0).generate(10, 3);
        let mut sim = ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap();
        let total: u64 = reqs.iter().map(|r| r.input_tokens + r.output_tokens).sum();
        assert_eq!(sim.backlog_tokens(), total);
        assert_eq!(sim.queue_depth(), 10);
        let mut prev = sim.backlog_tokens();
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
            assert!(sim.backlog_tokens() <= prev, "backlog never grows without preemption");
            prev = sim.backlog_tokens();
        }
        assert_eq!(sim.backlog_tokens(), 0);
        assert_eq!(sim.queue_depth(), 0);
        assert_eq!(sim.completions().len(), 10);
    }

    #[test]
    fn zero_length_prompt_gets_decode_ttft() {
        // A prompt of zero tokens never passes through prefill; its TTFT
        // is the first decode token, strictly before the last one.
        let (dev, cfg) = setup();
        let reqs = [
            Request { id: 0, arrival_s: 0.0, input_tokens: 0, output_tokens: 8 },
            Request { id: 1, arrival_s: 0.0, input_tokens: 32, output_tokens: 8 },
        ];
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 2);
        for c in sim.completions() {
            assert!(c.ttft_s > 0.0, "request {} ttft never recorded", c.rid);
            assert!(
                c.ttft_s < c.latency_s,
                "request {} ttft {} must precede last token at {}",
                c.rid,
                c.ttft_s,
                c.latency_s
            );
        }
    }

    #[test]
    fn zero_length_prompt_drains_cleanly() {
        let (dev, cfg) = setup();
        let reqs = [
            Request { id: 0, arrival_s: 0.0, input_tokens: 0, output_tokens: 64 },
            Request { id: 1, arrival_s: 0.0, input_tokens: 16, output_tokens: 64 },
        ];
        let mut sim = ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap();
        for _ in 0..3 {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        let drained = sim.drain_incomplete();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].input_tokens, 0, "zero prompt survives the round-trip");
        assert_eq!(sim.kv_occupancy(), 0.0);
        assert_eq!(sim.kv_blocks_allocated(), sim.kv_blocks_freed());
    }

    #[test]
    fn kv_pool_of_exactly_one_sequence_serializes() {
        // The pool holds exactly one full sequence (144 tokens = 9
        // blocks). Concurrent admissions must churn through preemption
        // yet every request completes with exact token accounting — the
        // recompute penalty never grows a sequence past the pool.
        let (dev, cfg) = setup();
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request { id, arrival_s: 0.0, input_tokens: 48, output_tokens: 96 })
            .collect();
        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        let pool = 144 * kv_per_token;
        let mut sim =
            ServeSim::new(ServeConfig::chunked(16).kv_pool_cap(pool), &dev, &cfg, &reqs).unwrap();
        assert_eq!(sim.kv_total_blocks(), 9);
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 4, "one-sequence pool still drains");
        assert!(sim.preemptions() > 0, "contention must preempt");
        assert_eq!(sim.served_output_tokens(), 4 * 96);
        assert_eq!(sim.kv_blocks_allocated(), sim.kv_blocks_freed());
        assert_eq!(sim.kv_used_blocks(), 0);
    }

    /// Drive a sim to completion and return it.
    fn drain(mut sim: ServeSim) -> ServeSim {
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        sim
    }

    #[test]
    fn prefix_cache_off_by_default_leaves_counters_dark() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(2.0).generate(10, 13);
        let sim = drain(ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap());
        assert_eq!(sim.kv_cache_hit_tokens(), 0);
        assert_eq!(sim.kv_blocks_cow(), 0);
        assert_eq!(sim.kv_cached_blocks(), 0);
        assert!(sim.trace().iter().all(|it| it.kv_cached_blocks.is_none()));
        let audit = sim.audit();
        assert!(audit.kv_integrity.is_empty(), "{:?}", audit.kv_integrity);
        assert_eq!(audit.kv_blocks_in_use, 0);
    }

    /// Two requests sharing their whole prompt, arriving far enough
    /// apart that the first finishes prefill before the second admits.
    fn shared_prompt_pair(cfg_serve: ServeConfig, dev: &DeviceSpec, cfg: &RunConfig) -> ServeSim {
        let reqs = [
            Request { id: 0, arrival_s: 0.0, input_tokens: 128, output_tokens: 32 },
            Request { id: 1, arrival_s: 60.0, input_tokens: 128, output_tokens: 32 },
        ];
        let max_sl = 160;
        let mut sim = ServeSim::with_seq_hint(cfg_serve, dev, cfg, max_sl).unwrap();
        let prompt: Vec<TokenId> = (0..128).map(|i| 70_000 + i).collect();
        for r in &reqs {
            sim.submit_with_prompt(r, &prompt).unwrap();
        }
        sim
    }

    #[test]
    fn warm_prefix_hit_cuts_ttft_and_energy() {
        let (dev, cfg) = setup();
        let cold = drain(shared_prompt_pair(ServeConfig::chunked(16), &dev, &cfg));
        let warm =
            drain(shared_prompt_pair(ServeConfig::chunked(16).with_prefix_cache(), &dev, &cfg));
        assert_eq!(warm.completions().len(), 2);
        assert_eq!(warm.kv_cache_hit_tokens(), 128, "second prompt fully cached");
        let cold_ttft = |sim: &ServeSim, rid: u64| {
            sim.completions().iter().find(|c| c.rid == rid).unwrap().ttft_s
        };
        assert_eq!(
            cold_ttft(&warm, 0),
            cold_ttft(&cold, 0),
            "first request serves cold either way"
        );
        assert!(
            cold_ttft(&warm, 1) < cold_ttft(&cold, 1),
            "cached prefill must cut the second TTFT: {} vs {}",
            cold_ttft(&warm, 1),
            cold_ttft(&cold, 1)
        );
        assert!(
            warm.energy_j() < cold.energy_j(),
            "skipped prefill compute must save energy: {} vs {}",
            warm.energy_j(),
            cold.energy_j()
        );
        assert!(warm.trace().iter().all(|it| it.kv_cached_blocks.is_some()));
        // Drained audit: only the cache parks blocks, and the refcount
        // self-check is clean.
        let audit = warm.audit();
        assert!(audit.kv_integrity.is_empty(), "{:?}", audit.kv_integrity);
        assert_eq!(audit.kv_blocks_in_use, audit.kv_blocks_cached);
        assert_eq!(
            audit.kv_blocks_allocated,
            audit.kv_blocks_freed + audit.kv_blocks_cached as u64
        );
    }

    #[test]
    fn warm_blocking_prefill_skips_the_stall() {
        let (dev, cfg) = setup();
        let cold = drain(shared_prompt_pair(ServeConfig::blocking(4), &dev, &cfg));
        let warm =
            drain(shared_prompt_pair(ServeConfig::blocking(4).with_prefix_cache(), &dev, &cfg));
        assert_eq!(warm.kv_cache_hit_tokens(), 128);
        let ttft = |sim: &ServeSim, rid: u64| {
            sim.completions().iter().find(|c| c.rid == rid).unwrap().ttft_s
        };
        // A full hit skips the blocking stall entirely: TTFT lands on
        // the first decode step.
        assert!(ttft(&warm, 1) < ttft(&cold, 1));
        assert!(warm.energy_j() < cold.energy_j());
        assert!(warm.audit().kv_integrity.is_empty());
    }

    #[test]
    fn divergent_prompts_copy_on_write() {
        let (dev, cfg) = setup();
        let reqs = [
            Request { id: 0, arrival_s: 0.0, input_tokens: 64, output_tokens: 16 },
            Request { id: 1, arrival_s: 60.0, input_tokens: 64, output_tokens: 16 },
        ];
        let mut sim =
            ServeSim::with_seq_hint(ServeConfig::chunked(16).with_prefix_cache(), &dev, &cfg, 80)
                .unwrap();
        let base: Vec<TokenId> = (0..64).map(|i| 50_000 + i).collect();
        let mut fork = base.clone();
        for t in &mut fork[20..] {
            *t += 9_999; // diverges 4 tokens into the second block
        }
        sim.submit_with_prompt(&reqs[0], &base).unwrap();
        sim.submit_with_prompt(&reqs[1], &fork).unwrap();
        let sim = drain(sim);
        assert_eq!(sim.completions().len(), 2);
        assert_eq!(sim.kv_cache_hit_tokens(), 20, "16 shared + 4 copied");
        assert_eq!(sim.kv_blocks_cow(), 1);
        assert!(sim.audit().kv_integrity.is_empty());
    }

    #[test]
    fn quiescent_shortage_clears_the_cache_and_admits_cold() {
        // A 9-block pool. The first request leaves its two full prompt
        // blocks cached; the second shares 20 tokens with them (one full
        // block and a 4-token partial) and needs all 9 blocks. Its plan
        // keeps the matched path and comes up one block short with
        // nothing live, so admission drops the cache and admits cold:
        // the plan's match named blocks the clear just freed.
        let (dev, cfg) = setup();
        let pool = 144 * cfg.llm.arch().kv_bytes_per_token();
        let serve = ServeConfig::chunked(16).kv_pool_cap(pool).with_prefix_cache();
        let mut sim = ServeSim::with_seq_hint(serve, &dev, &cfg, 144).unwrap();
        assert_eq!(sim.kv_total_blocks(), 9);
        let first: Vec<TokenId> = (0..40).map(|i| 30_000 + i).collect();
        let mut second: Vec<TokenId> = (0..140).map(|i| 30_000 + i).collect();
        for t in &mut second[20..] {
            *t += 9_999;
        }
        let req = |id, arrival_s, input_tokens, output_tokens| Request {
            id,
            arrival_s,
            input_tokens,
            output_tokens,
        };
        sim.submit_with_prompt(&req(0, 0.0, 40, 8), &first).unwrap();
        sim.submit_with_prompt(&req(1, 60.0, 140, 3), &second).unwrap();
        while sim.completions().is_empty() {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        assert_eq!(sim.kv_cached_blocks(), 2, "the first prompt's full blocks stay cached");
        assert_eq!(sim.prefix_match_tokens(&second), 20);
        let sim = drain(sim);
        assert_eq!(sim.completions().len(), 2);
        assert_eq!(sim.kv_cache_hit_tokens(), 0, "the second prompt was admitted cold");
        let audit = sim.audit();
        assert!(audit.kv_integrity.is_empty(), "{:?}", audit.kv_integrity);
        assert_eq!(
            audit.kv_blocks_allocated,
            audit.kv_blocks_freed + audit.kv_blocks_cached as u64
        );
    }

    #[test]
    fn preemption_with_cache_resumes_from_cached_blocks() {
        // Pool of exactly one sequence (as the flat test above) but with
        // the prefix cache on: preempted prompts re-admit against their
        // own cached prefix instead of recomputing everything, and the
        // run still drains with clean accounting.
        let (dev, cfg) = setup();
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request { id, arrival_s: 0.0, input_tokens: 48, output_tokens: 96 })
            .collect();
        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        let pool = 144 * kv_per_token;
        let mut sim = ServeSim::new(
            ServeConfig::chunked(16).kv_pool_cap(pool).with_prefix_cache(),
            &dev,
            &cfg,
            &reqs,
        )
        .unwrap();
        assert_eq!(sim.kv_total_blocks(), 9);
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 4, "one-sequence pool still drains");
        assert!(sim.preemptions() > 0, "contention must preempt");
        assert_eq!(sim.served_output_tokens(), 4 * 96);
        let audit = sim.audit();
        assert!(audit.kv_integrity.is_empty(), "{:?}", audit.kv_integrity);
        assert_eq!(audit.kv_blocks_in_use, audit.kv_blocks_cached);
        assert_eq!(
            audit.kv_blocks_allocated,
            audit.kv_blocks_freed + audit.kv_blocks_cached as u64
        );
    }

    #[test]
    fn drain_with_cache_releases_everything() {
        let (dev, cfg) = setup();
        let mut sim = shared_prompt_pair(ServeConfig::chunked(8).with_prefix_cache(), &dev, &cfg);
        for _ in 0..6 {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        let _ = sim.drain_incomplete();
        assert_eq!(sim.kv_occupancy(), 0.0, "drain clears the cache too");
        assert_eq!(sim.kv_cached_blocks(), 0);
        assert_eq!(sim.kv_blocks_allocated(), sim.kv_blocks_freed());
        assert!(sim.audit().kv_integrity.is_empty());
    }

    #[test]
    fn shrink_kv_pool_evicts_cache_before_preempting() {
        let (dev, cfg) = setup();
        let sim =
            drain(shared_prompt_pair(ServeConfig::chunked(16).with_prefix_cache(), &dev, &cfg));
        let cached = sim.kv_cached_blocks();
        assert!(cached > 0, "drained run leaves a warm cache");
        let mut sim = sim;
        sim.shrink_kv_pool(1);
        assert_eq!(sim.kv_total_blocks(), 1);
        assert!(sim.kv_cached_blocks() <= 1);
        assert!(sim.audit().kv_integrity.is_empty());
    }

    #[test]
    fn skip_to_earlier_timestamp_is_noop() {
        let (dev, cfg) = setup();
        let reqs = [Request { id: 0, arrival_s: 4.0, input_tokens: 32, output_tokens: 8 }];
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        sim.skip_to(3.0).unwrap();
        assert_eq!(sim.now(), 3.0);
        let e = sim.energy_j();
        sim.skip_to(1.0).unwrap(); // earlier than the clock: must not rewind
        assert_eq!(sim.now(), 3.0);
        assert_eq!(sim.energy_j(), e, "a skipped gap bills nothing");
        // Live sequences also pin the clock.
        sim.step(4.0).unwrap();
        let t = sim.now();
        sim.skip_to(t + 100.0).unwrap();
        assert_eq!(sim.now(), t, "skip_to is quiescent-only");
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 1);
    }

    #[test]
    fn cancel_releases_kv_and_is_conserved() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(3.0).generate(10, 7);
        let mut sim = ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap();
        for _ in 0..4 {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        // One live victim, one still-queued victim.
        let live_rid = sim.audit().trace.last().map(|_| reqs[0].id).unwrap();
        assert!(sim.cancel(live_rid));
        let queued_rid = reqs.last().unwrap().id;
        assert!(sim.cancel(queued_rid));
        assert!(!sim.cancel(queued_rid), "double-cancel is a no-op");
        assert!(!sim.cancel(9999), "unknown rid is a no-op");
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        let audit = sim.audit();
        assert_eq!(audit.cancelled.len(), 2);
        assert_eq!(
            audit.completions.len() + audit.cancelled.len(),
            audit.submitted,
            "every request completes or cancels"
        );
        assert_eq!(audit.kv_blocks_allocated, audit.kv_blocks_freed);
        assert_eq!(audit.kv_blocks_in_use, 0);
    }

    #[test]
    fn cancel_releases_prompt_ids_queued_or_live() {
        let (dev, cfg) = setup();
        let reqs = [
            Request { id: 0, arrival_s: 0.0, input_tokens: 32, output_tokens: 64 },
            Request { id: 1, arrival_s: 50.0, input_tokens: 32, output_tokens: 8 },
        ];
        let prompts: HashMap<u64, Vec<TokenId>> =
            reqs.iter().map(|r| (r.id, vec![9; 32])).collect();
        let serve = ServeConfig::chunked(16).with_prefix_cache();
        let mut sim = ServeSim::new_with_prompts(serve, &dev, &cfg, &reqs, &prompts).unwrap();
        sim.step(0.0).unwrap();
        assert_eq!(sim.live.len(), 1, "request 0 is live, request 1 still queued");
        assert!(sim.cancel(1));
        assert!(sim.cancel(0));
        assert!(!sim.prompts.contains_key(&1), "a queued cancel keeps no prompt ids");
        assert!(!sim.prompts.contains_key(&0), "a live cancel keeps no prompt ids");
        assert!(sim.is_done());
        assert_eq!(sim.audit().cancelled, vec![(sim.now(), 1), (sim.now(), 0)]);
    }

    #[test]
    fn shrink_kv_pool_preempts_survivors_to_fit() {
        let (dev, cfg) = setup();
        let reqs: Vec<Request> = (0..6)
            .map(|id| Request { id, arrival_s: 0.0, input_tokens: 48, output_tokens: 96 })
            .collect();
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        for _ in 0..8 {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        let used = sim.kv_used_blocks();
        assert!(used > 9, "batch grew past one sequence before the shrink");
        sim.shrink_kv_pool(9);
        assert_eq!(sim.kv_total_blocks(), 9);
        assert!(sim.kv_used_blocks() <= 9);
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 6, "shrunken pool still drains");
        assert_eq!(sim.served_output_tokens(), 6 * 96);
        assert_eq!(sim.kv_blocks_allocated(), sim.kv_blocks_freed());
    }

    #[test]
    fn power_mode_flip_midrun_completes_with_more_time() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(2.0).generate(10, 11);
        let registry = edgellm_hw::PowerModeRegistry::stock_for(dev.clone());
        let slow = registry
            .iter()
            .find(|m| m.name != cfg.power_mode.name)
            .expect("stock registry has >1 mode")
            .clone();
        let mut flipped = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        let mut stock = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        for _ in 0..4 {
            let now = flipped.next_event_s().unwrap();
            flipped.step(now).unwrap();
            let now = stock.next_event_s().unwrap();
            stock.step(now).unwrap();
        }
        flipped.set_power_mode(&slow).unwrap();
        while let Some(now) = flipped.next_event_s() {
            flipped.step(now).unwrap();
        }
        while let Some(now) = stock.next_event_s() {
            stock.step(now).unwrap();
        }
        assert_eq!(flipped.completions().len(), 10);
        assert!(
            (flipped.now() - stock.now()).abs() > 1e-9,
            "a mid-run clock change must move the makespan"
        );
    }

    /// The stock mode (≠ current) whose idle power differs most from the
    /// current mode's — a flip between the two must move the idle rate.
    fn lowest_idle_mode(dev: &DeviceSpec, cfg: &RunConfig) -> PowerMode {
        let rails = RailModel::orin_agx(dev.clone());
        let here = rails.total_w(&cfg.power_mode.clocks, &LoadProfile::idle());
        edgellm_hw::PowerModeRegistry::stock_for(dev.clone())
            .iter()
            .filter(|m| m.name != cfg.power_mode.name)
            .max_by(|a, b| {
                let da = (rails.total_w(&a.clocks, &LoadProfile::idle()) - here).abs();
                let db = (rails.total_w(&b.clocks, &LoadProfile::idle()) - here).abs();
                da.partial_cmp(&db).unwrap()
            })
            .expect("stock registry has >1 mode")
            .clone()
    }

    /// Satellite regression: `energy == ∫ power` to 1e-9 across a mode
    /// flip landing *inside* an idle gap. `set_power_mode` alone leaves a
    /// quiescent clock behind the flip instant, so the next step would
    /// bill the whole gap at the new idle power; `set_power_mode_at`
    /// splits the integral at the change.
    #[test]
    fn mid_gap_mode_flip_splits_the_energy_integral() {
        let (dev, cfg) = setup();
        // Two requests separated by a long quiet gap.
        let reqs = vec![
            Request { id: 0, arrival_s: 0.0, input_tokens: 32, output_tokens: 8 },
            Request { id: 1, arrival_s: 30.0, input_tokens: 32, output_tokens: 8 },
        ];
        let slow = lowest_idle_mode(&dev, &cfg);
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        // Drain the first request; the sim goes quiescent well before t=30.
        while sim.completions().is_empty() {
            let now = sim.next_event_s().unwrap();
            sim.step(now).unwrap();
        }
        let t_flip = sim.now() + 10.0;
        assert!(t_flip < 30.0, "flip lands inside the idle gap");
        let idle_old = sim.op.idle_power;
        sim.set_power_mode_at(&slow, t_flip).unwrap();
        let idle_new = sim.op.idle_power;
        assert!(
            (idle_old - idle_new).abs() > 1e-12,
            "modes with different clocks idle at different power"
        );
        // The old-mode stretch got its own trace entry at old idle power.
        let gap_entry = *sim.trace().last().unwrap();
        assert_eq!(gap_entry.phase, IterPhase::Idle);
        assert!((gap_entry.t_s - t_flip).abs() < 1e-12);
        assert!((gap_entry.power_w - idle_old).abs() < 1e-12);
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 2);
        // The pinned invariant: total energy equals the trace integral to
        // 1e-9 relative — every instant billed under the mode active then.
        let integral: f64 = sim.trace().iter().map(|it| it.power_w * it.dt_s).sum();
        let e = sim.energy_j();
        assert!(
            (e - integral).abs() <= 1e-9 * (1.0 + e.abs() + integral.abs()),
            "energy {e} != trace integral {integral}"
        );
        // And the new-mode stretch of the gap was billed at the new idle
        // power: find the idle entry covering (t_flip, 30].
        let tail_gap = sim
            .trace()
            .iter()
            .find(|it| it.phase == IterPhase::Idle && it.t_s > t_flip)
            .expect("remainder of the gap billed separately");
        assert!((tail_gap.power_w - idle_new).abs() < 1e-12);
    }

    /// The same flip applied via bare `set_power_mode` misattributes the
    /// old-mode stretch — pinning the bug the `_at` variant fixes (the
    /// totals differ by exactly the gap-length × idle-power delta).
    #[test]
    fn bare_set_power_mode_misattributes_the_gap() {
        let (dev, cfg) = setup();
        let reqs = vec![
            Request { id: 0, arrival_s: 0.0, input_tokens: 32, output_tokens: 8 },
            Request { id: 1, arrival_s: 30.0, input_tokens: 32, output_tokens: 8 },
        ];
        let slow = lowest_idle_mode(&dev, &cfg);
        let mut split = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        let mut bare = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap();
        while split.completions().is_empty() {
            let now = split.next_event_s().unwrap();
            split.step(now).unwrap();
            let now = bare.next_event_s().unwrap();
            bare.step(now).unwrap();
        }
        let t_flip = split.now() + 10.0;
        let idle_old = split.op.idle_power;
        split.set_power_mode_at(&slow, t_flip).unwrap();
        bare.set_power_mode(&slow).unwrap();
        let idle_new = bare.op.idle_power;
        while let Some(now) = split.next_event_s() {
            split.step(now).unwrap();
        }
        while let Some(now) = bare.next_event_s() {
            bare.step(now).unwrap();
        }
        // Identical completions, different energy: the bare flip billed
        // the 10 s old-mode stretch at the new idle power.
        assert_eq!(split.completions().len(), bare.completions().len());
        let expected_delta = 10.0 * (idle_old - idle_new);
        let delta = split.energy_j() - bare.energy_j();
        assert!(
            (delta - expected_delta).abs() <= 1e-9 * (1.0 + expected_delta.abs()),
            "delta {delta} != gap misattribution {expected_delta}"
        );
    }

    #[test]
    fn speculation_cuts_makespan_and_conserves_tokens() {
        // k=4 at α=0.8 on the paper workload: fewer (verify) iterations,
        // identical served output, strictly smaller makespan, and the
        // drafted = accepted + rolled_back identity throughout.
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(20, 7);
        let plain = drain(ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap());
        let spec = drain(
            ServeSim::new(ServeConfig::chunked(16).with_speculation(4, 0.8), &dev, &cfg, &reqs)
                .unwrap(),
        );
        assert_eq!(spec.completions().len(), 20);
        assert_eq!(spec.served_output_tokens(), plain.served_output_tokens());
        let (drafted, accepted, rolled_back) = spec.spec_counters();
        assert!(drafted > 0, "speculation must draft");
        assert_eq!(drafted, accepted + rolled_back);
        assert!(accepted > 0 && rolled_back > 0, "α=0.8 both lands and misses");
        assert!(
            spec.now() < plain.now(),
            "speculative makespan {} must beat plain {}",
            spec.now(),
            plain.now()
        );
        // Rolled-back drafts were appended then truncated: the KV pool
        // still drains block-exactly.
        assert_eq!(spec.kv_blocks_allocated(), spec.kv_blocks_freed());
        assert_eq!(spec.kv_used_blocks(), 0);
        assert!(spec.audit().kv_integrity.is_empty());
        // Plain runs keep all speculation counters dark.
        assert_eq!(plain.spec_counters(), (0, 0, 0));
    }

    #[test]
    fn speculative_energy_ledger_still_partitions_exactly() {
        // Per-request shares + idle remainder must sum to the energy
        // integral at 1e-9 even with drafted-then-rejected work billed.
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.5).generate(15, 3);
        let sim = drain(
            ServeSim::new(ServeConfig::chunked(8).with_speculation(4, 0.7), &dev, &cfg, &reqs)
                .unwrap(),
        );
        let f = sim.forensics();
        let rids: Vec<u64> = f.req_energy.iter().map(|&(rid, _)| rid).collect();
        assert_eq!(rids, (0..15).collect::<Vec<u64>>(), "one share per request, in id order");
        let attributed: f64 = f.req_energy.iter().map(|&(_, e)| e).sum();
        let total = attributed + f.idle_energy_j;
        assert!(
            (total - sim.energy_j()).abs() <= 1e-9 * (1.0 + sim.energy_j()),
            "ledger {total} != integral {}",
            sim.energy_j()
        );
        // The trace integral and the counter match too.
        let integral: f64 = sim.trace().iter().map(|it| it.power_w * it.dt_s).sum();
        assert!((integral - sim.energy_j()).abs() <= 1e-9 * (1.0 + sim.energy_j()));
    }

    #[test]
    fn speculative_runs_replay_deterministically() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(2.0).generate(12, 11);
        let mk = || {
            drain(
                ServeSim::new(
                    ServeConfig::chunked(8).with_adaptive_speculation(6, 0.6),
                    &dev,
                    &cfg,
                    &reqs,
                )
                .unwrap(),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.spec_counters(), b.spec_counters());
        assert_eq!(a.energy_j(), b.energy_j());
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn adaptive_k_shrinks_when_acceptance_drops() {
        let (dev, cfg) = setup();
        let reqs = PoissonArrivals::paper_shape(1.0).generate(10, 5);
        let cold = drain(
            ServeSim::new(
                ServeConfig::chunked(8).with_adaptive_speculation(8, 0.05),
                &dev,
                &cfg,
                &reqs,
            )
            .unwrap(),
        );
        assert_eq!(cold.spec_k_now(), 1, "missing drafts must shrink k to the floor");
        let hot = drain(
            ServeSim::new(
                ServeConfig::chunked(8).with_adaptive_speculation(8, 0.95),
                &dev,
                &cfg,
                &reqs,
            )
            .unwrap(),
        );
        assert_eq!(hot.spec_k_now(), 8, "landing drafts must keep k at the ceiling");
        // The fixed-k config never moves.
        let fixed = drain(
            ServeSim::new(ServeConfig::chunked(8).with_speculation(5, 0.05), &dev, &cfg, &reqs)
                .unwrap(),
        );
        assert_eq!(fixed.spec_k_now(), 5);
    }

    #[test]
    fn speculation_survives_kv_pressure_and_preemption() {
        // The one-sequence pool under speculation: verify footprints
        // (1 + k per sequence) are reserved up front, preemption churns,
        // and the run still drains with exact accounting.
        let (dev, cfg) = setup();
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request { id, arrival_s: 0.0, input_tokens: 48, output_tokens: 96 })
            .collect();
        let kv_per_token = cfg.llm.arch().kv_bytes_per_token();
        let pool = 144 * kv_per_token;
        let sim = drain(
            ServeSim::new(
                ServeConfig::chunked(16).kv_pool_cap(pool).with_speculation(4, 0.6),
                &dev,
                &cfg,
                &reqs,
            )
            .unwrap(),
        );
        assert_eq!(sim.completions().len(), 4);
        assert!(sim.preemptions() > 0, "contention must preempt");
        assert_eq!(sim.served_output_tokens(), 4 * 96);
        assert_eq!(sim.kv_blocks_allocated(), sim.kv_blocks_freed());
        let (drafted, accepted, rolled_back) = sim.spec_counters();
        assert_eq!(drafted, accepted + rolled_back);
        assert!(sim.audit().kv_integrity.is_empty());
    }

    #[test]
    fn submission_order_does_not_change_the_run() {
        // The pending queue is kept sorted by (arrival, id) whatever order
        // requests come in: a shuffled submission, with ties on arrival,
        // inserts mid-queue and must serve exactly like the sorted trace.
        let (dev, cfg) = setup();
        let mut reqs = PoissonArrivals::paper_shape(3.0).generate(40, 8);
        for r in reqs.iter_mut().skip(10).step_by(7) {
            r.arrival_s = 1.0;
        }
        let sorted = drain(ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &reqs).unwrap());
        let shuffled: Vec<Request> =
            (0..reqs.len()).map(|i| reqs[(i * 17 + 5) % reqs.len()]).collect();
        let sim = drain(ServeSim::new(ServeConfig::chunked(8), &dev, &cfg, &shuffled).unwrap());
        assert_eq!(sim.report(), sorted.report());
        assert_eq!(sim.trace(), sorted.trace());
        assert_eq!(sim.completions(), sorted.completions());
    }

    #[test]
    fn new_rejects_non_finite_arrival_times() {
        let (dev, cfg) = setup();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let reqs = [
                Request { id: 0, arrival_s: 0.5, input_tokens: 32, output_tokens: 8 },
                Request { id: 1, arrival_s: bad, input_tokens: 32, output_tokens: 8 },
            ];
            let err = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs).unwrap_err();
            assert!(matches!(err, RunError::InvalidConfig(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn submit_rejects_non_finite_arrival_times() {
        let (dev, cfg) = setup();
        let serve = ServeConfig::chunked(16).with_prefix_cache();
        let mut sim = ServeSim::with_seq_hint(serve, &dev, &cfg, 64).unwrap();
        let ok = Request { id: 0, arrival_s: 0.5, input_tokens: 32, output_tokens: 8 };
        sim.submit(&ok).unwrap();
        for (rid, bad) in [(1, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)] {
            let r = Request { id: rid, arrival_s: bad, input_tokens: 32, output_tokens: 8 };
            let err = sim.submit(&r).unwrap_err();
            assert!(matches!(err, RunError::InvalidConfig(_)), "{bad}: {err}");
            let err = sim.submit_with_prompt(&r, &[7; 32]).unwrap_err();
            assert!(matches!(err, RunError::InvalidConfig(_)), "{bad}: {err}");
            assert!(!sim.prompts.contains_key(&rid), "a rejected request keeps no prompt ids");
        }
        assert_eq!(sim.submitted(), 1, "nothing rejected was queued");
        // The calls that a queued NaN arrival used to break still work.
        let mut drained = sim.clone();
        assert_eq!(drained.drain_incomplete(), vec![ok]);
        let run = sim.run().unwrap();
        assert_eq!(run.report.requests, 1);
    }

    #[test]
    fn clock_entry_points_reject_non_finite_times() {
        // A quiescent sim after one request drained: a non-finite instant
        // must neither move the clock nor bill energy, and the sim must
        // still serve what comes next.
        let (dev, cfg) = setup();
        let mut sim = ServeSim::with_seq_hint(ServeConfig::chunked(16), &dev, &cfg, 64).unwrap();
        sim.submit(&Request { id: 0, arrival_s: 0.5, input_tokens: 32, output_tokens: 8 }).unwrap();
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        let (t, energy, trace) = (sim.now(), sim.energy_j, sim.trace().len());
        let pm = sim.power_mode().clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for err in [
                sim.set_power_mode_at(&pm, bad).unwrap_err(),
                sim.step(bad).unwrap_err(),
                sim.idle_to(bad).unwrap_err(),
                sim.skip_to(bad).unwrap_err(),
            ] {
                assert!(matches!(err, RunError::InvalidConfig(_)), "{bad}: {err}");
                assert_eq!((sim.now(), sim.energy_j, sim.trace().len()), (t, energy, trace));
            }
        }
        sim.submit(&Request { id: 1, arrival_s: t + 1.0, input_tokens: 32, output_tokens: 8 })
            .unwrap();
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        assert_eq!(sim.completions().len(), 2);
        assert!(sim.now().is_finite() && sim.energy_j.is_finite());
    }

    #[test]
    fn token_counts_that_overflow_the_watermark_are_rejected() {
        // `input + output + 1` (the admission watermark) must fit a u64.
        let (dev, cfg) = setup();
        let huge =
            |id, input_tokens| Request { id, arrival_s: 0.5, input_tokens, output_tokens: 1 };
        for r in [huge(1, u64::MAX), huge(2, u64::MAX - 1)] {
            let err = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &[r]).unwrap_err();
            assert!(matches!(err, RunError::InvalidConfig(_)), "{err}");
        }
        let mut sim = ServeSim::with_seq_hint(ServeConfig::chunked(16), &dev, &cfg, 64).unwrap();
        sim.submit(&huge(0, 32)).unwrap();
        sim.step(0.5).unwrap();
        let before = (sim.now(), sim.energy_j, sim.trace().len(), sim.submitted());
        for err in [
            sim.submit(&huge(1, u64::MAX)),
            sim.submit_with_prompt(&huge(2, u64::MAX - 1), &[7; 4]),
        ] {
            assert!(matches!(err, Err(RunError::InvalidConfig(_))), "{err:?}");
            assert_eq!((sim.now(), sim.energy_j, sim.trace().len(), sim.submitted()), before);
        }
    }

    #[test]
    fn a_prompt_larger_than_the_pool_fails_before_its_ids_are_built() {
        // 4,000,000 prompt tokens need 250,001 blocks; the pool holds
        // 21,708. At quiescence that is the pool error, and the 4M
        // prompt ids are never built.
        let (dev, cfg) = setup();
        let cached = ServeConfig::chunked(16).with_prefix_cache();
        let req = |id, input_tokens| Request { id, arrival_s: 0.5, input_tokens, output_tokens: 4 };
        let mut sim = ServeSim::with_seq_hint(cached, &dev, &cfg, 64).unwrap();
        assert_eq!(sim.kv_total_blocks(), 21_708);
        sim.submit(&req(1, 4_000_000)).unwrap();
        let err = sim.step(0.5).unwrap_err();
        let RunError::OutOfMemory { peak_gb, usable_gb } = err else { panic!("{err}") };
        assert_eq!(((peak_gb * 10.0).round(), (usable_gb * 10.0).round()), (5408.0, 620.0));
        assert!(sim.prompts.is_empty());
        // Behind a live sequence it waits, still without ids, and fails
        // the same way once the sim drains.
        let mut sim = ServeSim::with_seq_hint(cached, &dev, &cfg, 64).unwrap();
        sim.submit(&req(0, 32)).unwrap();
        sim.submit(&req(1, 4_000_000)).unwrap();
        let mut steps = 0;
        let err = loop {
            let t = sim.next_event_s().expect("the huge request is still pending");
            match sim.step(t) {
                Ok(()) => steps += 1,
                Err(e) => break e,
            }
            assert!(!sim.prompts.contains_key(&1), "ids built for the oversized prompt");
        };
        assert!(steps > 0 && sim.completions().len() == 1, "{steps} steps");
        let RunError::OutOfMemory { peak_gb: live_peak, .. } = err else { panic!("{err}") };
        assert_eq!(live_peak.to_bits(), peak_gb.to_bits());
    }

    #[test]
    fn new_with_prompts_rejects_non_finite_arrival_times() {
        let (dev, cfg) = setup();
        let reqs = [Request { id: 3, arrival_s: f64::NAN, input_tokens: 32, output_tokens: 8 }];
        let prompts: HashMap<u64, Vec<TokenId>> = [(3, vec![7; 32])].into_iter().collect();
        let err = ServeSim::new_with_prompts(
            ServeConfig::chunked(16).with_prefix_cache(),
            &dev,
            &cfg,
            &reqs,
            &prompts,
        )
        .unwrap_err();
        assert!(matches!(err, RunError::InvalidConfig(_)), "{err}");
    }
}
