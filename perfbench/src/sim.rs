//! Offline runs of the serving simulators: one `ServeSim` under KV
//! pressure (`core::serve` over `edgellm-mem`) and a 100-device
//! `FleetSim` (`edgellm-fleet`).
//!
//! The trace is generated once; the same run is then repeated until the
//! budget is spent, each repetition on the next CPU in turn. Host-time
//! figures take the fastest repetition; set-up time is
//! [`stats::setup_time`] over the timed repetitions' constructions.
//! Simulated figures come from the first, untimed repetition, and every
//! later one must reproduce it exactly.

use crate::gen;
use crate::host::Cpus;
use crate::stats::{self, Digest};
use crate::tracer::Tracer;
use crate::{Measured, Metrics};
use edgellm_core::serve::{Completion, ServeConfig, ServeSim};
use edgellm_core::{PoissonArrivals, Request, RunConfig};
use edgellm_fleet::{
    Decision, DeviceView, FleetConfig, FleetDevice, FleetReport, FleetSim, JoinShortestQueue,
    RoutingPolicy,
};
use edgellm_hw::{DeviceSpec, PowerMode};
use edgellm_models::{Llm, Precision};
use edgellm_trace::forensics::flight;
use edgellm_trace::Histogram;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// `serve-pressure`: one Orin AGX 64 GB, Llama-3.1-8B FP16, chunked
/// prefill, prefix cache and adaptive speculation over a KV pool capped
/// near ten 512-token sequences.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Arrival process of the offline trace.
    pub arrivals: PoissonArrivals,
    /// Requests in the trace.
    pub requests: usize,
    /// Tokens of the system prompt the even-id half of requests share.
    pub shared_prefix: usize,
    /// KV pool cap, in tokens.
    pub kv_tokens: u64,
    /// Fewest repetitions, whatever the budget.
    pub min_reps: usize,
    /// Report digest pinned for [`crate::DEFAULT_SEED`].
    pub pinned: Option<u64>,
}

/// `fleet-100`: 100 simulated Jetsons behind join-shortest-queue.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Fleet members; the four `jetson_family()` presets repeat in turn.
    pub devices: usize,
    /// Arrival process of the offline trace.
    pub arrivals: PoissonArrivals,
    /// Requests in the trace.
    pub requests: usize,
    /// Fewest repetitions, whatever the budget.
    pub min_reps: usize,
    /// Report digest pinned for [`crate::DEFAULT_SEED`].
    pub pinned: Option<u64>,
}

/// The `serve-pressure` plan.
pub fn serve_pressure() -> ServePlan {
    ServePlan {
        arrivals: PoissonArrivals {
            rate_per_s: 2.0,
            input_tokens: 384,
            output_tokens: 128,
            shape_jitter: 0.25,
        },
        requests: 2000,
        shared_prefix: 256,
        kv_tokens: 10 * 512,
        min_reps: 5,
        pinned: Some(0x326b_a852_68f5_d6cd),
    }
}

/// The `fleet-100` plan.
pub fn fleet_100() -> FleetPlan {
    FleetPlan {
        devices: 100,
        arrivals: PoissonArrivals::paper_shape(50.0),
        requests: 3000,
        min_reps: 5,
        pinned: Some(0x93dd_5ee8_0c08_e7aa),
    }
}

impl ServePlan {
    /// The offline trace for `seed`.
    pub fn trace(&self, seed: u64) -> Vec<Request> {
        self.arrivals.generate(self.requests, seed)
    }

    /// A seconds-long version for tests.
    pub fn smoke(mut self) -> Self {
        self.requests = 150;
        self.min_reps = 2;
        self.pinned = None;
        self
    }
}

impl FleetPlan {
    /// A seconds-long version for tests.
    pub fn smoke(mut self) -> Self {
        self.devices = 8;
        self.requests = 150;
        self.arrivals.rate_per_s = 4.0;
        self.min_reps = 2;
        self.pinned = None;
        self
    }
}

/// Simulated latency figures over a run's completions, in simulated ms.
fn simulated_latency(m: &mut Measured, e: &mut Metrics, done: &[Completion]) {
    let ttft: Vec<f64> = done.iter().map(|c| c.ttft_s).collect();
    let tpot: Vec<f64> = done
        .iter()
        .filter(|c| c.output_tokens > 1)
        .map(|c| (c.latency_s - c.ttft_s) / (c.output_tokens - 1) as f64)
        .collect();
    e.latency_pair(m, "ttft_ms", "ttft_p90_ms", &ttft, 1e3);
    e.latency_pair(m, "tpot_ms", "tpot_p90_ms", &tpot, 1e3);
}

fn serve_inputs(plan: &ServePlan, seed: u64) -> (Vec<Request>, HashMap<u64, Vec<u32>>) {
    let trace = plan.trace(seed);
    let prompts = gen::shared_prompts(seed, &trace, plan.shared_prefix).into_iter().collect();
    (trace, prompts)
}

/// What one `serve-pressure` repetition left behind.
struct ServeRep {
    sim: ServeSim,
    setup_s: f64,
    run_s: f64,
    steps: usize,
}

fn serve_once(
    plan: &ServePlan,
    trace: &[Request],
    prompts: &HashMap<u64, Vec<u32>>,
    tr: &mut Tracer,
    rep: u64,
) -> Result<ServeRep, String> {
    let dev = DeviceSpec::orin_agx_64gb();
    let run_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
    let kv_bytes = plan.kv_tokens * run_cfg.llm.arch().kv_bytes_per_token();
    let cfg = ServeConfig::chunked(16)
        .with_prefix_cache()
        .with_adaptive_speculation(4, 0.7)
        .kv_pool_cap(kv_bytes);
    let t0 = Instant::now();
    let mut sim = tr
        .call("setup.sim_new", rep, || {
            ServeSim::new_with_prompts(cfg, &dev, &run_cfg, trace, prompts)
        })
        .map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let span = tr.open("serve.run", rep);
    let t1 = Instant::now();
    let mut steps = 0;
    while let Some(now) = sim.next_event_s() {
        tr.call("serve.step", rep, || sim.step(now)).map_err(|e| e.to_string())?;
        steps += 1;
    }
    let run_s = t1.elapsed().as_secs_f64();
    tr.close(span);
    Ok(ServeRep { sim, setup_s, run_s, steps })
}

/// Fold each completion's simulated outputs into `d`.
fn fold_completions(d: &mut Digest, done: &[Completion]) {
    for c in done {
        d.u64(c.rid);
        d.u64(c.ttft_s.to_bits());
        d.u64(c.latency_s.to_bits());
        d.u64(c.output_tokens);
    }
}

/// Everything a `serve-pressure` repetition must reproduce: every
/// completion, the makespan, preemptions, served tokens, KV block and
/// prefix-hit counts and the speculation counters.
fn serve_fingerprint(sim: &ServeSim) -> u64 {
    let mut d = Digest::default();
    fold_completions(&mut d, sim.completions());
    d.u64(sim.report().makespan_s.to_bits());
    let (dr, ac, rb) = sim.spec_counters();
    for x in [
        sim.preemptions() as u64,
        sim.served_output_tokens(),
        sim.kv_blocks_allocated(),
        sim.kv_blocks_freed(),
        sim.kv_cache_hit_tokens(),
        dr,
        ac,
        rb,
    ] {
        d.u64(x);
    }
    d.value()
}

/// Conservation checks on a drained `ServeSim`; returns the requests
/// that did not complete.
fn serve_check(m: &mut Measured, sim: &ServeSim, trace: &[Request]) -> u64 {
    let missing = trace.len().saturating_sub(sim.completions().len()) as u64;
    let want: u64 = trace.iter().map(|r| r.output_tokens).sum();
    if sim.served_output_tokens() != want {
        m.problem(format!("served {} output tokens, requested {want}", sim.served_output_tokens()));
    }
    let held = sim.kv_used_blocks() as u64;
    if sim.kv_blocks_allocated() != sim.kv_blocks_freed() + held
        || held != sim.kv_cached_blocks() as u64
    {
        m.problem(format!(
            "KV blocks: allocated {} != freed {} + cached {} (held {held})",
            sim.kv_blocks_allocated(),
            sim.kv_blocks_freed(),
            sim.kv_cached_blocks()
        ));
    }
    missing
}

/// Run `serve-pressure` for `seconds`.
pub fn run_serve(
    plan: &ServePlan,
    seed: u64,
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured::default();
    let (reqs, prompts) = serve_inputs(plan, seed);
    let n = reqs.len() as u64;
    tr.set_enabled(false);

    // Untimed first repetition: the warm-up, the checks and the
    // simulated figures.
    let first = match serve_once(plan, &reqs, &prompts, tr, 0) {
        Ok(r) => r,
        Err(e) => {
            m.problem(format!("serve run failed: {e}"));
            return m;
        }
    };
    m.attempted += n;
    m.failed += serve_check(&mut m, &first.sim, &reqs);
    let fp = serve_fingerprint(&first.sim);
    m.check_digest(plan.pinned, seed, fp);
    let sim = &first.sim;
    let records0 = sim.trace().len() + sim.forensics().events.len();
    let (drafted, accepted, _) = sim.spec_counters();
    let prompt_tokens: u64 = reqs.iter().map(|r| r.input_tokens).sum();
    m.note(format!(
        "serve-pressure: {} steps, {} preemptions, {} prefix-hit tokens per run",
        first.steps,
        sim.preemptions(),
        sim.kv_cache_hit_tokens()
    ));

    let mut setups = Vec::new();
    let mut runs = Histogram::new();
    let mut traced_runs = Histogram::new();
    let mut cpus = Cpus::new();
    let start = Instant::now();
    let mut rep = 1u64;
    loop {
        // In a traced run, traced repetitions alternate with untraced
        // ones, which time the tracing overhead.
        cpus.rotate();
        let traced_now = trace && rep.is_multiple_of(2);
        tr.set_enabled(traced_now);
        match serve_once(plan, &reqs, &prompts, tr, rep) {
            Ok(r) => {
                m.attempted += n;
                let missing = serve_check(&mut m, &r.sim, &reqs);
                m.failed += missing;
                if serve_fingerprint(&r.sim) != fp {
                    m.problem(format!("repetition {rep} diverged from the first run"));
                }
                setups.push(r.setup_s);
                if traced_now {
                    traced_runs.record(r.run_s);
                } else {
                    runs.record(r.run_s);
                }
            }
            Err(e) => {
                m.attempted += n;
                m.failed += n;
                m.problem(format!("repetition {rep} failed: {e}"));
                break;
            }
        }
        rep += 1;
        let reps = if trace { runs.count().min(traced_runs.count()) } else { runs.count() };
        if reps >= plan.min_reps && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tr.set_enabled(false);
    let best = runs.min();
    let setup_s = stats::setup_time(&setups);
    m.note(format!(
        "sim_req_per_s: fastest of {} identical runs; setup_s: from {} constructions after the warm-up",
        runs.count(),
        setups.len()
    ));

    if !trace {
        let mut e = Metrics::default();
        simulated_latency(&mut m, &mut e, first.sim.completions());
        e.set("tokens_per_s", first.sim.report().output_tok_s);
        e.set("sim_req_per_s", n as f64 / best);
        e.set("setup_s", setup_s);
        m.metrics = e;
        return m;
    }
    let traced_best = traced_runs.min();
    m.note(format!(
        "tracing overhead: sim_req_per_s {:.1} untraced vs {:.1} traced ({:+.2}%)",
        n as f64 / best,
        n as f64 / traced_best,
        (best / traced_best - 1.0) * 100.0
    ));
    let mut p = Metrics::default();
    p.set("setup.sim_new_ms", setup_s * 1e3);
    let steps = tr.durations("serve.step");
    p.set("serve.step_us", stats::median(&steps) * 1e6);
    p.tail(&mut m, "serve.step_p99_us", &steps, 0.99, 1e6);
    p.set("serve.steps_per_req", first.steps as f64 / n as f64);
    p.set("serve.preempt_per_req", sim.preemptions() as f64 / n as f64);
    p.set("serve.prefix_hit_ratio", sim.kv_cache_hit_tokens() as f64 / prompt_tokens as f64);
    if drafted > 0 {
        p.set("serve.spec_accept_ratio", accepted as f64 / drafted as f64);
    }
    p.set("serve.kv_blocks_per_req", sim.kv_blocks_allocated() as f64 / n as f64);
    p.set("serve.kv_blocks_cow", sim.kv_blocks_cow() as f64);
    p.set("sim.log_records_per_req", records0 as f64 / n as f64);
    m.metrics = p;
    m
}

/// `(request id, start, end)` of each routing decision.
type RouteLog = Rc<RefCell<Vec<(u64, Instant, Instant)>>>;

/// Join-shortest-queue with every routing decision timed.
struct TimedRouter {
    inner: JoinShortestQueue,
    log: RouteLog,
}

impl RoutingPolicy for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, devices: &[DeviceView]) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.route(req, devices);
        self.log.borrow_mut().push((req.id, t0, Instant::now()));
        d
    }
}

fn fleet_members(plan: &FleetPlan) -> Vec<FleetDevice> {
    let family = DeviceSpec::jetson_family();
    (0..plan.devices)
        .map(|i| {
            let dev = family[i % family.len()].clone();
            let run_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Int4)
                .power_mode(PowerMode::maxn_for(&dev));
            FleetDevice::new(dev, run_cfg).serve(ServeConfig::chunked(16))
        })
        .collect()
}

/// Build a fleet; `log` switches on the timed router.
fn fleet_new(
    plan: &FleetPlan,
    reqs: &[Request],
    log: Option<RouteLog>,
) -> Result<FleetSim, String> {
    let policy: Box<dyn RoutingPolicy> = match log {
        Some(log) => Box::new(TimedRouter { inner: JoinShortestQueue, log }),
        None => Box::new(JoinShortestQueue),
    };
    FleetSim::new(fleet_members(plan), policy, FleetConfig::default(), reqs)
        .map_err(|e| e.to_string())
}

/// Everything a `fleet-100` repetition must reproduce: the request
/// counts, output tokens, makespan, energy and each device's share.
fn fleet_fingerprint(r: &FleetReport) -> u64 {
    let mut d = Digest::default();
    for x in [
        r.submitted,
        r.completed,
        r.offloaded,
        r.lost,
        r.cancelled,
        r.reroutes,
        r.preemptions,
        r.thermal_trips,
    ] {
        d.u64(x as u64);
    }
    d.u64(r.output_tokens);
    d.u64(r.makespan_s.to_bits());
    d.u64(r.energy_j.to_bits());
    for dev in &r.devices {
        d.u64(dev.routed as u64);
        d.u64(dev.completed as u64);
        d.u64(dev.output_tokens);
    }
    d.value()
}

/// Run `fleet-100` for `seconds`.
pub fn run_fleet(
    plan: &FleetPlan,
    seed: u64,
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured::default();
    let reqs = plan.arrivals.generate(plan.requests, seed);
    let n = reqs.len() as u64;
    let want_tokens: u64 = reqs.iter().map(|r| r.output_tokens).sum();
    tr.set_enabled(false);

    // One untimed audited run: the warm-up, the per-device KV checks and
    // the simulated figures.
    let records_before = flight::total();
    let audit = match fleet_new(plan, &reqs, None)
        .and_then(|f| f.run_audited().map_err(|e| e.to_string()))
    {
        Ok(a) => a,
        Err(e) => {
            m.problem(format!("fleet run failed: {e}"));
            return m;
        }
    };
    let events = flight::total() - records_before;
    let fp = fleet_fingerprint(&audit.report);
    let done: Vec<_> = audit.devices.iter().flat_map(|d| d.completions.iter().copied()).collect();
    let mut outputs = Digest::default();
    outputs.u64(fp);
    fold_completions(&mut outputs, &done);
    m.check_digest(plan.pinned, seed, outputs.value());
    let rep0 = &audit.report;
    m.attempted += n;
    m.failed += n.saturating_sub(rep0.completed as u64);
    if rep0.lost + rep0.cancelled > 0 || rep0.output_tokens != want_tokens {
        m.problem(format!(
            "fleet lost {} / cancelled {} requests, served {} of {want_tokens} tokens",
            rep0.lost, rep0.cancelled, rep0.output_tokens
        ));
    }
    for (i, d) in audit.devices.iter().enumerate() {
        if d.kv_blocks_allocated != d.kv_blocks_freed + d.kv_blocks_cached as u64
            || d.kv_blocks_in_use != d.kv_blocks_cached
        {
            m.problem(format!("device {i}: KV blocks allocated != freed + cached"));
        }
    }
    let iterations: usize = audit.devices.iter().map(|d| d.trace.len()).sum();
    m.note(format!(
        "fleet-100: {} devices, {iterations} device iterations, {} preemptions per run",
        plan.devices, rep0.preemptions
    ));

    let mut setups = Vec::new();
    let mut runs = Histogram::new();
    let mut traced_runs = Histogram::new();
    let mut route_s = 0.0;
    let mut route_calls = 0usize;
    let mut cpus = Cpus::new();
    let start = Instant::now();
    let mut rep = 1u64;
    loop {
        cpus.rotate();
        let traced_now = trace && rep.is_multiple_of(2);
        tr.set_enabled(traced_now);
        let log = traced_now.then(|| Rc::new(RefCell::new(Vec::new())));
        let t0 = Instant::now();
        let built = tr.call("setup.sim_new", rep, || fleet_new(plan, &reqs, log.clone()));
        let setup_s = t0.elapsed().as_secs_f64();
        let span = tr.open("fleet.run", rep);
        let t1 = Instant::now();
        let out = built.and_then(|f| f.run().map_err(|e| e.to_string()));
        let run_s = t1.elapsed().as_secs_f64();
        if let Some(log) = &log {
            for &(rid, a, b) in log.borrow().iter() {
                tr.record("fleet.route", rid, a, b);
                route_s += b.duration_since(a).as_secs_f64();
                route_calls += 1;
            }
        }
        tr.close(span);
        m.attempted += n;
        match out {
            Ok(report) => {
                m.failed += n.saturating_sub(report.completed as u64);
                if fleet_fingerprint(&report) != fp {
                    m.problem(format!("repetition {rep} diverged from the first run"));
                }
                setups.push(setup_s);
                if traced_now {
                    traced_runs.record(run_s);
                } else {
                    runs.record(run_s);
                }
            }
            Err(e) => {
                m.failed += n;
                m.problem(format!("repetition {rep} failed: {e}"));
                break;
            }
        }
        rep += 1;
        let reps = if trace { runs.count().min(traced_runs.count()) } else { runs.count() };
        if reps >= plan.min_reps && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tr.set_enabled(false);
    let best = runs.min();
    let setup_s = stats::setup_time(&setups);
    m.note(format!(
        "sim_req_per_s: fastest of {} identical runs; setup_s: from {} constructions after the warm-up",
        runs.count(),
        setups.len()
    ));

    if !trace {
        let mut e = Metrics::default();
        simulated_latency(&mut m, &mut e, &done);
        e.set("tokens_per_s", rep0.output_tok_s);
        e.set("sim_req_per_s", n as f64 / best);
        e.set("setup_s", setup_s);
        m.metrics = e;
        return m;
    }
    let traced_best = traced_runs.min();
    m.note(format!(
        "tracing overhead: sim_req_per_s {:.1} untraced vs {:.1} traced ({:+.2}%)",
        n as f64 / best,
        n as f64 / traced_best,
        (best / traced_best - 1.0) * 100.0
    ));
    let mut p = Metrics::default();
    p.set("setup.sim_new_ms", setup_s * 1e3);
    p.set("fleet.run_ms", traced_best * 1e3);
    p.set("fleet.route_us", stats::median(&tr.durations("fleet.route")) * 1e6);
    p.set("fleet.route_calls", route_calls as f64 / traced_runs.count() as f64);
    p.set("fleet.route_share", route_s / traced_runs.sum());
    p.set("fleet.iterations_per_s", iterations as f64 / best);
    p.set("sim.log_records_per_req", (iterations as u64 + events) as f64 / n as f64);
    m.metrics = p;
    m
}
