//! The invariant library: what must hold after *any* run, under *any*
//! fault plan.
//!
//! Each oracle takes the post-run accounting — a
//! [`ServeAudit`] for one device, a
//! [`FleetAudit`] for a co-simulated fleet —
//! and returns the violations it found. Oracles never assert: the harness
//! (and the workspace property tests re-pointed here) decide what a
//! violation means. The catalog matches the failure modes the fault
//! injector can provoke:
//!
//! * **token conservation** — every completed request delivered exactly
//!   the output it asked for, once; recompute after preemption must not
//!   double-count.
//! * **KV accounting** — usage never exceeds pool capacity at any
//!   iteration; a drained device holds zero blocks and has returned every
//!   block it took.
//! * **request conservation** — completed + cancelled + still-queued
//!   equals submitted per device; completed + lost + cancelled equals
//!   submitted fleet-wide; no request completes twice across re-routing.
//! * **energy = ∫ power** — the energy integral equals the sum of
//!   per-iteration `power × dt` within float tolerance.
//! * **monotone events** — iteration timestamps never rewind and spans
//!   never overlap (well-nestedness); per request, `0 ≤ ttft ≤ latency`.
//! * **governor contracts** — applied mode changes respect the
//!   min-dwell/hysteresis floor, and an energy-budget policy never lets
//!   the deficit outrun its burst reserve plus the control loop's
//!   reaction slack (via the `edgellm-governor` verifiers, so the check
//!   harness and the experiments assert the same thing).

use edgellm_core::serve::ServeAudit;
use edgellm_core::{IterationTrace, Request};
use edgellm_fleet::FleetAudit;
use edgellm_governor::{verify_budget, verify_min_dwell, GovernorAudit};
use std::collections::{HashMap, HashSet};

/// Relative tolerance for the energy-integral oracle: the integral and
/// the trace sum are produced by the same additions in a different
/// association order, so only accumulated rounding separates them.
pub const ENERGY_RTOL: f64 = 1e-9;

/// One failed invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which oracle fired (stable, grep-able name).
    pub oracle: &'static str,
    /// Human-readable specifics: ids, counts, timestamps.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn violation(out: &mut Vec<Violation>, oracle: &'static str, detail: String) {
    out.push(Violation { oracle, detail });
}

/// Every invariant that must hold for a single device's finished (or
/// snapshot) state. `expected` maps request id → originally requested
/// output tokens, covering every request this device could have seen;
/// pass an empty slice to skip per-request shape checks (e.g. fleet
/// members, where another device may own the request).
pub fn check_serve(audit: &ServeAudit, expected: &[Request]) -> Vec<Violation> {
    let mut v = Vec::new();
    token_conservation(audit, expected, &mut v);
    kv_accounting(audit, &mut v);
    kv_sharing(audit, &mut v);
    request_conservation(audit, &mut v);
    energy_integral(audit, &mut v);
    monotone_events(audit, &mut v);
    spec_accounting(audit, &mut v);
    v
}

/// Speculative-decoding accounting on one device. Trivially true with
/// speculation off (all counters zero):
///
/// * every drafted token was either accepted or rolled back, exactly
///   once: `drafted == accepted + rolled_back`;
/// * rollback work is visible to the KV ledger — a run that rolled
///   tokens back must also have freed or truncated blocks at some point,
///   so `rolled_back > 0` with `allocated == 0` is impossible.
pub fn spec_accounting(audit: &ServeAudit, out: &mut Vec<Violation>) {
    if audit.spec_drafted != audit.spec_accepted + audit.spec_rolled_back {
        violation(
            out,
            "spec-accounting",
            format!(
                "{}: {} drafted != {} accepted + {} rolled back",
                audit.label, audit.spec_drafted, audit.spec_accepted, audit.spec_rolled_back
            ),
        );
    }
    if audit.spec_rolled_back > 0 && audit.kv_blocks_allocated == 0 {
        violation(
            out,
            "spec-accounting",
            format!(
                "{}: {} tokens rolled back but no KV blocks were ever allocated",
                audit.label, audit.spec_rolled_back
            ),
        );
    }
}

/// Token conservation on one device: served totals match completion
/// records, and each completion delivered exactly what was asked.
pub fn token_conservation(audit: &ServeAudit, expected: &[Request], out: &mut Vec<Violation>) {
    let by_id: HashMap<u64, u64> = expected.iter().map(|r| (r.id, r.output_tokens)).collect();
    let sum: u64 = audit.completions.iter().map(|c| c.output_tokens).sum();
    if sum != audit.served_output_tokens {
        violation(
            out,
            "token-conservation",
            format!(
                "{}: completion records sum to {} output tokens, counter says {}",
                audit.label, sum, audit.served_output_tokens
            ),
        );
    }
    for c in &audit.completions {
        if let Some(&want) = by_id.get(&c.rid) {
            if c.output_tokens != want {
                violation(
                    out,
                    "token-conservation",
                    format!(
                        "{}: request {} asked for {} output tokens, got {}",
                        audit.label, c.rid, want, c.output_tokens
                    ),
                );
            }
        } else if !by_id.is_empty() {
            violation(
                out,
                "token-conservation",
                format!("{}: completion for unknown request {}", audit.label, c.rid),
            );
        }
    }
}

/// KV accounting on one device: capacity respected at every iteration,
/// and — once drained — every block returned.
pub fn kv_accounting(audit: &ServeAudit, out: &mut Vec<Violation>) {
    for (i, it) in audit.trace.iter().enumerate() {
        if it.kv_blocks_used > it.kv_blocks_total {
            violation(
                out,
                "kv-capacity",
                format!(
                    "{}: iteration {} at t={:.6}s holds {} of {} blocks",
                    audit.label, i, it.t_s, it.kv_blocks_used, it.kv_blocks_total
                ),
            );
        }
    }
    if audit.queue_depth == 0 {
        // Drained: every block a sequence held is back — only the prefix
        // cache may still park blocks (zero with the cache off, making
        // this exactly the pre-cache check).
        if audit.kv_blocks_in_use != audit.kv_blocks_cached {
            violation(
                out,
                "kv-leak",
                format!(
                    "{}: drained but {} blocks held vs {} cached",
                    audit.label, audit.kv_blocks_in_use, audit.kv_blocks_cached
                ),
            );
        }
        if audit.kv_blocks_allocated != audit.kv_blocks_freed + audit.kv_blocks_cached as u64 {
            violation(
                out,
                "kv-leak",
                format!(
                    "{}: drained but allocated {} blocks vs freed {} + {} cached",
                    audit.label,
                    audit.kv_blocks_allocated,
                    audit.kv_blocks_freed,
                    audit.kv_blocks_cached
                ),
            );
        }
    } else if audit.kv_blocks_freed > audit.kv_blocks_allocated {
        violation(
            out,
            "kv-leak",
            format!(
                "{}: freed {} blocks but only allocated {}",
                audit.label, audit.kv_blocks_freed, audit.kv_blocks_allocated
            ),
        );
    }
}

/// Prefix-sharing accounting on one device. Three contracts, all
/// trivially true with the cache off:
///
/// * the paged allocator's refcount self-check is clean — a freed block
///   is never referenced by a sequence or the radix tree, and every
///   refcount equals its holder count;
/// * blocks are conserved with shared blocks counted exactly once:
///   `allocated == freed + in_use` at any snapshot (a block shared by
///   ten sequences left the free list once and returns once);
/// * cache metrics stay inside their envelopes — cached blocks are a
///   subset of held blocks, and copy-on-write allocations are a subset
///   of all allocations.
pub fn kv_sharing(audit: &ServeAudit, out: &mut Vec<Violation>) {
    for detail in &audit.kv_integrity {
        violation(out, "kv-refcount", format!("{}: {}", audit.label, detail));
    }
    if audit.kv_blocks_allocated != audit.kv_blocks_freed + audit.kv_blocks_in_use as u64 {
        violation(
            out,
            "kv-sharing",
            format!(
                "{}: allocated {} != freed {} + {} in use (shared block counted twice?)",
                audit.label,
                audit.kv_blocks_allocated,
                audit.kv_blocks_freed,
                audit.kv_blocks_in_use
            ),
        );
    }
    if audit.kv_blocks_cached > audit.kv_blocks_in_use {
        violation(
            out,
            "kv-sharing",
            format!(
                "{}: {} cached blocks exceed {} held",
                audit.label, audit.kv_blocks_cached, audit.kv_blocks_in_use
            ),
        );
    }
    if audit.kv_blocks_cow > audit.kv_blocks_allocated {
        violation(
            out,
            "kv-sharing",
            format!(
                "{}: {} COW allocations exceed {} total allocations",
                audit.label, audit.kv_blocks_cow, audit.kv_blocks_allocated
            ),
        );
    }
}

/// Request conservation on one device: nothing lost, nothing served
/// twice.
pub fn request_conservation(audit: &ServeAudit, out: &mut Vec<Violation>) {
    let accounted = audit.completions.len() + audit.cancelled.len() + audit.queue_depth;
    if accounted != audit.submitted {
        violation(
            out,
            "request-conservation",
            format!(
                "{}: {} submitted but {} completed + {} cancelled + {} queued = {}",
                audit.label,
                audit.submitted,
                audit.completions.len(),
                audit.cancelled.len(),
                audit.queue_depth,
                accounted
            ),
        );
    }
    let mut seen = HashSet::new();
    for c in &audit.completions {
        if !seen.insert(c.rid) {
            violation(
                out,
                "request-conservation",
                format!("{}: request {} completed more than once", audit.label, c.rid),
            );
        }
    }
}

/// Energy = ∫ power: the device's energy integral must equal the sum of
/// its per-iteration `power × dt` within float tolerance.
pub fn energy_integral(audit: &ServeAudit, out: &mut Vec<Violation>) {
    let from_trace: f64 = audit.trace.iter().map(|it| it.power_w * it.dt_s).sum();
    let tol = ENERGY_RTOL * (1.0 + audit.energy_j.abs() + from_trace.abs());
    if (from_trace - audit.energy_j).abs() > tol {
        violation(
            out,
            "energy-integral",
            format!(
                "{}: energy counter {:.9} J vs trace integral {:.9} J",
                audit.label, audit.energy_j, from_trace
            ),
        );
    }
}

/// Monotone, well-nested event ordering: iteration spans never rewind or
/// overlap, and each completion has `0 ≤ ttft ≤ latency`.
pub fn monotone_events(audit: &ServeAudit, out: &mut Vec<Violation>) {
    let mut prev_end = 0.0f64;
    for (i, it) in audit.trace.iter().enumerate() {
        if it.dt_s < 0.0 {
            violation(
                out,
                "monotone-events",
                format!("{}: iteration {} has negative dt {:.9}", audit.label, i, it.dt_s),
            );
        }
        let start = it.t_s - it.dt_s;
        if start < prev_end - 1e-9 {
            violation(
                out,
                "trace-nesting",
                format!(
                    "{}: iteration {} starts at {:.9}s before previous end {:.9}s",
                    audit.label, i, start, prev_end
                ),
            );
        }
        prev_end = prev_end.max(it.t_s);
    }
    for c in &audit.completions {
        if c.ttft_s < 0.0 || c.latency_s < 0.0 || c.ttft_s > c.latency_s + 1e-9 {
            violation(
                out,
                "monotone-events",
                format!(
                    "{}: request {} ttft {:.6}s / latency {:.6}s out of order",
                    audit.label, c.rid, c.ttft_s, c.latency_s
                ),
            );
        }
    }
    for w in audit.cancelled.windows(2) {
        if w[1].0 < w[0].0 {
            violation(
                out,
                "monotone-events",
                format!("{}: cancellation log rewinds at t={:.6}s", audit.label, w[1].0),
            );
        }
    }
}

/// Governor invariants over one governed device's run: the
/// min-dwell/hysteresis contract on the decision log, and — when the
/// policy meters energy — the budget-never-exceeded contract against
/// the device's iteration trace.
pub fn check_governor(gov: &GovernorAudit, trace: &[IterationTrace], out: &mut Vec<Violation>) {
    if let Err(detail) = verify_min_dwell(gov) {
        violation(out, "governor-dwell", format!("policy {}: {}", gov.policy, detail));
    }
    if let Err(detail) = verify_budget(gov, trace) {
        violation(out, "governor-budget", format!("policy {}: {}", gov.policy, detail));
    }
}

/// Every invariant that must hold for a finished fleet run: each member's
/// device-level invariants, plus the cross-device ones — fleet-wide
/// request conservation with loss and cancellation folded in, no
/// double-served request across re-routing, router-log causality, and
/// fleet energy covering the sum of member integrals.
pub fn check_fleet(audit: &FleetAudit, requests: &[Request]) -> Vec<Violation> {
    let mut v = Vec::new();
    for d in &audit.devices {
        // Re-routing means any member may see any request; shapes are
        // still checked against the full trace.
        token_conservation(d, requests, &mut v);
        kv_accounting(d, &mut v);
        kv_sharing(d, &mut v);
        energy_integral(d, &mut v);
        monotone_events(d, &mut v);
        spec_accounting(d, &mut v);
    }
    let r = &audit.report;
    if r.completed + r.lost + r.cancelled != r.submitted {
        violation(
            &mut v,
            "request-conservation",
            format!(
                "fleet: {} submitted but {} completed + {} lost + {} cancelled",
                r.submitted, r.completed, r.lost, r.cancelled
            ),
        );
    }
    if r.submitted != requests.len() {
        violation(
            &mut v,
            "request-conservation",
            format!("fleet: report says {} submitted, trace has {}", r.submitted, requests.len()),
        );
    }
    let mut seen = HashSet::new();
    for d in &audit.devices {
        for c in &d.completions {
            if !seen.insert(c.rid) {
                violation(
                    &mut v,
                    "request-conservation",
                    format!("fleet: request {} completed on more than one device", c.rid),
                );
            }
        }
    }
    let device_energy: f64 = audit.devices.iter().map(|d| d.energy_j).sum();
    if r.energy_j < device_energy - ENERGY_RTOL * (1.0 + device_energy) {
        violation(
            &mut v,
            "energy-integral",
            format!(
                "fleet: report energy {:.9} J below device sum {:.9} J",
                r.energy_j, device_energy
            ),
        );
    }
    router_causality(audit, requests, &mut v);
    v
}

/// Router-log causality. The log records the router's *observations*,
/// and observations of device-local events (a thermal trip is detected
/// at the end of an iteration that overlaps other fleet events) may
/// legitimately arrive out of global time order — so the log is not
/// required to be globally monotone. What must hold:
///
/// * every submitted request gets at least one placement decision
///   (routed, held, or offloaded), and only known requests appear;
/// * no request is placed before it arrives;
/// * per device, down/up marks strictly alternate starting with down —
///   a device never drops out twice without recovering in between.
pub fn router_causality(audit: &FleetAudit, requests: &[Request], out: &mut Vec<Violation>) {
    use edgellm_fleet::RouterMark;
    let arrival: HashMap<u64, f64> = requests.iter().map(|r| (r.id, r.arrival_s)).collect();
    let mut placed: HashSet<u64> = HashSet::new();
    let mut down: HashMap<usize, bool> = HashMap::new();
    for &(t, mark) in &audit.router_log {
        if !t.is_finite() || t < 0.0 {
            violation(out, "router-causality", format!("fleet: mark at invalid time {t:?}"));
        }
        match mark {
            RouterMark::Routed { rid, .. }
            | RouterMark::Held { rid }
            | RouterMark::Offloaded { rid } => match arrival.get(&rid) {
                Some(&arr) => {
                    if t < arr - 1e-9 {
                        violation(
                            out,
                            "router-causality",
                            format!(
                                "fleet: request {rid} placed at t={t:.6}s before arrival {arr:.6}s"
                            ),
                        );
                    }
                    placed.insert(rid);
                }
                None => violation(
                    out,
                    "router-causality",
                    format!("fleet: placement mark for unknown request {rid}"),
                ),
            },
            RouterMark::DeviceDown { device, .. } => {
                let was_down = down.insert(device, true);
                if was_down == Some(true) {
                    violation(
                        out,
                        "router-causality",
                        format!("fleet: device {device} went down twice without recovering"),
                    );
                }
            }
            RouterMark::DeviceUp { device } => {
                let was_down = down.insert(device, false);
                if was_down != Some(true) {
                    violation(
                        out,
                        "router-causality",
                        format!("fleet: device {device} came up without being down"),
                    );
                }
            }
            _ => {}
        }
    }
    for r in requests {
        if !placed.contains(&r.id) {
            violation(
                out,
                "router-causality",
                format!("fleet: request {} never received a placement decision", r.id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_core::serve::Completion;

    fn clean_audit() -> ServeAudit {
        ServeAudit {
            label: "test".into(),
            submitted: 1,
            completions: vec![Completion {
                rid: 0,
                arrival_s: 0.0,
                ttft_s: 0.5,
                latency_s: 2.0,
                output_tokens: 8,
            }],
            cancelled: Vec::new(),
            trace: Vec::new(),
            kv_blocks_allocated: 3,
            kv_blocks_freed: 3,
            kv_blocks_in_use: 0,
            kv_blocks_total: 10,
            kv_cache_hit_tokens: 0,
            kv_blocks_cow: 0,
            kv_blocks_cached: 0,
            kv_integrity: Vec::new(),
            queue_depth: 0,
            energy_j: 0.0,
            preemptions: 0,
            served_output_tokens: 8,
            spec_drafted: 0,
            spec_accepted: 0,
            spec_rolled_back: 0,
        }
    }

    fn req(id: u64, output: u64) -> Request {
        Request { id, arrival_s: 0.0, input_tokens: 4, output_tokens: output }
    }

    #[test]
    fn clean_audit_passes_all_oracles() {
        assert!(check_serve(&clean_audit(), &[req(0, 8)]).is_empty());
    }

    #[test]
    fn short_changed_tokens_fire_conservation() {
        let audit = clean_audit();
        let v = check_serve(&audit, &[req(0, 16)]);
        assert!(v.iter().any(|x| x.oracle == "token-conservation"), "{v:?}");
    }

    #[test]
    fn leaked_kv_blocks_fire_kv_leak() {
        let mut audit = clean_audit();
        audit.kv_blocks_freed = 2;
        audit.kv_blocks_in_use = 1;
        let v = check_serve(&audit, &[req(0, 8)]);
        assert_eq!(v.iter().filter(|x| x.oracle == "kv-leak").count(), 2, "{v:?}");
    }

    #[test]
    fn cached_blocks_survive_a_drain_without_firing_kv_leak() {
        // A drained device with a warm prefix cache legitimately parks
        // blocks: in_use == cached and allocated == freed + cached.
        let mut audit = clean_audit();
        audit.kv_blocks_freed = 1;
        audit.kv_blocks_in_use = 2;
        audit.kv_blocks_cached = 2;
        audit.kv_cache_hit_tokens = 32;
        assert!(check_serve(&audit, &[req(0, 8)]).is_empty());
    }

    #[test]
    fn refcount_self_check_failures_fire_kv_refcount() {
        let mut audit = clean_audit();
        audit.kv_integrity = vec!["block 3 refcount 2 != 1 holders".into()];
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "kv-refcount"), "{v:?}");
    }

    #[test]
    fn double_counted_shared_block_fires_kv_sharing() {
        // A shared block freed once per holder would push freed past
        // allocated − in_use.
        let mut audit = clean_audit();
        audit.queue_depth = 1; // not drained: only the sharing identity sees it
        audit.kv_blocks_freed = 2;
        audit.kv_blocks_in_use = 2;
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "kv-sharing"), "{v:?}");
    }

    #[test]
    fn cache_exceeding_held_blocks_fires_kv_sharing() {
        let mut audit = clean_audit();
        audit.queue_depth = 1;
        audit.kv_blocks_in_use = 0;
        audit.kv_blocks_cached = 1;
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "kv-sharing"), "{v:?}");
    }

    #[test]
    fn vanished_request_fires_conservation() {
        let mut audit = clean_audit();
        audit.submitted = 2;
        let v = check_serve(&audit, &[req(0, 8), req(1, 8)]);
        assert!(v.iter().any(|x| x.oracle == "request-conservation"), "{v:?}");
    }

    #[test]
    fn duplicated_completion_fires_conservation() {
        let mut audit = clean_audit();
        audit.submitted = 2;
        audit.completions.push(audit.completions[0]);
        audit.served_output_tokens = 16;
        let v = check_serve(&audit, &[req(0, 8), req(1, 8)]);
        assert!(v.iter().any(|x| x.detail.contains("more than once")), "{v:?}");
    }

    #[test]
    fn inverted_ttft_fires_monotone() {
        let mut audit = clean_audit();
        audit.completions[0].ttft_s = 3.0; // past latency 2.0
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "monotone-events"), "{v:?}");
    }

    #[test]
    fn governor_oracles_fire_on_flapping_and_sustained_overrun() {
        use edgellm_core::IterPhase;
        use edgellm_governor::{BudgetAudit, ModeChange};
        let change =
            |t_s: f64, from: usize, to: usize| ModeChange { t_s, from, to, mode: "m".to_string() };
        let gov = |decisions: Vec<ModeChange>, budget: Option<BudgetAudit>| GovernorAudit {
            policy: "test".to_string(),
            min_dwell_s: 1.0,
            rung_names: vec!["low".into(), "high".into()],
            initial: 1,
            decisions,
            budget,
        };
        let mut v = Vec::new();
        check_governor(&gov(vec![change(0.0, 1, 0), change(0.2, 0, 1)], None), &[], &mut v);
        assert!(v.iter().any(|x| x.oracle == "governor-dwell"), "{v:?}");
        let budget = BudgetAudit {
            cap_w: 10.0,
            burst_j: 5.0,
            engaged_t_s: 0.0,
            engaged_energy_j: 0.0,
            ceiling_peak_w: 30.0,
        };
        let sustained: Vec<IterationTrace> = (1..=5)
            .map(|k| IterationTrace {
                t_s: k as f64,
                dt_s: 1.0,
                phase: IterPhase::Decode,
                decoding: 1,
                prefilling: 0,
                kv_blocks_used: 1,
                kv_blocks_total: 4,
                power_w: 30.0,
                tokens: 1,
                rails: Default::default(),
                kv_cached_blocks: None,
            })
            .collect();
        let mut v = Vec::new();
        check_governor(&gov(Vec::new(), Some(budget)), &sustained, &mut v);
        assert!(v.iter().any(|x| x.oracle == "governor-budget"), "{v:?}");
        let mut v = Vec::new();
        check_governor(&gov(vec![change(0.0, 1, 0)], None), &sustained, &mut v);
        assert!(v.is_empty(), "clean governed run raises nothing: {v:?}");
    }

    #[test]
    fn unbalanced_spec_counters_fire_spec_accounting() {
        // Clean speculative run: drafted partitions into accepted +
        // rolled back, and rollback rode on real KV allocations.
        let mut audit = clean_audit();
        audit.spec_drafted = 12;
        audit.spec_accepted = 9;
        audit.spec_rolled_back = 3;
        assert!(check_serve(&audit, &[req(0, 8)]).is_empty());
        // A drafted token that vanished (neither accepted nor rolled
        // back) breaks the partition.
        audit.spec_rolled_back = 2;
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "spec-accounting"), "{v:?}");
        // Rollback without any KV allocation ever is impossible.
        let mut audit = clean_audit();
        audit.spec_drafted = 2;
        audit.spec_rolled_back = 2;
        audit.kv_blocks_allocated = 0;
        audit.kv_blocks_freed = 0;
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "spec-accounting"), "{v:?}");
    }

    #[test]
    fn energy_counter_drift_fires_integral() {
        let mut audit = clean_audit();
        audit.energy_j = 1.0; // trace is empty → integral is 0
        let v = check_serve(&audit, &[req(0, 8)]);
        assert!(v.iter().any(|x| x.oracle == "energy-integral"), "{v:?}");
    }
}
