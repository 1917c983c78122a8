//! The deterministic fleet co-simulator.
//!
//! [`FleetSim`] runs N per-device serve simulations
//! ([`ServeSim`](edgellm_core::ServeSim)) behind a front-end router on a
//! shared event clock. Each turn it fires the globally-earliest event —
//! a scripted fault, a thermal recovery, a request arrival, or one device
//! iteration — with a fixed tie order (fault < recovery < arrival < device
//! step, then lowest device index), so a given seed and configuration
//! always produce the same [`FleetReport`].
//!
//! Faults and arrivals are sorted lists read through cursors; each
//! device's own next event (recovery or step) sits in a tournament tree
//! (`queue::Tournament`). Every operation that changes a device marks it
//! dirty, and the dirty devices' tree keys and routing snapshots are
//! refreshed before the next event is picked and before every routing
//! decision, so an event costs O(log n) index work in the fleet size.
//!
//! Device iterations are atomic: a member may locally simulate past
//! another member's clock, but every *routing* decision happens at the
//! event instant using the current snapshots, and requests admitted on a
//! device start at its next iteration boundary at-or-after their arrival
//! — the same semantics the single-device scheduler has always had.

use std::collections::BTreeMap;

use edgellm_core::serve::{record_serve_run, Completion};
use edgellm_core::{CloudEndpoint, Request, RunError};
use edgellm_trace::forensics::{self, ForensicsLog};
use edgellm_trace::{Arg, Trace};

use crate::device::{DeviceSim, FleetDevice};
use crate::fault::{FaultKind, FaultPlan};
use crate::queue::{Key, Tournament};
use crate::report::{DeviceReport, FleetReport};
use crate::routing::{Decision, DeviceView, RoutingPolicy};

/// Fleet-level knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// End-to-end latency deadline used for SLO-attainment accounting.
    pub slo_latency_s: f64,
    /// Optional cloud endpoint for offload spillover.
    pub cloud: Option<CloudEndpoint>,
    /// Scripted device faults.
    pub faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { slo_latency_s: 30.0, cloud: None, faults: FaultPlan::none() }
    }
}

/// One router-level occurrence, timestamped on the shared fleet clock.
///
/// The simulator always keeps this log (a few plain enums per request —
/// negligible next to the per-iteration serve traces), so a finished run
/// can be rendered onto a timeline without re-running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterMark {
    /// Request `rid` was placed on device `device`.
    Routed {
        /// Request id.
        rid: u64,
        /// Fleet index of the target device.
        device: usize,
    },
    /// Request `rid` was served by the cloud endpoint.
    Offloaded {
        /// Request id.
        rid: u64,
    },
    /// Request `rid` had nowhere to go (fleet dark, no cloud) and was
    /// held for the next recovery.
    Held {
        /// Request id.
        rid: u64,
    },
    /// `count` in-flight requests were evacuated off a downed device.
    Evacuated {
        /// Fleet index of the downed device.
        device: usize,
        /// Requests drained and re-routed.
        count: usize,
    },
    /// A device left the eligible set.
    DeviceDown {
        /// Fleet index.
        device: usize,
        /// True for a thermal trip, false for a scripted outage.
        thermal: bool,
    },
    /// A device rejoined the eligible set.
    DeviceUp {
        /// Fleet index.
        device: usize,
    },
    /// A device's KV pool was shrunk mid-run.
    KvShrunk {
        /// Fleet index.
        device: usize,
        /// New pool size, in blocks.
        blocks: usize,
    },
    /// A device flipped to a different stock power mode.
    PowerFlipped {
        /// Fleet index.
        device: usize,
        /// Stock-registry index of the new mode.
        index: usize,
    },
    /// A device's own governor stepped it to a different ladder rung.
    GovernorStep {
        /// Fleet index.
        device: usize,
        /// Ladder rung stepped to (floor = 0).
        rung: usize,
    },
    /// Request `rid` was cancelled mid-run.
    Cancelled {
        /// Request id.
        rid: u64,
    },
    /// A device's quiescent clock jumped forward.
    ClockSkewed {
        /// Fleet index.
        device: usize,
        /// Jump size in milliseconds.
        ahead_ms: u32,
    },
}

/// Everything an invariant oracle needs from one fleet run: the
/// aggregate [`FleetReport`], each device's [`ServeAudit`](edgellm_core::serve::ServeAudit) snapshot (in
/// fleet index order), and the router's event log.
#[derive(Debug, Clone)]
pub struct FleetAudit {
    /// Aggregate run outcome.
    pub report: FleetReport,
    /// Per-device accounting snapshots, in fleet index order.
    pub devices: Vec<edgellm_core::serve::ServeAudit>,
    /// Per-device governance records, in fleet index order (`None` for
    /// ungoverned members).
    pub governors: Vec<Option<edgellm_governor::GovernorAudit>>,
    /// Router event log: `(fleet time, mark)`, in occurrence order.
    pub router_log: Vec<(f64, RouterMark)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Scripted fault at `events()[idx]`.
    Fault(usize),
    /// Thermal cooldown of device `i` ends.
    Recovery(usize, f64),
    /// Next trace arrival is routed.
    Arrival,
    /// Device `i` performs one scheduler turn at its next event time.
    Step(usize, f64),
}

/// The heterogeneous multi-device co-simulator.
pub struct FleetSim {
    devices: Vec<DeviceSim>,
    policy: Box<dyn RoutingPolicy>,
    cfg: FleetConfig,
    arrivals: Vec<Request>,
    next_arrival: usize,
    next_fault: usize,
    /// Requests with nowhere to go (whole fleet dark, no cloud); flushed
    /// at the next recovery.
    held: Vec<Request>,
    reroutes: usize,
    offloaded: usize,
    /// Requests cancelled by fault injection (held-queue and on-device).
    cancelled: usize,
    cloud_completions: Vec<Completion>,
    cloud_energy_j: f64,
    cloud_done_s: f64,
    /// Router event log: `(fleet time, mark)`, in occurrence order.
    tlog: Vec<(f64, RouterMark)>,
    /// Fleet-scope forensic lifecycle events (routing, holds, outages,
    /// cloud offloads) merged with per-device logs by
    /// [`FleetSim::forensics`].
    fevents: Vec<forensics::Event>,
    /// Per-request cloud energy shares, in offload order.
    cloud_req_energy: Vec<(u64, f64)>,
    /// Per-device count of governor decisions already reconciled into
    /// the router log.
    gov_seen: Vec<usize>,
    /// Prompt token ids by request id, for members serving with a prefix
    /// cache: routing probes each device's radix cache against the
    /// prompt, and placement hands it to the device so admission can
    /// reuse (and later cache) the prefix. Requests without an entry
    /// route and serve exactly as before.
    prompts: std::collections::HashMap<u64, Vec<u32>>,
    /// Each device's pending recovery or step, keyed for the tie order.
    index: Tournament,
    /// Each device's routing snapshot, current once refreshed; its
    /// `prefix_hit_tokens` is 0 unless `probed`.
    views: Vec<DeviceView>,
    /// Whether `views` may still carry the prefix probes of the last
    /// routed prompt.
    probed: bool,
    /// Devices changed since `index` and `views` were last refreshed;
    /// `is_dirty[i]` marks membership.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Devices currently up.
    up_count: usize,
}

impl FleetSim {
    /// Build a fleet over `members` (≥1) serving `requests`.
    ///
    /// Every member's serve simulation is sized for the trace's longest
    /// request shape; a member whose model cannot load errors here.
    pub fn new(
        members: Vec<FleetDevice>,
        policy: Box<dyn RoutingPolicy>,
        cfg: FleetConfig,
        requests: &[Request],
    ) -> Result<Self, RunError> {
        if members.is_empty() {
            return Err(RunError::InvalidConfig("fleet needs at least one device".into()));
        }
        let max_sl = edgellm_core::arrivals::check_trace(requests)?;
        let mut devices = members
            .into_iter()
            .map(|m| DeviceSim::new(m, max_sl))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, d) in devices.iter_mut().enumerate() {
            d.sim.set_forensics_device(i as u32);
            d.sim.set_slo_latency(Some(cfg.slo_latency_s));
        }
        let mut arrivals = requests.to_vec();
        arrivals.sort_by(|a, b| {
            a.arrival_s.partial_cmp(&b.arrival_s).expect("finite").then(a.id.cmp(&b.id))
        });
        let n = devices.len();
        let mut index = Tournament::new(n);
        for (i, d) in devices.iter().enumerate() {
            index.set(i, device_key(i, d));
        }
        let views = devices.iter().enumerate().map(|(i, d)| d.view(i, None)).collect();
        Ok(FleetSim {
            devices,
            policy,
            cfg,
            arrivals,
            next_arrival: 0,
            next_fault: 0,
            held: Vec::new(),
            reroutes: 0,
            offloaded: 0,
            cancelled: 0,
            cloud_completions: Vec::new(),
            cloud_energy_j: 0.0,
            cloud_done_s: 0.0,
            tlog: Vec::new(),
            fevents: Vec::new(),
            cloud_req_energy: Vec::new(),
            gov_seen: vec![0; n],
            prompts: std::collections::HashMap::new(),
            index,
            views,
            probed: false,
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            up_count: n,
        })
    }

    /// Attach prompt token ids to requests (by request id). Members
    /// serving with a prefix cache ([`ServeConfig::with_prefix_cache`](edgellm_core::ServeConfig::with_prefix_cache))
    /// probe their radix caches against these at routing time — the
    /// [`PrefixAffinity`](crate::routing::PrefixAffinity) policy's
    /// signal — and reuse the cached prefix at admission. Ids without an
    /// entry behave exactly as before.
    pub fn with_prompts(mut self, prompts: impl IntoIterator<Item = (u64, Vec<u32>)>) -> Self {
        self.prompts.extend(prompts);
        self
    }

    /// Drive every event to completion and aggregate the report.
    ///
    /// When the process-wide [`edgellm_trace::sink`] is enabled, the
    /// whole fleet timeline — one process per device plus a router
    /// process — is appended to it first (see [`FleetSim::run_traced`]
    /// for the explicit variant).
    pub fn run(mut self) -> Result<FleetReport, RunError> {
        self.run_to_completion()?;
        self.record_forensics();
        if edgellm_trace::sink::enabled() {
            edgellm_trace::sink::with(|out| self.record_trace(out));
        }
        Ok(self.build_report())
    }

    /// [`FleetSim::run`], but also return the run's timeline explicitly:
    /// per-device serve tracks (iteration spans, KV and rail-power
    /// counters, preemption instants) plus a router track with
    /// routing/evacuation/outage instants, all on the shared fleet clock.
    pub fn run_traced(mut self) -> Result<(FleetReport, Trace), RunError> {
        self.run_to_completion()?;
        self.record_forensics();
        let mut out = Trace::new();
        self.record_trace(&mut out);
        Ok((self.build_report(), out))
    }

    /// [`FleetSim::run`], but keep everything an invariant oracle needs:
    /// the per-device accounting snapshots and the router event log, on
    /// top of the aggregate report. The `edgellm-check` harness drives
    /// every fleet scenario through this.
    pub fn run_audited(mut self) -> Result<FleetAudit, RunError> {
        self.run_to_completion()?;
        self.record_forensics();
        let devices = self.devices.iter().map(|d| d.sim.audit()).collect();
        let governors = self.devices.iter().map(|d| d.governor().map(|g| g.audit())).collect();
        let router_log = self.tlog.clone();
        Ok(FleetAudit { devices, governors, router_log, report: self.build_report() })
    }

    /// Fire events until the fleet is drained.
    fn run_to_completion(&mut self) -> Result<(), RunError> {
        while let Some(ev) = self.next_event() {
            self.apply(ev)?;
        }
        Ok(())
    }

    /// Render the finished run onto `out`: one process per device (via
    /// the serve adapter) and one for the router's event log.
    pub fn record_trace(&self, out: &mut Trace) {
        for d in &self.devices {
            let pid = out.next_pid();
            record_serve_run(
                out,
                pid,
                &d.cfg.name,
                d.sim.trace(),
                d.sim.rail_trace(),
                d.sim.cache_occupancy_log(),
                d.sim.preemption_events(),
            );
            if let Some(g) = d.governor() {
                let start_s = d.sim.trace().first().map(|it| it.t_s - it.dt_s).unwrap_or(0.0);
                edgellm_governor::trace::record_governor(
                    out,
                    pid,
                    &g.audit(),
                    start_s,
                    d.sim.now(),
                );
            }
        }
        let pid = out.next_pid();
        out.set_process_name(pid, format!("router · {}", self.policy.name()));
        out.set_thread_name(pid, 1, "events");
        let dev_name =
            |i: usize| self.devices.get(i).map_or("?", |d| d.cfg.name.as_str()).to_string();
        for &(t_s, mark) in &self.tlog {
            let (name, args) = match mark {
                RouterMark::Routed { rid, device } => (
                    "route",
                    vec![
                        ("rid".to_string(), Arg::U64(rid)),
                        ("device".to_string(), Arg::Str(dev_name(device))),
                    ],
                ),
                RouterMark::Offloaded { rid } => {
                    ("offload", vec![("rid".to_string(), Arg::U64(rid))])
                }
                RouterMark::Held { rid } => ("hold", vec![("rid".to_string(), Arg::U64(rid))]),
                RouterMark::Evacuated { device, count } => (
                    "evacuate",
                    vec![
                        ("device".to_string(), Arg::Str(dev_name(device))),
                        ("count".to_string(), Arg::U64(count as u64)),
                    ],
                ),
                RouterMark::DeviceDown { device, thermal } => (
                    if thermal { "thermal_trip" } else { "down" },
                    vec![("device".to_string(), Arg::Str(dev_name(device)))],
                ),
                RouterMark::DeviceUp { device } => {
                    ("up", vec![("device".to_string(), Arg::Str(dev_name(device)))])
                }
                RouterMark::KvShrunk { device, blocks } => (
                    "kv_shrink",
                    vec![
                        ("device".to_string(), Arg::Str(dev_name(device))),
                        ("blocks".to_string(), Arg::U64(blocks as u64)),
                    ],
                ),
                RouterMark::PowerFlipped { device, index } => (
                    "power_flip",
                    vec![
                        ("device".to_string(), Arg::Str(dev_name(device))),
                        ("mode".to_string(), Arg::U64(index as u64)),
                    ],
                ),
                RouterMark::GovernorStep { device, rung } => (
                    "governor_step",
                    vec![
                        ("device".to_string(), Arg::Str(dev_name(device))),
                        ("rung".to_string(), Arg::U64(rung as u64)),
                    ],
                ),
                RouterMark::Cancelled { rid } => {
                    ("cancel", vec![("rid".to_string(), Arg::U64(rid))])
                }
                RouterMark::ClockSkewed { device, ahead_ms } => (
                    "clock_skew",
                    vec![
                        ("device".to_string(), Arg::Str(dev_name(device))),
                        ("ahead_ms".to_string(), Arg::U64(ahead_ms as u64)),
                    ],
                ),
            };
            out.instant(pid, 1, name, "fleet", t_s * 1e6, args);
        }
    }

    /// Router event log so far: `(fleet time, mark)` in occurrence order.
    pub fn router_log(&self) -> &[(f64, RouterMark)] {
        &self.tlog
    }

    /// Record one fleet-scope lifecycle event, mirrored into the global
    /// flight recorder.
    fn femit(&mut self, t_s: f64, rid: u64, device: u32, kind: forensics::EventKind) {
        let ev = forensics::Event { t_s, rid, device, kind };
        self.fevents.push(ev);
        forensics::flight::record(ev);
    }

    /// The fleet's merged forensic record: router-scope events plus every
    /// member's device-scope log, time-sorted on the shared clock (stable
    /// for equal stamps, fleet events first, so a `Routed` always
    /// precedes its device's `Submitted`). The energy ledger folds every
    /// member's per-request shares and idle integral together with the
    /// cloud endpoint's per-offload shares; its total matches
    /// `FleetReport::energy_j`.
    pub fn forensics(&self) -> ForensicsLog {
        let mut events = self.fevents.clone();
        let mut req_energy: BTreeMap<u64, f64> = BTreeMap::new();
        let mut idle_energy_j = 0.0;
        let mut total_energy_j = self.cloud_energy_j;
        for d in &self.devices {
            let f = d.sim.forensics();
            events.extend(f.events);
            for (rid, e) in f.req_energy {
                *req_energy.entry(rid).or_insert(0.0) += e;
            }
            idle_energy_j += f.idle_energy_j;
            total_energy_j += f.total_energy_j;
        }
        for &(rid, e) in &self.cloud_req_energy {
            *req_energy.entry(rid).or_insert(0.0) += e;
        }
        events.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).expect("finite event times"));
        ForensicsLog {
            label: format!("fleet · {}", self.policy.name()),
            events,
            req_energy: req_energy.into_iter().collect(),
            idle_energy_j,
            cloud_energy_j: self.cloud_energy_j,
            total_energy_j,
        }
    }

    /// Reconstruct and record the finished run's forensic document into
    /// the process-wide sink, when collection is enabled.
    fn record_forensics(&self) {
        if forensics::sink::enabled() {
            forensics::sink::record(forensics::reconstruct(&self.forensics()));
        }
    }

    /// Aggregate the finished run into a [`FleetReport`].
    fn build_report(self) -> FleetReport {
        let lost = self.held.len();
        let mut completions = Vec::new();
        let mut device_reports = Vec::with_capacity(self.devices.len());
        let mut makespan = self.cloud_done_s;
        for d in &self.devices {
            completions.extend_from_slice(d.sim.completions());
            makespan = makespan.max(d.sim.now());
            device_reports.push(DeviceReport {
                name: d.cfg.name.clone(),
                routed: d.routed,
                completed: d.sim.completions().len(),
                output_tokens: d.sim.served_output_tokens(),
                energy_j: d.sim.energy_j(),
                busy_until_s: d.sim.now(),
                preemptions: d.sim.preemptions(),
                thermal_trips: d.thermal_trips,
            });
        }
        completions.extend_from_slice(&self.cloud_completions);
        // Canonical order for reproducible aggregates: by request id.
        completions.sort_by_key(|c| c.rid);
        FleetReport::build(
            self.policy.name().to_string(),
            device_reports,
            &completions,
            self.arrivals.len(),
            self.offloaded,
            lost,
            self.cancelled,
            self.reroutes,
            makespan,
            self.cloud_energy_j,
            self.cfg.slo_latency_s,
        )
    }

    /// Mark device `i` changed: its index key and routing snapshot are
    /// recomputed at the next [`FleetSim::refresh`].
    fn touch(&mut self, i: usize) {
        if !self.is_dirty[i] {
            self.is_dirty[i] = true;
            self.dirty.push(i);
        }
    }

    /// Device `i`, marked changed. Every mutation of a member goes
    /// through here (or [`FleetSim::touch`]).
    fn device_mut(&mut self, i: usize) -> &mut DeviceSim {
        self.touch(i);
        &mut self.devices[i]
    }

    /// Recompute the index keys and routing snapshots of the devices
    /// changed since the last refresh. A refreshed snapshot carries no
    /// prefix probe; [`FleetSim::route`] probes, or clears, every device's
    /// before it routes.
    fn refresh(&mut self) {
        for i in self.dirty.drain(..) {
            self.is_dirty[i] = false;
            let d = &self.devices[i];
            self.index.set(i, device_key(i, d));
            self.views[i] = d.view(i, None);
        }
    }

    /// The globally-earliest pending event; `None` when the fleet is
    /// drained. Tie order: fault < recovery < arrival < device step, then
    /// lowest device index.
    fn next_event(&mut self) -> Option<Event> {
        self.refresh();
        let mut best: Option<(Key, Event)> = None;
        let mut consider = |key: Key, ev: Event| {
            if best.is_none_or(|(b, _)| key.before(&b)) {
                best = Some((key, ev));
            }
        };
        if let Some(f) = self.cfg.faults.events().get(self.next_fault) {
            consider(Key { t: f.t_s, prio: 0, sub: 0 }, Event::Fault(self.next_fault));
        }
        if let Some(key) = self.index.min() {
            let ev = match key.prio {
                0 => Event::Recovery(key.sub - 1, key.t),
                _ => Event::Step(key.sub, key.t),
            };
            consider(key, ev);
        }
        if let Some(r) = self.arrivals.get(self.next_arrival) {
            consider(Key { t: r.arrival_s, prio: 1, sub: 0 }, Event::Arrival);
        }
        let ev = best.map(|(_, ev)| ev);
        #[cfg(debug_assertions)]
        assert_eq!(ev, self.scan_next_event(), "event index disagrees with a scan of the fleet");
        ev
    }

    /// [`FleetSim::next_event`] by a linear scan over every device — the
    /// reference debug builds check the index against on every event.
    #[cfg(debug_assertions)]
    fn scan_next_event(&self) -> Option<Event> {
        let mut best: Option<(f64, u8, Event)> = None;
        let consider = |t: f64, prio: u8, ev: Event, best: &mut Option<(f64, u8, Event)>| {
            let better = match best {
                None => true,
                Some((bt, bp, _)) => t < *bt || (t == *bt && prio < *bp),
            };
            if better {
                *best = Some((t, prio, ev));
            }
        };
        if let Some(f) = self.cfg.faults.events().get(self.next_fault) {
            consider(f.t_s, 0, Event::Fault(self.next_fault), &mut best);
        }
        for (i, d) in self.devices.iter().enumerate() {
            if let Some(t) = d.down_until {
                consider(t, 0, Event::Recovery(i, t), &mut best);
            }
        }
        if let Some(r) = self.arrivals.get(self.next_arrival) {
            consider(r.arrival_s, 1, Event::Arrival, &mut best);
        }
        for (i, d) in self.devices.iter().enumerate() {
            if !d.up {
                continue;
            }
            if let Some(t) = d.sim.next_event_s() {
                consider(t, 2, Event::Step(i, t), &mut best);
            }
        }
        best.map(|(_, _, ev)| ev)
    }

    fn apply(&mut self, ev: Event) -> Result<(), RunError> {
        match ev {
            Event::Fault(idx) => {
                let f = self.cfg.faults.events()[idx];
                self.next_fault = idx + 1;
                match f.kind {
                    FaultKind::Down => self.take_down(f.device, f.t_s, None, false),
                    FaultKind::Up => self.bring_up(f.device, f.t_s, false),
                    FaultKind::KvShrink { permille } => self.kv_shrink(f.device, f.t_s, permille),
                    FaultKind::PowerFlip { index } => {
                        self.power_flip(f.device, f.t_s, index)?;
                    }
                    FaultKind::Cancel { rid } => self.cancel(rid, f.t_s),
                    FaultKind::ClockSkew { ahead_ms } => self.clock_skew(f.device, f.t_s, ahead_ms),
                }
            }
            Event::Recovery(i, t) => {
                self.device_mut(i).rearm_thermal();
                self.bring_up(i, t, true);
            }
            Event::Arrival => {
                let r = self.arrivals[self.next_arrival];
                self.next_arrival += 1;
                self.route(r, r.arrival_s);
            }
            Event::Step(i, t) => {
                let trip = self.device_mut(i).step(t)?;
                self.reconcile_governor(i);
                if let Some(recover_at) = trip {
                    let now = self.devices[i].sim.now();
                    self.take_down(i, now, recover_at, true);
                }
            }
        }
        Ok(())
    }

    /// Fold device `i`'s new governor decisions into the router log, so
    /// the fleet coordinator (and every oracle reading the log) sees
    /// self-governed mode changes on the shared clock exactly like
    /// scripted flips. The device already refreshed its routing
    /// estimates when it applied the change, so the very next routing
    /// decision scores it at the new operating point.
    fn reconcile_governor(&mut self, i: usize) {
        let new: Vec<(f64, usize)> = match self.devices[i].governor() {
            Some(g) => g.decisions()[self.gov_seen[i]..].iter().map(|c| (c.t_s, c.to)).collect(),
            None => return,
        };
        self.gov_seen[i] += new.len();
        for (t_s, rung) in new {
            self.tlog.push((t_s, RouterMark::GovernorStep { device: i, rung }));
        }
    }

    /// Drop a device: drain its unfinished requests and re-route them.
    /// `down_until` carries a thermal cooldown end (or `None` — a
    /// scripted outage, or a trip that never cools unaided — waiting for
    /// a scripted `Up`).
    fn take_down(&mut self, i: usize, now: f64, down_until: Option<f64>, thermal: bool) {
        if i >= self.devices.len() || !self.devices[i].up {
            return;
        }
        let d = self.device_mut(i);
        d.up = false;
        d.down_until = down_until;
        self.up_count -= 1;
        self.tlog.push((now, RouterMark::DeviceDown { device: i, thermal }));
        self.femit(now, forensics::NO_RID, i as u32, forensics::EventKind::DeviceDown { thermal });
        let drained = self.devices[i].sim.drain_incomplete();
        self.reroutes += drained.len();
        if !drained.is_empty() {
            self.tlog.push((now, RouterMark::Evacuated { device: i, count: drained.len() }));
        }
        for r in drained {
            self.route(r, now);
        }
    }

    /// Return a device to the eligible set and catch its local clock up
    /// to the fleet instant. A thermal cooldown (`powered`) idles across
    /// the gap and is billed at idle power; a scripted outage is off and
    /// bills nothing.
    fn bring_up(&mut self, i: usize, now: f64, powered: bool) {
        if i >= self.devices.len() || self.devices[i].up {
            return;
        }
        let d = self.device_mut(i);
        d.up = true;
        d.down_until = None;
        self.up_count += 1;
        self.tlog.push((now, RouterMark::DeviceUp { device: i }));
        self.femit(now, forensics::NO_RID, i as u32, forensics::EventKind::DeviceUp);
        let d = &mut self.devices[i];
        if powered {
            d.sim.idle_to(now);
        } else {
            d.sim.skip_to(now);
        }
        let held = std::mem::take(&mut self.held);
        for r in held {
            self.route(r, now);
        }
    }

    /// Shrink a device's KV pool to `permille`/1000 of its current size
    /// (floored at one block); sequences that no longer fit are preempted
    /// on-device with the recompute penalty (not re-routed — the device
    /// itself is still healthy).
    fn kv_shrink(&mut self, i: usize, now: f64, permille: u16) {
        if i >= self.devices.len() {
            return;
        }
        let total = self.devices[i].sim.kv_total_blocks();
        let target = ((total as u64 * permille as u64) / 1000).max(1) as usize;
        if target >= total {
            return;
        }
        self.device_mut(i).sim.shrink_kv_pool(target);
        self.tlog.push((now, RouterMark::KvShrunk { device: i, blocks: target }));
    }

    /// Flip a device to stock power mode `index` (modulo the registry).
    /// An up device is idled to the fleet instant first so the pre-flip
    /// stretch is billed at the old mode's idle power (exact energy
    /// splitting); a down device is off and bills nothing. Routing
    /// estimates follow the new mode either way.
    fn power_flip(&mut self, i: usize, now: f64, index: u8) -> Result<(), RunError> {
        if i >= self.devices.len() {
            return Ok(());
        }
        let registry = edgellm_hw::PowerModeRegistry::stock_for(self.devices[i].cfg.device.clone());
        let idx = index as usize % registry.len().max(1);
        let mode = registry.iter().nth(idx).expect("index reduced modulo len").clone();
        let d = self.device_mut(i);
        if d.up {
            d.sim.set_power_mode_at(&mode, now)?;
        } else {
            d.sim.set_power_mode(&mode)?;
        }
        d.refresh_estimates();
        d.resync_governor();
        self.tlog.push((now, RouterMark::PowerFlipped { device: i, index: idx }));
        Ok(())
    }

    /// Cancel request `rid` wherever it stands: the router's hold queue,
    /// or any device's queue/batch. Completed (or unknown) rids no-op.
    fn cancel(&mut self, rid: u64, now: f64) {
        if let Some(pos) = self.held.iter().position(|r| r.id == rid) {
            self.held.remove(pos);
            self.cancelled += 1;
            self.tlog.push((now, RouterMark::Cancelled { rid }));
            self.femit(now, rid, forensics::NO_DEVICE, forensics::EventKind::Cancelled);
            return;
        }
        for i in 0..self.devices.len() {
            if self.devices[i].sim.cancel(rid) {
                self.touch(i);
                self.cancelled += 1;
                self.tlog.push((now, RouterMark::Cancelled { rid }));
                return;
            }
        }
    }

    /// Jump a quiescent device's clock ahead of the fleet instant — an
    /// NTP step. Devices with live sequences ignore it.
    fn clock_skew(&mut self, i: usize, now: f64, ahead_ms: u32) {
        if i >= self.devices.len() {
            return;
        }
        let d = self.device_mut(i);
        let before = d.sim.now();
        d.sim.skip_to(now.max(before) + ahead_ms as f64 / 1000.0);
        if d.sim.now() > before {
            self.tlog.push((now, RouterMark::ClockSkewed { device: i, ahead_ms }));
        }
    }

    /// Route one request on the current snapshots. Dirty snapshots are
    /// refreshed first, so each decision — including every re-route of a
    /// drained device's work — sees the placements before it. With a
    /// prompt attached, every device's prefix cache is probed for it.
    fn route(&mut self, r: Request, now: f64) {
        self.refresh();
        let prompt = self.prompts.get(&r.id).map(|p| p.as_slice());
        match prompt {
            Some(p) => {
                for (v, d) in self.views.iter_mut().zip(&self.devices) {
                    v.prefix_hit_tokens = d.sim.prefix_match_tokens(p);
                }
                self.probed = true;
            }
            None if self.probed => {
                for v in &mut self.views {
                    v.prefix_hit_tokens = 0;
                }
                self.probed = false;
            }
            None => {}
        }
        #[cfg(debug_assertions)]
        for (i, d) in self.devices.iter().enumerate() {
            assert_eq!(self.views[i], d.view(i, prompt), "stale routing snapshot of device {i}");
        }
        if self.up_count == 0 {
            if self.cfg.cloud.is_some() {
                self.cloud_complete(r, now);
            } else {
                self.tlog.push((now, RouterMark::Held { rid: r.id }));
                self.femit(now, r.id, forensics::NO_DEVICE, forensics::EventKind::Held);
                self.held.push(r);
            }
            return;
        }
        match self.policy.route(&r, &self.views) {
            Decision::Device(i) if i < self.devices.len() && self.devices[i].up => {
                self.place(i, &r, now);
            }
            Decision::Cloud if self.cfg.cloud.is_some() => self.cloud_complete(r, now),
            // A policy picked a down/invalid target, or cloud without an
            // endpoint: fall back to the least-loaded up device.
            _ => {
                let i = self
                    .views
                    .iter()
                    .filter(|v| v.up)
                    .min_by(|a, b| {
                        a.backlog_tokens.cmp(&b.backlog_tokens).then(a.index.cmp(&b.index))
                    })
                    .expect("checked above")
                    .index;
                self.place(i, &r, now);
            }
        }
    }

    /// Hand a request to device `i` at the fleet instant `now`. The
    /// receiving clock is idled up to `now` first so a re-routed request
    /// (whose `arrival_s` predates the evacuation) cannot start — and
    /// bill — in the device's past. Busy devices already sit at or ahead
    /// of `now` (events fire in global time order), so this only moves
    /// lagging idle clocks and the gap is billed at idle power exactly as
    /// the lazy step-idle path would.
    fn place(&mut self, i: usize, r: &Request, now: f64) {
        self.tlog.push((now, RouterMark::Routed { rid: r.id, device: i }));
        self.femit(now, r.id, i as u32, forensics::EventKind::Routed);
        self.touch(i);
        let d = &mut self.devices[i];
        d.sim.idle_to(now);
        match self.prompts.get(&r.id) {
            Some(p) => d.submit_with_prompt(r, p),
            None => d.submit(r),
        }
    }

    fn cloud_complete(&mut self, r: Request, now: f64) {
        let ep = self.cfg.cloud.expect("caller checked");
        let wait = (now - r.arrival_s).max(0.0);
        let latency_s = wait + ep.request_latency_s(r.input_tokens, r.output_tokens);
        let ttft_s = latency_s - r.output_tokens as f64 / ep.tok_rate;
        self.cloud_completions.push(Completion {
            rid: r.id,
            arrival_s: r.arrival_s,
            ttft_s,
            latency_s,
            output_tokens: r.output_tokens,
        });
        let cloud_j = ep.edge_energy_j(r.input_tokens, r.output_tokens);
        self.cloud_energy_j += cloud_j;
        self.cloud_req_energy.push((r.id, cloud_j));
        self.cloud_done_s = self.cloud_done_s.max(r.arrival_s + latency_s);
        self.offloaded += 1;
        self.tlog.push((now, RouterMark::Offloaded { rid: r.id }));
        self.femit(now, r.id, forensics::NO_DEVICE, forensics::EventKind::Offloaded);
        self.femit(
            r.arrival_s + ttft_s,
            r.id,
            forensics::NO_DEVICE,
            forensics::EventKind::FirstToken,
        );
        self.femit(
            r.arrival_s + latency_s,
            r.id,
            forensics::NO_DEVICE,
            forensics::EventKind::Completed { output_tokens: r.output_tokens },
        );
    }
}

/// Device `i`'s pending event key: its recovery while thermally down
/// (`down_until` is only set while down), its next scheduler turn while
/// up, `None` otherwise.
fn device_key(i: usize, d: &DeviceSim) -> Option<Key> {
    match d.down_until {
        Some(t) => Some(Key { t, prio: 0, sub: 1 + i }),
        None if d.up => d.sim.next_event_s().map(|t| Key { t, prio: 2, sub: i }),
        None => None,
    }
}

/// Build and run a fleet in one call.
pub fn run_fleet(
    members: Vec<FleetDevice>,
    policy: Box<dyn RoutingPolicy>,
    cfg: FleetConfig,
    requests: &[Request],
) -> Result<FleetReport, RunError> {
    FleetSim::new(members, policy, cfg, requests)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{EnergyGreedy, JoinShortestQueue, RoundRobin, SloAware};
    use edgellm_core::{PoissonArrivals, RunConfig};
    use edgellm_hw::{DeviceSpec, PowerMode};
    use edgellm_models::{Llm, Precision};
    use edgellm_power::ThermalModel;

    fn agx_pair() -> Vec<FleetDevice> {
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        vec![
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("agx-0"),
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg).named("agx-1"),
        ]
    }

    fn mixed_trio() -> Vec<FleetDevice> {
        let nx = DeviceSpec::orin_nx_16gb();
        let xav = DeviceSpec::xavier_agx_32gb();
        vec![
            FleetDevice::new(
                DeviceSpec::orin_agx_64gb(),
                RunConfig::new(Llm::Llama31_8b, Precision::Fp16),
            ),
            FleetDevice::new(
                nx.clone(),
                RunConfig::new(Llm::Llama31_8b, Precision::Int4)
                    .power_mode(PowerMode::maxn_for(&nx)),
            ),
            FleetDevice::new(
                xav.clone(),
                RunConfig::new(Llm::Llama31_8b, Precision::Int4)
                    .power_mode(PowerMode::maxn_for(&xav)),
            ),
        ]
    }

    #[test]
    fn round_robin_conserves_and_balances() {
        let reqs = PoissonArrivals::paper_shape(2.0).generate(40, 7);
        let r =
            run_fleet(agx_pair(), Box::new(RoundRobin::default()), FleetConfig::default(), &reqs)
                .unwrap();
        assert_eq!(r.completed, 40);
        assert_eq!(r.lost, 0);
        assert_eq!(
            r.output_tokens,
            reqs.iter().map(|q| q.output_tokens).sum::<u64>(),
            "every output token accounted"
        );
        let (a, b) = (r.devices[0].routed, r.devices[1].routed);
        assert_eq!(a + b, 40);
        assert_eq!(a, 20, "alternating placement on identical twins");
    }

    #[test]
    fn same_seed_same_report() {
        let reqs = PoissonArrivals::paper_shape(2.5).generate(30, 11);
        let run = || {
            run_fleet(mixed_trio(), Box::new(JoinShortestQueue), FleetConfig::default(), &reqs)
                .unwrap()
        };
        assert_eq!(run(), run(), "fleet runs are deterministic");
    }

    #[test]
    fn dropout_reroutes_without_losing_requests() {
        let reqs = PoissonArrivals::paper_shape(2.0).generate(40, 3);
        let faults = FaultPlan::none().outage(0, 4.0, 1e9);
        let cfg = FleetConfig { faults, ..FleetConfig::default() };
        let r = run_fleet(agx_pair(), Box::new(JoinShortestQueue), cfg, &reqs).unwrap();
        assert_eq!(r.completed + r.lost, 40);
        assert_eq!(r.lost, 0, "survivor absorbs everything");
        assert!(r.reroutes > 0, "in-flight work was evacuated");
        assert_eq!(r.output_tokens, reqs.iter().map(|q| q.output_tokens).sum::<u64>());
        assert!(r.devices[1].completed > r.devices[0].completed);
    }

    #[test]
    fn whole_fleet_outage_holds_and_recovers() {
        let reqs = PoissonArrivals::paper_shape(2.0).generate(20, 5);
        // Both devices dark from t=1 until t=60: arrivals in the window
        // are held, then flushed at recovery. Nothing is lost.
        let faults = FaultPlan::none().outage(0, 1.0, 60.0).outage(1, 1.0, 60.0);
        let cfg = FleetConfig { faults, ..FleetConfig::default() };
        let r = run_fleet(agx_pair(), Box::new(RoundRobin::default()), cfg, &reqs).unwrap();
        assert_eq!(r.completed, 20);
        assert_eq!(r.lost, 0);
        assert!(r.mean_latency_s > 30.0, "the outage shows up in latency, not in loss");
    }

    #[test]
    fn slo_aware_spills_to_cloud_under_overload() {
        // One modest device, a hard deadline, and a hot arrival burst:
        // the policy must shed the tail to the cloud endpoint.
        let members = || {
            let xav = DeviceSpec::xavier_agx_32gb();
            vec![FleetDevice::new(
                xav.clone(),
                RunConfig::new(Llm::Llama31_8b, Precision::Int4)
                    .power_mode(PowerMode::maxn_for(&xav)),
            )]
        };
        let reqs = PoissonArrivals::paper_shape(4.0).generate(40, 13);
        let cfg = FleetConfig {
            slo_latency_s: 20.0,
            cloud: Some(CloudEndpoint::datacenter()),
            faults: FaultPlan::none(),
        };
        let r = run_fleet(members(), Box::new(SloAware::new(20.0)), cfg, &reqs).unwrap();
        assert_eq!(r.completed, 40);
        assert!(r.offloaded > 0, "deadline pressure must offload");
        assert!(r.offloaded < 40, "the device still serves its share");
        assert!(r.slo_attainment >= 0.9, "spillover protects the SLO: {}", r.slo_attainment);
        // The same overload with nowhere to spill blows the deadline for
        // much more of the trace.
        let stuck = FleetConfig { slo_latency_s: 20.0, ..FleetConfig::default() };
        let r0 = run_fleet(members(), Box::new(SloAware::new(20.0)), stuck, &reqs).unwrap();
        assert!(
            r.slo_attainment > r0.slo_attainment + 0.2,
            "cloud {} vs fleet-only {}",
            r.slo_attainment,
            r0.slo_attainment
        );
    }

    #[test]
    fn thermal_trip_forces_cooldown_and_rerouting() {
        // An aggressive enclosure (tiny τ, high resistance, low limit)
        // trips the first device within seconds of load; its work moves
        // to the second device and everything still completes.
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let members = vec![
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("sealed").thermal(
                ThermalModel { r_c_per_w: 2.0, tau_s: 5.0, t_ambient_c: 25.0, t_limit_c: 60.0 },
            ),
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg).named("cooled"),
        ];
        let reqs = PoissonArrivals::paper_shape(2.0).generate(30, 9);
        let r =
            run_fleet(members, Box::new(JoinShortestQueue), FleetConfig::default(), &reqs).unwrap();
        assert!(r.thermal_trips > 0, "sealed enclosure must trip");
        assert_eq!(r.completed, 30);
        assert_eq!(r.lost, 0);
        assert!(r.devices[1].completed > 0, "the cooled twin picks up the slack");
    }

    #[test]
    fn energy_greedy_consolidates_on_the_efficient_device() {
        let reqs = PoissonArrivals::paper_shape(1.0).generate(30, 17);
        let greedy = run_fleet(
            mixed_trio(),
            Box::new(EnergyGreedy::default()),
            FleetConfig::default(),
            &reqs,
        )
        .unwrap();
        let rr =
            run_fleet(mixed_trio(), Box::new(RoundRobin::default()), FleetConfig::default(), &reqs)
                .unwrap();
        assert_eq!(greedy.completed, 30);
        assert!(
            greedy.energy_per_token_j < rr.energy_per_token_j,
            "greedy {:.3} J/tok vs rr {:.3} J/tok",
            greedy.energy_per_token_j,
            rr.energy_per_token_j
        );
    }

    #[test]
    fn traced_run_emits_device_tracks_and_router_instants() {
        let reqs = PoissonArrivals::paper_shape(2.0).generate(12, 7);
        let faults = FaultPlan::none().outage(0, 3.0, 1e9);
        let cfg = FleetConfig { faults, ..FleetConfig::default() };
        let sim =
            FleetSim::new(agx_pair(), Box::new(JoinShortestQueue), cfg.clone(), &reqs).unwrap();
        let (report, trace) = sim.run_traced().unwrap();
        // The traced variant must not perturb the simulation itself.
        let plain = run_fleet(agx_pair(), Box::new(JoinShortestQueue), cfg, &reqs).unwrap();
        assert_eq!(report, plain);
        let json = trace.to_chrome_json();
        edgellm_trace::validate_chrome_trace(&json).expect("schema-valid fleet trace");
        assert!(json.contains("\"agx-0\"") && json.contains("\"agx-1\""), "device processes");
        assert!(json.contains("router · join-shortest-queue"), "router process");
        assert!(json.contains("\"route\""), "routing instants");
        assert!(json.contains("\"down\"") && json.contains("\"up\""), "outage instants");
        assert!(json.contains("\"evacuate\""), "drained work marked");
        assert!(json.contains("power_rails_w"), "per-device rail counters");
    }

    #[test]
    fn mid_run_knobs_conserve_requests() {
        // Every knob class fires mid-run: conservation must hold with
        // cancellation folded in, and the run must stay deterministic.
        let reqs = PoissonArrivals::paper_shape(2.0).generate(30, 19);
        let faults = FaultPlan::none()
            .kv_shrink(0, 3.0, 250)
            .power_flip(1, 4.0, 1)
            .cancel(reqs[5].arrival_s + 0.05, reqs[5].id)
            .cancel(reqs[20].arrival_s + 0.05, reqs[20].id)
            .clock_skew(1, 0.5, 400);
        let cfg = FleetConfig { faults, ..FleetConfig::default() };
        let run = || {
            FleetSim::new(agx_pair(), Box::new(JoinShortestQueue), cfg.clone(), &reqs)
                .unwrap()
                .run_audited()
                .unwrap()
        };
        let audit = run();
        let r = &audit.report;
        assert_eq!(r.cancelled, 2);
        assert_eq!(r.completed + r.lost + r.cancelled, 30, "knobs never lose a request");
        assert!(
            audit.router_log.iter().any(|(_, m)| matches!(m, RouterMark::KvShrunk { .. })),
            "shrink marked"
        );
        assert!(
            audit.router_log.iter().any(|(_, m)| matches!(m, RouterMark::PowerFlipped { .. })),
            "flip marked"
        );
        for d in &audit.devices {
            assert_eq!(d.kv_blocks_allocated, d.kv_blocks_freed, "{}: KV drains", d.label);
            assert_eq!(d.kv_blocks_in_use, 0);
        }
        let total_cancel: usize = audit.devices.iter().map(|d| d.cancelled.len()).sum();
        assert_eq!(total_cancel, 2, "both cancels landed on devices");
        assert_eq!(run().report, audit.report, "knobbed runs stay deterministic");
    }

    #[test]
    fn governed_member_logs_decisions_and_stays_deterministic() {
        use edgellm_governor::{HystereticLadder, SloSpec};
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let members = || {
            vec![
                FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone())
                    .named("governed")
                    .governed(Box::new(HystereticLadder::new(SloSpec {
                        ttft_s: 20.0,
                        tbt_s: 1.0,
                    }))),
                FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("static"),
            ]
        };
        let reqs = PoissonArrivals::paper_shape(0.5).generate(24, 7);
        let run = || {
            FleetSim::new(members(), Box::new(JoinShortestQueue), FleetConfig::default(), &reqs)
                .unwrap()
                .run_audited()
                .unwrap()
        };
        let audit = run();
        assert_eq!(audit.report.completed, 24);
        assert_eq!(audit.report.lost, 0);
        assert!(audit.governors[0].is_some() && audit.governors[1].is_none());
        let ga = audit.governors[0].as_ref().unwrap();
        assert!(!ga.decisions.is_empty(), "sparse load must trigger down-steps");
        edgellm_governor::verify_min_dwell(ga).expect("fleet-driven governor respects dwell");
        let logged = audit
            .router_log
            .iter()
            .filter(|(_, m)| matches!(m, RouterMark::GovernorStep { device: 0, .. }))
            .count();
        assert_eq!(logged, ga.decisions.len(), "every decision reconciled into the router log");
        assert_eq!(run().report, audit.report, "governed runs stay deterministic");
        // The rendered timeline carries the governor track alongside the
        // router's governor_step instants.
        let (_, trace) =
            FleetSim::new(members(), Box::new(JoinShortestQueue), FleetConfig::default(), &reqs)
                .unwrap()
                .run_traced()
                .unwrap();
        let json = trace.to_chrome_json();
        edgellm_trace::validate_chrome_trace(&json).expect("schema-valid governed fleet trace");
        assert!(json.contains("governor_step"), "router marks rendered");
        assert!(json.contains("active_power_mode"), "per-device mode counter track");
    }

    #[test]
    fn prefix_affinity_consolidates_shared_prompts_on_one_cache() {
        use crate::routing::PrefixAffinity;
        use edgellm_core::serve::ServeConfig;
        // Identical twins, both serving with a prefix cache, fed requests
        // that all share one 128-token system prompt arriving far enough
        // apart to admit one at a time.
        let members = || {
            agx_pair()
                .into_iter()
                .map(|m| m.serve(ServeConfig::chunked(16).with_prefix_cache()))
                .collect::<Vec<_>>()
        };
        let system: Vec<u32> = (0..128).map(|i| 900_000 + i).collect();
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request {
                id: i,
                arrival_s: i as f64 * 40.0,
                input_tokens: 128,
                output_tokens: 16,
            })
            .collect();
        let prompts = || reqs.iter().map(|r| (r.id, system.clone()));
        let run = |policy: Box<dyn RoutingPolicy>| {
            FleetSim::new(members(), policy, FleetConfig::default(), &reqs)
                .unwrap()
                .with_prompts(prompts())
                .run_audited()
                .unwrap()
        };
        let affine = run(Box::new(PrefixAffinity));
        assert_eq!(affine.report.completed, 6);
        // The first request lands cold (fallback scoring); every later
        // one chases its warm cache, so one device serves everything and
        // its counters show real reuse.
        let warm: Vec<_> = affine.devices.iter().filter(|d| d.kv_cache_hit_tokens > 0).collect();
        assert_eq!(warm.len(), 1, "all shared-prompt traffic consolidates on one cache");
        assert!(warm[0].kv_cache_hit_tokens >= 128 * 5, "five warm admissions reuse the prompt");
        let routed: Vec<usize> = affine.report.devices.iter().map(|d| d.routed).collect();
        assert!(routed.contains(&6), "one member took all six requests: {routed:?}");
        // Round-robin splits the same trace across both caches and reuses
        // strictly less.
        let rr = run(Box::<RoundRobin>::default());
        let rr_hits: u64 = rr.devices.iter().map(|d| d.kv_cache_hit_tokens).sum();
        let affine_hits: u64 = affine.devices.iter().map(|d| d.kv_cache_hit_tokens).sum();
        assert!(
            affine_hits > rr_hits,
            "affinity {affine_hits} hit tokens vs round-robin {rr_hits}"
        );
        // Determinism holds with prompts attached.
        assert_eq!(run(Box::new(PrefixAffinity)).report, affine.report);
    }

    #[test]
    fn non_finite_arrival_time_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut reqs = PoissonArrivals::paper_shape(1.0).generate(4, 1);
            reqs[2].arrival_s = bad;
            let err = FleetSim::new(
                agx_pair(),
                Box::new(RoundRobin::default()),
                FleetConfig::default(),
                &reqs,
            )
            .err()
            .expect("a non-finite arrival must not build a fleet");
            assert!(matches!(err, RunError::InvalidConfig(_)), "{bad}: {err}");
        }
    }

    /// Every routing call's request id and snapshots.
    type Seen = std::rc::Rc<std::cell::RefCell<Vec<(u64, Vec<DeviceView>)>>>;

    /// Routes request `SKEWED` to device 2 and everything else to the
    /// shorter queue of devices 0 and 1, recording every snapshot it sees.
    struct Scripted {
        seen: Seen,
    }

    const SKEWED: u64 = 1000;
    const AT_RECOVERY: u64 = 1001;

    impl RoutingPolicy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn route(&mut self, req: &Request, devices: &[DeviceView]) -> Decision {
            self.seen.borrow_mut().push((req.id, devices.to_vec()));
            if req.id == SKEWED {
                return Decision::Device(2);
            }
            let pick = devices[..2]
                .iter()
                .filter(|v| v.up)
                .min_by_key(|v| (v.queue_depth, v.index))
                .map_or(1, |v| v.index);
            Decision::Device(pick)
        }
    }

    #[test]
    fn same_instant_events_fire_fault_recovery_arrival_then_step() {
        // Device 0 trips thermally and cools back at some instant T. A
        // second run puts three more events on T: a scripted power flip
        // of device 1, an arrival, and a step of device 2 (its clock was
        // skewed to exactly T and a request is waiting on it).
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let members = || {
            vec![
                // Trips under decode load (~49 W), cools at idle (~14 W).
                FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("sealed").thermal(
                    ThermalModel { r_c_per_w: 1.0, tau_s: 5.0, t_ambient_c: 25.0, t_limit_c: 60.0 },
                ),
                FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("flipped"),
                FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()).named("skewed"),
            ]
        };
        let base = PoissonArrivals::paper_shape(2.0).generate(30, 9);
        let run = |reqs: &[Request], faults: FaultPlan| {
            let seen = Seen::default();
            let policy = Box::new(Scripted { seen: seen.clone() });
            let cfg = FleetConfig { faults, ..FleetConfig::default() };
            let audit = FleetSim::new(members(), policy, cfg, reqs).unwrap().run_audited().unwrap();
            let seen = seen.borrow().clone();
            (audit, seen)
        };
        let (first, _) = run(&base, FaultPlan::none());
        let t = first
            .router_log
            .iter()
            .find(|(_, m)| *m == RouterMark::DeviceUp { device: 0 })
            .expect("the sealed device trips and recovers")
            .0;
        let t0 = t - 0.5;
        assert_eq!(t0 + 0.5, t, "a 500 ms skew from t0 lands exactly on T");

        let mut reqs = base.clone();
        reqs.push(Request { id: SKEWED, arrival_s: t0 + 0.25, input_tokens: 32, output_tokens: 8 });
        reqs.push(Request { id: AT_RECOVERY, arrival_s: t, input_tokens: 32, output_tokens: 8 });
        let faults = FaultPlan::none().clock_skew(2, t0, 500).power_flip(1, t, 1);
        let (audit, seen) = run(&reqs, faults);

        let at_t: Vec<RouterMark> =
            audit.router_log.iter().filter(|(ts, _)| *ts == t).map(|&(_, m)| m).collect();
        assert_eq!(
            at_t,
            vec![
                RouterMark::PowerFlipped { device: 1, index: 1 },
                RouterMark::DeviceUp { device: 0 },
                RouterMark::Routed { rid: AT_RECOVERY, device: 0 },
            ],
            "fault, then recovery, then arrival"
        );
        // The arrival saw the recovered device up and device 2 still
        // waiting at T with its request queued: the step comes last.
        let (_, views) = seen.iter().find(|(rid, _)| *rid == AT_RECOVERY).expect("routed");
        assert!(views[0].up);
        assert_eq!(views[2].now_s, t);
        assert_eq!(views[2].queue_depth, 1);
        let skewed = &audit.devices[2];
        assert_eq!(skewed.completions.len(), 1);
        assert!(skewed.trace.iter().all(|it| it.t_s > t), "device 2 ran only after T");
    }

    #[test]
    fn kv_shrink_reaches_the_next_routing_snapshot() {
        // Device 0 is mid-iteration (its clock ahead of the fleet) when its
        // pool shrinks to 0.5% — still room for its one sequence; an
        // arrival at the same instant must route on the shrunk occupancy,
        // before device 0 steps again.
        let long = Request { id: 0, arrival_s: 0.0, input_tokens: 512, output_tokens: 256 };
        let probe = Request { id: 1, arrival_s: 2.0, input_tokens: 32, output_tokens: 8 };
        let seen = Seen::default();
        let cfg =
            FleetConfig { faults: FaultPlan::none().kv_shrink(0, 2.0, 5), ..Default::default() };
        let policy = Box::new(Scripted { seen: seen.clone() });
        FleetSim::new(agx_pair(), policy, cfg, &[long, probe]).unwrap().run().unwrap();
        let seen = seen.borrow();
        let (_, views) = seen.iter().find(|(rid, _)| *rid == 1).expect("probe routed");
        assert!(views[0].now_s > 2.0, "device 0 is busy past the shrink");
        assert!(views[0].kv_occupancy > 0.1, "stale occupancy {}", views[0].kv_occupancy);
    }

    #[test]
    fn empty_fleet_and_empty_trace_error() {
        let reqs = PoissonArrivals::paper_shape(1.0).generate(4, 1);
        assert!(FleetSim::new(
            Vec::new(),
            Box::new(RoundRobin::default()),
            FleetConfig::default(),
            &reqs
        )
        .is_err());
        assert!(FleetSim::new(
            agx_pair(),
            Box::new(RoundRobin::default()),
            FleetConfig::default(),
            &[]
        )
        .is_err());
    }
}
