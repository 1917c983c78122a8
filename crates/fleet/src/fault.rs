//! Scripted device-fault injection.
//!
//! A [`FaultPlan`] is a deterministic schedule of dropout/recovery events
//! the fleet co-simulator applies at exact instants: on a
//! [`FaultKind::Down`] the device's queued and in-flight requests are
//! drained and re-routed (nothing is lost); on a [`FaultKind::Up`] the
//! device rejoins the eligible set and any requests held while the whole
//! fleet was dark are re-submitted.
//!
//! Beyond outages, the plan carries mid-run *knob* events exercising the
//! regimes edge serving actually fails in: a co-tenant claiming KV memory
//! ([`FaultKind::KvShrink`]), a thermal governor stepping the power mode
//! down ([`FaultKind::PowerFlip`]), a client abandoning a request
//! ([`FaultKind::Cancel`]), and an NTP-style clock jump on one device
//! ([`FaultKind::ClockSkew`]). All payloads are plain integers so the
//! plan stays `Copy + Eq` — a shrinking minimizer can slice it freely.

/// What happens to the device at the event instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device drops out; its unfinished work is re-routed.
    Down,
    /// The device recovers and rejoins the routing set.
    Up,
    /// The device's KV pool shrinks to `permille`/1000 of its current
    /// size (floored at one block); live sequences that no longer fit
    /// are preempted with the recompute penalty.
    KvShrink {
        /// New pool size, in thousandths of the current size.
        permille: u16,
    },
    /// The device flips to stock power mode `index` (modulo the
    /// registry's mode count), rebuilding its perf/power operating point.
    PowerFlip {
        /// Index into the device's stock power-mode registry.
        index: u8,
    },
    /// Request `rid` is cancelled wherever it stands — router hold
    /// queue or any device — releasing its KV. The event's device index
    /// is ignored; an already-completed `rid` is a no-op.
    Cancel {
        /// Id of the request to cancel.
        rid: u64,
    },
    /// The device's local clock jumps `ahead_ms` forward (unbilled, as
    /// after an outage). Quiescent devices only; live ones ignore it.
    ClockSkew {
        /// Jump size in milliseconds.
        ahead_ms: u32,
    },
}

impl FaultKind {
    /// Same-instant ordering rank: dropouts first (so a zero-length
    /// outage still drains the device), then mid-run knobs, recoveries
    /// last (a recovered device sees the instant's knob state).
    fn rank(self) -> u8 {
        match self {
            FaultKind::Down => 0,
            FaultKind::KvShrink { .. }
            | FaultKind::PowerFlip { .. }
            | FaultKind::Cancel { .. }
            | FaultKind::ClockSkew { .. } => 1,
            FaultKind::Up => 2,
        }
    }
}

/// One scripted fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the event fires (s, fleet clock).
    pub t_s: f64,
    /// Index of the device it applies to.
    pub device: usize,
    /// Dropout or recovery.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, sorted by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Schedule a dropout at `t_s`.
    pub fn down(mut self, device: usize, t_s: f64) -> Self {
        self.events.push(FaultEvent { t_s, device, kind: FaultKind::Down });
        self.sort();
        self
    }

    /// Schedule a recovery at `t_s`.
    pub fn up(mut self, device: usize, t_s: f64) -> Self {
        self.events.push(FaultEvent { t_s, device, kind: FaultKind::Up });
        self.sort();
        self
    }

    /// A dropout at `down_s` followed by recovery at `up_s`. A NaN time
    /// is kept, for [`FleetSim::new`](crate::FleetSim::new) to reject.
    pub fn outage(self, device: usize, down_s: f64, up_s: f64) -> Self {
        assert!(up_s >= down_s || up_s.is_nan() || down_s.is_nan(), "recovery precedes dropout");
        self.down(device, down_s).up(device, up_s)
    }

    /// Shrink `device`'s KV pool to `permille`/1000 of its size at `t_s`.
    pub fn kv_shrink(mut self, device: usize, t_s: f64, permille: u16) -> Self {
        self.events.push(FaultEvent { t_s, device, kind: FaultKind::KvShrink { permille } });
        self.sort();
        self
    }

    /// Flip `device` to stock power mode `index` at `t_s`.
    pub fn power_flip(mut self, device: usize, t_s: f64, index: u8) -> Self {
        self.events.push(FaultEvent { t_s, device, kind: FaultKind::PowerFlip { index } });
        self.sort();
        self
    }

    /// Cancel request `rid` at `t_s`, wherever it stands in the fleet.
    pub fn cancel(mut self, t_s: f64, rid: u64) -> Self {
        self.events.push(FaultEvent { t_s, device: 0, kind: FaultKind::Cancel { rid } });
        self.sort();
        self
    }

    /// Jump `device`'s quiescent clock `ahead_ms` forward at `t_s`.
    pub fn clock_skew(mut self, device: usize, t_s: f64, ahead_ms: u32) -> Self {
        self.events.push(FaultEvent { t_s, device, kind: FaultKind::ClockSkew { ahead_ms } });
        self.sort();
        self
    }

    /// Rebuild a plan from an explicit event list (re-sorted into firing
    /// order) — how a shrinking minimizer slices a generated plan.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        let mut plan = FaultPlan { events };
        plan.sort();
        plan
    }

    /// The scheduled events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn sort(&mut self) {
        // Stable by (time, device, kind rank): Down sorts before same-
        // instant knobs, Up last. A total order, so a plan with a
        // non-finite time still builds; `FleetSim::new` rejects it.
        self.events.sort_by(|a, b| {
            a.t_s
                .total_cmp(&b.t_s)
                .then(a.device.cmp(&b.device))
                .then(a.kind.rank().cmp(&b.kind.rank()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_by_time_then_device_then_down_first() {
        let plan = FaultPlan::none().up(1, 5.0).down(0, 5.0).down(1, 2.0);
        let kinds: Vec<_> = plan.events().iter().map(|e| (e.t_s, e.device, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![(2.0, 1, FaultKind::Down), (5.0, 0, FaultKind::Down), (5.0, 1, FaultKind::Up)]
        );
    }

    #[test]
    fn outage_is_down_then_up() {
        let plan = FaultPlan::none().outage(2, 10.0, 20.0);
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::Down);
        assert_eq!(plan.events()[1].kind, FaultKind::Up);
    }

    #[test]
    #[should_panic(expected = "recovery precedes dropout")]
    fn inverted_outage_panics() {
        let _ = FaultPlan::none().outage(0, 20.0, 10.0);
    }

    #[test]
    fn knobs_sort_between_down_and_up() {
        let plan =
            FaultPlan::none().up(0, 5.0).kv_shrink(0, 5.0, 500).down(0, 5.0).power_flip(0, 5.0, 2);
        let kinds: Vec<_> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Down,
                FaultKind::KvShrink { permille: 500 },
                FaultKind::PowerFlip { index: 2 },
                FaultKind::Up,
            ]
        );
    }

    #[test]
    fn from_events_round_trips_and_resorts() {
        let plan = FaultPlan::none().outage(1, 2.0, 8.0).cancel(4.0, 17).clock_skew(0, 3.0, 250);
        let mut shuffled: Vec<FaultEvent> = plan.events().to_vec();
        shuffled.reverse();
        assert_eq!(FaultPlan::from_events(shuffled), plan);
    }
}
