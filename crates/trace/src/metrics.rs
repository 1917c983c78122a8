//! Process-wide metrics registry: named counters, gauges and histograms.
//!
//! Instrumented layers (the kernel dispatch policy, the transformer
//! forward passes) record into the global [`registry`]; reporters take a
//! [`Snapshot`] and render or export it. Counters are monotone and
//! lock-free; gauges are last-write-wins; histograms are the sample-exact
//! [`Histogram`] from [`crate::stats`], so snapshot quantiles share the
//! single nearest-rank implementation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::stats::Histogram;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `n` occurrences.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one occurrence.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The registry: an interned name → instrument map.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
    /// Bumped by every [`Registry::reset`], so a caller that caches
    /// instrument handles knows when to look them up again.
    generation: AtomicU64,
}

impl Registry {
    /// An empty registry (the process-wide one is [`registry`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry poisoned");
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Record one observation into the histogram named `name`, created on
    /// first use.
    pub fn observe(&self, name: &str, v: f64) {
        let h = {
            let mut map = self.histograms.lock().expect("registry poisoned");
            match map.get(name) {
                Some(h) => Arc::clone(h),
                None => {
                    let h = Arc::new(Mutex::new(Histogram::new()));
                    map.insert(name.to_string(), Arc::clone(&h));
                    h
                }
            }
        };
        h.lock().expect("histogram poisoned").record(v);
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, h)| {
                let h = h.lock().expect("histogram poisoned");
                (
                    k.clone(),
                    HistSummary {
                        count: h.count(),
                        mean: h.mean(),
                        p50: h.quantile_or_zero(0.50),
                        p95: h.quantile_or_zero(0.95),
                        max: h.max(),
                    },
                )
            })
            .collect();
        Snapshot { counters, gauges, histograms }
    }

    /// Drop every instrument (tests and between experiment runs).
    /// Handles taken before the reset stay valid but are detached: they
    /// no longer show in snapshots.
    pub fn reset(&self) {
        self.counters.lock().expect("registry poisoned").clear();
        self.gauges.lock().expect("registry poisoned").clear();
        self.histograms.lock().expect("registry poisoned").clear();
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// How many times [`Registry::reset`] has run. A handle cached at one
    /// generation is still registered while the generation is unchanged.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: usize,
    /// Mean observation.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
}

impl Snapshot {
    /// True when no instrument was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A plain-text table, one instrument per line, in one *globally*
    /// key-sorted listing (not per-kind sections), so two snapshots of
    /// overlapping instrument sets diff line-by-line. Counters render as
    /// bare integers, gauges as fixed 4-decimal floats, histograms as
    /// `n=… mean=… p50=… p95=… max=…` — the three shapes [`Snapshot::parse`]
    /// distinguishes on the way back in.
    pub fn render(&self) -> String {
        let mut lines: Vec<(&str, u8, String)> =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (k, v) in &self.counters {
            lines.push((k, 0, format!("{k:<44} {v}")));
        }
        for (k, v) in &self.gauges {
            lines.push((k, 1, format!("{k:<44} {v:.4}")));
        }
        for (k, h) in &self.histograms {
            lines.push((
                k,
                2,
                format!(
                    "{k:<44} n={} mean={:.4} p50={:.4} p95={:.4} max={:.4}",
                    h.count, h.mean, h.p50, h.p95, h.max
                ),
            ));
        }
        lines.sort_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
        let mut out = String::new();
        for (_, _, line) in lines {
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Parse a [`render`](Self::render)ed table back into a snapshot.
    /// Together with `render` this is a fixed point:
    /// `parse(s.render())?.render() == s.render()`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut snap = Snapshot::default();
        for (ln, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let key = fields.next().ok_or_else(|| format!("line {ln}: empty"))?.to_string();
            let rest: Vec<&str> = fields.collect();
            let first = *rest.first().ok_or_else(|| format!("line {ln}: no value"))?;
            if first.starts_with("n=") {
                let mut h = HistSummary { count: 0, mean: 0.0, p50: 0.0, p95: 0.0, max: 0.0 };
                for field in &rest {
                    let (name, val) = field
                        .split_once('=')
                        .ok_or_else(|| format!("line {ln}: bad histogram field {field:?}"))?;
                    let parse_f = |v: &str| {
                        v.parse::<f64>()
                            .map_err(|e| format!("line {ln}: {name}={v:?} not numeric: {e}"))
                    };
                    match name {
                        "n" => {
                            h.count = val
                                .parse()
                                .map_err(|e| format!("line {ln}: n={val:?} not integral: {e}"))?;
                        }
                        "mean" => h.mean = parse_f(val)?,
                        "p50" => h.p50 = parse_f(val)?,
                        "p95" => h.p95 = parse_f(val)?,
                        "max" => h.max = parse_f(val)?,
                        other => {
                            return Err(format!("line {ln}: unknown histogram field {other:?}"))
                        }
                    }
                }
                snap.histograms.insert(key, h);
            } else if rest.len() != 1 {
                return Err(format!("line {ln}: expected one value, got {}", rest.len()));
            } else if first.contains('.') {
                let v = first
                    .parse::<f64>()
                    .map_err(|e| format!("line {ln}: gauge {first:?} not numeric: {e}"))?;
                snap.gauges.insert(key, v);
            } else {
                let v = first
                    .parse::<u64>()
                    .map_err(|e| format!("line {ln}: counter {first:?} not integral: {e}"))?;
                snap.counters.insert(key, v);
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        r.counter("a.calls").inc();
        r.counter("a.calls").add(4);
        r.gauge("b.level").set(2.5);
        r.observe("c.ms", 1.0);
        r.observe("c.ms", 3.0);
        let s = r.snapshot();
        assert_eq!(s.counters["a.calls"], 5);
        assert_eq!(s.gauges["b.level"], 2.5);
        assert_eq!(s.histograms["c.ms"].count, 2);
        assert_eq!(s.histograms["c.ms"].mean, 2.0);
        assert!(s.render().contains("a.calls"));
        let generation = r.generation();
        r.reset();
        assert!(r.snapshot().is_empty());
        assert_eq!(r.generation(), generation + 1);
    }

    #[test]
    fn render_is_globally_key_sorted() {
        let r = Registry::new();
        r.counter("z.calls").inc();
        r.gauge("a.level").set(1.0);
        r.observe("m.ms", 2.0);
        let rendered = r.snapshot().render();
        let keys: Vec<&str> =
            rendered.lines().map(|l| l.split_whitespace().next().expect("keyed line")).collect();
        assert_eq!(keys, vec!["a.level", "m.ms", "z.calls"], "one merged sorted listing");
    }

    #[test]
    fn render_parse_round_trips() {
        let r = Registry::new();
        r.counter("kernel.f16.calls").add(17);
        r.counter("kernel.int8.calls").add(3);
        r.gauge("kv.occupancy").set(0.8125);
        r.observe("iter.ms", 1.5);
        r.observe("iter.ms", 4.5);
        let snap = r.snapshot();
        let rendered = snap.render();
        let parsed = Snapshot::parse(&rendered).expect("rendered table parses");
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.gauges["kv.occupancy"], 0.8125);
        assert_eq!(parsed.histograms["iter.ms"].count, 2);
        assert_eq!(parsed.render(), rendered, "render∘parse is a fixed point");
        assert!(Snapshot::parse("k one two three\n").is_err(), "malformed lines are rejected");
    }

    #[test]
    fn counter_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x").get(), 2);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let before = registry().counter("test.singleton").get();
        registry().counter("test.singleton").inc();
        assert_eq!(registry().counter("test.singleton").get(), before + 1);
    }
}
