//! In-memory spans recorded around calls into each layer's public
//! functions, from the benchmark's own code.
//!
//! A disabled tracer only runs the closures it is handed, so the untraced
//! end-to-end runs pay one branch per call.

use edgellm_trace::{Arg, Trace};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified function name, e.g. `nn.forward_step`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index + 1 of the enclosing span (0 at top level).
    pub parent: usize,
    /// Request the call served (shared by all spans of one request).
    pub rid: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Single-threaded: spans nest by call order.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off (open spans stay open).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as one span named `name`, nested in the innermost open span.
    pub fn call<R>(&mut self, name: &'static str, rid: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let parent = self.open.last().map_or(0, |&i| i + 1);
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.spans.push(Span { name, start_ns, end_ns, parent, rid });
        r
    }

    /// Keep a span timed elsewhere (e.g. inside a callback the program
    /// owns), nested in the innermost open span.
    pub fn record(&mut self, name: &'static str, rid: u64, t0: Instant, t1: Instant) {
        if self.enabled {
            let parent = self.open.last().map_or(0, |&i| i + 1);
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            self.spans.push(Span { name, start_ns, end_ns, parent, rid });
        }
    }

    /// Open an enclosing span; returns its handle for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, rid: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().map_or(0, |&i| i + 1);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, rid });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Per-name totals: calls, total time and self time (the span's time
    /// minus the time its child spans cover), in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent - 1] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - c;
        }
        out
    }

    /// The first `cap` spans as a Chrome trace: one track, each span
    /// carrying its request id, its own index and its parent's. Parents
    /// start before their children, so every exported parent index
    /// refers to an exported span.
    pub fn to_trace(&self, process: &str, cap: usize) -> Trace {
        let mut t = Trace::new();
        t.set_process_name(1, process);
        t.set_thread_name(1, 1, "client");
        for (i, s) in self.spans.iter().enumerate().take(cap) {
            let cat = s.name.split('.').next().unwrap_or("bench");
            t.complete(
                1,
                1,
                s.name,
                cat,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                vec![
                    ("rid".to_string(), Arg::U64(s.rid)),
                    ("span".to_string(), Arg::U64(i as u64 + 1)),
                    ("parent".to_string(), Arg::U64(s.parent as u64)),
                ],
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_and_export_a_valid_trace() {
        let mut tr = Tracer::new(true);
        let h = tr.open("bench.request", 7);
        let x = tr.call("nn.forward_step", 7, || std::hint::black_box(2 + 2));
        tr.call("nn.forward_step", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.close(h);
        assert_eq!(x, 4);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.rid == 7));
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        let st = tr.self_times();
        let (calls, total, own) = st["bench.request"];
        assert_eq!(calls, 1);
        let (_, child_total, _) = st["nn.forward_step"];
        assert!((own - (total - child_total)).abs() < 1e-9 && own >= 0.0);
        let json = tr.to_trace("test", usize::MAX).to_chrome_json();
        let stats = edgellm_trace::validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.spans, 3);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let h = tr.open("a", 0);
        assert_eq!(tr.call("b", 0, || 5), 5);
        tr.close(h);
        assert!(tr.spans().is_empty());
    }
}
