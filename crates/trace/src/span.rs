//! Wall-clock span collection: RAII guards with thread-local buffers.
//!
//! [`enter`] (or the [`span!`](crate::span!) macro) opens a span; dropping
//! the guard closes it and appends a [`SpanRecord`] to the current
//! thread's buffer. A thread's buffer drains into a process-wide pool
//! whenever its outermost span closes, so a worker's spans are in the pool
//! before the worker signals that its closure returned — the scoped worker
//! threads of the `compat/rayon` pool live for one parallel region, and
//! their spans are collected the moment the region ends. (Flushing from the
//! thread-local's destructor instead would race the join: a scope may
//! return before a finished thread's destructors have run.) [`drain`]
//! merges everything **deterministically**: sorted by
//! `(start time, thread ordinal, per-thread sequence)`, with ties broken by
//! counters that do not depend on scheduling.
//!
//! Collection is globally gated: when disabled (the default), [`enter`]
//! returns an inert guard whose construction is two relaxed atomic loads.
//! Compiled out entirely, instrumented call sites cost nothing — the
//! `trace` cargo feature on `edgellm-tensor`/`edgellm-nn` controls that.
//!
//! Nesting is tracked per thread: each record carries its depth and the
//! per-thread enter/exit sequence numbers, so well-nestedness (`a`
//! contains `b` or they are disjoint, never partial overlap) is checkable
//! after the fact — a property test pins it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::{Arg, Trace};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (the instrumented operation).
    pub name: &'static str,
    /// Category (component: "nn", "kernel", "bench" …).
    pub cat: &'static str,
    /// Ordinal of the thread that ran it (assignment order of first use).
    pub thread: u64,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
    /// Start, µs since the collection epoch.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Per-thread sequence number at entry.
    pub start_seq: u64,
    /// Per-thread sequence number at exit (> `start_seq`).
    pub end_seq: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn pool() -> &'static Mutex<Vec<SpanRecord>> {
    static POOL: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadBuf {
    ordinal: u64,
    depth: u32,
    seq: u64,
    records: Vec<SpanRecord>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            ordinal: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            seq: 0,
            records: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if !self.records.is_empty() {
            pool().lock().expect("span pool poisoned").append(&mut self.records);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Start collecting spans (idempotent). Establishes the timestamp epoch
/// on first call.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop collecting. Already-open guards still record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span; the returned guard records it when dropped. Inert (two
/// atomic loads, no clock read) while collection is disabled.
pub fn enter(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let start = epoch().elapsed().as_nanos() as f64 / 1_000.0;
    let start_seq = TLS.with(|b| {
        let mut b = b.borrow_mut();
        b.depth += 1;
        b.seq += 1;
        b.seq
    });
    SpanGuard { open: Some(Open { name, cat, start_us: start, start_seq }) }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    cat: &'static str,
    start_us: f64,
    start_seq: u64,
}

/// RAII span guard — see [`enter`].
#[derive(Debug)]
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    open: Option<Open>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end_us = epoch().elapsed().as_nanos() as f64 / 1_000.0;
        TLS.with(|b| {
            let mut b = b.borrow_mut();
            b.seq += 1;
            b.depth = b.depth.saturating_sub(1);
            let rec = SpanRecord {
                name: open.name,
                cat: open.cat,
                thread: b.ordinal,
                depth: b.depth,
                start_us: open.start_us,
                dur_us: (end_us - open.start_us).max(0.0),
                start_seq: open.start_seq,
                end_seq: b.seq,
            };
            b.records.push(rec);
            if b.depth == 0 {
                b.flush();
            }
        });
    }
}

/// Take every span closed so far, merged deterministically by
/// `(start_us, thread, start_seq)`. Spans nested inside a span still open
/// on *another* thread are not included yet: a thread hands its buffer
/// over when its outermost span closes, which every worker has done by
/// the end of its parallel region.
pub fn drain() -> Vec<SpanRecord> {
    TLS.with(|b| b.borrow_mut().flush());
    let mut records = std::mem::take(&mut *pool().lock().expect("span pool poisoned"));
    records.sort_by(|a, b| {
        a.start_us
            .total_cmp(&b.start_us)
            .then(a.thread.cmp(&b.thread))
            .then(a.start_seq.cmp(&b.start_seq))
    });
    records
}

/// Render drained spans onto `trace` under process `pid`, one thread
/// track per worker ordinal (tid = ordinal + 1).
pub fn record_into(trace: &mut Trace, pid: u32, records: &[SpanRecord]) {
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for &t in &threads {
        trace.set_thread_name(pid, t as u32 + 1, format!("thread-{t}"));
    }
    for r in records {
        trace.complete(
            pid,
            r.thread as u32 + 1,
            r.name,
            r.cat,
            r.start_us,
            r.dur_us,
            vec![("depth".to_string(), Arg::U64(u64::from(r.depth)))],
        );
    }
}

/// Open a span with an optional category (defaults to `"app"`); binds the
/// guard to a `let` at the call site:
///
/// ```
/// let _g = edgellm_trace::span!("prefill", "nn");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name, "app")
    };
    ($name:expr, $cat:expr) => {
        $crate::span::enter($name, $cat)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the process-global collector, so they run under a
    // lock to avoid draining each other's records.
    fn serialized(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().expect("span test lock");
        let _ = drain();
        enable();
        f();
        disable();
        let _ = drain();
    }

    #[test]
    fn nested_guards_record_depth_and_order() {
        serialized(|| {
            {
                let _a = enter("outer", "t");
                let _b = enter("inner", "t");
            }
            let recs = drain();
            let outer = recs.iter().find(|r| r.name == "outer").expect("outer recorded");
            let inner = recs.iter().find(|r| r.name == "inner").expect("inner recorded");
            assert_eq!(outer.depth, 0);
            assert_eq!(inner.depth, 1);
            assert!(outer.start_seq < inner.start_seq && inner.end_seq < outer.end_seq);
            assert!(outer.dur_us >= inner.dur_us);
        });
    }

    #[test]
    fn disabled_enter_is_inert() {
        serialized(|| {
            disable();
            let g = enter("ghost", "t");
            drop(g);
            assert!(drain().is_empty());
            enable();
        });
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        serialized(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = enter("worker", "t");
                });
            });
            let recs = drain();
            assert!(recs.iter().any(|r| r.name == "worker"), "exited thread's buffer drained");
        });
    }

    #[test]
    fn record_into_emits_complete_events() {
        serialized(|| {
            {
                let _g = span!("op", "kernel");
            }
            let recs = drain();
            let mut t = Trace::new();
            record_into(&mut t, 7, &recs);
            let json = t.to_chrome_json();
            assert!(json.contains("\"op\""));
            assert!(json.contains("\"ph\":\"X\""));
        });
    }
}
