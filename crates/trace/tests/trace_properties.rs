//! Property tests for the span collector and the metrics registry.
//!
//! Pinned invariants:
//! * **spans are well-nested** — for any program of open/close/leaf
//!   operations, the per-thread enter/exit sequence intervals of any two
//!   recorded spans are either disjoint or fully nested (never partially
//!   overlapping), the recorded depth equals the number of strictly
//!   containing spans, and [`edgellm_trace::span::drain`] returns them in
//!   its documented deterministic order;
//! * **counters are monotone** — any interleaving of `add`/`inc` calls
//!   over any set of counters yields values that never decrease and
//!   always equal the running sums.

use std::sync::Mutex;

use edgellm_trace::span::{self, SpanGuard, SpanRecord};
use edgellm_trace::Registry;
use proptest::prelude::*;

/// Names for generated spans (`enter` requires `&'static str`).
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Run a generated open/close/leaf program against the process-global
/// span collector and return the drained records. Serialized because the
/// collector is shared by every test in the binary.
fn run_program(ops: &[u32]) -> Vec<SpanRecord> {
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().expect("span property lock");
    let _ = span::drain();
    span::enable();
    let mut stack: Vec<SpanGuard> = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            // Open a span and keep it on the stack.
            0 => stack.push(span::enter(NAMES[i % NAMES.len()], "prop")),
            // Close the deepest open span (no-op on an empty stack).
            1 => drop(stack.pop()),
            // A leaf span: open and immediately close.
            _ => drop(span::enter("leaf", "prop")),
        }
    }
    // Close whatever is still open, deepest first.
    while stack.pop().is_some() {}
    span::disable();
    span::drain()
}

/// `a` strictly contains `b` in per-thread sequence order.
fn contains(a: &SpanRecord, b: &SpanRecord) -> bool {
    a.start_seq < b.start_seq && b.end_seq < a.end_seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spans_are_well_nested(ops in proptest::collection::vec(0u32..3, 1..48)) {
        let recs = run_program(&ops);
        // Every open (op 0) and every leaf (op 2) creates exactly one
        // guard, and every guard eventually drops and records.
        let guards = ops.iter().filter(|&&op| op != 1).count();
        prop_assert_eq!(recs.len(), guards, "one record per guard, none lost");

        for r in &recs {
            prop_assert!(r.end_seq > r.start_seq, "exit follows entry: {r:?}");
            prop_assert!(r.dur_us >= 0.0, "non-negative duration: {r:?}");
        }
        for (i, a) in recs.iter().enumerate() {
            for b in recs.iter().skip(i + 1) {
                if a.thread != b.thread {
                    continue;
                }
                let disjoint = a.end_seq < b.start_seq || b.end_seq < a.start_seq;
                prop_assert!(
                    disjoint || contains(a, b) || contains(b, a),
                    "partial overlap between {a:?} and {b:?}"
                );
                if contains(a, b) {
                    prop_assert!(
                        a.start_us <= b.start_us,
                        "container opened first: {a:?} vs {b:?}"
                    );
                }
            }
        }
        for r in &recs {
            let above = recs
                .iter()
                .filter(|o| o.thread == r.thread && contains(o, r))
                .count();
            prop_assert_eq!(
                r.depth as usize, above,
                "depth counts the containing spans: {:?}", r
            );
        }
        // drain()'s documented deterministic order.
        for w in recs.windows(2) {
            let key = |r: &SpanRecord| (r.start_us, r.thread, r.start_seq);
            prop_assert!(
                key(&w[0]) <= key(&w[1]),
                "drain sorted by (start, thread, seq): {:?} then {:?}", w[0], w[1]
            );
        }
    }

    #[test]
    fn counters_are_monotone(ops in proptest::collection::vec((0usize..3, 0u64..200), 1..64)) {
        let names = ["prop.a", "prop.b", "prop.c"];
        let reg = Registry::new();
        let mut expect = [0u64; 3];
        let mut last = [0u64; 3];
        for &(which, amount) in &ops {
            if amount == 0 {
                reg.counter(names[which]).inc();
                expect[which] += 1;
            } else {
                reg.counter(names[which]).add(amount);
                expect[which] += amount;
            }
            for (i, name) in names.iter().enumerate() {
                let v = reg.counter(name).get();
                prop_assert!(v >= last[i], "counter {} went backwards: {} -> {}", name, last[i], v);
                prop_assert_eq!(v, expect[i], "counter {} equals its running sum", name);
                last[i] = v;
            }
        }
    }
}
