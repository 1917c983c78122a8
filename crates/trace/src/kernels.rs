//! Kernel-layer instrumentation helpers.
//!
//! `edgellm-tensor` compiles these calls in only under its `trace` cargo
//! feature; the default build has **zero** instrumentation in the hot
//! loops (the bench smoke run asserts the feature is off). When compiled
//! in, each kernel invocation costs one [`KernelTimer`]: a clock read at
//! entry and, at drop, three counter bumps — per-variant invocation
//! count, MAC count and wall nanoseconds — plus a span when span
//! collection is on. The three counter handles are looked up in the
//! global registry once per variant and thread, not once per call.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{registry, Counter};
use crate::span::{self, SpanGuard};

/// RAII timer for one kernel invocation — see [`timer`].
#[derive(Debug)]
#[must_use = "dropping the timer immediately ends the measurement"]
pub struct KernelTimer {
    variant: &'static str,
    macs: u64,
    start: Instant,
    _span: SpanGuard,
}

/// Time one invocation of kernel `variant` performing `macs`
/// multiply-accumulates. Counters land under `kernel.<variant>.{calls,
/// macs, ns}`.
pub fn timer(variant: &'static str, macs: u64) -> KernelTimer {
    KernelTimer { variant, macs, start: Instant::now(), _span: span::enter(variant, "kernel") }
}

/// The three registry counters of one kernel variant.
struct VariantCounters {
    variant: &'static str,
    calls: Arc<Counter>,
    macs: Arc<Counter>,
    ns: Arc<Counter>,
}

impl VariantCounters {
    fn lookup(variant: &'static str) -> Self {
        let reg = registry();
        VariantCounters {
            variant,
            calls: reg.counter(&format!("kernel.{variant}.calls")),
            macs: reg.counter(&format!("kernel.{variant}.macs")),
            ns: reg.counter(&format!("kernel.{variant}.ns")),
        }
    }
}

thread_local! {
    /// This thread's counter handles, one entry per variant it has timed.
    static HANDLES: RefCell<Vec<VariantCounters>> = const { RefCell::new(Vec::new()) };
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        // `try_with` fails only while this thread's locals are being torn
        // down; the sample is dropped then rather than panicking in drop.
        let _ = HANDLES.try_with(|handles| {
            let mut handles = handles.borrow_mut();
            let i = match handles.iter().position(|h| h.variant == self.variant) {
                Some(i) => i,
                None => {
                    handles.push(VariantCounters::lookup(self.variant));
                    handles.len() - 1
                }
            };
            let h = &handles[i];
            h.calls.inc();
            h.macs.add(self.macs);
            h.ns.add(ns);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_bumps_all_three_counters() {
        let reg = registry();
        let calls0 = reg.counter("kernel.test_variant.calls").get();
        let macs0 = reg.counter("kernel.test_variant.macs").get();
        {
            let _t = timer("test_variant", 1234);
        }
        assert_eq!(reg.counter("kernel.test_variant.calls").get(), calls0 + 1);
        assert_eq!(reg.counter("kernel.test_variant.macs").get(), macs0 + 1234);
        assert!(reg.counter("kernel.test_variant.ns").get() > 0);
    }

    #[test]
    fn cached_handles_keep_counting_across_calls() {
        let reg = registry();
        let calls0 = reg.counter("kernel.test_repeat.calls").get();
        for macs in 1..=3 {
            let _t = timer("test_repeat", macs);
        }
        assert_eq!(reg.counter("kernel.test_repeat.calls").get(), calls0 + 3);
    }
}
