//! Process-wide registry of named monotone counters.
//!
//! The kernel timers ([`crate::kernels`], compiled in only under the
//! `trace` feature of `edgellm-tensor`) record per-variant invocation,
//! MAC and wall-time tallies into the global [`registry`]; the kernel
//! bench lists its counter names to tell whether that feature was on.
//! Counters are lock-free once looked up.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// The registry: an interned name → counter map.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
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

    /// Every registered counter's name, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        self.counters.lock().expect("registry poisoned").keys().cloned().collect()
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_list_sorted() {
        let r = Registry::new();
        r.counter("z.calls").inc();
        r.counter("a.calls").inc();
        r.counter("a.calls").add(4);
        assert_eq!(r.counter("a.calls").get(), 5);
        assert_eq!(r.counter_names(), ["a.calls", "z.calls"]);
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
