//! The process-wide trace sink.
//!
//! The sink is how *existing* entry points grow tracing without changing
//! their signatures: when enabled, instrumented subsystems
//! (`ServeSim::run`, `FleetSim::run`) append their timelines to the
//! sink as they complete, and the driver (the `edgellm` CLI's
//! `--trace-out`, the `EDGELLM_TRACE` env fallback) exports the merged
//! [`Trace`] at exit. Disabled — the default — every hook is one relaxed
//! atomic load.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::chrome::Trace;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn buffer() -> &'static Mutex<Trace> {
    static BUF: OnceLock<Mutex<Trace>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Trace::new()))
}

/// Start accepting events (idempotent).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop accepting events; buffered events stay until [`take`]n.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the sink is accepting events.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` against the sink's trace; `None` (without running `f`) when
/// the sink is disabled.
pub fn with<R>(f: impl FnOnce(&mut Trace) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    Some(f(&mut buffer().lock().expect("trace sink poisoned")))
}

/// Take the buffered trace, leaving the sink empty (and its enabled
/// state unchanged).
pub fn take() -> Trace {
    std::mem::take(&mut *buffer().lock().expect("trace sink poisoned"))
}

/// Export the buffered trace as Chrome JSON to `path` and clear the
/// buffer. Returns the number of events written.
pub fn export(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let trace = take();
    trace.write_chrome_json(path)?;
    Ok(trace.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    fn serialized(f: impl FnOnce()) {
        static LOCK: StdMutex<()> = StdMutex::new(());
        let _g = LOCK.lock().expect("sink test lock");
        disable();
        let _ = take();
        f();
        disable();
        let _ = take();
    }

    #[test]
    fn disabled_sink_ignores_events() {
        serialized(|| {
            assert!(with(|_| ()).is_none());
            enable();
            with(|t| t.instant(1, 1, "x", "t", 0.0, vec![])).expect("enabled");
            assert_eq!(take().len(), 1);
            assert_eq!(take().len(), 0, "take clears");
        });
    }

    #[test]
    fn export_writes_and_clears() {
        serialized(|| {
            enable();
            with(|t| {
                t.set_process_name(1, "p");
                t.instant(1, 1, "x", "t", 1.0, vec![]);
            });
            let dir = std::env::temp_dir().join("edgellm_trace_sink_test.json");
            let n = export(&dir).expect("write");
            assert_eq!(n, 1);
            let body = std::fs::read_to_string(&dir).expect("read back");
            crate::json::validate_chrome_trace(&body).expect("valid export");
            let _ = std::fs::remove_file(&dir);
        });
    }
}
