//! What the host looked like during a run. Diagnostics only: none of
//! this is an end-to-end metric, but it lets a slow run be traced to a
//! co-tenant stretch instead of to the code.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Rate of a fixed L1-resident FMA loop, in million multiply-adds per
/// second, over `window`. The loop touches 2 KiB, so only the core's
/// own speed (SMT siblings, frequency) can move it.
pub fn reference_rate(window: Duration) -> f64 {
    let mut acc = [0.0f32; 8];
    let x: Vec<f32> = (0..512).map(|i| 1.0 + i as f32 * 1e-6).collect();
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < window {
        let xs = black_box(&x);
        for chunk in xs.chunks_exact(8) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a = a.mul_add(0.999_999, v);
            }
        }
        rounds += 1;
    }
    black_box(acc);
    (rounds * 512) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in glibc's `cpu_set_t` (1,024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, visited in turn.
///
/// A co-tenant's slow stretch loads one vCPU's physical core at a time:
/// an L1-resident probe pinned alternately to each vCPU for 4 s found a
/// stretch of 750–1,100 µs per call on one while the other ran at
/// 490–560 µs. Moving the measuring thread across the CPUs between
/// repetitions lets each operation's fastest repetition come from
/// whichever CPU was quiet.
#[derive(Debug)]
pub struct Cpus {
    list: Vec<usize>,
    next: usize,
}

impl Cpus {
    /// The CPUs in the affinity mask the process started with (read once,
    /// before any rotation narrows a thread's mask).
    pub fn new() -> Self {
        static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
        let list = ALLOWED.get_or_init(|| {
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: `mask` is a writable buffer of exactly the size
            // passed, and pid 0 names the calling thread.
            let ok = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } == 0;
            (0..MASK_WORDS * 64).filter(|&c| ok && mask[c / 64] >> (c % 64) & 1 == 1).collect()
        });
        Cpus { list: list.clone(), next: 0 }
    }

    /// Pin the calling thread to the next CPU in turn (no-op when the
    /// mask could not be read or names one CPU).
    pub fn rotate(&mut self) {
        if self.list.len() < 2 {
            return;
        }
        let cpu = self.list[self.next % self.list.len()];
        self.next += 1;
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread. Failure leaves the affinity
        // unchanged, which only costs the rotation.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    }
}

/// Peak resident set of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// CPU cache sizes as `(label, size)` pairs, e.g. `("L2", "2048K")`.
fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{}{suffix}", level.trim()), size.trim().to_string()));
    }
    out
}

/// The host record written beside each run's metrics.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Engine worker budget (`rayon::current_num_threads`).
    pub workers: usize,
    /// `EDGELLM_THREADS`, if set.
    pub threads_env: Option<String>,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Cache sizes of CPU 0.
    pub caches: Vec<(String, String)>,
    /// Reference-loop rate before the workload (M FMA/s).
    pub ref_before: f64,
    /// Reference-loop rate after the workload (M FMA/s).
    pub ref_after: f64,
}

impl HostRecord {
    /// Record everything but the after-rate, and measure the before-rate.
    pub fn before() -> Self {
        HostRecord {
            workers: rayon::current_num_threads(),
            threads_env: std::env::var("EDGELLM_THREADS").ok(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            caches: caches(),
            ref_before: reference_rate(Duration::from_millis(200)),
            ref_after: 0.0,
        }
    }

    /// Measure the after-rate.
    pub fn finish(&mut self) {
        self.ref_after = reference_rate(Duration::from_millis(200));
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        let caches: Vec<String> =
            self.caches.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
        format!(
            "{{\"workers\": {}, \"edgellm_threads\": {}, \"nproc\": {}, \"caches\": {{{}}}, \
             \"ref_loop_mfma_per_s_before\": {}, \"ref_loop_mfma_per_s_after\": {}}}",
            self.workers,
            self.threads_env.as_deref().map_or("null".to_string(), |v| format!("\"{v}\"")),
            self.nproc,
            caches.join(", "),
            self.ref_before,
            self.ref_after
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_allowed_cpu() {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Cpus::new().list.len(), n);
        std::thread::spawn(move || {
            let mut cpus = Cpus::new();
            for _ in 0..2 * n {
                cpus.rotate();
                assert!(reference_rate(Duration::from_millis(1)) > 0.0);
            }
            assert_eq!(Cpus::new().list.len(), n, "the list ignores the narrowed mask");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn host_probes_report_plausible_values() {
        assert!(reference_rate(Duration::from_millis(20)) > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let h = HostRecord::before();
        assert!(h.workers >= 1 && h.nproc >= 1);
        assert!(edgellm_trace::parse_json(&h.to_json()).is_ok());
    }
}
