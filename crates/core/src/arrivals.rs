//! Request-arrival processes for serving studies.
//!
//! The paper measures closed batches; its conclusion points at serving
//! optimization as future work. This module supplies the workload side:
//! deterministic, seeded Poisson arrivals with per-request shape jitter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RunError;

/// One serving request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stable request identifier, unique within a trace. Schedulers break
    /// arrival-time ties on it so queue order (and therefore every derived
    /// metric) is reproducible regardless of submission order.
    pub id: u64,
    /// Arrival time (s).
    pub arrival_s: f64,
    /// Prompt tokens.
    pub input_tokens: u64,
    /// Tokens to generate.
    pub output_tokens: u64,
}

/// Check an offline trace a simulator is about to be built over: it must
/// hold at least one request, and every request must pass
/// [`check_arrival`]. Returns the longest request shape (prompt plus
/// output tokens), which sizes a simulator's activation reserve.
pub fn check_trace(requests: &[Request]) -> Result<u64, RunError> {
    requests.iter().try_for_each(check_arrival)?;
    requests
        .iter()
        .map(|r| r.input_tokens + r.output_tokens)
        .max()
        .ok_or_else(|| RunError::InvalidConfig("no requests".into()))
}

/// Check one request a simulator is about to queue. Its arrival time
/// must be finite: simulators order their events by time, and a NaN or
/// infinite instant has no place in that order. Its prompt plus output
/// tokens plus one (the admission watermark's first decode token) must
/// fit in a `u64`.
pub fn check_arrival(r: &Request) -> Result<(), RunError> {
    if !r.arrival_s.is_finite() {
        return Err(RunError::InvalidConfig(format!(
            "request {} arrives at non-finite time {}",
            r.id, r.arrival_s
        )));
    }
    if r.input_tokens.checked_add(r.output_tokens).and_then(|n| n.checked_add(1)).is_none() {
        return Err(RunError::InvalidConfig(format!("request {} overflows a token count", r.id)));
    }
    Ok(())
}

/// A Poisson arrival process with uniform token-count jitter around a base
/// shape (e.g. the paper's 32+64).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    /// Mean arrivals per second.
    pub rate_per_s: f64,
    /// Base input tokens.
    pub input_tokens: u64,
    /// Base output tokens.
    pub output_tokens: u64,
    /// ± fractional jitter on both token counts (0 = fixed shapes).
    pub shape_jitter: f64,
}

impl PoissonArrivals {
    /// The paper's workload shape at a given arrival rate.
    pub fn paper_shape(rate_per_s: f64) -> Self {
        PoissonArrivals { rate_per_s, input_tokens: 32, output_tokens: 64, shape_jitter: 0.25 }
    }

    /// Generate `n` requests, seeded.
    ///
    /// # Panics
    /// If the rate is not positive.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Request> {
        assert!(self.rate_per_s > 0.0, "arrival rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let mut out = Vec::with_capacity(n);
        for id in 0..n {
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / self.rate_per_s;
            let jit = |base: u64, rng: &mut StdRng| -> u64 {
                if self.shape_jitter <= 0.0 {
                    return base;
                }
                let f = 1.0 + rng.gen_range(-self.shape_jitter..=self.shape_jitter);
                ((base as f64 * f).round() as u64).max(1)
            };
            out.push(Request {
                id: id as u64,
                arrival_s: t,
                input_tokens: jit(self.input_tokens, &mut rng),
                output_tokens: jit(self.output_tokens, &mut rng),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_ordered_and_rate_is_respected() {
        let reqs = PoissonArrivals::paper_shape(2.0).generate(2000, 1);
        for w in reqs.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        let span = reqs.last().unwrap().arrival_s;
        let rate = reqs.len() as f64 / span;
        assert!((rate - 2.0).abs() < 0.2, "empirical rate {rate}");
    }

    #[test]
    fn generation_is_seeded() {
        let a = PoissonArrivals::paper_shape(1.0).generate(50, 7);
        let b = PoissonArrivals::paper_shape(1.0).generate(50, 7);
        let c = PoissonArrivals::paper_shape(1.0).generate(50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn jitter_stays_in_band() {
        let reqs = PoissonArrivals::paper_shape(1.0).generate(500, 3);
        for r in &reqs {
            assert!((24..=40).contains(&r.input_tokens), "{:?}", r);
            assert!((48..=80).contains(&r.output_tokens), "{:?}", r);
        }
    }

    #[test]
    fn ids_are_sequential() {
        let reqs = PoissonArrivals::paper_shape(1.0).generate(40, 2);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids follow generation order");
        }
    }

    #[test]
    fn zero_jitter_gives_fixed_shapes() {
        let mut p = PoissonArrivals::paper_shape(1.0);
        p.shape_jitter = 0.0;
        for r in p.generate(20, 4) {
            assert_eq!((r.input_tokens, r.output_tokens), (32, 64));
        }
    }
}
