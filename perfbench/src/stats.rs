//! The benchmark's own statistics: the tail rule, the set-up figure,
//! Python-style quartiles and output digests. Ranks and medians come from
//! `edgellm_trace::stats`, the workspace's single definition of them.

use edgellm_trace::{quantile, Histogram};

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile with the sample that supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value (nearest rank).
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0.5 < q < 1`) of `samples`, refused when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a p90 needs at
/// least 100 samples, a p99 at least 1,000.
pub fn tail(samples: &[f64], q: f64) -> Result<Tail, String> {
    assert!(q > 0.5 && q < 1.0, "tail quantile {q} outside (0.5, 1)");
    let n = samples.len();
    // `quantile` picks 1-based rank ceil(q * n); the rest lie beyond it.
    let beyond = n - ((q * n as f64).ceil() as usize).min(n);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let value = quantile(&Histogram::from_samples(samples.iter().copied()).sorted(), q);
    Ok(Tail { value, samples: n, beyond })
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Histogram::from_samples(samples.iter().copied()).median_interpolated()
}

/// Groups the set-up samples of a run are dealt into by [`setup_time`].
pub const SETUP_GROUPS: usize = 5;

/// Set-up time from the samples taken across a run, warm-up excluded.
/// The samples are dealt in turn into [`SETUP_GROUPS`] groups, so each
/// group spans the whole run; each group keeps its fastest sample, as
/// every other host-time figure keeps the fastest of identical
/// repetitions, and the figure is the median of those. 0 when empty.
pub fn setup_time(samples: &[f64]) -> f64 {
    let groups = SETUP_GROUPS.min(samples.len());
    let fastest = (0..groups)
        .map(|g| Histogram::from_samples(samples.iter().skip(g).step_by(groups).copied()).min());
    Histogram::from_samples(fastest).median_interpolated()
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the acceptance arithmetic exactly.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative when the clamp moved `j` up, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// 64-bit FNV-1a, for pinning output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a word in.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_refuses_percentiles_with_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = tail(&v, 0.9).unwrap_err();
        assert!(err.contains("99 samples") && err.contains("9 beyond"), "{err}");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 0.9).unwrap();
        assert_eq!(t, Tail { value: 90.0, samples: 100, beyond: 10 });
        assert!(tail(&v, 0.99).is_err(), "a p99 needs 1,000 samples");
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).unwrap(), Tail { value: 990.0, samples: 1000, beyond: 10 });
        assert!(tail(&[], 0.9).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn setup_time_is_the_median_of_strided_groups_fastest() {
        // Groups {9, 4}, {1, 3}, {7, 8}, {2, 9}, {6, 5}: fastest 4, 1, 7, 2, 5.
        let v = [9.0, 1.0, 7.0, 2.0, 6.0, 4.0, 3.0, 8.0, 9.0, 5.0];
        assert_eq!(setup_time(&v), 4.0);
        // A slow stretch over a third of the run leaves the figure alone.
        let steady: Vec<f64> = (0..30).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        let mut stretched = steady.clone();
        stretched[10..20].iter_mut().for_each(|x| *x *= 3.0);
        assert_eq!(setup_time(&stretched), setup_time(&steady));
        assert_eq!(setup_time(&[2.0, 3.0]), 2.5);
        assert_eq!(setup_time(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }
}
