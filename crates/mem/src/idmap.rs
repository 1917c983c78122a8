//! Hash maps keyed by the simulator's own integer ids.
//!
//! Sequence ids are a per-device counter and request ids come from the
//! trace the simulation's caller built; the serve scheduler looks both up
//! for every live sequence on every simulated iteration. The standard
//! library's randomly-keyed SipHash defends a map against keys chosen to
//! collide, which no such id is, at several times the cost of the one
//! multiply [`IdHasher`] spends — and its fixed key makes the maps the
//! same from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by an integer id, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fibonacci) hasher for integer keys. Multiplying by an
/// odd constant is a bijection on every low-bit window, so consecutive
/// ids land in distinct buckets, while the high bits the table's control
/// bytes use mix every input bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_fixed_and_spread_consecutive_ids() {
        let b = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(b.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(b.hash_one(7u32), b.hash_one(7u64), "u32 and u64 ids hash alike");
        // 1,024 consecutive ids fill 1,024 distinct low-bit buckets.
        let mut low: Vec<u64> = (0..1024u64).map(|i| b.hash_one(i) & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
    }

    #[test]
    fn id_map_round_trips() {
        let mut m: IdMap<u64, f64> = IdMap::default();
        for i in 0..100u64 {
            *m.entry(i * 3).or_insert(0.0) += i as f64;
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&297], 99.0);
        assert!(!m.contains_key(&1));
    }
}
