//! The fleet's event index: a tournament tree over per-device event keys.
//!
//! Each device has at most one pending event — a thermal recovery while it
//! is down, its next scheduler turn while it is up — so [`FleetSim`]
//! keeps one [`Key`] per device in a [`Tournament`] and replays only the
//! matches on the path of a device whose key changed. The earliest device
//! event is the root, read in O(1); a change costs O(log n) comparisons.
//!
//! [`FleetSim`]: crate::FleetSim

/// When an event fires and where it sits among same-instant events:
/// ordered by `t`, then `prio`, then `sub`. Times are finite, so `<` and
/// `==` on them form a total order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Key {
    /// Fleet time (s).
    pub(crate) t: f64,
    /// Event class: 0 fault or recovery, 1 arrival, 2 device step.
    pub(crate) prio: u8,
    /// Order within a class: 0 for the next fault, `1 + i` for device
    /// `i`'s recovery, `i` for device `i`'s step.
    pub(crate) sub: usize,
}

impl Key {
    /// Fills an empty leaf; every real key fires before it.
    const EMPTY: Key = Key { t: f64::INFINITY, prio: u8::MAX, sub: usize::MAX };

    /// Whether `self` fires strictly before `other`.
    pub(crate) fn before(&self, other: &Key) -> bool {
        self.t < other.t || (self.t == other.t && (self.prio, self.sub) < (other.prio, other.sub))
    }
}

/// A winner tree over `n` optional keys: every node holds the earliest key
/// of its subtree, so the root holds the earliest of all.
#[derive(Debug, Clone)]
pub(crate) struct Tournament {
    /// Heap-ordered nodes: the root at 1, node `v`'s children at `2v` and
    /// `2v + 1`, leaf `i` at `leaves + i`; [`Key::EMPTY`] where no key is.
    nodes: Vec<Key>,
    leaves: usize,
}

impl Tournament {
    /// An index over `n` empty leaves.
    pub(crate) fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        Tournament { nodes: vec![Key::EMPTY; 2 * leaves], leaves }
    }

    /// Replace leaf `i`'s key and replay the matches above it. On a tie
    /// the left subtree wins.
    pub(crate) fn set(&mut self, i: usize, key: Option<Key>) {
        let mut v = self.leaves + i;
        self.nodes[v] = key.unwrap_or(Key::EMPTY);
        while v > 1 {
            v /= 2;
            let (a, b) = (self.nodes[2 * v], self.nodes[2 * v + 1]);
            self.nodes[v] = if b.before(&a) { b } else { a };
        }
    }

    /// The earliest key, if any leaf holds one.
    pub(crate) fn min(&self) -> Option<Key> {
        let k = self.nodes[1];
        (k != Key::EMPTY).then_some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(t: f64, i: usize) -> Option<Key> {
        Some(Key { t, prio: 2, sub: i })
    }

    /// The earliest key by a linear scan, the reference the tree must match.
    fn scan(keys: &[Option<Key>]) -> Option<Key> {
        let mut best: Option<Key> = None;
        for k in keys.iter().flatten() {
            if best.is_none_or(|b| k.before(&b)) {
                best = Some(*k);
            }
        }
        best
    }

    #[test]
    fn key_orders_by_time_then_class_then_sub() {
        let k = |t, prio, sub| Key { t, prio, sub };
        assert!(k(1.0, 2, 9).before(&k(2.0, 0, 0)));
        assert!(k(1.0, 0, 0).before(&k(1.0, 0, 1)), "fault before recovery");
        assert!(k(1.0, 0, 5).before(&k(1.0, 1, 0)), "recovery before arrival");
        assert!(k(1.0, 1, 0).before(&k(1.0, 2, 0)), "arrival before step");
        assert!(k(-0.0, 2, 0).before(&k(0.0, 2, 1)), "signed zeros tie on time");
        assert!(!k(1.0, 2, 3).before(&k(1.0, 2, 3)));
        assert!(k(1e300, 2, 99).before(&Key::EMPTY));
    }

    #[test]
    fn empty_and_single_leaf() {
        assert_eq!(Tournament::new(0).min(), None);
        let mut t = Tournament::new(1);
        assert_eq!(t.min(), None);
        t.set(0, step(3.0, 0));
        assert_eq!(t.min(), step(3.0, 0));
        t.set(0, None);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn matches_a_linear_scan_under_random_updates() {
        // Deterministic LCG-driven updates over an odd leaf count (so the
        // padding leaves are exercised), with ties on time.
        let n = 37;
        let mut t = Tournament::new(n);
        let mut keys = vec![None; n];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize % n;
            let key = match (x >> 20) % 5 {
                0 => None,
                1 => Some(Key { t: ((x >> 40) % 8) as f64, prio: 0, sub: 1 + i }),
                _ => step(((x >> 40) % 8) as f64, i),
            };
            keys[i] = key;
            t.set(i, key);
            assert_eq!(t.min(), scan(&keys));
        }
    }
}
