//! Seeded input generators. Every input a workload feeds the program is
//! made here or by `edgellm_core::PoissonArrivals` from `--seed`; the
//! program sees only the result.

use edgellm_core::Request;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input `stream` of a run with `seed`, so
    /// independent inputs never share a sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = crate::stats::Digest::default();
        h.bytes(stream.as_bytes());
        Rng(seed ^ h.value())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    fn tokens(&mut self, n: usize, vocab: u32) -> Vec<u32> {
        (0..n).map(|_| self.below(u64::from(vocab)) as u32).collect()
    }
}

/// `n` lengths dealt evenly over the grid `lo, lo + step, …, hi`, in
/// seeded order. Stratifying keeps the length mix — and so the median
/// prompt cost — the same for every seed, and a coarse grid gives every
/// prefill shape many repetitions per pass; the seed decides which
/// request gets which length.
fn stratified_lengths(rng: &mut Rng, n: usize, (lo, hi, step): Lengths) -> Vec<usize> {
    let grid = (hi - lo) / step + 1;
    let mut lens: Vec<usize> = (0..n).map(|i| lo + (i * grid / n.max(1)) * step).collect();
    rng.shuffle(&mut lens);
    lens
}

/// Prompt lengths `lo..=hi` on a grid of `step`.
pub type Lengths = (usize, usize, usize);

/// Chat prompts: `n` prompts of uniformly random tokens.
pub fn chat_prompts(seed: u64, n: usize, lens: Lengths, vocab: u32) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, "chat-prompts");
    stratified_lengths(&mut rng, n, lens).into_iter().map(|len| rng.tokens(len, vocab)).collect()
}

/// Retrieval-style prompts: each of the `n` prompts stitches a few
/// passages from a small seeded pool, repeating them until it reaches
/// the length drawn for it, so prompt-lookup drafting finds n-grams to copy.
pub fn rag_prompts(seed: u64, n: usize, lens: Lengths, vocab: u32) -> Vec<Vec<u32>> {
    const POOL: usize = 8;
    const PER_PROMPT: usize = 3;
    let mut rng = Rng::new(seed, "rag-prompts");
    let pool: Vec<Vec<u32>> = (0..POOL)
        .map(|_| {
            let len = 12 + rng.below(21) as usize;
            rng.tokens(len, vocab)
        })
        .collect();
    stratified_lengths(&mut rng, n, lens)
        .into_iter()
        .map(|len| {
            let picks: Vec<usize> =
                (0..PER_PROMPT).map(|_| rng.below(POOL as u64) as usize).collect();
            let mut p = Vec::with_capacity(len + 32);
            while p.len() < len {
                p.extend_from_slice(&pool[picks[rng.below(PER_PROMPT as u64) as usize]]);
            }
            p.truncate(len);
            p
        })
        .collect()
}

/// Prompt token ids for the requests of `trace` with even ids: a shared
/// `prefix`-token system prompt followed by request-unique tokens. The
/// odd half carries no ids and shares nothing.
pub fn shared_prompts(seed: u64, trace: &[Request], prefix: usize) -> Vec<(u64, Vec<u32>)> {
    const VOCAB: u32 = 32_000;
    let mut rng = Rng::new(seed, "shared-prompts");
    let system = rng.tokens(prefix, VOCAB);
    trace
        .iter()
        .filter(|r| r.id % 2 == 0)
        .map(|r| {
            let mut p = system.clone();
            let rest = (r.input_tokens as usize).saturating_sub(prefix);
            p.extend(rng.tokens(rest, VOCAB));
            p.truncate(r.input_tokens as usize);
            (r.id, p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let (c, r) = ((16, 64, 8), (48, 64, 4));
        assert_eq!(chat_prompts(7, 50, c, 512), chat_prompts(7, 50, c, 512));
        assert_ne!(chat_prompts(7, 50, c, 512), chat_prompts(8, 50, c, 512));
        assert_eq!(rag_prompts(7, 50, r, 512), rag_prompts(7, 50, r, 512));
        assert_ne!(rag_prompts(7, 50, r, 512), rag_prompts(8, 50, r, 512));
        let a = crate::sim::serve_pressure().trace(7);
        assert_eq!(a, crate::sim::serve_pressure().trace(7));
        assert_ne!(a, crate::sim::serve_pressure().trace(8));
        assert_eq!(shared_prompts(7, &a, 256), shared_prompts(7, &a, 256));
        assert_ne!(shared_prompts(7, &a, 256), shared_prompts(8, &a, 256));
    }

    #[test]
    fn shapes_stay_in_range_and_length_mix_is_seed_independent() {
        for seed in 0..4 {
            let p = chat_prompts(seed, 100, (16, 64, 8), 512);
            assert!(p.iter().all(|x| x.len() % 8 == 0 && (16..=64).contains(&x.len())));
            assert!(p.iter().flatten().all(|&t| t < 512));
            let mut lens: Vec<usize> = p.iter().map(Vec::len).collect();
            lens.sort_unstable();
            let mut base: Vec<usize> =
                chat_prompts(99, 100, (16, 64, 8), 512).iter().map(Vec::len).collect();
            base.sort_unstable();
            assert_eq!(lens, base, "stratified lengths");
            assert_eq!(lens.iter().filter(|&&l| l == 64).count(), 14, "7 lengths share 100");
            let r = rag_prompts(seed, 100, (48, 64, 4), 512);
            assert!(r.iter().all(|x| (48..=64).contains(&x.len())));
        }
        let t = crate::sim::serve_pressure().trace(3);
        assert_eq!(t.len(), 2000);
        assert!(t.iter().all(|r| (288..=480).contains(&r.input_tokens)));
        let shared = shared_prompts(3, &t, 256);
        assert_eq!(shared.len(), 1000);
        assert!(shared.iter().all(|(id, p)| p.len() as u64 == t[*id as usize].input_tokens));
        assert!(shared.windows(2).all(|w| w[0].1[..256] == w[1].1[..256]));
    }
}
