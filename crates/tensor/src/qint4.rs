//! Block-wise 4-bit quantile quantization (NF4-style), the paper's INT4
//! configuration (BitsAndBytes `load_in_4bit`).
//!
//! Weights are split into fixed-size blocks along the input dimension; each
//! block stores one f32 absmax scale plus packed 4-bit indices into a
//! 16-level *normal-float* codebook (the information-theoretically optimal
//! levels for N(0,1)-distributed weights, from the QLoRA paper). Matrix
//! products dequantize block-by-block — the heavy dequant arithmetic that
//! drives the INT4 latency/energy penalties in the paper's Figs. 3/10/11.
//!
//! Loading picks each code from the two levels that bracket `w / absmax`
//! (`nearest_level`), the same code a scan of all 16 levels picks.

use crate::matmul::{dequant_reference, drive, policy};
use crate::tensor::Matrix;

/// Elements per quantization block (BitsAndBytes default is 64).
pub const BLOCK: usize = 64;

/// The 16 NF4 codebook levels (ascending, symmetric-ish around 0, ±1 at the
/// extremes) — the published constants from QLoRA (Dettmers et al., 2023).
pub const NF4_LEVELS: [f32; 16] = [
    -1.0,
    -0.696_192_8,
    -0.525_073_05,
    -0.394_917_5,
    -0.284_441_38,
    -0.184_773_43,
    -0.091_050_036,
    0.0,
    0.079_580_3,
    0.160_930_2,
    0.246_112_3,
    0.337_915_24,
    0.440_709_83,
    0.562_617,
    0.722_956_84,
    1.0,
];

/// [`NF4_LEVELS`] of both nibbles of one packed byte, `[low, high]`: one
/// table load decodes a pair of weights. The entries are copies of the
/// levels, so a product through this table has the same bits as one
/// through `NF4_LEVELS`.
static NF4_PAIRS: [[f32; 2]; 256] = {
    let mut t = [[0.0f32; 2]; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = [NF4_LEVELS[b & 0x0f], NF4_LEVELS[b >> 4]];
        b += 1;
    }
    t
};

/// Weight rows per register tile of the fused product.
const TILE: usize = 4;

/// Activation rows per group of the batched product, each group run
/// against one decoded tile.
const GROUP: usize = 8;

/// Nearest codebook index for a normalized value in [−1, 1], the lower
/// index on a tie; NaN maps to 0. Only the two levels that bracket `v`
/// can be nearest: `fl(v − l)` is monotone in `l`, and the levels lie
/// too far apart for two of them to round to one distance. So count the
/// levels ≤ `v` (16 compares, no data-dependent branch) and compare the
/// two distances, the lower index winning a tie as a first-minimum scan
/// does. Checked equal to that scan on every f32 in [−1, 1] and NaN
/// (`nearest_level_matches_the_scan_on_the_unit_interval`, `--ignored`).
#[inline]
fn nearest_level(v: f32) -> u8 {
    let at_or_below = NF4_LEVELS.iter().filter(|&&l| l <= v).count();
    let lo = at_or_below.saturating_sub(1);
    let hi = at_or_below.min(NF4_LEVELS.len() - 1);
    let nearest = if (v - NF4_LEVELS[hi]).abs() < (v - NF4_LEVELS[lo]).abs() { hi } else { lo };
    nearest as u8
}

/// An `(out × in)` weight matrix in blockwise NF4 format.
#[derive(Debug, Clone)]
pub struct QInt4Matrix {
    /// Output features.
    pub rows: usize,
    /// Input features.
    pub cols: usize,
    /// Packed codes: two 4-bit indices per byte, row-major by block.
    packed: Vec<u8>,
    /// One absmax scale per block, row-major.
    scales: Vec<f32>,
    /// Blocks per row.
    blocks_per_row: usize,
}

impl QInt4Matrix {
    /// Quantize an f32 matrix to blockwise NF4.
    pub fn from_f32(w: &Matrix) -> Self {
        let (rows, cols) = (w.rows, w.cols);
        let blocks_per_row = cols.div_ceil(BLOCK);
        let mut packed = vec![0u8; rows * blocks_per_row * BLOCK / 2];
        let mut scales = vec![0.0f32; rows * blocks_per_row];
        for r in 0..rows {
            let row = w.row(r);
            for b in 0..blocks_per_row {
                let start = b * BLOCK;
                let end = (start + BLOCK).min(cols);
                let blk = &row[start..end];
                let absmax = blk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = if absmax > 0.0 { absmax } else { 1.0 };
                scales[r * blocks_per_row + b] = scale;
                for (i, &v) in blk.iter().enumerate() {
                    let code = nearest_level(v / scale);
                    let flat = (r * blocks_per_row + b) * BLOCK + i;
                    let byte = &mut packed[flat / 2];
                    if flat.is_multiple_of(2) {
                        *byte = (*byte & 0xf0) | code;
                    } else {
                        *byte = (*byte & 0x0f) | (code << 4);
                    }
                }
            }
        }
        QInt4Matrix { rows, cols, packed, scales, blocks_per_row }
    }

    /// Storage bytes (packed codes + block scales).
    pub fn bytes(&self) -> usize {
        self.packed.len() + self.scales.len() * 4
    }

    /// Decode one full row into a caller-provided buffer (`cols` long).
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cols);
        for b in 0..self.blocks_per_row {
            let scale = self.scales[r * self.blocks_per_row + b];
            let start = b * BLOCK;
            let end = (start + BLOCK).min(self.cols);
            for (i, o) in out[start..end].iter_mut().enumerate() {
                let flat = (r * self.blocks_per_row + b) * BLOCK + i;
                let byte = self.packed[flat / 2];
                let code = if flat.is_multiple_of(2) { byte & 0x0f } else { byte >> 4 };
                *o = NF4_LEVELS[code as usize] * scale;
            }
        }
    }

    dequant_reference!(decode_row_into);

    /// The `BLOCK / 2` packed bytes of block `b` of weight row `c`. Blocks
    /// are padded to `BLOCK` codes, so the bytes always exist; `BLOCK` is
    /// even, so nibble parity matches the in-block index.
    #[inline]
    fn block_bytes(&self, c: usize, b: usize) -> &[u8] {
        let base2 = (c * self.blocks_per_row + b) * BLOCK / 2;
        &self.packed[base2..base2 + BLOCK / 2]
    }

    /// Columns of block `b`: `start..end`.
    #[inline]
    fn block_span(&self, b: usize) -> (usize, usize) {
        let start = b * BLOCK;
        (start, (start + BLOCK).min(self.cols))
    }

    /// One fused output element: `dot(xr, w.row(c))` accumulated block by
    /// block **directly from the packed nibbles** — no dequantized weight
    /// row is materialized. Per block, the low- and high-nibble lanes
    /// accumulate independently (two ILP chains), combine, and the block
    /// scale is applied once to the partial sum. The accumulation order
    /// depends only on `(xr, c)`, so results are bit-identical across batch
    /// sizes, dispatch paths and thread counts. The tail path of
    /// [`Self::fused_tile`] and its bit-level reference.
    #[inline]
    fn fused_dot(&self, xr: &[f32], c: usize) -> f32 {
        let mut total = 0.0f32;
        for b in 0..self.blocks_per_row {
            let (start, end) = self.block_span(b);
            let nb = end - start;
            let bytes = self.block_bytes(c, b);
            let xs = &xr[start..end];
            let pairs = nb / 2;
            let (mut lo, mut hi) = (0.0f32, 0.0f32);
            for (p, &byte) in bytes[..pairs].iter().enumerate() {
                lo += xs[2 * p] * NF4_LEVELS[(byte & 0x0f) as usize];
                hi += xs[2 * p + 1] * NF4_LEVELS[(byte >> 4) as usize];
            }
            if nb % 2 == 1 {
                lo += xs[nb - 1] * NF4_LEVELS[(bytes[pairs] & 0x0f) as usize];
            }
            total += (lo + hi) * self.scales[c * self.blocks_per_row + b];
        }
        total
    }

    /// [`Self::fused_dot`] for the [`TILE`] weight rows `c..c + TILE` in one
    /// pass over `xr`, reading the packed nibbles. Each activation pair is
    /// loaded once for the tile; each row keeps its own `(lo, hi)` chains
    /// and its own block-scale order, so every result has the bits of
    /// `fused_dot(xr, c + t)` — only independent chains are interleaved.
    #[inline]
    fn fused_dot_x4(&self, xr: &[f32], c: usize) -> [f32; TILE] {
        let mut total = [0.0f32; TILE];
        for b in 0..self.blocks_per_row {
            let (start, end) = self.block_span(b);
            let nb = end - start;
            let pairs = nb / 2;
            let xs = &xr[start..end];
            let bytes: [&[u8]; TILE] = std::array::from_fn(|t| self.block_bytes(c + t, b));
            let (mut lo, mut hi) = ([0.0f32; TILE], [0.0f32; TILE]);
            for (p, x) in xs[..2 * pairs].chunks_exact(2).enumerate() {
                for t in 0..TILE {
                    let [l0, l1] = NF4_PAIRS[bytes[t][p] as usize];
                    lo[t] += x[0] * l0;
                    hi[t] += x[1] * l1;
                }
            }
            if nb % 2 == 1 {
                for t in 0..TILE {
                    lo[t] += xs[nb - 1] * NF4_LEVELS[(bytes[t][pairs] & 0x0f) as usize];
                }
            }
            for t in 0..TILE {
                total[t] += (lo[t] + hi[t]) * self.scales[(c + t) * self.blocks_per_row + b];
            }
        }
        total
    }

    /// Decode the codebook **levels** (unscaled) of weight rows
    /// `c..c + TILE` interleaved: `out[k][t]` is the level of `(c + t, k)`.
    fn decode_levels_x4(&self, c: usize, out: &mut [[f32; TILE]]) {
        debug_assert_eq!(out.len(), self.cols);
        for b in 0..self.blocks_per_row {
            let (start, end) = self.block_span(b);
            for t in 0..TILE {
                let bytes = self.block_bytes(c + t, b);
                for (i, o) in out[start..end].iter_mut().enumerate() {
                    o[t] = NF4_PAIRS[bytes[i / 2] as usize][i % 2];
                }
            }
        }
    }

    /// [`Self::fused_dot_x4`] for the `R` activation rows `r..r + R` of
    /// `x`, reading levels pre-decoded by [`Self::decode_levels_x4`] —
    /// the batch-amortized variant. The interleaved layout puts the tile's
    /// four levels of one column side by side, so each step is one
    /// four-wide multiply-add per activation row against one load of the
    /// level pair. Every (activation row, weight row) pair keeps its own
    /// `(lo, hi)` chains and its own block-scale order, so each lane runs
    /// `fused_dot`'s sequence of operations; a stored level reads back
    /// exactly, so the bits are equal too. `R` rows run `2·R` independent
    /// vector chains, where one row is bound by the add latency of two.
    #[inline]
    fn fused_dot_decoded<const R: usize>(
        &self,
        x: &Matrix,
        r: usize,
        c: usize,
        levels: &[[f32; TILE]],
    ) -> [[f32; TILE]; R] {
        let xr: [&[f32]; R] = std::array::from_fn(|g| x.row(r + g));
        let mut total = [[0.0f32; TILE]; R];
        for b in 0..self.blocks_per_row {
            let (start, end) = self.block_span(b);
            let nb = end - start;
            // Column pairs of the block; every row's pairs have the same
            // length, so the loop indexes them without bounds checks.
            let (lp, _) = levels[start..end].as_chunks::<2>();
            let xs: [&[[f32; 2]]; R] =
                std::array::from_fn(|g| &xr[g][start..end].as_chunks::<2>().0[..lp.len()]);
            let (mut lo, mut hi) = ([[0.0f32; TILE]; R], [[0.0f32; TILE]; R]);
            for (p, [l0, l1]) in lp.iter().enumerate() {
                for g in 0..R {
                    let [x0, x1] = xs[g][p];
                    for t in 0..TILE {
                        lo[g][t] += x0 * l0[t];
                        hi[g][t] += x1 * l1[t];
                    }
                }
            }
            if nb % 2 == 1 {
                for g in 0..R {
                    for t in 0..TILE {
                        lo[g][t] += xr[g][end - 1] * levels[end - 1][t];
                    }
                }
            }
            for t in 0..TILE {
                let scale = self.scales[(c + t) * self.blocks_per_row + b];
                for g in 0..R {
                    total[g][t] += (lo[g][t] + hi[g][t]) * scale;
                }
            }
        }
        total
    }

    /// Fill `out[i·stride + j] = fused_dot(x.row(r0 + i), c0 + j)` for
    /// `i < rows` and `j < cols`. Weight rows go [`TILE`] at a time;
    /// leftover columns take `fused_dot`. How a tile is read depends on
    /// the row count. The numbers that chose it are serial, best of 5–6
    /// alternating runs on a 2-vCPU x86-64 VM, over the Phi-2 up
    /// projection (k = 2560, n = 10240) and one layer of `chat-int4`'s
    /// projections (k = 128 and 384; µs per activation row):
    ///
    /// * One row reads the nibbles directly ([`Self::fused_dot_x4`]).
    ///   Decoding the tile first, as a batch does, took 24.7 against
    ///   10.6 ms at Phi-2 and 132 against 58 µs at `chat-int4`.
    /// * A batch decodes the tile once ([`Self::decode_levels_x4`]) and
    ///   runs [`Self::fused_dot_decoded`] over groups of [`GROUP`] rows,
    ///   then over the leftover rows one at a time. Against single rows
    ///   throughout, groups of eight took 20–25 against 34–36 µs at
    ///   m = 16–64 and 94 against 162 ms at Phi-2 m = 32. Groups of 4, 6
    ///   and 12 took 42–63 µs at m = 32 and 64, where 8 took 32–33. A
    ///   4-row step before the single rows did not pay: at m = 4 it tied
    ///   them at `chat-int4` (62 µs) and lost at Phi-2 (44 against
    ///   37 ms), where LLVM spills and transposes its accumulators.
    #[allow(clippy::too_many_arguments)] // internal kernel: tile coordinates are clearer flat than bundled
    fn fused_tile(
        &self,
        x: &Matrix,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        out: &mut [f32],
        stride: usize,
    ) {
        let mut levels = if rows > 1 { vec![[0.0f32; TILE]; self.cols] } else { Vec::new() };
        let mut j = 0;
        while j + TILE <= cols {
            let c = c0 + j;
            if rows == 1 {
                out[j..j + TILE].copy_from_slice(&self.fused_dot_x4(x.row(r0), c));
            } else {
                self.decode_levels_x4(c, &mut levels);
                let mut put = |i: usize, ys: &[[f32; TILE]]| {
                    for (g, y) in ys.iter().enumerate() {
                        let base = (i + g) * stride + j;
                        out[base..base + TILE].copy_from_slice(y);
                    }
                };
                let mut i = 0;
                while i + GROUP <= rows {
                    put(i, &self.fused_dot_decoded::<GROUP>(x, r0 + i, c, &levels));
                    i += GROUP;
                }
                for i in i..rows {
                    put(i, &self.fused_dot_decoded::<1>(x, r0 + i, c, &levels));
                }
            }
            j += TILE;
        }
        for j in j..cols {
            for i in 0..rows {
                out[i * stride + j] = self.fused_dot(x.row(r0 + i), c0 + j);
            }
        }
    }

    /// `Y = X · Wᵀ` **fused**: accumulates directly from the packed 4-bit
    /// codes (see `fused_dot`), split per [`policy::matmul_quant_nt`].
    /// Every tile runs the same four-row register tile, whose variants all
    /// produce `fused_dot`'s bits, so outputs never depend on the batch
    /// size, dispatch path or thread count.
    pub fn matmul_nt(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, self.cols, "inner dimensions must match");
        let labels = ["qint4_nt.serial", "qint4_nt.rows", "qint4_nt.cols"];
        drive(policy::matmul_quant_nt, labels, (x.rows, self.rows, self.cols), || {
            move |r0, rows, c0, cols, out, stride| {
                self.fused_tile(x, r0, rows, c0, cols, out, stride)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::assert_every_path_is_the_reference;
    use rayon::prelude::*;

    #[test]
    fn codebook_is_sorted_and_spans_unit_interval() {
        for w in NF4_LEVELS.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(NF4_LEVELS[0], -1.0);
        assert_eq!(NF4_LEVELS[15], 1.0);
        assert_eq!(NF4_LEVELS[7], 0.0);
    }

    /// The first-minimum scan over all 16 levels [`nearest_level`]
    /// must reproduce.
    fn scan_level(v: f32) -> u8 {
        let mut best = 0u8;
        let mut best_d = f32::INFINITY;
        for (i, &l) in NF4_LEVELS.iter().enumerate() {
            let d = (v - l).abs();
            if d < best_d {
                best_d = d;
                best = i as u8;
            }
        }
        best
    }

    fn assert_nearest_level_matches(v: f32) {
        assert_eq!(nearest_level(v), scan_level(v), "v = {v:e} ({:#010x})", v.to_bits());
    }

    #[test]
    fn nearest_level_matches_the_scan_on_a_dense_grid() {
        const STEPS: i32 = 1 << 18;
        for i in -STEPS..=STEPS {
            assert_nearest_level_matches(i as f32 / STEPS as f32);
        }
        // Every level and every midpoint, each with its neighbours up to
        // two ulps away: where the bracket and the tie rule decide.
        let mids = NF4_LEVELS.windows(2).map(|w| (w[0] + w[1]) / 2.0);
        for mut v in NF4_LEVELS.into_iter().chain(mids) {
            for _ in 0..2 {
                v = v.next_down();
            }
            for _ in 0..5 {
                assert_nearest_level_matches(v);
                v = v.next_up();
            }
        }
        for v in [0.0, -0.0, f32::NAN, -f32::NAN] {
            assert_nearest_level_matches(v);
        }
    }

    /// Every f32 in [−1, 1] and NaN, the values `w / absmax` can take.
    /// About 25 s in release on two cores; CI runs it with `--ignored`.
    #[test]
    #[ignore = "exhaustive over the 2^31 floats in [-1, 1]; run with --release -- --ignored"]
    fn nearest_level_matches_the_scan_on_the_unit_interval() {
        const ONE: u32 = 0x3f80_0000; // 1.0f32.to_bits()
        let his: Vec<u32> = (0..=ONE >> 24).collect();
        let mismatches: Vec<u64> = his
            .par_iter()
            .map(|&hi| {
                (hi << 24..=(hi << 24 | 0x00ff_ffff).min(ONE))
                    .flat_map(|bits| [bits, bits | 1 << 31])
                    .map(f32::from_bits)
                    .filter(|&v| nearest_level(v) != scan_level(v))
                    .count() as u64
            })
            .collect();
        assert_eq!(mismatches.iter().sum::<u64>(), 0);
        assert_nearest_level_matches(f32::NAN);
    }

    #[test]
    fn roundtrip_error_bounded_by_largest_gap() {
        let w = Matrix::rand_normal(8, 130, 0.02, 1); // non-multiple of BLOCK
        let q = QInt4Matrix::from_f32(&w);
        let back = q.to_f32();
        // Largest inter-level gap is 0.304 of the block absmax (between
        // −1.0 and −0.696) → worst-case error is the half-gap, 0.152.
        for r in 0..w.rows {
            for b in 0..w.cols.div_ceil(BLOCK) {
                let start = b * BLOCK;
                let end = (start + BLOCK).min(w.cols);
                let absmax = w.row(r)[start..end].iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for i in start..end {
                    let err = (w.get(r, i) - back.get(r, i)).abs();
                    assert!(err <= 0.16 * absmax + 1e-7, "err {err} absmax {absmax}");
                }
            }
        }
    }

    #[test]
    fn block_absmax_values_are_exactly_representable() {
        // The extreme levels are ±1, so each block's absmax element is exact.
        let mut w = Matrix::zeros(1, BLOCK);
        w.set(0, 3, 0.7);
        w.set(0, 10, -0.2);
        let q = QInt4Matrix::from_f32(&w);
        let back = q.to_f32();
        assert!((back.get(0, 3) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn qmatmul_close_to_f32_matmul() {
        let x = Matrix::rand_kaiming(3, 128, 2);
        let w = Matrix::rand_normal(12, 128, 0.05, 3);
        let exact = crate::matmul::matmul_nt(&x, &w);
        let approx = QInt4Matrix::from_f32(&w).matmul_nt(&x);
        for (a, b) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((a - b).abs() < 0.15 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn fused_close_to_dequant_reference() {
        // Same codes, different accumulation order (blockwise vs one long
        // dot) — values agree to f32 rounding, not bitwise.
        let x = Matrix::rand_kaiming(3, 200, 6); // non-multiple of BLOCK
        let w = Matrix::rand_normal(20, 200, 0.05, 7);
        let q = QInt4Matrix::from_f32(&w);
        let fused = q.matmul_nt(&x);
        let reference = q.matmul_nt_dequant(&x);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    /// The tiled product against the per-element reference `fused_dot`,
    /// bit for bit, on every split `drive` runs
    /// (`assert_every_path_is_the_reference`): up to three row groups and
    /// up to seven leftover rows per tile.
    fn assert_tiled_matches_reference(k: usize) {
        assert_every_path_is_the_reference(
            k,
            |n| QInt4Matrix::from_f32(&Matrix::rand_normal(n, k, 0.05, n as u64)),
            |q, x| q.matmul_nt(x),
            |q, xr, c| q.fused_dot(xr, c),
        );
    }

    #[test]
    fn tiled_matmul_is_bitwise_the_per_element_reference() {
        // Odd and not a multiple of BLOCK: a 64-wide block, then a short
        // block with a lone low nibble.
        assert_tiled_matches_reference(75);
    }

    #[test]
    fn tiled_matmul_is_bitwise_the_reference_over_many_blocks() {
        // Three blocks, the last one three columns wide; and a single
        // partial block.
        assert_tiled_matches_reference(131);
        assert_tiled_matches_reference(33);
    }

    #[test]
    fn to_f32_into_matches_to_f32() {
        let w = Matrix::rand_normal(5, 130, 0.05, 8);
        let q = QInt4Matrix::from_f32(&w);
        let mut buf = Matrix::zeros(5, 130);
        q.to_f32_into(&mut buf);
        assert_eq!(buf.as_slice(), q.to_f32().as_slice());
    }

    #[test]
    fn int4_is_lossier_than_int8() {
        let w = Matrix::rand_normal(16, 256, 0.05, 4);
        let e8 = {
            let back = crate::qint8::QInt8Matrix::from_f32(&w).to_f32();
            w.as_slice().iter().zip(back.as_slice()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };
        let e4 = {
            let back = QInt4Matrix::from_f32(&w).to_f32();
            w.as_slice().iter().zip(back.as_slice()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
        };
        assert!(e4 > 3.0 * e8, "int4 mse {e4} must exceed int8 mse {e8}");
    }

    #[test]
    fn storage_is_near_half_byte_per_param() {
        let w = Matrix::rand_kaiming(64, 256, 5);
        let q = QInt4Matrix::from_f32(&w);
        let bytes_per_param = q.bytes() as f32 / w.len() as f32;
        assert!(bytes_per_param < 0.6, "bytes/param {bytes_per_param}");
    }
}
