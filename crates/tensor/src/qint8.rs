//! Row-wise absmax INT8 weights with outlier-column decomposition —
//! the `LLM.int8()` scheme (Dettmers et al., NeurIPS 2022) the paper uses
//! via BitsAndBytes.
//!
//! Each weight row is quantized as `w ≈ scale · q` with `q ∈ [−127, 127]`
//! and `scale = absmax/127`, **except** for a small set of *outlier columns*
//! (input features with unusually large magnitude) which stay in f32 and are
//! multiplied separately. This mixed decomposition is what preserves
//! accuracy at 8 bits — and its extra kernel launches/bookkeeping are the
//! mechanism behind the paper's finding that INT8 *slows down* small models
//! (§3.3).
//!
//! The fused product also quantizes each activation row per call, work
//! that scales with the inputs, not the MACs: 1/n of a product with n
//! weight rows. It is one exact pass with no libm call (`round_code`),
//! so it vectorizes; at `perfbench`'s `rag-int8` shapes (n = 64–512) the
//! scalar `roundf` loop it replaced took about a quarter of the product.

use crate::matmul::{dequant_reference, dot, drive, policy};
use crate::tensor::Matrix;

/// Integer dot product of an activation row and a code row, accumulated
/// exactly in i32.
///
/// 8-lane unrolled like [`dot`]; integer addition is associative, so the
/// result is exact and independent of lane structure — the kernel is
/// deterministic by construction.
#[inline]
fn idot(a: &[i16], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0i32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let j = i * 8;
        for l in 0..8 {
            acc[l] += a[j + l] as i32 * b[j + l] as i32;
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for j in chunks * 8..a.len() {
        s += a[j] as i32 * b[j] as i32;
    }
    s
}

/// Weight rows per register tile of the fused product.
const TILE: usize = 4;

/// Activation elements per chunk of the tiled micro-kernel.
const LANES: usize = 16;

/// Widen the whole `LANES`-wide chunks of four code rows to i16 for
/// [`idot_x4`], interleaved by chunk: chunk `c` of row `t` lands at
/// `wide[(c·TILE + t)·LANES..]`, so one activation chunk meets its four
/// weight chunks in one contiguous `TILE·LANES` run. `wide` holds exactly
/// the rows' whole chunks.
fn widen_x4(w: [&[i8]; TILE], wide: &mut [i16]) {
    for (c, dst) in wide.chunks_exact_mut(TILE * LANES).enumerate() {
        for (d, r) in dst.chunks_exact_mut(LANES).zip(w) {
            let src: &[i8; LANES] =
                r[c * LANES..(c + 1) * LANES].try_into().expect("a whole chunk");
            d.copy_from_slice(&src.map(i16::from));
        }
    }
}

/// Register-tiled micro-kernel: [`idot`] of `x` against four code rows,
/// read from their widened copy `wide` (see [`widen_x4`]) up to the last
/// whole chunk and from the i8 rows `w` after it. Each `LANES`-wide
/// activation chunk is loaded once for all four rows, and each i32 lane
/// takes one adjacent pair of i16 products, `x[2l]·w[2l] + x[2l+1]·w[2l+1]`,
/// which LLVM vectorizes with `pmaddwd` on baseline x86-64. Products and
/// sums are exact integers, so every result equals `idot(x, w[t])`
/// whatever the lane structure.
#[inline]
fn idot_x4(x: &[i16], wide: &[i16], w: [&[i8]; TILE]) -> [i32; TILE] {
    let mut acc = [[0i32; LANES / 2]; TILE];
    for (xc, wc) in x.chunks_exact(LANES).zip(wide.chunks_exact(TILE * LANES)) {
        for (a, c) in acc.iter_mut().zip(wc.chunks_exact(LANES)) {
            for ((s, xp), wp) in a.iter_mut().zip(xc.chunks_exact(2)).zip(c.chunks_exact(2)) {
                *s += xp[0] as i32 * wp[0] as i32 + xp[1] as i32 * wp[1] as i32;
            }
        }
    }
    let body = x.len() - x.len() % LANES;
    let mut out = acc.map(|a| a.iter().sum::<i32>());
    for (o, r) in out.iter_mut().zip(w) {
        for (&a, &b) in x[body..].iter().zip(&r[body..]) {
            *o += a as i32 * b as i32;
        }
    }
    out
}

/// `q.round().clamp(-127.0, 127.0) as i16` — round half away from zero,
/// saturate to the INT8 code range, NaN to 0 — with no libm call and no
/// float-to-int cast, so a loop over it vectorizes. The clamp comes first
/// (rounding is monotone and ±127 are integers, so the order cannot
/// change a result). Adding 1.5·2^23 to |q| ≤ 127 rounds it to an
/// integer, half to even, exactly, and leaves that integer in the low
/// mantissa bits of the sum; `|q|` minus the rounded value is exact, so a
/// tie shows as exactly 0.5 and moves away from zero. Checked equal to
/// the libm form on every f32 (`round_code_matches_libm_on_every_f32`,
/// run with `--ignored`).
#[inline]
fn round_code(q: f32) -> i16 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2^23
    let c = q.clamp(-127.0, 127.0);
    let a = if c.is_nan() { 0.0 } else { c.abs() };
    let t = a + MAGIC;
    let n = (t.to_bits() - MAGIC.to_bits()) as i32 + i32::from(a - (t - MAGIC) == 0.5);
    (if c.is_sign_negative() { -n } else { n }) as i16
}

/// Absmax of `x` over eight independent `max` lanes. `f32::max` is
/// exact and ignores NaN, so the lane order cannot change the result: it
/// is the sequential fold's, and LLVM vectorizes it.
#[inline]
fn absmax(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let chunks = x.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v.abs());
        }
    }
    for (m, &v) in lanes.iter_mut().zip(tail) {
        *m = m.max(v.abs());
    }
    lanes.into_iter().fold(0.0, f32::max)
}

/// One activation row, pre-quantized for the fused INT8 product: the
/// inlier features as INT8 codes (held in i16, the width [`idot_x4`]
/// multiplies at) with their absmax scale, and the outlier
/// features gathered as f32. Computed **once per activation row** and
/// shared across every weight row (and every column-parallel segment).
struct QuantizedRow {
    x_in: Vec<i16>,
    xs: f32,
    x_out: Vec<f32>,
}

/// Default outlier threshold: columns whose maximum |w| exceeds this factor
/// times the matrix-wide mean absmax are kept in f32. LLM.int8() thresholds
/// activations at 6.0; for a weight-side proxy the same constant works.
pub const DEFAULT_OUTLIER_FACTOR: f32 = 6.0;

/// An `(out × in)` weight matrix quantized to INT8 row-wise, with optional
/// outlier columns retained in f32.
#[derive(Debug, Clone)]
pub struct QInt8Matrix {
    /// Output features (rows).
    pub rows: usize,
    /// Input features (columns), including outlier columns.
    pub cols: usize,
    /// Quantized codes for non-outlier columns, row-major
    /// `(rows × inlier_cols)`.
    codes: Vec<i8>,
    /// Per-row dequantization scale.
    scales: Vec<f32>,
    /// Sorted indices of outlier columns.
    outlier_cols: Vec<u32>,
    /// f32 weights of the outlier columns, row-major `(rows × n_outliers)`.
    outlier_weights: Vec<f32>,
    /// Indices of the inlier columns (complement of `outlier_cols`).
    inlier_cols: Vec<u32>,
}

impl QInt8Matrix {
    /// Quantize with the default outlier factor.
    pub fn from_f32(w: &Matrix) -> Self {
        Self::from_f32_with_factor(w, DEFAULT_OUTLIER_FACTOR)
    }

    /// Quantize, keeping columns whose absmax exceeds
    /// `factor × mean(column absmax)` in f32. Pass `f32::INFINITY` to
    /// disable the outlier path (pure INT8 — the ablation baseline).
    pub fn from_f32_with_factor(w: &Matrix, factor: f32) -> Self {
        let (rows, cols) = (w.rows, w.cols);
        // Column absmax scan.
        let mut col_absmax = vec![0.0f32; cols];
        for r in 0..rows {
            for (c, &v) in w.row(r).iter().enumerate() {
                col_absmax[c] = col_absmax[c].max(v.abs());
            }
        }
        let mean_absmax = col_absmax.iter().sum::<f32>() / cols.max(1) as f32;
        let threshold = factor * mean_absmax;
        let (outlier_cols, inlier_cols): (Vec<u32>, Vec<u32>) =
            (0..cols as u32).partition(|&c| col_absmax[c as usize] > threshold);

        let n_in = inlier_cols.len();
        let n_out = outlier_cols.len();
        let mut codes = vec![0i8; rows * n_in];
        let mut scales = vec![0.0f32; rows];
        let mut outlier_weights = vec![0.0f32; rows * n_out];
        for r in 0..rows {
            let row = w.row(r);
            let mut absmax = 0.0f32;
            for &c in &inlier_cols {
                absmax = absmax.max(row[c as usize].abs());
            }
            let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
            scales[r] = scale;
            for (j, &c) in inlier_cols.iter().enumerate() {
                codes[r * n_in + j] = round_code(row[c as usize] / scale) as i8;
            }
            for (j, &c) in outlier_cols.iter().enumerate() {
                outlier_weights[r * n_out + j] = row[c as usize];
            }
        }
        QInt8Matrix { rows, cols, codes, scales, outlier_cols, outlier_weights, inlier_cols }
    }

    /// Number of outlier columns kept in f32.
    pub fn n_outliers(&self) -> usize {
        self.outlier_cols.len()
    }

    /// Storage bytes (codes + scales + outlier weights + index tables).
    pub fn bytes(&self) -> usize {
        self.codes.len()
            + self.scales.len() * 4
            + self.outlier_weights.len() * 4
            + (self.outlier_cols.len() + self.inlier_cols.len()) * 4
    }

    /// Dequantize one weight row into a caller-provided buffer
    /// (`cols` long). Inlier and outlier columns together cover every
    /// column, so the buffer is fully overwritten.
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cols);
        let n_in = self.inlier_cols.len();
        let n_out = self.outlier_cols.len();
        let s = self.scales[r];
        for (j, &c) in self.inlier_cols.iter().enumerate() {
            out[c as usize] = self.codes[r * n_in + j] as f32 * s;
        }
        for (j, &c) in self.outlier_cols.iter().enumerate() {
            out[c as usize] = self.outlier_weights[r * n_out + j];
        }
    }

    dequant_reference!(dequantize_row_into);

    /// Quantize one activation row for the fused product, in one
    /// branch-free pass over its inlier features gathered contiguously
    /// (a plain copy when there are no outlier columns): the absmax over
    /// eight `max` lanes, then [`round_code`] of each `v / xs`. The codes
    /// and scale are those of `(v / xs).round()` over the features in
    /// column order, bit for bit; with no libm call left, LLVM vectorizes
    /// the divide, the max and the rounding.
    fn quantize_row(&self, xr: &[f32]) -> QuantizedRow {
        let x: Vec<f32> = self.inlier_cols.iter().map(|&c| xr[c as usize]).collect();
        let absmax = absmax(&x);
        let xs = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        let x_in: Vec<i16> = x.iter().map(|&v| round_code(v / xs)).collect();
        let x_out: Vec<f32> = self.outlier_cols.iter().map(|&c| xr[c as usize]).collect();
        QuantizedRow { x_in, xs, x_out }
    }

    /// Packed inlier codes of weight row `c`.
    #[inline]
    fn code_row(&self, c: usize) -> &[i8] {
        let n_in = self.inlier_cols.len();
        &self.codes[c * n_in..(c + 1) * n_in]
    }

    /// Close one output element from its exact i32 inlier product: scale
    /// it, then add the f32 outlier dot.
    #[inline]
    fn finish_elem(&self, q: &QuantizedRow, c: usize, int: i32) -> f32 {
        let n_out = self.outlier_cols.len();
        let int_part = int as f32 * q.xs * self.scales[c];
        let fp_part = if n_out > 0 {
            dot(&q.x_out, &self.outlier_weights[c * n_out..(c + 1) * n_out])
        } else {
            0.0
        };
        int_part + fp_part
    }

    /// One fused output element: exact i32 inlier product + f32 outlier
    /// dot. The tail path of [`Self::fused_tile`] and its bit-level
    /// reference.
    #[inline]
    fn fused_elem(&self, q: &QuantizedRow, c: usize) -> f32 {
        self.finish_elem(q, c, idot(&q.x_in, self.code_row(c)))
    }

    /// Fill `out[i·stride + j] = fused_elem(qrows[i], c0 + j)` for every
    /// activation row `i` and `j < cols`. Weight rows go [`TILE`] at a
    /// time: each tile of code rows is widened to i16 once per call, into
    /// one buffer reused for every tile, and every activation row runs
    /// [`idot_x4`] against it; leftover columns take `fused_elem`.
    fn fused_tile(
        &self,
        qrows: &[QuantizedRow],
        c0: usize,
        cols: usize,
        out: &mut [f32],
        stride: usize,
    ) {
        let n_in = self.inlier_cols.len();
        let mut wide = vec![0i16; TILE * (n_in - n_in % LANES)];
        let mut j = 0;
        while j + TILE <= cols {
            let c = c0 + j;
            let w = [
                self.code_row(c),
                self.code_row(c + 1),
                self.code_row(c + 2),
                self.code_row(c + 3),
            ];
            widen_x4(w, &mut wide);
            for (i, q) in qrows.iter().enumerate() {
                let ints = idot_x4(&q.x_in, &wide, w);
                for (t, &int) in ints.iter().enumerate() {
                    out[i * stride + j + t] = self.finish_elem(q, c + t, int);
                }
            }
            j += TILE;
        }
        for j in j..cols {
            for (i, q) in qrows.iter().enumerate() {
                out[i * stride + j] = self.fused_elem(q, c0 + j);
            }
        }
    }

    /// `Y = X · Wᵀ` through the mixed INT8 + f32-outlier path, **fused**:
    /// the inlier product accumulates in i32 directly from the packed i8
    /// codes — no dequantized f32 weight row is ever materialized.
    ///
    /// Activations are quantized per row to INT8 (absmax) exactly once per
    /// call, inside the call's timer, and shared across all weight rows.
    /// Every tile runs `fused_tile` over those rows: weight-tile
    /// outer, batch-row inner, so each code tile is widened to i16 once per
    /// tile call and every row of the tile reuses it. The same two-stream
    /// structure as the LLM.int8() CUDA kernels. Split per
    /// [`policy::matmul_int8_nt`]; deterministic for any thread count or
    /// dispatch path (the i32 stream is exact; the f32 outlier stream has a
    /// fixed per-element order).
    pub fn matmul_nt(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, self.cols, "inner dimensions must match");
        let labels = ["qint8_nt.serial", "qint8_nt.rows", "qint8_nt.cols"];
        drive(policy::matmul_int8_nt, labels, (x.rows, self.rows, self.cols), || {
            let qrows: Vec<QuantizedRow> = {
                #[cfg(feature = "trace")]
                let _t =
                    edgellm_trace::kernels::timer("qint8_nt.quantize", (x.rows * self.cols) as u64);
                (0..x.rows).map(|r| self.quantize_row(x.row(r))).collect()
            };
            move |r0, rows, c0, cols, out, stride| {
                self.fused_tile(&qrows[r0..r0 + rows], c0, cols, out, stride)
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
    fn roundtrip_error_bounded_by_half_step() {
        let w = Matrix::rand_kaiming(16, 64, 1);
        let q = QInt8Matrix::from_f32(&w);
        let back = q.to_f32();
        for r in 0..w.rows {
            let absmax = w.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let step = absmax / 127.0;
            for (a, b) in w.row(r).iter().zip(back.row(r)) {
                assert!((a - b).abs() <= 0.51 * step, "{a} vs {b} step {step}");
            }
        }
    }

    #[test]
    fn outlier_columns_are_exact() {
        // Plant a huge column; it must be detected and stored losslessly.
        let mut w = Matrix::rand_kaiming(8, 32, 2);
        for r in 0..8 {
            w.set(r, 5, 40.0 + r as f32);
        }
        let q = QInt8Matrix::from_f32(&w);
        assert!(q.n_outliers() >= 1);
        let back = q.to_f32();
        for r in 0..8 {
            assert_eq!(back.get(r, 5), 40.0 + r as f32);
        }
    }

    #[test]
    fn disabled_outliers_keeps_all_columns_quantized() {
        let mut w = Matrix::rand_kaiming(8, 32, 3);
        w.set(0, 5, 100.0);
        let q = QInt8Matrix::from_f32_with_factor(&w, f32::INFINITY);
        assert_eq!(q.n_outliers(), 0);
        // Without the outlier path the planted column wrecks that row's
        // precision for all other entries (the LLM.int8() motivation).
        let back = q.to_f32();
        let err: f32 =
            w.row(0).iter().zip(back.row(0)).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(err > 0.1, "expected visible degradation, max err {err}");
    }

    #[test]
    fn qmatmul_close_to_f32_matmul() {
        let x = Matrix::rand_kaiming(4, 128, 4);
        let w = Matrix::rand_kaiming(16, 128, 5);
        let exact = crate::matmul::matmul_nt(&x, &w);
        let approx = QInt8Matrix::from_f32(&w).matmul_nt(&x);
        for (a, b) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((a - b).abs() < 0.05 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn outlier_decomposition_beats_pure_int8_with_planted_outliers() {
        let mut w = Matrix::rand_kaiming(16, 128, 6);
        for r in 0..16 {
            w.set(r, 7, 30.0);
            w.set(r, 99, -25.0);
        }
        let x = Matrix::rand_kaiming(4, 128, 7);
        let exact = crate::matmul::matmul_nt(&x, &w);
        let err = |m: &Matrix| -> f32 {
            m.as_slice().iter().zip(exact.as_slice()).map(|(a, b)| (a - b).abs()).sum::<f32>()
        };
        let with = err(&QInt8Matrix::from_f32(&w).matmul_nt(&x));
        let without = err(&QInt8Matrix::from_f32_with_factor(&w, f32::INFINITY).matmul_nt(&x));
        assert!(with < without * 0.5, "with={with} without={without}");
    }

    #[test]
    fn storage_is_about_a_quarter_of_f32() {
        let w = Matrix::rand_kaiming(64, 256, 8);
        let q = QInt8Matrix::from_f32(&w);
        let f32_bytes = w.len() * 4;
        assert!(q.bytes() < f32_bytes / 3, "{} vs {}", q.bytes(), f32_bytes);
    }

    #[test]
    fn fused_close_to_dequant_reference() {
        // The fused path additionally quantizes activations, so the two
        // agree only to INT8 precision — but must stay close.
        let x = Matrix::rand_kaiming(3, 256, 10);
        let w = Matrix::rand_kaiming(24, 256, 11);
        let q = QInt8Matrix::from_f32(&w);
        let fused = q.matmul_nt(&x);
        let reference = q.matmul_nt_dequant(&x);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 0.05 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn to_f32_into_matches_to_f32() {
        let w = Matrix::rand_kaiming(6, 40, 12);
        let q = QInt8Matrix::from_f32(&w);
        let mut buf = Matrix::zeros(6, 40);
        q.to_f32_into(&mut buf);
        assert_eq!(buf.as_slice(), q.to_f32().as_slice());
    }

    /// `quantize_row` as a plain libm loop: the absmax folded in column
    /// order, then `(v / xs).round()` per inlier feature.
    fn reference_row(q: &QInt8Matrix, xr: &[f32]) -> QuantizedRow {
        let absmax = q.inlier_cols.iter().fold(0.0f32, |m, &c| m.max(xr[c as usize].abs()));
        let xs = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        let x_in = q.inlier_cols.iter().map(|&c| libm_code(xr[c as usize] / xs)).collect();
        let x_out = q.outlier_cols.iter().map(|&c| xr[c as usize]).collect();
        QuantizedRow { x_in, xs, x_out }
    }

    /// The tiled product against the per-element reference `fused_elem`
    /// over [`reference_row`]'s quantization, bit for bit, on every split
    /// `drive` runs (`assert_every_path_is_the_reference`). `k` inputs
    /// per row, two of them planted outlier columns when `outliers` is
    /// set; those are detected at a factor of 2, since at 6 two planted
    /// columns cannot stand out from a mean over k ≤ 12 columns.
    fn assert_tiled_matches_reference(k: usize, outliers: bool) {
        let weights = |n| {
            let mut w = Matrix::rand_kaiming(n, k, n as u64);
            if outliers {
                for r in 0..n {
                    w.set(r, 3, 30.0 + r as f32 * 0.01);
                    w.set(r, k - 2, -25.0);
                }
            }
            let factor = if outliers { 2.0 } else { DEFAULT_OUTLIER_FACTOR };
            let q = QInt8Matrix::from_f32_with_factor(&w, factor);
            assert_eq!(q.n_outliers(), if outliers { 2 } else { 0 }, "k={k} n={n}");
            q
        };
        assert_every_path_is_the_reference(
            k,
            weights,
            |q, x| q.matmul_nt(x),
            |q, xr, c| q.fused_elem(&reference_row(q, xr), c),
        );
    }

    /// k = 7 is below one `LANES` chunk (tail only), 16 exactly one chunk,
    /// 75 four chunks and an 11-element tail, 131 eight chunks and a
    /// 3-element tail.
    const TILED_KS: [usize; 4] = [7, 16, 75, 131];

    #[test]
    fn tiled_matmul_is_bitwise_the_per_element_reference() {
        for k in TILED_KS {
            assert_tiled_matches_reference(k, false);
        }
    }

    #[test]
    fn tiled_matmul_is_bitwise_the_reference_with_outliers() {
        for k in TILED_KS {
            assert_tiled_matches_reference(k, true);
        }
    }

    /// The rounding [`round_code`] must reproduce bit for bit.
    fn libm_code(q: f32) -> i16 {
        q.round().clamp(-127.0, 127.0) as i16
    }

    fn assert_round_code_matches(q: f32) {
        assert_eq!(round_code(q), libm_code(q), "q = {q:e} ({:#010x})", q.to_bits());
    }

    #[test]
    fn round_code_matches_libm_on_a_dense_grid_and_the_special_values() {
        // Every multiple of 2^-8 in [-260, 260] (so every .5 tie and the
        // clamp edges) and both its neighbours one ulp away.
        for i in -260 * 256..=260 * 256 {
            let q = i as f32 / 256.0;
            for v in [q, q.next_down(), q.next_up()] {
                assert_round_code_matches(v);
            }
        }
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            0.5f32.next_down(),
            126.5,
            127.5,
            128.0,
            8_388_608.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
        ];
        for v in specials {
            assert_round_code_matches(v);
            assert_round_code_matches(-v);
        }
    }

    /// Every f32 bit pattern, split over the pool. About 20 s in release
    /// on two cores; CI runs it with `--ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run with --release -- --ignored"]
    fn round_code_matches_libm_on_every_f32() {
        let his: Vec<u32> = (0..256).collect();
        let mismatches: Vec<u64> = his
            .par_iter()
            .map(|&hi| {
                (0..1u32 << 24)
                    .map(|lo| f32::from_bits(hi << 24 | lo))
                    .filter(|&q| round_code(q) != libm_code(q))
                    .count() as u64
            })
            .collect();
        assert_eq!(mismatches.iter().sum::<u64>(), 0);
    }

    #[test]
    fn absmax_is_the_sequential_fold() {
        let mut x: Vec<f32> = Matrix::rand_normal(1, 37, 1.0, 40).as_slice().to_vec();
        x[5] = f32::NAN;
        x[30] = -3.5;
        for n in 0..=x.len() {
            let seq = x[..n].iter().fold(0.0f32, |m, v| m.max(v.abs()));
            assert_eq!(absmax(&x[..n]).to_bits(), seq.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn zero_matrix_is_handled() {
        let w = Matrix::zeros(4, 8);
        let q = QInt8Matrix::from_f32(&w);
        let x = Matrix::rand_kaiming(2, 8, 9);
        let y = q.matmul_nt(&x);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}
