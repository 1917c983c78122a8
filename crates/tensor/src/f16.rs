//! Bit-level IEEE binary16 (half precision) codec and weight storage.
//!
//! Implemented from scratch (no `half` dependency): conversion uses
//! round-to-nearest-even, handles subnormals, infinities and NaN, and is
//! property-tested against exactness/monotonicity invariants.

use crate::matmul::{dequant_reference, dot, drive, policy};
use crate::tensor::Matrix;
use std::sync::OnceLock;

/// The 65536-entry f16→f32 table: every half-precision bit pattern,
/// expanded once by the arithmetic converter. The input space is only
/// 2¹⁶ wide, so one 256 KiB table replaces the branchy bit-twiddling in
/// the decode hot loop — the fix for the fused-f16 decode regression,
/// where per-element conversion cost dominated the single-row products.
/// Entries are bit-exact copies of [`f16_to_f32_arith`]'s results
/// (including NaN payloads), so nothing downstream can tell them apart.
static F16_LUT: OnceLock<Vec<f32>> = OnceLock::new();

/// The table, built on first use.
#[inline]
fn f16_lut() -> &'static [f32] {
    F16_LUT.get_or_init(|| (0..=u16::MAX).map(f16_to_f32_arith).collect())
}

/// Fused dot product of an f32 activation row against an f16 weight row,
/// converting each weight element inline (no dequantized scratch row).
///
/// The table lookup is exact and the lane structure mirrors
/// [`dot`](crate::matmul::dot), so this is **bit-identical** to
/// `dot(xr, dequantized_row)`.
#[inline]
fn f16_dot(xr: &[f32], wr: &[u16]) -> f32 {
    debug_assert_eq!(xr.len(), wr.len());
    let lut = f16_lut();
    let mut acc = [0.0f32; 8];
    let chunks = xr.len() / 8;
    for i in 0..chunks {
        let j = i * 8;
        for l in 0..8 {
            acc[l] += xr[j + l] * lut[wr[j + l] as usize];
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for j in chunks * 8..xr.len() {
        s += xr[j] * lut[wr[j] as usize];
    }
    s
}

/// Convert an `f32` to its nearest IEEE binary16 bit pattern
/// (round-to-nearest-even, overflow → ±inf).
pub fn f32_to_f16(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep a quiet-NaN payload bit if any mantissa bit set.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Unbiased exponent, re-biased for f16 (bias 15 vs 127).
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → infinity
    }
    if unbiased >= -14 {
        // Normal f16. 13 mantissa bits are dropped; round to nearest even.
        let mant16 = mant >> 13;
        let rest = mant & 0x1fff;
        let halfway = 0x1000;
        let mut out = sign | (((unbiased + 15) as u16) << 10) | mant16 as u16;
        if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
            out = out.wrapping_add(1); // may carry into exponent: correct (rounds up to next binade/inf)
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal f16: shift in the implicit leading 1.
        let full = mant | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let mant16 = (full >> shift) as u16;
        let rest = full & ((1 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | mant16;
        if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    sign // underflow to signed zero
}

/// Convert an IEEE binary16 bit pattern to `f32` exactly, via the table.
#[inline]
pub fn f16_to_f32(h: u16) -> f32 {
    f16_lut()[h as usize]
}

/// Arithmetic binary16→binary32 conversion — the reference the table is
/// populated from. Kept public so the exhaustive equality test (and any
/// caller that wants a table-free path) can reach it.
pub fn f16_to_f32_arith(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m · 2⁻²⁴; normalize into f32.
            let p = 31 - m.leading_zeros(); // index of highest set bit, 0..=9
            let exp32 = 127 - 24 + p;
            let frac = m ^ (1 << p); // drop the leading 1
            sign | (exp32 << 23) | (frac << (23 - p))
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13),
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// A weight matrix stored in binary16, dequantized on the fly during
/// products — the storage/compute trade the paper's FP16 serving makes.
#[derive(Debug, Clone)]
pub struct F16Matrix {
    /// Number of rows (output features).
    pub rows: usize,
    /// Number of columns (input features).
    pub cols: usize,
    data: Vec<u16>,
}

impl F16Matrix {
    /// Quantize an `f32` matrix to f16 storage.
    pub fn from_f32(m: &Matrix) -> Self {
        F16Matrix {
            rows: m.rows,
            cols: m.cols,
            data: m.as_slice().iter().map(|&v| f32_to_f16(v)).collect(),
        }
    }

    /// One stored weight row as raw f16 bit patterns.
    fn h_row(&self, r: usize) -> &[u16] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dequantize one weight row into a caller-provided buffer.
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cols);
        let lut = f16_lut();
        for (dst, &h) in out.iter_mut().zip(self.h_row(r)) {
            *dst = lut[h as usize];
        }
    }

    dequant_reference!(dequantize_row_into);

    /// Storage bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// The fused tile: `out[i·stride + j]` is the product of activation
    /// row `r0 + i` and weight row `c0 + j`. One activation row converts
    /// each weight element inline ([`f16_dot`]); more rows convert each
    /// weight row to f32 once and [`dot`] every activation row against
    /// it. `f16_to_f32` is exact and `dot` mirrors `f16_dot`'s lane
    /// order, so both give the same bits.
    #[allow(clippy::too_many_arguments)] // internal kernel: tile coordinates are clearer flat than bundled
    fn tile(
        &self,
        x: &Matrix,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
        out: &mut [f32],
        stride: usize,
    ) {
        if rows == 1 {
            let xr = x.row(r0);
            for (j, o) in out[..cols].iter_mut().enumerate() {
                *o = f16_dot(xr, self.h_row(c0 + j));
            }
            return;
        }
        let mut wrow = vec![0.0f32; self.cols];
        for j in 0..cols {
            self.dequantize_row_into(c0 + j, &mut wrow);
            for i in 0..rows {
                out[i * stride + j] = dot(x.row(r0 + i), &wrow);
            }
        }
    }

    /// `Y = X · Wᵀ` **fused**: weight elements convert f16→f32 inline in
    /// the dot product (see `f16_dot`) — half the weight memory traffic
    /// of f32 and no scratch row. Split per [`policy::matmul_quant_nt`];
    /// every tile gives the bits of the dequantize-then-dot reference,
    /// whatever the rows it gets, the dispatch path or the thread count.
    pub fn matmul_nt(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, self.cols, "inner dimensions must match");
        let labels = ["f16_nt.serial", "f16_nt.rows", "f16_nt.cols"];
        drive(policy::matmul_quant_nt, labels, (x.rows, self.rows, self.cols), || {
            move |r0, rows, c0, cols, out, stride| self.tile(x, r0, rows, c0, cols, out, stride)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::tests::assert_every_path_is_the_reference;

    #[test]
    fn lut_is_bitwise_equal_to_arithmetic_converter() {
        // All 65536 half-precision bit patterns — including NaN payloads,
        // infinities, subnormals, and both zeros — must expand through the
        // table to the exact bits the arithmetic converter produces.
        for h in 0..=u16::MAX {
            assert_eq!(
                f16_to_f32(h).to_bits(),
                f16_to_f32_arith(h).to_bits(),
                "pattern {h:#06x} diverged"
            );
        }
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "integer {v} must be exact");
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16(0.0), 0);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        // Values beyond f16 max (65504) overflow to infinity.
        assert_eq!(f16_to_f32(f32_to_f16(70000.0)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(65504.0)), 65504.0);
    }

    #[test]
    fn subnormals_roundtrip() {
        let tiny = 5.96e-8; // smallest positive f16 subnormal ≈ 5.96e-8
        let back = f16_to_f32(f32_to_f16(tiny));
        assert!(back > 0.0 && (back - tiny).abs() / tiny < 0.5);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(f16_to_f32(f32_to_f16(1e-9)), 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; RNE
        // keeps the even mantissa (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(halfway)), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(f16_to_f32(f32_to_f16(above)), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn relative_error_bounded_by_eps() {
        // Normal range: |x − rt(x)| ≤ 2^-11 · |x| (half of f16 eps).
        let mut v = 1.111e-3f32;
        while v < 1e4 {
            let rt = f16_to_f32(f32_to_f16(v));
            assert!((rt - v).abs() <= v * 4.9e-4, "v={v} rt={rt}");
            v *= 1.7;
        }
    }

    #[test]
    fn f16_matmul_close_to_f32() {
        let x = Matrix::rand_kaiming(4, 64, 1);
        let w = Matrix::rand_kaiming(8, 64, 2);
        let exact = crate::matmul::matmul_nt(&x, &w);
        let viaf16 = F16Matrix::from_f32(&w).matmul_nt(&x);
        for (a, b) in exact.as_slice().iter().zip(viaf16.as_slice()) {
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_is_bitwise_equal_to_dequant_reference() {
        let x = Matrix::rand_kaiming(3, 100, 4);
        let w = Matrix::rand_kaiming(9, 100, 5);
        let h = F16Matrix::from_f32(&w);
        let fused = h.matmul_nt(&x);
        let reference = h.matmul_nt_dequant(&x);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_path_is_bitwise_a_dot_against_the_dequantized_row() {
        // k = 7: `f16_dot`'s tail only; 75: nine 8-lane chunks and a tail.
        for k in [7, 75] {
            assert_every_path_is_the_reference(
                k,
                |n| {
                    let h = F16Matrix::from_f32(&Matrix::rand_kaiming(n, k, n as u64));
                    let dequantized = h.to_f32();
                    (h, dequantized)
                },
                |(h, _), x| h.matmul_nt(x),
                |(_, w), xr, c| dot(xr, w.row(c)),
            );
        }
    }

    #[test]
    fn storage_is_half_of_f32() {
        let w = Matrix::rand_kaiming(16, 16, 3);
        let h = F16Matrix::from_f32(&w);
        assert_eq!(h.bytes() * 2, w.len() * 4);
    }
}
