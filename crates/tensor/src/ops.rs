//! Elementwise and normalization kernels used by the neural LM stack.
//!
//! RoPE is split in two: [`rope_table`] computes a call's `(sin, cos)`
//! once per position, and [`rope_inplace`] rotates each q and k row from
//! it.

use crate::tensor::Matrix;
use std::ops::Range;

/// In-place numerically-stable softmax over a slice.
pub fn softmax_inplace(x: &mut [f32]) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Log-softmax of a slice into a fresh vector (for NLL/perplexity).
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = x.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
    x.iter().map(|v| v - max - log_sum).collect()
}

/// In-place RMSNorm over each row with learned gains (Llama-style).
pub fn rmsnorm_rows(m: &mut Matrix, gain: &[f32], eps: f32) {
    assert_eq!(m.cols, gain.len());
    for r in 0..m.rows {
        let row = m.row_mut(r);
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (v, g) in row.iter_mut().zip(gain) {
            *v = *v * inv * g;
        }
    }
}

/// SiLU (swish) activation, in place.
pub fn silu_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = *v / (1.0 + (-*v).exp());
    }
}

/// tanh-approximation GELU, in place (matches the transformer default).
pub fn gelu_inplace(x: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in x.iter_mut() {
        let u = C * (*v + 0.044715 * *v * *v * *v);
        *v = 0.5 * *v * (1.0 + u.tanh());
    }
}

/// Derivative of tanh-approximation GELU evaluated at `x` (for backprop).
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let u = C * (x + 0.044715 * x3);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// The rotary angles' `(sin, cos)` for every position in `positions`:
/// `head_dim / 2` entries per position, entry `i` of position `pos` for
/// the angle `pos · theta^(−2i/head_dim)` — the Llama convention. Each
/// frequency's `powf` runs once and each angle's `sin_cos` once per
/// position, however many heads, layers and q/k rows [`rope_inplace`]
/// then rotates with the table.
pub fn rope_table(head_dim: usize, positions: Range<usize>, theta: f32) -> Vec<(f32, f32)> {
    let freqs: Vec<f32> =
        (0..head_dim / 2).map(|i| theta.powf(-2.0 * i as f32 / head_dim as f32)).collect();
    positions.flat_map(|pos| freqs.iter().map(move |&freq| (pos as f32 * freq).sin_cos())).collect()
}

/// Rotary position embedding applied in place to a `(heads*head_dim)` row
/// at one position, whose `head_dim / 2` angles `sin_cos` come from
/// [`rope_table`]. Pairs `(i, i + head_dim/2)` within each head rotate by
/// angle `i`.
pub fn rope_inplace(row: &mut [f32], head_dim: usize, sin_cos: &[(f32, f32)]) {
    assert_eq!(row.len() % head_dim, 0);
    let half = head_dim / 2;
    assert_eq!(sin_cos.len(), half);
    for head in row.chunks_mut(head_dim) {
        for (i, &(sin, cos)) in sin_cos.iter().enumerate() {
            let (a, b) = (head[i], head[i + half]);
            head[i] = a * cos - b * sin;
            head[i + half] = a * sin + b * cos;
        }
    }
}

/// Elementwise addition: `a += b`.
pub fn add_inplace(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = [1.0, 2.0, 3.0];
        softmax_inplace(&mut x);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = [1000.0, 1001.0, 1002.0];
        let mut b = [0.0, 1.0, 2.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x = [0.3, -1.2, 2.5, 0.0];
        let ls = log_softmax(&x);
        let mut sm = x;
        softmax_inplace(&mut sm);
        for (l, s) in ls.iter().zip(sm.iter()) {
            assert!((l.exp() - s).abs() < 1e-6);
        }
    }

    #[test]
    fn rmsnorm_produces_unit_rms_with_unit_gain() {
        let mut m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        rmsnorm_rows(&mut m, &[1.0; 4], 1e-6);
        let ms: f32 = m.row(0).iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((ms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_fixed_points() {
        let mut x = [0.0f32, 10.0, -10.0];
        gelu_inplace(&mut x);
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 10.0).abs() < 1e-3);
        assert!(x[2].abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let mut a = [x + h];
            let mut b = [x - h];
            gelu_inplace(&mut a);
            gelu_inplace(&mut b);
            let fd = (a[0] - b[0]) / (2.0 * h);
            assert!((gelu_grad(x) - fd).abs() < 1e-2, "x={x}");
        }
    }

    #[test]
    fn silu_known_value() {
        let mut x = [0.0f32, 1.0];
        silu_inplace(&mut x);
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-6);
    }

    /// RoPE at one position, each pair's angle computed where it is used.
    fn rope_per_pair(row: &mut [f32], head_dim: usize, pos: usize, theta: f32) {
        let half = head_dim / 2;
        for head in row.chunks_mut(head_dim) {
            for i in 0..half {
                let freq = theta.powf(-2.0 * i as f32 / head_dim as f32);
                let (sin, cos) = (pos as f32 * freq).sin_cos();
                let (a, b) = (head[i], head[i + half]);
                head[i] = a * cos - b * sin;
                head[i + half] = a * sin + b * cos;
            }
        }
    }

    /// `rope_inplace` at one position through a one-position table.
    fn rope_at(row: &mut [f32], head_dim: usize, pos: usize) {
        rope_inplace(row, head_dim, &rope_table(head_dim, pos..pos + 1, 10000.0));
    }

    #[test]
    fn rope_table_is_bitwise_the_per_pair_formula() {
        for head_dim in [16, 32, 64] {
            let half = head_dim / 2;
            let orig: Vec<f32> =
                Matrix::rand_normal(1, 3 * head_dim, 1.0, head_dim as u64).into_vec();
            // Two tables that split the range, as a prefill resumed from a
            // cached prefix builds them.
            let table =
                [rope_table(head_dim, 0..1000, 10000.0), rope_table(head_dim, 1000..4096, 10000.0)]
                    .concat();
            for (pos, sin_cos) in table.chunks_exact(half).enumerate() {
                let (mut got, mut want) = (orig.clone(), orig.clone());
                rope_inplace(&mut got, head_dim, sin_cos);
                rope_per_pair(&mut want, head_dim, pos, 10000.0);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "head_dim {head_dim} pos {pos}");
            }
        }
    }

    #[test]
    fn rope_preserves_norm_and_is_identity_at_pos0() {
        let orig: Vec<f32> = (0..8).map(|i| i as f32 * 0.25 - 1.0).collect();
        let mut r = orig.clone();
        rope_at(&mut r, 4, 0);
        assert_eq!(r, orig, "position 0 must be identity");
        let mut r = orig.clone();
        rope_at(&mut r, 4, 17);
        let n0: f32 = orig.iter().map(|v| v * v).sum();
        let n1: f32 = r.iter().map(|v| v * v).sum();
        assert!((n0 - n1).abs() < 1e-4, "rotation must preserve norm");
        assert_ne!(r, orig);
    }

    #[test]
    fn rope_relative_property() {
        // <rope(q,m), rope(k,n)> depends only on m−n for a single pair.
        let q = vec![0.3, -0.7];
        let k = vec![1.1, 0.4];
        let dot_at = |m: usize, n: usize| {
            let mut qq = q.clone();
            let mut kk = k.clone();
            rope_at(&mut qq, 2, m);
            rope_at(&mut kk, 2, n);
            qq[0] * kk[0] + qq[1] * kk[1]
        };
        assert!((dot_at(5, 3) - dot_at(9, 7)).abs() < 1e-4);
    }
}
