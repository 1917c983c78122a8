//! Row-major `f32` matrix type.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense row-major `f32` matrix.
///
/// The workhorse of the executable stack: activations, gradients and
/// full-precision weights are all `Matrix`. Storage is a single contiguous
/// `Vec<f32>` so rows are cache-friendly slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Kaiming-uniform random init (the usual `Linear` default), seeded.
    pub fn rand_kaiming(rows: usize, cols: usize, seed: u64) -> Self {
        let bound = (1.0 / cols as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new_inclusive(-bound, bound);
        let data = (0..rows * cols).map(|_| dist.sample(&mut rng)).collect();
        Matrix { rows, cols, data }
    }

    /// Gaussian random init with the given standard deviation, seeded.
    pub fn rand_normal(rows: usize, cols: usize, std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Box–Muller from two uniforms: avoids a rand_distr dependency.
        let mut data = Vec::with_capacity(rows * cols);
        let uni = rand::distributions::Uniform::new(f32::EPSILON, 1.0f32);
        while data.len() < rows * cols {
            let u1: f32 = uni.sample(&mut rng);
            let u2: f32 = uni.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The whole backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole backing buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// In-place scaled add: `self += alpha * other` (used by optimizers).
    ///
    /// # Panics
    /// If shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.len(), 6);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_checks_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::rand_kaiming(5, 7, 1);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        assert_eq!(Matrix::rand_kaiming(4, 4, 42), Matrix::rand_kaiming(4, 4, 42));
        assert_ne!(Matrix::rand_kaiming(4, 4, 42), Matrix::rand_kaiming(4, 4, 43));
    }

    #[test]
    fn normal_init_has_requested_scale() {
        let m = Matrix::rand_normal(100, 100, 0.5, 7);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 =
            m.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 10.0, 10.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 7.0, 8.0]);
    }
}
