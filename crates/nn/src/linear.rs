//! A linear layer with precision-polymorphic weights.

use edgellm_quant::{QuantizedWeights, WeightPrecision};
use edgellm_tensor::Matrix;

/// `y = x·Wᵀ + b` with weights stored at any of the four paper precisions.
/// Biases stay in f32 at all precisions (as BitsAndBytes does on device).
#[derive(Debug, Clone)]
pub struct Linear {
    /// `(out × in)` weights.
    pub weights: QuantizedWeights,
    /// Optional `out`-long bias.
    pub bias: Option<Vec<f32>>,
}

impl Linear {
    /// Fresh f32 layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Linear {
            weights: QuantizedWeights::Fp32(Matrix::rand_kaiming(out_features, in_features, seed)),
            bias: Some(vec![0.0; out_features]),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weights.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weights.rows()
    }

    /// Forward pass: `(batch × in) → (batch × out)`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = self.weights.matmul_nt(x);
        if let Some(b) = &self.bias {
            for r in 0..y.rows {
                edgellm_tensor::ops::add_inplace(y.row_mut(r), b);
            }
        }
        y
    }

    /// Mutable access to f32 weights (training path).
    ///
    /// # Panics
    /// If the layer has been quantized (training quantized weights is not
    /// supported, matching the paper's inference-only quantization).
    pub fn weights_f32_mut(&mut self) -> &mut Matrix {
        match &mut self.weights {
            QuantizedWeights::Fp32(m) => m,
            _ => panic!("layer is quantized; training requires f32 weights"),
        }
    }

    /// Borrow the f32 weights (training path).
    ///
    /// # Panics
    /// If the layer has been quantized.
    pub fn weights_f32(&self) -> &Matrix {
        match &self.weights {
            QuantizedWeights::Fp32(m) => m,
            _ => panic!("layer is quantized"),
        }
    }

    /// A copy of this layer at another precision (real re-quantization of
    /// the dequantized weights; f32 weights are quantized from a borrow,
    /// not cloned first).
    pub fn to_precision(&self, prec: WeightPrecision) -> Linear {
        let weights = match &self.weights {
            QuantizedWeights::Fp32(w) => QuantizedWeights::quantize(w, prec),
            stored => QuantizedWeights::quantize(&stored.dequantize(), prec),
        };
        Linear { weights, bias: self.bias.clone() }
    }

    /// Storage bytes of the weights at the current precision.
    pub fn weight_bytes(&self) -> usize {
        self.weights.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Linear::new(4, 3, 1);
        l.bias = Some(vec![1.0, 2.0, 3.0]);
        let x = Matrix::zeros(2, 4);
        let y = l.forward(&x);
        assert_eq!((y.rows, y.cols), (2, 3));
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn precision_conversion_preserves_shape_and_roughly_values() {
        let l = Linear::new(32, 16, 2);
        let x = Matrix::rand_kaiming(4, 32, 3);
        let y32 = l.forward(&x);
        for p in [WeightPrecision::Fp16, WeightPrecision::Int8, WeightPrecision::Int4] {
            let lq = l.to_precision(p);
            let yq = lq.forward(&x);
            assert_eq!((yq.rows, yq.cols), (y32.rows, y32.cols));
            let err: f32 =
                y32.as_slice().iter().zip(yq.as_slice()).map(|(a, b)| (a - b).abs()).sum::<f32>()
                    / y32.len() as f32;
            assert!(err < 0.05, "{p:?} mean err {err}");
        }
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn training_access_requires_f32() {
        let mut l = Linear::new(8, 8, 4).to_precision(WeightPrecision::Int8);
        let _ = l.weights_f32_mut();
    }
}
