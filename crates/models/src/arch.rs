//! Transformer architecture descriptions with derived parameter counts.

use crate::precision::Precision;

/// How the HuggingFace `transformers` stack executes attention for a model.
///
/// This matters for the *memory* model: the eager path materializes the full
/// `batch × heads × q_len × kv_len` attention-score matrix in FP32, which is
/// the mechanism behind Phi-2's out-of-memory failures at long sequence
/// lengths in the paper's Table 6/7 (see `edgellm-mem`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionImpl {
    /// Eager attention: materialized score matrices (Phi-2 at the paper's
    /// `transformers` version).
    Eager,
    /// Memory-efficient scaled-dot-product attention (Llama/Mistral/Qwen).
    Sdpa,
}

/// A dense decoder-only transformer architecture.
///
/// Parameter counts are *derived* from these dimensions rather than stored,
/// so that custom/what-if architectures stay consistent automatically.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArch {
    /// Human-readable name (matches the paper's Table 1 naming).
    pub name: &'static str,
    /// HuggingFace model id.
    pub hf_id: &'static str,
    /// Number of transformer layers.
    pub layers: u32,
    /// Model (residual-stream) width.
    pub hidden: u32,
    /// Number of query heads.
    pub heads: u32,
    /// Number of key/value heads (< `heads` ⇒ grouped-query attention).
    pub kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// MLP intermediate width.
    pub ffn: u32,
    /// Whether the MLP is gated (SwiGLU: 3 projections) or plain (2).
    pub gated_mlp: bool,
    /// Vocabulary size.
    pub vocab: u32,
    /// Whether input embeddings and LM head share weights.
    pub tied_embeddings: bool,
    /// Whether linear layers carry bias terms (Phi-2: yes; Qwen: QKV only —
    /// biases are a rounding error for counts so one flag suffices).
    pub has_bias: bool,
    /// Attention execution path (memory-model relevant).
    pub attention: AttentionImpl,
    /// Whether the KV cache is held in FP32 (Phi-2's modeling code upcasts
    /// attention to FP32; others cache at the compute precision, FP16).
    pub fp32_kv_cache: bool,
    /// Maximum context length the model supports.
    pub max_context: u32,
}

impl ModelArch {
    /// Width of the concatenated query projection output.
    pub fn q_dim(&self) -> u64 {
        self.heads as u64 * self.head_dim as u64
    }

    /// Width of each of the key/value projection outputs.
    pub fn kv_dim(&self) -> u64 {
        self.kv_heads as u64 * self.head_dim as u64
    }

    /// Parameters in the token-embedding matrices (input, plus output LM
    /// head when untied). These stay FP16 under BitsAndBytes quantization.
    pub fn embedding_params(&self) -> u64 {
        let one = self.vocab as u64 * self.hidden as u64;
        if self.tied_embeddings {
            one
        } else {
            2 * one
        }
    }

    /// Parameters in one transformer layer's attention block.
    pub fn attn_params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let q = h * self.q_dim();
        let kv = 2 * h * self.kv_dim();
        let o = self.q_dim() * h;
        let bias = if self.has_bias { self.q_dim() + 2 * self.kv_dim() + h } else { 0 };
        q + kv + o + bias
    }

    /// Parameters in one transformer layer's MLP block.
    pub fn mlp_params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn as u64;
        let mats = if self.gated_mlp { 3 } else { 2 };
        let bias = if self.has_bias { f + h } else { 0 };
        mats * h * f + bias
    }

    /// Normalization parameters (two norms per layer plus a final norm).
    pub fn norm_params(&self) -> u64 {
        let per_layer = if self.has_bias { 4 } else { 2 }; // weight (+bias)
        (self.layers as u64 * per_layer + 1) * self.hidden as u64
    }

    /// Total parameter count derived from the dimensions.
    pub fn param_count(&self) -> u64 {
        self.embedding_params()
            + self.layers as u64 * (self.attn_params_per_layer() + self.mlp_params_per_layer())
            + self.norm_params()
    }

    /// Parameters outside the embeddings (the part BitsAndBytes quantizes).
    pub fn non_embedding_params(&self) -> u64 {
        self.param_count() - self.embedding_params()
    }

    /// Bytes needed to hold the weights at a storage precision, following
    /// the BitsAndBytes convention: INT8/INT4 quantize only the transformer
    /// linears while embeddings and the LM head remain FP16.
    ///
    /// Validated against the paper's Table 1 (e.g. Llama-3.1-8B: 32.2 GB
    /// FP32, 16.1 GB FP16, 9.1 GB INT8, 5.6 GB INT4).
    pub fn weight_bytes(&self, prec: Precision) -> u64 {
        match prec {
            Precision::Fp32 => self.param_count() * 4,
            Precision::Fp16 => self.param_count() * 2,
            Precision::Int8 | Precision::Int4 => {
                let quantized =
                    (self.non_embedding_params() as f64 * prec.bytes_per_param()) as u64;
                quantized + self.embedding_params() * 2
            }
        }
    }

    /// Bytes appended to the KV cache per token per sequence (all layers).
    pub fn kv_bytes_per_token(&self) -> u64 {
        let elem = if self.fp32_kv_cache { 4 } else { 2 };
        2 * self.layers as u64 * self.kv_dim() * elem
    }

    /// Grouped-query sharing factor (1 = MHA, >1 = GQA).
    pub fn gqa_factor(&self) -> u32 {
        self.heads / self.kv_heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Llm;

    fn billions(n: u64) -> f64 {
        n as f64 / 1e9
    }

    #[test]
    fn phi2_param_count_matches_paper() {
        let a = Llm::Phi2.arch();
        let b = billions(a.param_count());
        assert!((b - 2.78).abs() < 0.05, "Phi-2 params {b}B");
    }

    #[test]
    fn llama31_param_count_matches_paper() {
        let a = Llm::Llama31_8b.arch();
        let b = billions(a.param_count());
        assert!((b - 8.03).abs() < 0.08, "Llama params {b}B");
    }

    #[test]
    fn mistral_param_count_matches_paper() {
        let a = Llm::MistralSmall24b.arch();
        let b = billions(a.param_count());
        assert!((b - 23.6).abs() < 0.2, "Mistral params {b}B");
    }

    #[test]
    fn deepseek_param_count_matches_paper() {
        let a = Llm::DeepseekQwen32b.arch();
        let b = billions(a.param_count());
        assert!((b - 32.8).abs() < 0.3, "DeepQ params {b}B");
    }

    #[test]
    fn gqa_factors() {
        assert_eq!(Llm::Phi2.arch().gqa_factor(), 1); // MHA
        assert_eq!(Llm::Llama31_8b.arch().gqa_factor(), 4);
        assert_eq!(Llm::MistralSmall24b.arch().gqa_factor(), 4);
        assert_eq!(Llm::DeepseekQwen32b.arch().gqa_factor(), 5);
    }

    #[test]
    fn phi2_kv_cache_is_fp32_and_mha_so_heavier_per_width() {
        // Phi-2 caches 2 (K,V) * 32 layers * 2560 * 4 bytes = 655 KB/token,
        // heavier than Llama's GQA FP16 cache (131 KB/token) despite Phi-2
        // being the much smaller model — the mechanism behind its OoM.
        let phi = Llm::Phi2.arch();
        let llama = Llm::Llama31_8b.arch();
        assert_eq!(phi.kv_bytes_per_token(), 2 * 32 * 2560 * 4);
        assert_eq!(llama.kv_bytes_per_token(), 2 * 32 * (8 * 128) * 2);
        assert!(phi.kv_bytes_per_token() > 4 * llama.kv_bytes_per_token());
        // DESIGN §5: GQA is what keeps Llama light. With one KV head per
        // query head (MHA) it would cache 524 KB/token, 4x as much.
        let mha = ModelArch { kv_heads: llama.heads, ..llama.clone() };
        assert_eq!(mha.kv_bytes_per_token(), 4 * llama.kv_bytes_per_token());
    }

    #[test]
    fn weight_bytes_monotone_in_precision() {
        for llm in Llm::ALL {
            let a = llm.arch();
            let sizes: Vec<u64> = Precision::ALL.iter().map(|p| a.weight_bytes(*p)).collect();
            for w in sizes.windows(2) {
                assert!(w[0] > w[1], "{}: {:?}", a.name, sizes);
            }
        }
    }

    #[test]
    fn embeddings_dominate_int4_floor() {
        // INT4 footprint can never drop below 2 bytes/emb-param.
        for llm in Llm::ALL {
            let a = llm.arch();
            assert!(a.weight_bytes(Precision::Int4) > a.embedding_params() * 2);
        }
    }
}
