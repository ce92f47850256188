//! Transformer model configurations and their arithmetic.
//!
//! Parameter counts, per-token FLOPs, and per-operator weight sizes for
//! dense (LLaMA/GPT-style) and MoE transformers. The templates cover the
//! models the paper evaluates with: LLaMA 2/3, GPT-3-175B, a Hunyuan-like
//! trillion-parameter MoE, and a DeepSeek-R1-like MoE.

use serde::{Deserialize, Serialize};

/// Mixture-of-experts extension of a transformer layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoeConfig {
    /// Experts per MoE layer.
    pub experts: u32,
    /// Experts activated per token.
    pub top_k: u32,
    /// Hidden size of each expert's FFN.
    pub expert_ffn_hidden: u64,
}

/// A transformer model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: String,
    /// Transformer layers.
    pub layers: u32,
    /// Hidden (model) dimension.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u32,
    /// Key/value heads (GQA; == heads for MHA).
    pub kv_heads: u32,
    /// FFN intermediate size (per expert for MoE).
    pub ffn_hidden: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Training sequence length.
    pub seq_len: u64,
    /// Bytes per element (2 = bf16).
    pub dtype_bytes: u32,
    /// True for gated (SwiGLU, 3-matrix) FFNs; false for classic 2-matrix
    /// GeLU FFNs (GPT-3).
    pub gated_ffn: bool,
    /// MoE extension; `None` = dense.
    pub moe: Option<MoeConfig>,
}

impl ModelConfig {
    /// LLaMA-3-70B (GQA, SwiGLU).
    pub fn llama3_70b() -> Self {
        ModelConfig {
            name: "LLaMA-3-70B".into(),
            layers: 80,
            hidden: 8192,
            heads: 64,
            kv_heads: 8,
            ffn_hidden: 28672,
            vocab: 128256,
            seq_len: 8192,
            dtype_bytes: 2,
            gated_ffn: true,
            moe: None,
        }
    }

    /// LLaMA-3-8B.
    pub fn llama3_8b() -> Self {
        ModelConfig {
            name: "LLaMA-3-8B".into(),
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 8,
            ffn_hidden: 14336,
            vocab: 128256,
            seq_len: 8192,
            dtype_bytes: 2,
            gated_ffn: true,
            moe: None,
        }
    }

    /// LLaMA-2-70B.
    pub fn llama2_70b() -> Self {
        ModelConfig {
            name: "LLaMA-2-70B".into(),
            layers: 80,
            hidden: 8192,
            heads: 64,
            kv_heads: 8,
            ffn_hidden: 28672,
            vocab: 32000,
            seq_len: 4096,
            dtype_bytes: 2,
            gated_ffn: true,
            moe: None,
        }
    }

    /// GPT-3-175B (MHA, classic 4·h FFN).
    pub fn gpt3_175b() -> Self {
        ModelConfig {
            name: "GPT-3-175B".into(),
            layers: 96,
            hidden: 12288,
            heads: 96,
            kv_heads: 96,
            ffn_hidden: 49152,
            vocab: 50257,
            seq_len: 2048,
            dtype_bytes: 2,
            gated_ffn: false,
            moe: None,
        }
    }

    /// A Hunyuan-like trillion-parameter MoE (the paper's in-production
    /// model exceeds one trillion parameters; exact shape is proprietary,
    /// so this is a plausible stand-in with the same scale).
    pub fn hunyuan_moe_1t() -> Self {
        ModelConfig {
            name: "Hunyuan-MoE-1T".into(),
            layers: 64,
            hidden: 6400,
            heads: 80,
            kv_heads: 8,
            ffn_hidden: 18432,
            vocab: 128000,
            seq_len: 8192,
            dtype_bytes: 2,
            gated_ffn: true,
            moe: Some(MoeConfig {
                experts: 64,
                top_k: 8,
                expert_ffn_hidden: 18432,
            }),
        }
    }

    /// A DeepSeek-R1-like MoE (many small experts, high sparsity).
    pub fn deepseek_r1_like() -> Self {
        ModelConfig {
            name: "DeepSeek-R1-like".into(),
            layers: 61,
            hidden: 7168,
            heads: 128,
            kv_heads: 128,
            ffn_hidden: 18432,
            vocab: 129280,
            seq_len: 4096,
            dtype_bytes: 2,
            gated_ffn: true,
            moe: Some(MoeConfig {
                experts: 256,
                top_k: 8,
                expert_ffn_hidden: 2048,
            }),
        }
    }

    /// True for MoE models.
    pub fn is_moe(&self) -> bool {
        self.moe.is_some()
    }

    /// A reduced-depth variant of the same architecture — the
    /// simulation-scale knob: a fleet workload generator varies job sizes
    /// by shrinking layer count while keeping the layer shape (and thus
    /// the per-layer arithmetic) faithful to the template.
    pub fn with_layers(&self, layers: u32) -> Self {
        ModelConfig {
            name: format!("{}-L{layers}", self.name),
            layers: layers.max(1),
            ..self.clone()
        }
    }

    /// Gradient bytes exchanged per data-parallel AllReduce step: every
    /// parameter's gradient at training precision.
    pub fn grad_bytes(&self) -> u64 {
        self.param_count() * self.dtype_bytes as u64
    }

    /// Key/value projection width (GQA shrinks it).
    pub fn kv_dim(&self) -> u64 {
        self.hidden * self.kv_heads as u64 / self.heads as u64
    }

    /// Attention parameters per layer: QKV + output projection.
    pub fn attn_params_per_layer(&self) -> u64 {
        let qkv = self.hidden * (self.hidden + 2 * self.kv_dim());
        let proj = self.hidden * self.hidden;
        qkv + proj
    }

    /// FFN weight matrices (3 for gated SwiGLU, 2 for classic GeLU).
    pub fn ffn_matrices(&self) -> u64 {
        if self.gated_ffn {
            3
        } else {
            2
        }
    }

    /// FFN parameters per layer (dense path or the MoE experts' total).
    pub fn ffn_params_per_layer(&self) -> u64 {
        let mats = self.ffn_matrices();
        match self.moe {
            None => mats * self.hidden * self.ffn_hidden,
            Some(m) => mats * self.hidden * m.expert_ffn_hidden * m.experts as u64,
        }
    }

    /// Total parameters per transformer layer (attention + FFN + norms).
    pub fn params_per_layer(&self) -> u64 {
        self.attn_params_per_layer() + self.ffn_params_per_layer() + 2 * self.hidden
    }

    /// Embedding (and tied output head) parameters.
    pub fn embedding_params(&self) -> u64 {
        self.vocab * self.hidden
    }

    /// Total model parameters.
    pub fn param_count(&self) -> u64 {
        self.layers as u64 * self.params_per_layer() + 2 * self.embedding_params()
    }

    /// Parameters *active* per token (MoE activates `top_k` experts).
    pub fn active_params_per_layer(&self) -> u64 {
        match self.moe {
            None => self.params_per_layer(),
            Some(m) => {
                self.attn_params_per_layer()
                    + 3 * self.hidden * m.expert_ffn_hidden * m.top_k as u64
                    + 2 * self.hidden
            }
        }
    }

    /// Forward FLOPs per token per layer (dense matmuls; attention
    /// quadratic term uses `seq` as the context length).
    pub fn fwd_flops_per_token_layer(&self, seq: u64) -> f64 {
        let h = self.hidden as f64;
        let qkv = 2.0 * h * (self.hidden + 2 * self.kv_dim()) as f64;
        let core = 4.0 * seq as f64 * h; // QKᵀ + AV
        let proj = 2.0 * h * h;
        let mats = self.ffn_matrices() as f64;
        let ffn = match self.moe {
            None => 2.0 * mats * h * self.ffn_hidden as f64, // 2 flops/MAC
            Some(m) => 2.0 * mats * h * m.expert_ffn_hidden as f64 * m.top_k as f64,
        };
        qkv + core + proj + ffn
    }

    /// Forward FLOPs per token for the whole model (+ logit).
    fn fwd_flops_per_token(&self, seq: u64) -> f64 {
        self.layers as f64 * self.fwd_flops_per_token_layer(seq)
            + 2.0 * self.hidden as f64 * self.vocab as f64
    }

    /// Training FLOPs per token (fwd + 2× bwd ≈ 3× fwd).
    pub fn train_flops_per_token(&self, seq: u64) -> f64 {
        3.0 * self.fwd_flops_per_token(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_parameter_count_is_175b() {
        let p = ModelConfig::gpt3_175b().param_count();
        // Classic GPT-3 arithmetic lands near 175B; our layer accounting
        // (no positional embeddings, tied head counted twice) should be
        // within a few percent.
        assert!((p as f64 - 175e9).abs() / 175e9 < 0.05, "gpt3 params = {p}");
    }

    #[test]
    fn llama3_70b_parameter_count() {
        let p = ModelConfig::llama3_70b().param_count();
        assert!((p as f64 - 70e9).abs() / 70e9 < 0.07, "llama3-70b = {p}");
    }

    #[test]
    fn hunyuan_exceeds_one_trillion() {
        let m = ModelConfig::hunyuan_moe_1t();
        assert!(m.param_count() > 1_000_000_000_000, "{}", m.param_count());
        // ...but activates far fewer per token.
        assert!(m.active_params_per_layer() < m.params_per_layer() / 4);
    }

    #[test]
    fn gqa_shrinks_kv() {
        let m = ModelConfig::llama3_70b();
        assert_eq!(m.kv_dim(), 1024);
        let mha = ModelConfig::gpt3_175b();
        assert_eq!(mha.kv_dim(), mha.hidden);
    }

    #[test]
    fn training_flops_sanity() {
        // The 6·N rule of thumb: train FLOPs/token ≈ 6 × params for dense
        // models when seq ≪ hidden·intensity.
        let m = ModelConfig::llama3_8b();
        let f = m.train_flops_per_token(1); // exclude attention quadratic
        let six_n = 6.0 * m.param_count() as f64;
        assert!((f - six_n).abs() / six_n < 0.15, "f={f:.3e} 6N={six_n:.3e}");
    }

    #[test]
    fn moe_flops_use_topk_not_all_experts() {
        let m = ModelConfig::hunyuan_moe_1t();
        let dense_equiv = ModelConfig {
            moe: None,
            ffn_hidden: m.moe.unwrap().expert_ffn_hidden,
            ..m.clone()
        };
        let fm = m.fwd_flops_per_token_layer(1);
        let fd = dense_equiv.fwd_flops_per_token_layer(1);
        // MoE top-8 FFN ≈ 8 × dense-FFN flops (attention part shared).
        assert!(fm > fd * 3.0 && fm < fd * 8.0);
    }

    #[test]
    fn with_layers_scales_depth_only() {
        let full = ModelConfig::llama3_8b();
        let small = full.with_layers(4);
        assert_eq!(small.layers, 4);
        assert_eq!(small.hidden, full.hidden);
        assert_eq!(small.params_per_layer(), full.params_per_layer());
        assert!(small.param_count() < full.param_count());
        assert_eq!(small.grad_bytes(), small.param_count() * 2);
        // Degenerate depth clamps to one layer instead of a zero model.
        assert_eq!(full.with_layers(0).layers, 1);
    }

    #[test]
    fn serde_round_trip() {
        let m = ModelConfig::deepseek_r1_like();
        let j = serde_json::to_string(&m).unwrap();
        let back: ModelConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(m, back);
    }
}
