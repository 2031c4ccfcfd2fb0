//! Model architecture specifications and FLOP/byte counts.

use serde::Serialize;

/// The five models evaluated in the paper (§7.1, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelKind {
    /// Mistral-v0.3 7B ("M").
    Mistral7B,
    /// Microsoft Phi-3 14B ("P").
    Phi3_14B,
    /// 01-ai Yi 34B ("Y").
    Yi34B,
    /// Meta Llama-3.1 70B ("L") — the paper's default model.
    Llama31_70B,
    /// TII Falcon 180B ("F").
    Falcon180B,
}

impl ModelKind {
    /// All five models, in the paper's order.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::Mistral7B,
            ModelKind::Phi3_14B,
            ModelKind::Yi34B,
            ModelKind::Llama31_70B,
            ModelKind::Falcon180B,
        ]
    }

    /// The single-letter label used in the paper's figures.
    pub fn letter(&self) -> &'static str {
        match self {
            ModelKind::Mistral7B => "M",
            ModelKind::Phi3_14B => "P",
            ModelKind::Yi34B => "Y",
            ModelKind::Llama31_70B => "L",
            ModelKind::Falcon180B => "F",
        }
    }

    /// Architectural specification of this model.
    pub fn spec(&self) -> ModelSpec {
        match self {
            ModelKind::Mistral7B => ModelSpec {
                kind: *self,
                name: "Mistral-v0.3 7B",
                layers: 32,
                hidden: 4096,
                heads: 32,
                kv_heads: 8,
                head_dim: 128,
                intermediate: 14336,
                vocab: 32_768,
                max_context: 32_768,
            },
            ModelKind::Phi3_14B => ModelSpec {
                kind: *self,
                name: "Phi-3 14B",
                layers: 40,
                hidden: 5120,
                heads: 40,
                kv_heads: 10,
                head_dim: 128,
                intermediate: 17_920,
                vocab: 32_064,
                max_context: 131_072,
            },
            ModelKind::Yi34B => ModelSpec {
                kind: *self,
                name: "Yi 34B",
                layers: 60,
                hidden: 7168,
                heads: 56,
                kv_heads: 8,
                head_dim: 128,
                intermediate: 20_480,
                vocab: 64_000,
                max_context: 200_000,
            },
            ModelKind::Llama31_70B => ModelSpec {
                kind: *self,
                name: "Llama-3.1 70B",
                layers: 80,
                hidden: 8192,
                heads: 64,
                kv_heads: 8,
                head_dim: 128,
                intermediate: 28_672,
                vocab: 128_256,
                max_context: 131_072,
            },
            ModelKind::Falcon180B => ModelSpec {
                kind: *self,
                name: "Falcon 180B",
                layers: 80,
                hidden: 14_848,
                heads: 232,
                kv_heads: 8,
                head_dim: 64,
                // Falcon's MLP is a plain 2-matrix block with 4·hidden width; the
                // effective width below makes the generic 3-matrix (SwiGLU-style)
                // parameter formula reproduce the nominal 180B count.
                intermediate: 39_936,
                vocab: 65_024,
                // §7.1: Falcon-180B is limited to a 2K context window.
                max_context: 2048,
            },
        }
    }
}

/// Architectural parameters of a decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ModelSpec {
    /// Which model this is.
    pub kind: ModelKind,
    /// Human-readable name.
    pub name: &'static str,
    /// Number of transformer layers.
    pub layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of query heads.
    pub heads: usize,
    /// Number of KV heads (grouped-query attention).
    pub kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// MLP intermediate dimension.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum context window (tokens).
    pub max_context: usize,
}

impl ModelSpec {
    /// Approximate parameter count, derived from the architecture.
    pub fn param_count(&self) -> f64 {
        let h = self.hidden as f64;
        let layers = self.layers as f64;
        let q_dim = (self.heads * self.head_dim) as f64;
        let kv_dim = (self.kv_heads * self.head_dim) as f64;
        let attn = h * q_dim + 2.0 * h * kv_dim + q_dim * h; // Wq, Wk, Wv, Wo
        let mlp = 3.0 * h * self.intermediate as f64; // gate, up, down (SwiGLU)
        let embed = 2.0 * h * self.vocab as f64; // embedding + LM head
        layers * (attn + mlp) + embed
    }

    /// Parameter bytes in FP16.
    pub fn param_bytes_fp16(&self) -> f64 {
        2.0 * self.param_count()
    }

    /// Number of K (or V) elements produced per token across the whole model.
    pub fn kv_elements_per_token(&self) -> usize {
        self.layers * self.kv_heads * self.head_dim
    }

    /// FP16 bytes of KV data (K and V) per token.
    pub fn kv_bytes_per_token_fp16(&self) -> usize {
        2 * 2 * self.kv_elements_per_token()
    }

    /// FLOPs of a full forward pass over `tokens` new tokens with `kv_len` total
    /// context (linear layers + attention). Used for both prefill (`tokens = kv_len =
    /// prompt`) and decode (`tokens = 1`).
    pub fn forward_flops(&self, tokens: usize, kv_len: usize) -> f64 {
        self.forward_flops_with(self.linear_flops_per_token(), tokens, kv_len)
    }

    /// Linear-layer FLOPs per token, split as `(body, lm_head)`: twice the
    /// parameters outside the embedding and the LM head, and twice the LM
    /// head's (the embedding is a lookup, not a GEMM).
    pub(crate) fn linear_flops_per_token(&self) -> (f64, f64) {
        let lm_head = (self.hidden * self.vocab) as f64;
        (2.0 * (self.param_count() - 2.0 * lm_head), 2.0 * lm_head)
    }

    /// [`Self::forward_flops`] with the per-token linear FLOPs of
    /// [`Self::linear_flops_per_token`] already evaluated, so that a caller
    /// evaluating many lengths pays for the parameter count once.
    pub(crate) fn forward_flops_with(
        &self,
        (body, lm_head): (f64, f64),
        tokens: usize,
        kv_len: usize,
    ) -> f64 {
        let linear = body * tokens as f64 + lm_head * tokens as f64;
        linear + self.attention_flops(tokens, kv_len)
    }

    /// FLOPs of the attention score/value matmuls alone (the part HACK accelerates with
    /// INT8): `2 · 2 · heads · head_dim · tokens · kv_len` per layer (QKᵀ and PV),
    /// halved for the causal prefill case where on average only half the keys are
    /// visible.
    pub fn attention_flops(&self, tokens: usize, kv_len: usize) -> f64 {
        let per_layer =
            2.0 * 2.0 * (self.heads * self.head_dim) as f64 * tokens as f64 * kv_len as f64;
        let causal_factor = if tokens == kv_len && tokens > 1 {
            0.5
        } else {
            1.0
        };
        self.layers as f64 * per_layer * causal_factor
    }

    /// FLOPs of one decode step at context length `kv_len`.
    pub fn decode_flops(&self, kv_len: usize) -> f64 {
        self.forward_flops(1, kv_len)
    }

    /// FLOPs of a prefill over `prompt` tokens.
    pub fn prefill_flops(&self, prompt: usize) -> f64 {
        self.forward_flops(prompt, prompt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_are_in_the_right_ballpark() {
        // Architecture-derived counts should land within ~20% of the nominal sizes.
        let expect = [
            (ModelKind::Mistral7B, 7.2e9),
            (ModelKind::Phi3_14B, 14.0e9),
            (ModelKind::Yi34B, 34.4e9),
            (ModelKind::Llama31_70B, 70.6e9),
            (ModelKind::Falcon180B, 180.0e9),
        ];
        for (kind, nominal) in expect {
            let got = kind.spec().param_count();
            let ratio = got / nominal;
            assert!(
                (0.75..1.25).contains(&ratio),
                "{}: derived {got:.3e} vs nominal {nominal:.3e} (ratio {ratio:.2})",
                kind.spec().name
            );
        }
    }

    #[test]
    fn kv_bytes_per_token_llama70b() {
        // 80 layers * 8 KV heads * 128 dims * 2 (K+V) * 2 bytes = 327,680 bytes/token.
        assert_eq!(
            ModelKind::Llama31_70B.spec().kv_bytes_per_token_fp16(),
            327_680
        );
    }

    #[test]
    fn gqa_models_have_fewer_kv_heads_than_query_heads() {
        for kind in ModelKind::all() {
            let s = kind.spec();
            assert!(s.kv_heads <= s.heads, "{}", s.name);
            assert_eq!(s.heads * s.head_dim % s.hidden, 0, "{}", s.name);
        }
    }

    #[test]
    fn prefill_flops_scale_superlinearly_with_prompt() {
        let s = ModelKind::Llama31_70B.spec();
        let short = s.prefill_flops(1000);
        let long = s.prefill_flops(10_000);
        assert!(
            long > 10.0 * short,
            "attention quadratic term should show up"
        );
    }

    #[test]
    fn decode_flops_grow_with_context() {
        let s = ModelKind::Llama31_70B.spec();
        assert!(s.decode_flops(10_000) > s.decode_flops(100));
        // The linear-layer term dominates for short contexts.
        assert!(s.decode_flops(100) > 2.0 * s.param_count() * 0.9);
    }

    #[test]
    fn attention_flops_are_a_minority_for_short_prompts_only() {
        let s = ModelKind::Llama31_70B.spec();
        let short = s.attention_flops(315, 315) / s.prefill_flops(315);
        let long = s.attention_flops(16_200, 16_200) / s.prefill_flops(16_200);
        assert!(short < 0.05, "short-prompt attention share {short}");
        assert!(long > 0.10, "long-prompt attention share {long}");
    }

    #[test]
    fn letters_match_paper() {
        let letters: Vec<&str> = ModelKind::all().iter().map(|m| m.letter()).collect();
        assert_eq!(letters, vec!["M", "P", "Y", "L", "F"]);
    }

    #[test]
    fn falcon_context_is_capped_at_2k() {
        assert_eq!(ModelKind::Falcon180B.spec().max_context, 2048);
    }
}
