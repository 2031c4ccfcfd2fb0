//! KV storage layouts and their byte costs.

use hack_quant::params::{PartitionSize, QuantBits};

/// Shape of a model's KV data (per token): number of layers, number of KV heads and
/// head dimension. Grouped-query attention models (Llama-3.1, Mistral, Yi) have fewer
/// KV heads than query heads, which this shape captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvShape {
    /// Number of transformer layers.
    pub layers: usize,
    /// Number of KV heads per layer.
    pub kv_heads: usize,
    /// Head dimension.
    pub head_dim: usize,
}

impl KvShape {
    /// Number of K (or V) elements per token across the whole model.
    pub fn elements_per_token(&self) -> usize {
        self.layers * self.kv_heads * self.head_dim
    }
}

/// Storage scheme of the KV cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheLayout {
    /// Plain FP16 storage (the disaggregated baseline).
    Fp16,
    /// Minifloat storage with `bits` bits per element (FP8/FP6/FP4 baselines, §3).
    /// Values are stored at this width but must be converted to FP16 for compute on
    /// GPUs without native support.
    Minifloat {
        /// Bits per element (4, 6 or 8).
        bits: u32,
    },
    /// Partitioned integer quantization (HACK, CacheGen- and KVQuant-like baselines).
    Quantized {
        /// Code precision (2-bit for HACK/KVQuant/CacheGen-equivalent setting).
        bits: QuantBits,
        /// Partition size Π along the quantized dimension.
        partition: usize,
        /// Whether per-partition code sums are stored (HACK's Summation Elimination).
        store_sums: bool,
        /// Whether an FP16 tail of up to Π tokens of V is kept unquantized
        /// (HACK's Requantization Elimination).
        fp16_tail: bool,
    },
}

impl CacheLayout {
    /// The paper's HACK layout: 2-bit codes, Π = 64, sums and FP16 tail enabled.
    #[cfg(test)]
    pub fn hack_default() -> Self {
        CacheLayout::Quantized {
            bits: QuantBits::Int2,
            partition: PartitionSize::DEFAULT.get(),
            store_sums: true,
            fp16_tail: true,
        }
    }

    /// 2-bit quantized layout without HACK's extra structures (CacheGen / KVQuant).
    pub fn quantized_baseline() -> Self {
        CacheLayout::Quantized {
            bits: QuantBits::Int2,
            partition: PartitionSize::DEFAULT.get(),
            store_sums: false,
            fp16_tail: false,
        }
    }

    /// Bytes required to store the K **and** V data of `tokens` tokens for the given
    /// model shape.
    ///
    /// Quantized layouts are not exactly linear in the token count because V's
    /// partition metadata grows with `⌈tokens/Π⌉` and the FP16 tail holds up to Π
    /// tokens; this function accounts for both exactly.
    pub fn kv_bytes(&self, shape: &KvShape, tokens: usize) -> usize {
        if tokens == 0 {
            return 0;
        }
        let heads = shape.layers * shape.kv_heads;
        match *self {
            CacheLayout::Fp16 => 2 * 2 * tokens * shape.elements_per_token(),
            CacheLayout::Minifloat { bits } => {
                // K + V, `bits` bits per element, rounded up to bytes per head-token row
                // to model alignment.
                let row_bytes = (shape.head_dim * bits as usize).div_ceil(8);
                2 * tokens * heads * row_bytes
            }
            CacheLayout::Quantized {
                bits,
                partition,
                store_sums,
                fp16_tail,
            } => {
                let (quant_tokens, tail_tokens) = if fp16_tail {
                    ((tokens / partition) * partition, tokens % partition)
                } else {
                    (tokens, 0)
                };
                // K: partitioned along the head dimension — one partition set per token.
                let k = hack_quant::cost::quantized_tensor_bytes(
                    tokens,
                    shape.head_dim,
                    bits,
                    partition,
                    store_sums,
                );
                // V: partitioned along the sequence dimension — one partition set per channel.
                let v = hack_quant::cost::quantized_tensor_bytes(
                    shape.head_dim,
                    quant_tokens,
                    bits,
                    partition,
                    store_sums,
                );
                let tail = hack_quant::cost::rqe_tail_bytes(tail_tokens, shape.head_dim);
                heads * (k + v + tail)
            }
        }
    }

    /// Compression ratio versus FP16 for a given sequence length
    /// (`1 - bytes/fp16_bytes`).
    #[cfg(test)]
    pub fn compression_vs_fp16(&self, shape: &KvShape, tokens: usize) -> f64 {
        let fp16 = CacheLayout::Fp16.kv_bytes(shape, tokens) as f64;
        if fp16 == 0.0 {
            return 0.0;
        }
        1.0 - self.kv_bytes(shape, tokens) as f64 / fp16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama70b_shape() -> KvShape {
        // Llama-3.1 70B: 80 layers, 8 KV heads (GQA), head_dim 128.
        KvShape {
            layers: 80,
            kv_heads: 8,
            head_dim: 128,
        }
    }

    #[test]
    fn fp16_bytes_formula() {
        let shape = llama70b_shape();
        // Per token: 2 (K+V) * 2 bytes * 80*8*128 elements = 327,680 bytes.
        assert_eq!(CacheLayout::Fp16.kv_bytes(&shape, 1), 327_680);
        assert_eq!(CacheLayout::Fp16.kv_bytes(&shape, 100), 32_768_000);
        assert_eq!(CacheLayout::Fp16.kv_bytes(&shape, 0), 0);
    }

    #[test]
    fn hack_layout_compresses_around_85_percent() {
        let shape = llama70b_shape();
        let ratio = CacheLayout::hack_default().compression_vs_fp16(&shape, 16_384);
        assert!(ratio > 0.82 && ratio < 0.88, "ratio {ratio}");
    }

    #[test]
    fn quantized_baseline_slightly_smaller_than_hack() {
        // HACK stores sums and the FP16 tail, so it uses slightly more memory than a
        // plain 2-bit quantized cache (Table 5 shows ~0.6-2.9% higher usage).
        let shape = llama70b_shape();
        let tokens = 10_000;
        let hack = CacheLayout::hack_default().kv_bytes(&shape, tokens);
        let base = CacheLayout::quantized_baseline().kv_bytes(&shape, tokens);
        assert!(hack > base);
        let overhead = (hack - base) as f64 / base as f64;
        assert!(overhead < 0.10, "overhead {overhead}");
    }

    #[test]
    fn minifloat_sizes_are_ordered() {
        let shape = llama70b_shape();
        let tokens = 1000;
        let fp8 = CacheLayout::Minifloat { bits: 8 }.kv_bytes(&shape, tokens);
        let fp6 = CacheLayout::Minifloat { bits: 6 }.kv_bytes(&shape, tokens);
        let fp4 = CacheLayout::Minifloat { bits: 4 }.kv_bytes(&shape, tokens);
        let fp16 = CacheLayout::Fp16.kv_bytes(&shape, tokens);
        assert!(fp4 < fp6 && fp6 < fp8 && fp8 < fp16);
        // FP8 halves FP16; FP4 quarters it.
        assert_eq!(fp8 * 2, fp16);
        assert_eq!(fp4 * 4, fp16);
    }

    #[test]
    fn minifloat_compression_below_quantized() {
        // §3: FP4/6/8 cannot reach the ~86% compression of 2-bit quantization.
        let shape = llama70b_shape();
        let tokens = 8192;
        let fp4 = CacheLayout::Minifloat { bits: 4 }.compression_vs_fp16(&shape, tokens);
        let hack = CacheLayout::hack_default().compression_vs_fp16(&shape, tokens);
        assert!(fp4 <= 0.75 + 1e-9);
        assert!(hack > fp4);
    }

    #[test]
    fn elements_per_token() {
        assert_eq!(llama70b_shape().elements_per_token(), 80 * 8 * 128);
    }

    #[test]
    fn hack_tail_grows_then_resets_at_partition_boundary() {
        let shape = KvShape {
            layers: 1,
            kv_heads: 1,
            head_dim: 128,
        };
        let layout = CacheLayout::hack_default();
        // At exactly 64 tokens the tail is empty; at 65 it holds one token.
        let at64 = layout.kv_bytes(&shape, 64);
        let at65 = layout.kv_bytes(&shape, 65);
        let at127 = layout.kv_bytes(&shape, 127);
        assert!(at65 > at64);
        // The FP16 tail at 127 tokens (63 tokens * 128 dims * 2 bytes) dominates the
        // growth between 64 and 127.
        assert!(at127 - at64 > 63 * 128 * 2);
    }
}
