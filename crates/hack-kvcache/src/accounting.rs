//! Decode-instance memory accounting (Table 5 and the §7.4 overhead numbers).

use crate::layout::{CacheLayout, KvShape};

/// Memory model of a decode instance: parameters + activations + KV cache against the
/// GPU memory capacity allocated to one model replica.
#[derive(Debug, Clone, Copy)]
pub struct DecodeMemoryModel {
    /// Total GPU memory available to the replica, in bytes.
    pub gpu_memory_bytes: usize,
    /// Bytes of model parameters resident on this replica (after TP/PP sharding).
    pub param_bytes: usize,
    /// Bytes reserved for activations and other working state.
    pub activation_bytes: usize,
    /// KV shape of the model.
    pub shape: KvShape,
    /// KV storage layout used by the evaluated method.
    pub layout: CacheLayout,
}

/// Byte-level breakdown of a decode instance's memory usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBreakdown {
    /// Parameter bytes.
    pub params: usize,
    /// Activation bytes.
    pub activations: usize,
    /// KV cache bytes (including any sums / FP16 tail the layout stores).
    pub kv: usize,
    /// Bytes attributable to Summation Elimination sums (zero for non-HACK layouts).
    pub se_sums: usize,
    /// Bytes attributable to the RQE FP16 tail (zero for non-HACK layouts).
    pub rqe_tail: usize,
    /// Total bytes.
    pub total: usize,
    /// Total as a fraction of GPU memory (the number Table 5 reports).
    pub fraction_of_gpu: f64,
}

impl DecodeMemoryModel {
    /// Bytes left for the KV cache after parameters and activations.
    pub fn kv_budget_bytes(&self) -> usize {
        self.gpu_memory_bytes
            .saturating_sub(self.param_bytes)
            .saturating_sub(self.activation_bytes)
    }

    /// Memory breakdown when `resident_tokens` KV tokens are cached.
    pub fn breakdown(&self, resident_tokens: usize) -> MemoryBreakdown {
        let kv = self.layout.kv_bytes(&self.shape, resident_tokens);
        let (se_sums, rqe_tail) = match self.layout {
            CacheLayout::Quantized {
                bits,
                partition,
                store_sums,
                fp16_tail,
            } => {
                let without_sums = CacheLayout::Quantized {
                    bits,
                    partition,
                    store_sums: false,
                    fp16_tail,
                }
                .kv_bytes(&self.shape, resident_tokens);
                let without_tail = CacheLayout::Quantized {
                    bits,
                    partition,
                    store_sums,
                    fp16_tail: false,
                }
                .kv_bytes(&self.shape, resident_tokens);
                let se = if store_sums { kv - without_sums } else { 0 };
                let tail = if fp16_tail {
                    kv.saturating_sub(without_tail)
                } else {
                    0
                };
                (se, tail)
            }
            _ => (0, 0),
        };
        let total = self.param_bytes + self.activation_bytes + kv;
        MemoryBreakdown {
            params: self.param_bytes,
            activations: self.activation_bytes,
            kv,
            se_sums,
            rqe_tail,
            total,
            fraction_of_gpu: total as f64 / self.gpu_memory_bytes.max(1) as f64,
        }
    }

    /// Peak GPU memory usage fraction for a given number of resident KV tokens
    /// (clamped to 1.0, since a real system would have started rejecting requests).
    pub fn peak_usage_fraction(&self, resident_tokens: usize) -> f64 {
        self.breakdown(resident_tokens).fraction_of_gpu.min(1.0)
    }

    /// Largest number of KV tokens that fit in the KV budget (binary search over the
    /// exact layout size, since quantized layouts are not perfectly linear).
    pub fn max_resident_tokens(&self) -> usize {
        let budget = self.kv_budget_bytes();
        if budget == 0 {
            return 0;
        }
        let mut lo = 0usize;
        let mut hi = 1usize;
        while self.layout.kv_bytes(&self.shape, hi) <= budget {
            hi *= 2;
            if hi > 1 << 40 {
                break;
            }
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.layout.kv_bytes(&self.shape, mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// §7.4: fraction of GPU memory spent on SE sums at a given residency.
    pub fn se_overhead_fraction(&self, resident_tokens: usize) -> f64 {
        self.breakdown(resident_tokens).se_sums as f64 / self.gpu_memory_bytes.max(1) as f64
    }

    /// §7.4: fraction of GPU memory spent on the RQE FP16 tail at a given residency.
    pub fn rqe_overhead_fraction(&self, resident_tokens: usize) -> f64 {
        self.breakdown(resident_tokens).rqe_tail as f64 / self.gpu_memory_bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Llama-3.1-70B-like decode replica on 8 × A100-80GB (640 GiB), FP16 parameters
    /// ≈ 140 GB, generous activation reservation.
    fn llama70b_model(layout: CacheLayout) -> DecodeMemoryModel {
        DecodeMemoryModel {
            gpu_memory_bytes: 640 * (1 << 30),
            param_bytes: 140 * (1 << 30),
            activation_bytes: 20 * (1 << 30),
            shape: KvShape {
                layers: 80,
                kv_heads: 8,
                head_dim: 128,
            },
            layout,
        }
    }

    #[test]
    fn budget_subtracts_params_and_activations() {
        let m = llama70b_model(CacheLayout::Fp16);
        assert_eq!(m.kv_budget_bytes(), (640 - 140 - 20) * (1 << 30));
    }

    #[test]
    fn breakdown_fraction_grows_with_tokens() {
        let m = llama70b_model(CacheLayout::Fp16);
        let a = m.peak_usage_fraction(100_000);
        let b = m.peak_usage_fraction(1_000_000);
        assert!(b > a);
        assert!(a > 0.25, "params alone put usage above 25%: {a}");
    }

    #[test]
    fn quantized_layout_reduces_peak_usage_as_in_table5() {
        // Same resident token count, baseline vs quantized: the reduction should be in
        // the tens of percent for long-sequence workloads.
        let tokens = 1_200_000;
        let base = llama70b_model(CacheLayout::Fp16).peak_usage_fraction(tokens);
        let quant = llama70b_model(CacheLayout::quantized_baseline()).peak_usage_fraction(tokens);
        let hack = llama70b_model(CacheLayout::hack_default()).peak_usage_fraction(tokens);
        assert!(
            base > quant,
            "baseline {base} should exceed quantized {quant}"
        );
        assert!(base - quant > 0.2, "reduction {} too small", base - quant);
        // HACK sits slightly above the plain quantized methods (sums + tail).
        assert!(hack >= quant);
        assert!(
            hack - quant < 0.05,
            "HACK extra usage {} too large",
            hack - quant
        );
    }

    #[test]
    fn se_overhead_is_a_few_percent_of_quantized_kv() {
        let m = llama70b_model(CacheLayout::hack_default());
        let tokens = 1_200_000;
        let se = m.se_overhead_fraction(tokens);
        // §7.4 reports 2.2%-2.7% of GPU capacity at full load; the exact figure depends
        // on residency, so just require the right order of magnitude.
        assert!(se > 0.001 && se < 0.05, "SE overhead fraction {se}");
    }

    #[test]
    fn rqe_overhead_is_well_below_one_percent() {
        let m = llama70b_model(CacheLayout::hack_default());
        // RQE tail is bounded by Π tokens per sequence; with ~75 resident sequences of
        // 16K tokens the tail share is tiny.
        let tokens = 1_200_000;
        let rqe = m.rqe_overhead_fraction(tokens);
        assert!(rqe < 0.01, "RQE overhead fraction {rqe}");
    }

    #[test]
    fn max_resident_tokens_respects_budget() {
        let m = llama70b_model(CacheLayout::Fp16);
        let max = m.max_resident_tokens();
        assert!(m.layout.kv_bytes(&m.shape, max) <= m.kv_budget_bytes());
        assert!(m.layout.kv_bytes(&m.shape, max + 1) > m.kv_budget_bytes());
        // Quantized layout fits several times more tokens.
        let mq = llama70b_model(CacheLayout::hack_default());
        assert!(mq.max_resident_tokens() > 4 * max);
    }

    #[test]
    fn zero_budget_fits_zero_tokens() {
        let mut m = llama70b_model(CacheLayout::Fp16);
        m.param_bytes = m.gpu_memory_bytes;
        assert_eq!(m.max_resident_tokens(), 0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = llama70b_model(CacheLayout::hack_default());
        let b = m.breakdown(500_000);
        assert_eq!(b.total, b.params + b.activations + b.kv);
        assert!(b.se_sums < b.kv);
        assert!(b.rqe_tail < b.kv);
    }

    #[test]
    fn fraction_is_clamped() {
        let m = llama70b_model(CacheLayout::Fp16);
        assert_eq!(m.peak_usage_fraction(100_000_000), 1.0);
    }
}
