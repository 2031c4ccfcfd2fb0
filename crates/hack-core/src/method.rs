//! The evaluated methods and their mappings to cost profiles, numerical backends and
//! cache layouts.

use hack_baselines::{CacheGenLike, Fp8Format, KvCompressor, KvQuantLike, MinifloatCast};
use hack_kvcache::CacheLayout;
use hack_model::cost::KvMethodProfile;
use hack_model::reference::AttentionBackend;
use hack_quant::params::QuantBits;
use hack_quant::HackConfig;
use serde::Serialize;

/// Every KV-handling method compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Method {
    /// Disaggregated LLM inference baseline: FP16 KV, no compression.
    Baseline,
    /// CacheGen-like bitstream compression, dequantize-before-compute.
    CacheGen,
    /// KVQuant-like 2-bit quantization, dequantize-before-compute.
    KvQuant,
    /// FP8 cast baseline (§3).
    Fp8,
    /// FP6 cast baseline (§3).
    Fp6,
    /// FP4 cast baseline (§3).
    Fp4,
    /// HACK with a given quantization partition size Π (the paper's default is 64).
    Hack {
        /// Partition size Π ∈ {32, 64, 128}.
        partition: usize,
    },
    /// HACK without Summation Elimination (ablation, §7.4).
    HackNoSe,
    /// HACK without Requantization Elimination (ablation, §7.4).
    HackNoRqe,
}

impl Method {
    /// The four methods of the main end-to-end comparison (Figs. 9–12).
    pub fn main_comparison() -> [Method; 4] {
        [
            Method::Baseline,
            Method::CacheGen,
            Method::KvQuant,
            Method::hack(),
        ]
    }

    /// HACK with the default Π = 64.
    pub fn hack() -> Method {
        Method::Hack { partition: 64 }
    }

    /// Display name (matches the labels used in the paper).
    pub fn name(&self) -> String {
        match self {
            Method::Baseline => "Baseline".to_string(),
            Method::CacheGen => "CacheGen".to_string(),
            Method::KvQuant => "KVQuant".to_string(),
            Method::Fp8 => "FP8".to_string(),
            Method::Fp6 => "FP6".to_string(),
            Method::Fp4 => "FP4".to_string(),
            Method::Hack { partition: 64 } => "HACK".to_string(),
            Method::Hack { partition } => format!("HACK (Pi={partition})"),
            Method::HackNoSe => "HACK/SE".to_string(),
            Method::HackNoRqe => "HACK/RQE".to_string(),
        }
    }

    /// Cost-model profile of this method (drives the cluster simulator).
    pub fn profile(&self) -> KvMethodProfile {
        match self {
            Method::Baseline => KvMethodProfile::baseline(),
            Method::CacheGen => KvMethodProfile::cachegen(),
            Method::KvQuant => KvMethodProfile::kvquant(),
            Method::Fp8 => KvMethodProfile::fp8(),
            Method::Fp6 => KvMethodProfile::fp6(),
            Method::Fp4 => KvMethodProfile::fp4(),
            Method::Hack { partition } => KvMethodProfile::hack_with_partition(*partition),
            Method::HackNoSe => KvMethodProfile::hack_no_se(),
            Method::HackNoRqe => KvMethodProfile::hack_no_rqe(),
        }
    }

    /// The numerical attention backend of this method, used by the reference
    /// transformer for fidelity/accuracy experiments.
    pub fn attention_backend(&self) -> AttentionBackend {
        match self {
            Method::Baseline => AttentionBackend::Fp16,
            // Both quantization baselines store 2-bit KV and compute in FP16 after
            // dequantization; numerically they share a backend.
            Method::CacheGen | Method::KvQuant => AttentionBackend::DequantQuant {
                bits: QuantBits::Int2,
                partition: 64,
            },
            // The minifloat baselines convert to FP16 before compute; their numerical
            // behaviour is close to FP16 with a coarser grid — modelled as 4-bit
            // dequantize-then-compute for FP4 and as FP16 for FP8/FP6 (whose error is
            // negligible at attention scale).
            Method::Fp8 | Method::Fp6 => AttentionBackend::Fp16,
            Method::Fp4 => AttentionBackend::DequantQuant {
                bits: QuantBits::Int4,
                partition: 64,
            },
            Method::Hack { partition } => {
                AttentionBackend::Hack(HackConfig::with_partition(*partition))
            }
            Method::HackNoSe => AttentionBackend::Hack(HackConfig::without_summation_elimination()),
            Method::HackNoRqe => AttentionBackend::Hack(HackConfig::without_requant_elimination()),
        }
    }

    /// KV cache layout of this method (drives byte-exact memory accounting).
    pub fn cache_layout(&self) -> CacheLayout {
        match self {
            Method::Baseline => CacheLayout::Fp16,
            Method::CacheGen | Method::KvQuant => CacheLayout::quantized_baseline(),
            Method::Fp8 => CacheLayout::Minifloat { bits: 8 },
            Method::Fp6 => CacheLayout::Minifloat { bits: 6 },
            Method::Fp4 => CacheLayout::Minifloat { bits: 4 },
            Method::Hack { partition } => CacheLayout::Quantized {
                bits: QuantBits::Int2,
                partition: *partition,
                store_sums: true,
                fp16_tail: true,
            },
            Method::HackNoSe => CacheLayout::Quantized {
                bits: QuantBits::Int2,
                partition: 64,
                store_sums: false,
                fp16_tail: true,
            },
            Method::HackNoRqe => CacheLayout::Quantized {
                bits: QuantBits::Int2,
                partition: 64,
                store_sums: true,
                fp16_tail: false,
            },
        }
    }

    /// A wire-level compressor implementing this method's KV encoding, when one exists
    /// (used by the transport demo and the compression-rate experiments).
    pub fn compressor(&self) -> Option<Box<dyn KvCompressor>> {
        match self {
            Method::Baseline => Some(Box::new(hack_baselines::Fp16Identity)),
            Method::CacheGen => Some(Box::new(CacheGenLike::default())),
            Method::KvQuant => Some(Box::new(KvQuantLike::default())),
            Method::Fp8 => Some(Box::new(MinifloatCast::fp8(Fp8Format::E4M3))),
            Method::Fp6 => Some(Box::new(MinifloatCast::fp6())),
            Method::Fp4 => Some(Box::new(MinifloatCast::fp4())),
            // HACK's quantized representation is produced by the attention kernels
            // themselves (it is not a standalone codec).
            Method::Hack { .. } | Method::HackNoSe | Method::HackNoRqe => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Method::Baseline.name(), "Baseline");
        assert_eq!(Method::hack().name(), "HACK");
        assert_eq!(Method::Hack { partition: 32 }.name(), "HACK (Pi=32)");
        assert_eq!(Method::HackNoSe.name(), "HACK/SE");
        assert_eq!(Method::HackNoRqe.name(), "HACK/RQE");
    }

    #[test]
    fn main_comparison_has_four_methods() {
        let methods = Method::main_comparison();
        assert_eq!(methods.len(), 4);
        assert_eq!(methods[0], Method::Baseline);
        assert_eq!(methods[3], Method::hack());
    }

    #[test]
    fn profiles_are_consistent_with_semantics() {
        assert!(!Method::Baseline.profile().quantizes);
        assert!(Method::CacheGen.profile().dequant_per_iter);
        assert!(Method::hack().profile().int8_attention);
        assert!(!Method::HackNoSe.profile().summation_elimination);
        assert!(!Method::HackNoRqe.profile().requant_elimination);
        assert_eq!(Method::Hack { partition: 32 }.profile().partition, 32);
    }

    #[test]
    fn compressors_exist_for_codec_methods() {
        assert!(Method::CacheGen.compressor().is_some());
        assert!(Method::KvQuant.compressor().is_some());
        assert!(Method::Fp4.compressor().is_some());
        assert!(Method::hack().compressor().is_none());
    }

    #[test]
    fn cache_layouts_compress_as_expected() {
        use hack_kvcache::KvShape;
        let shape = KvShape {
            layers: 80,
            kv_heads: 8,
            head_dim: 128,
        };
        let tokens = 16_384;
        let fp16 = Method::Baseline.cache_layout().kv_bytes(&shape, tokens);
        let hack = Method::hack().cache_layout().kv_bytes(&shape, tokens);
        let fp8 = Method::Fp8.cache_layout().kv_bytes(&shape, tokens);
        assert!(hack * 5 < fp16);
        assert_eq!(fp8 * 2, fp16);
    }

    #[test]
    fn backends_are_wired_to_the_right_kernels() {
        assert!(matches!(
            Method::hack().attention_backend(),
            AttentionBackend::Hack(_)
        ));
        assert!(matches!(
            Method::KvQuant.attention_backend(),
            AttentionBackend::DequantQuant { .. }
        ));
        assert!(matches!(
            Method::Baseline.attention_backend(),
            AttentionBackend::Fp16
        ));
    }
}
