//! # hack-attention
//!
//! Attention kernels for the HACK reproduction (§5.3, §6 of the paper).
//!
//! Three execution paths are provided, mirroring the systems compared in the paper:
//!
//! | Path | Module | Models |
//! |---|---|---|
//! | FP32/FP16 dense attention | [`baseline`] | the disaggregated-inference baseline |
//! | Dequantize-then-compute attention | [`dequant_path`] | CacheGen / KVQuant: 2-bit KV storage, FP16 compute |
//! | Homomorphic-quantized attention | [`prefill`], [`state`] | HACK's `attn_prefill` / `attn_decode` kernels |
//!
//! The HACK decode path keeps its per-head KV state in [`state::HackKvState`]: 2-bit
//! quantized K (partitioned along the head dimension), 2-bit quantized V (partitioned
//! along the sequence dimension), per-partition code sums (Summation Elimination) and
//! an FP16 tail buffer holding the last, partial block of V (Requantization
//! Elimination). Both optimizations can be disabled through
//! [`hack_quant::HackConfig`] for the ablation study (§7.4).

pub mod baseline;
pub mod dequant_path;
pub mod prefill;
pub mod state;

pub use baseline::{baseline_attention, fp16_attention, AttentionMask};
pub use dequant_path::dequant_quantized_attention;
pub use prefill::{hack_prefill_attention, PrefillOutput};
pub use state::{DecodeStepStats, HackKvState};
