//! # hack-quant
//!
//! The paper's core contribution: **homomorphic quantization for matrix
//! multiplication** (HACK §5.2–§5.3).
//!
//! Given a matrix product `C = A·B`, the method
//!
//! 1. quantizes `A` and `B` with asymmetric, partitioned, `b`-bit *stochastic*
//!    quantization (each partition of `Π` consecutive elements along the contracted
//!    dimension gets its own `min`/`scale`),
//! 2. multiplies the small integer codes directly (`C' = A'·B'`, executable on INT8
//!    hardware), and
//! 3. recovers an approximation of `C` from `C'` with a cheap affine correction
//!    (Eq. 4) — **without ever dequantizing** `A` or `B`.
//!
//! The crate provides:
//!
//! * [`params`] — quantization precisions, partition sizes, rounding modes and the
//!   paper's default configuration (2-bit K/V, 8-bit Q/P, Π = 64).
//! * [`stochastic`] — scalar asymmetric quantization with stochastic rounding.
//! * [`qmatrix`] — [`QuantizedTensor`]: partitioned quantized storage of a set of
//!   vectors along the contracted dimension, with per-partition metadata, per-partition
//!   code sums (Summation Elimination) and packed-bit size accounting.
//! * [`homomorphic`] — the homomorphic GEMM (Eq. 4), its no-SE variant, and the
//!   dequantize-then-multiply comparator used by KV-quantization baselines.
//! * [`packing`] — dense bit-packing of codes (2/4/8-bit) used for wire transfer and
//!   for byte-exact memory accounting.
//! * [`cost`] — the paper's operation-count and byte-count formulas (§5.2, §5.3, §6),
//!   used by the cluster cost model and the ablation benches.

pub mod cost;
pub mod homomorphic;
pub mod packing;
pub mod params;
pub mod qmatrix;
pub mod stochastic;

pub use homomorphic::{
    dequant_matmul, homomorphic_matmul, homomorphic_matmul_no_se, RightLanes, RowProduct,
};
pub use params::{HackConfig, PartitionSize, QuantBits, RoundingMode};
pub use qmatrix::{PartitionLayout, QuantRow, QuantizedTensor};
