//! Operation-count and byte-count formulas from §5.2, §5.3 and §6 of the paper.
//!
//! These formulas drive two things:
//!
//! * the analytical cost model in `hack-model`/`hack-cluster`, which converts operation
//!   and byte counts into simulated GPU time, and
//! * the ablation benches, which verify that the measured CPU kernels scale the way the
//!   formulas predict.

use crate::params::{PartitionSize, QuantBits};
use crate::qmatrix::PartitionLayout;

/// Operation counts recorded by [`crate::homomorphic::homomorphic_matmul_counted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomomorphicOpCounts {
    /// Rows of the left operand.
    pub m: usize,
    /// Rows of the (transposed) right operand.
    pub n: usize,
    /// Contracted dimension.
    pub z: usize,
    /// Integer multiply-accumulate operations in the code GEMM (`M·N·Z`).
    pub int_mac_ops: usize,
    /// Floating-point operations spent on the affine approximation.
    pub approx_ops: usize,
    /// Operations spent recomputing partition sums (zero with Summation Elimination).
    pub sum_recompute_ops: usize,
}

impl HomomorphicOpCounts {
    /// Counts of a full `M×Z · Z×N` Eq. 4 product with partitions of Π = `partition`:
    /// `M·N·Z` integer MACs, 9 approximation ops per `(i, j, partition)` triple, and
    /// `(M + N)·Z` sum recomputations without Summation Elimination.
    pub fn dense(m: usize, n: usize, z: usize, partition: usize, use_stored_sums: bool) -> Self {
        let n_parts = PartitionLayout::new(z, partition).n_partitions();
        Self {
            m,
            n,
            z,
            int_mac_ops: m * n * z,
            approx_ops: 9 * m * n * n_parts,
            sum_recompute_ops: if use_stored_sums { 0 } else { (m + n) * z },
        }
    }

    /// Total operations.
    pub fn total(&self) -> usize {
        self.int_mac_ops + self.approx_ops + self.sum_recompute_ops
    }
}

/// Cost of the full approximation step of Eq. 4 (no Summation Elimination):
/// `9·M·N + M·Z + N·Z` (§5.2).
pub fn approx_ops(m: usize, n: usize, z: usize) -> usize {
    9 * m * n + m * z + n * z
}

/// Cost of the approximation step with Summation Elimination: the `N·Z` term (the sum
/// over the stored operand's codes) is eliminated because the sums are kept alongside
/// the quantized data (§5.3).
pub fn approx_ops_with_se(m: usize, n: usize, z: usize) -> usize {
    9 * m * n + m * z
}

/// Per-decode-iteration approximation cost of the two attention products with SE:
/// `10·(d_h + L_KV)` (§5.3). Derived from [`approx_ops_with_se`] with
/// `(M, Z, N) = (1, d_h, L_KV)` for `Q·Kᵀ` and `(1, L_KV, d_h)` for `P·V`.
pub fn decode_approx_ops_with_se(d_h: usize, l_kv: usize) -> usize {
    approx_ops_with_se(1, l_kv, d_h) + approx_ops_with_se(1, d_h, l_kv)
}

/// Per-decode-iteration approximation cost without SE:
/// `10·(d_h + L_KV) + 2·d_h·L_KV` (§5.3).
pub fn decode_approx_ops_without_se(d_h: usize, l_kv: usize) -> usize {
    approx_ops(1, l_kv, d_h) + approx_ops(1, d_h, l_kv)
}

/// Cost of dequantizing the KV data of one head for one decode iteration:
/// `4·d_h·L_KV` (§5.3 — `2·d_h·L_KV` for K plus the same for V, one multiply and one
/// add per element).
pub fn kv_dequant_ops(d_h: usize, l_kv: usize) -> usize {
    4 * d_h * l_kv
}

/// Cost of requantizing the last block of V without RQE in one decode iteration:
/// the whole partial block (up to `Π·d_h` elements) is dequantized and requantized
/// (≈ 5 ops per element: dequant 2 + quant 3).
pub fn requant_last_block_ops(tokens_in_last_block: usize, d_h: usize) -> usize {
    5 * tokens_in_last_block * d_h
}

/// Bytes of an FP16 tensor with `elements` entries.
pub fn fp16_bytes(elements: usize) -> usize {
    2 * elements
}

/// Storage bytes of a quantized tensor with `vectors` vectors of `length` elements:
/// packed codes + per-partition FP16 `min`/`scale` + (optionally) per-partition sums.
pub fn quantized_tensor_bytes(
    vectors: usize,
    length: usize,
    bits: QuantBits,
    partition: usize,
    include_sums: bool,
) -> usize {
    if vectors == 0 || length == 0 {
        return 0;
    }
    let n_parts = length.div_ceil(partition);
    let codes = vectors * bits.packed_bytes(length);
    let meta = vectors * n_parts * 4;
    let sums = if include_sums {
        vectors * n_parts * PartitionSize(partition).sum_storage_bytes(bits)
    } else {
        0
    };
    codes + meta + sums
}

/// Storage bytes of one attention head's quantized KV data for `tokens` tokens:
/// K is partitioned along the head dimension (one set of partitions per token), V is
/// partitioned along the sequence dimension (one set of partitions per channel).
pub fn quantized_kv_head_bytes(
    tokens: usize,
    head_dim: usize,
    bits: QuantBits,
    partition: usize,
    include_sums: bool,
) -> usize {
    let k = quantized_tensor_bytes(tokens, head_dim, bits, partition, include_sums);
    let v = quantized_tensor_bytes(head_dim, tokens, bits, partition, include_sums);
    k + v
}

/// Storage bytes of one attention head's FP16 KV data for `tokens` tokens.
pub fn fp16_kv_head_bytes(tokens: usize, head_dim: usize) -> usize {
    2 * fp16_bytes(tokens * head_dim)
}

/// Bytes of the FP16 tail buffer used by Requantization Elimination: the last
/// (partial) block of V, at most `Π` tokens of `head_dim` channels.
pub fn rqe_tail_bytes(tokens_in_last_block: usize, head_dim: usize) -> usize {
    fp16_bytes(tokens_in_last_block * head_dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_cost_formula() {
        assert_eq!(approx_ops(1, 100, 128), 900 + 128 + 12_800);
        assert_eq!(approx_ops_with_se(1, 100, 128), 900 + 128);
    }

    #[test]
    fn decode_costs_match_paper_expressions() {
        let d_h = 128;
        for l_kv in [10usize, 100, 1000, 10_000] {
            assert_eq!(decode_approx_ops_with_se(d_h, l_kv), 10 * (d_h + l_kv));
            assert_eq!(
                decode_approx_ops_without_se(d_h, l_kv),
                10 * (d_h + l_kv) + 2 * d_h * l_kv
            );
            assert_eq!(kv_dequant_ops(d_h, l_kv), 4 * d_h * l_kv);
        }
    }

    #[test]
    fn approximation_cheaper_than_dequantization_beyond_threshold() {
        // §5.3: 4·d_h·L_KV > 10·(d_h + L_KV) once L_KV > 2.5 (with d_h = 128), and the
        // gap exceeds 10x once L_KV > 30.
        let d_h = 128;
        assert!(kv_dequant_ops(d_h, 3) > decode_approx_ops_with_se(d_h, 3));
        assert!(kv_dequant_ops(d_h, 40) > 10 * decode_approx_ops_with_se(d_h, 40));
        // At L_KV = 2 the inequality does not yet hold strictly in the >10x sense.
        assert!(kv_dequant_ops(d_h, 2) < 10 * decode_approx_ops_with_se(d_h, 2));
    }

    #[test]
    fn quantized_tensor_bytes_formula() {
        // 16 vectors of 128 elements, 2-bit, Π=64: codes 16*32=512, meta 16*2*4=128,
        // sums 16*2*1=32.
        let with_sums = quantized_tensor_bytes(16, 128, QuantBits::Int2, 64, true);
        assert_eq!(with_sums, 512 + 128 + 32);
        let without = quantized_tensor_bytes(16, 128, QuantBits::Int2, 64, false);
        assert_eq!(without, 512 + 128);
        assert_eq!(quantized_tensor_bytes(0, 128, QuantBits::Int2, 64, true), 0);
        assert_eq!(quantized_tensor_bytes(16, 0, QuantBits::Int2, 64, true), 0);
    }

    #[test]
    fn kv_head_bytes_and_compression() {
        let tokens = 4096;
        let d_h = 128;
        let fp16 = fp16_kv_head_bytes(tokens, d_h);
        assert_eq!(fp16, 2 * 2 * tokens * d_h);
        let ratio_of = |include_sums| {
            let q = quantized_kv_head_bytes(tokens, d_h, QuantBits::Int2, 64, include_sums);
            1.0 - q as f64 / fp16 as f64
        };
        let ratio = ratio_of(true);
        // The paper quotes ~85-86% KV compression for 2-bit quantization with
        // per-partition metadata.
        assert!(ratio > 0.82 && ratio < 0.88, "compression ratio {ratio}");
        // Including sums costs a little extra memory (the ~5% of quantized size noted
        // in §6), so the ratio without sums must be higher.
        let ratio_no_sums = ratio_of(false);
        assert!(ratio_no_sums > ratio);
    }

    #[test]
    fn sum_storage_share_is_small() {
        // §6: INT16 sum values account for ~5% of the quantized KV data (Π=128 case).
        let tokens = 4096;
        let d_h = 128;
        let with_sums = quantized_kv_head_bytes(tokens, d_h, QuantBits::Int2, 128, true);
        let without = quantized_kv_head_bytes(tokens, d_h, QuantBits::Int2, 128, false);
        let share = (with_sums - without) as f64 / without as f64;
        assert!(share > 0.02 && share < 0.08, "sum share {share}");
    }

    #[test]
    fn rqe_tail_is_tiny_fraction_of_long_sequence() {
        let d_h = 128;
        let partition = 64;
        let tail = rqe_tail_bytes(partition - 1, d_h);
        let full = fp16_kv_head_bytes(16_000, d_h);
        assert!((tail as f64) / (full as f64) < 0.01);
    }

    #[test]
    fn requant_cost_scales_with_block_fill() {
        assert_eq!(requant_last_block_ops(0, 128), 0);
        assert!(requant_last_block_ops(63, 128) > requant_last_block_ops(1, 128));
    }

    #[test]
    fn op_counts_total() {
        let c = HomomorphicOpCounts {
            m: 1,
            n: 2,
            z: 3,
            int_mac_ops: 10,
            approx_ops: 20,
            sum_recompute_ops: 5,
        };
        assert_eq!(c.total(), 35);
    }
}
