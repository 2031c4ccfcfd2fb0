//! Homomorphic quantized matrix multiplication (Eq. 4 of the paper).
//!
//! For `C = A·B` with `A` quantized per-row and `B` quantized per-column (both along
//! the contracted dimension, in aligned partitions of Π elements), each output entry is
//! recovered per partition `p` as
//!
//! ```text
//! Σ_z a_iz·b_zj ≈ s_a·s_b·Σ_z a'_iz·b'_zj  +  m_b·s_a·Σ_z a'_iz  +  m_a·s_b·Σ_z b'_zj  +  Π·m_a·m_b
//! ```
//!
//! The first term is the integer GEMM on the raw codes (executable with INT8 tensor
//! cores); the remaining three are the cheap affine correction. With Summation
//! Elimination the code sums `Σ a'` and `Σ b'` are read from storage instead of being
//! recomputed.

use crate::cost::HomomorphicOpCounts;
use crate::qmatrix::{QuantRow, QuantizedTensor};
use crate::stochastic::PartitionMeta;
use hack_tensor::matmul::{partition_dots8_u8_i32, DOT_BLOCK};
use hack_tensor::Matrix;
use std::borrow::Cow;

/// Checks that two tensors can participate in a homomorphic product.
fn check_compat(a: &QuantizedTensor, b: &QuantizedTensor) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "contracted dimension mismatch: A has {}, B has {}",
        a.cols(),
        b.cols()
    );
    assert_eq!(
        a.partition(),
        b.partition(),
        "partition size mismatch: A uses {}, B uses {}",
        a.partition(),
        b.partition()
    );
}

/// Homomorphic quantized GEMM with Summation Elimination (stored code sums).
///
/// `a` holds the `M` rows of the left operand, `b` holds the `N` columns of the right
/// operand (both along the contracted dimension). Returns the `M × N` approximation of
/// `A·B` in `f32`.
pub fn homomorphic_matmul(a: &QuantizedTensor, b: &QuantizedTensor) -> Matrix {
    homomorphic_matmul_impl(a, b, true).0
}

/// Homomorphic quantized GEMM without Summation Elimination: the per-partition code
/// sums are recomputed from the codes on every call (the HACK/SE ablation, §7.4).
/// The numerical result is identical to [`homomorphic_matmul`].
pub fn homomorphic_matmul_no_se(a: &QuantizedTensor, b: &QuantizedTensor) -> Matrix {
    homomorphic_matmul_impl(a, b, false).0
}

/// Homomorphic GEMM that also returns the operation counts of the integer GEMM and of
/// the approximation step, for the cost model and the ablation benches.
pub fn homomorphic_matmul_counted(
    a: &QuantizedTensor,
    b: &QuantizedTensor,
    use_stored_sums: bool,
) -> (Matrix, HomomorphicOpCounts) {
    homomorphic_matmul_impl(a, b, use_stored_sums)
}

/// [`homomorphic_matmul_counted`] with Summation Elimination, reading the right
/// operand's metadata and stored code sums from `b_lanes` instead of building them.
/// A decode state keeps such lanes across steps (see [`RightLanes`]); the result
/// and the counts are bit-identical to `homomorphic_matmul_counted(a, b, true)`.
///
/// # Panics
/// Panics if the operands are incompatible or `b_lanes` does not describe `b`.
pub fn homomorphic_matmul_with_lanes(
    a: &QuantizedTensor,
    b: &QuantizedTensor,
    b_lanes: &RightLanes,
) -> (Matrix, HomomorphicOpCounts) {
    check_compat(a, b);
    multiply(a, RowProduct::with_lanes(b, b_lanes), true)
}

fn homomorphic_matmul_impl(
    a: &QuantizedTensor,
    b: &QuantizedTensor,
    use_stored_sums: bool,
) -> (Matrix, HomomorphicOpCounts) {
    check_compat(a, b);
    // Code sums: stored with SE, recomputed once per row-partition without (the same
    // count as reading them partition by partition, so `sum_recompute_ops` holds).
    let b_sums = b.code_sums(use_stored_sums);
    multiply(a, RowProduct::with_sums(b, &b_sums), use_stored_sums)
}

/// Every row of `a` times the right operand of `product`, over all partitions.
fn multiply(
    a: &QuantizedTensor,
    mut product: RowProduct<'_>,
    use_stored_sums: bool,
) -> (Matrix, HomomorphicOpCounts) {
    let (m, n, n_parts) = (a.rows(), product.b.rows(), a.n_partitions());
    let mut out = Matrix::zeros(m, n);
    let a_sums = a.code_sums(use_stored_sums);
    for i in 0..m {
        product.accumulate(a.row_prefix(i, n_parts, &a_sums), out.row_mut(i));
    }
    let counts = HomomorphicOpCounts::dense(m, n, a.cols(), a.partition(), use_stored_sums);
    (out, counts)
}

/// The right operand's metadata and code sums as `f32` lanes, the layout the
/// eight-column Eq. 4 epilogue of [`RowProduct`] reads.
///
/// Block-major: entry `block * n_parts + p` holds partition `p` of right rows
/// (output columns) `block * DOT_BLOCK..`. Dead lanes of the last block repeat its
/// last live row; they compute values the product drops. Both ways a right operand
/// grows append cheaply, so a decode state keeps its lanes across steps:
///
/// * new right rows (a K' token) fill the last block or add one at the end
///   ([`Self::push_rows`]);
/// * a longer contracted dimension (V' gaining tokens) rewrites the requantized
///   last partition in place, or re-lays out the lanes once a new partition starts
///   ([`Self::extend_cols`]).
///
/// Either way the lanes equal those [`Self::new`] builds from the grown tensor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RightLanes {
    lanes: Vec<BlockLanes>,
    rows: usize,
    n_parts: usize,
}

/// One partition of one block of right-operand rows, as the Eq. 4 epilogue
/// reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BlockLanes {
    scale: [f32; DOT_BLOCK],
    min: [f32; DOT_BLOCK],
    sum: [f32; DOT_BLOCK],
}

impl RightLanes {
    /// The lanes of every row of `b`, with code sums read from `b_sums` (row-major,
    /// one per partition, as [`QuantizedTensor::code_sums`] returns them).
    ///
    /// # Panics
    /// Panics if `b_sums` does not hold one sum per partition of `b`.
    pub fn new(b: &QuantizedTensor, b_sums: &[i32]) -> Self {
        check_sums(b, b_sums);
        let (rows, n_parts) = (b.rows(), b.n_partitions());
        let mut lanes = vec![BlockLanes::default(); rows.div_ceil(DOT_BLOCK) * n_parts];
        for p in 0..n_parts {
            for (block, entry) in lanes.iter_mut().skip(p).step_by(n_parts).enumerate() {
                for c in 0..DOT_BLOCK {
                    let at = (block * DOT_BLOCK + c).min(rows - 1) * n_parts + p;
                    entry.scale[c] = b.metas()[at].scale;
                    entry.min[c] = b.metas()[at].min;
                    entry.sum[c] = b_sums[at] as f32;
                }
            }
        }
        Self {
            lanes,
            rows,
            n_parts,
        }
    }

    /// Adds the lanes of the rows `b` gained since these lanes were built or last
    /// extended (rows `self.rows()..b.rows()`).
    ///
    /// # Panics
    /// Panics if `b` has fewer rows or another partition count than the lanes, or
    /// `b_sums` does not hold one sum per partition of `b`.
    pub fn push_rows(&mut self, b: &QuantizedTensor, b_sums: &[i32]) {
        check_sums(b, b_sums);
        assert!(
            b.rows() >= self.rows && b.n_partitions() == self.n_parts,
            "lanes of {} rows × {} partitions cannot grow into {} × {}",
            self.rows,
            self.n_parts,
            b.rows(),
            b.n_partitions()
        );
        let n_parts = self.n_parts;
        for j in self.rows..b.rows() {
            if j % DOT_BLOCK == 0 {
                self.lanes
                    .resize(self.lanes.len() + n_parts, BlockLanes::default());
            }
            self.write_row(b, b_sums, j, 0..n_parts);
        }
        self.rows = b.rows();
    }

    /// Brings the lanes up to date after every row of `b` grew along the contracted
    /// dimension (the append requantized the last partition, or started new ones):
    /// the last partition is rewritten in place when the partition count held,
    /// and the lanes are re-laid out when it grew.
    ///
    /// # Panics
    /// Panics if `b` has another row count or fewer partitions than the lanes, or
    /// `b_sums` does not hold one sum per partition of `b`.
    pub fn extend_cols(&mut self, b: &QuantizedTensor, b_sums: &[i32]) {
        check_sums(b, b_sums);
        assert!(
            b.rows() == self.rows && b.n_partitions() >= self.n_parts,
            "lanes of {} rows × {} partitions cannot grow into {} × {}",
            self.rows,
            self.n_parts,
            b.rows(),
            b.n_partitions()
        );
        if b.n_partitions() > self.n_parts {
            *self = Self::new(b, b_sums);
        } else if let Some(last) = self.n_parts.checked_sub(1) {
            for j in 0..self.rows {
                self.write_row(b, b_sums, j, last..self.n_parts);
            }
        }
    }

    /// Copies partitions `parts` of right row `j` into its lane and the dead lanes
    /// after it. Rows written in order leave every lane as [`Self::new`] does.
    #[inline]
    fn write_row(
        &mut self,
        b: &QuantizedTensor,
        b_sums: &[i32],
        j: usize,
        parts: std::ops::Range<usize>,
    ) {
        let c = j % DOT_BLOCK;
        let (lanes, row) = ((j / DOT_BLOCK) * self.n_parts, j * self.n_parts);
        let entries = &mut self.lanes[lanes + parts.start..lanes + parts.end];
        let metas = &b.metas()[row + parts.start..row + parts.end];
        let sums = &b_sums[row + parts.start..row + parts.end];
        for ((entry, meta), &sum) in entries.iter_mut().zip(metas).zip(sums) {
            entry.scale[c..].fill(meta.scale);
            entry.min[c..].fill(meta.min);
            entry.sum[c..].fill(sum as f32);
        }
    }
}

fn check_sums(b: &QuantizedTensor, b_sums: &[i32]) {
    assert_eq!(
        b_sums.len(),
        b.sums().len(),
        "right operand: one code sum per partition"
    );
}

/// The Eq. 4 product of single left-operand rows with the rows of one right
/// operand, eight right rows (output columns) at a time.
///
/// [`homomorphic_matmul`] runs it once per left row over every column and
/// partition. Causal prefill runs it on prefixes: `Q'·K'ᵀ` row `i` over the
/// keys `j ≤ i` only, and `P'·V'` row `i` over the probability partitions up
/// to the diagonal only. Decode runs it on lanes its state keeps.
#[derive(Debug)]
pub struct RowProduct<'b> {
    b: &'b QuantizedTensor,
    b_max: u8,
    spans: Vec<(usize, usize)>,
    lens: Vec<f32>,
    lanes: Cow<'b, RightLanes>,
    dots: Vec<[i32; DOT_BLOCK]>,
}

impl<'b> RowProduct<'b> {
    /// Prepares products with the right operand `b` (its rows are the output
    /// columns), reading its stored code sums.
    pub fn new(b: &'b QuantizedTensor) -> Self {
        Self::with_sums(b, b.sums())
    }

    /// Like [`Self::new`], but reads the right operand's code sums from `b_sums`
    /// (row-major, one per partition, as [`QuantizedTensor::code_sums`] returns them).
    /// The right operand's metadata and these sums are copied once, as `f32`, into
    /// the [`RightLanes`] the eight-lane epilogue reads.
    ///
    /// # Panics
    /// Panics if `b_sums` does not hold one sum per partition of `b`.
    pub fn with_sums(b: &'b QuantizedTensor, b_sums: &[i32]) -> Self {
        Self::from_lanes(b, Cow::Owned(RightLanes::new(b, b_sums)))
    }

    /// Like [`Self::new`], but reads the right operand's metadata and code sums
    /// from `lanes`, which the caller built (or kept up to date) for `b`.
    ///
    /// # Panics
    /// Panics if `lanes` has another row or partition count than `b`.
    pub fn with_lanes(b: &'b QuantizedTensor, lanes: &'b RightLanes) -> Self {
        assert!(
            lanes.rows == b.rows() && lanes.n_parts == b.n_partitions(),
            "lanes of {} rows × {} partitions do not describe a right operand of {} × {}",
            lanes.rows,
            lanes.n_parts,
            b.rows(),
            b.n_partitions()
        );
        Self::from_lanes(b, Cow::Borrowed(lanes))
    }

    fn from_lanes(b: &'b QuantizedTensor, lanes: Cow<'b, RightLanes>) -> Self {
        let spans: Vec<(usize, usize)> = b.layout().ranges().collect();
        Self {
            b,
            b_max: b.bits().max_code() as u8,
            lens: spans.iter().map(|&(s, e)| (e - s) as f32).collect(),
            lanes,
            dots: vec![[0; DOT_BLOCK]; spans.len()],
            spans,
        }
    }

    /// Adds to `out[j]` the Eq. 4 product of `a` with right row `j`, for the
    /// first `out.len()` right rows, over the partitions `a` carries (a prefix
    /// of the right operand's).
    ///
    /// Each entry accumulates its partitions in order from `+0.0`, the same
    /// floating-point sequence as the scalar reference, so results are
    /// bit-identical to it.
    ///
    /// # Panics
    /// Panics if `out` is longer than the right operand has rows, or `a` has
    /// more partitions than it, or `a.sums` and `a.metas` differ in length.
    pub fn accumulate(&mut self, a: QuantRow<'_>, out: &mut [f32]) {
        let n_parts = a.metas.len();
        assert_eq!(a.sums.len(), n_parts, "left row: one sum per partition");
        assert!(
            n_parts <= self.spans.len() && out.len() <= self.b.rows(),
            "left row of {n_parts} partitions × {} columns exceeds the right operand",
            out.len()
        );
        let (spans, lens) = (&self.spans[..n_parts], &self.lens[..n_parts]);
        let dots = &mut self.dots[..n_parts];
        let b_parts = self.lanes.n_parts;
        for (block, out_block) in out.chunks_mut(DOT_BLOCK).enumerate() {
            let live = out_block.len();
            let mut rows: [&[u8]; DOT_BLOCK] = [&[]; DOT_BLOCK];
            for (c, row) in rows.iter_mut().enumerate().take(live) {
                *row = self.b.codes_row(block * DOT_BLOCK + c);
            }
            // Integer inner products on the raw codes, every partition of eight
            // columns in one pass (the INT8-accelerated part).
            partition_dots8_u8_i32(a.codes, &rows[..live], self.b_max, spans, dots);

            // Per-partition affine corrections (Eq. 4), in partition order.
            let lanes = &self.lanes.lanes[block * b_parts..][..n_parts];
            let mut acc = [0.0f32; DOT_BLOCK];
            for (p, (dot, b)) in dots.iter().zip(lanes).enumerate() {
                eq4_lanes(&mut acc, dot, a.metas[p], a.sums[p] as f32, lens[p], b);
            }
            for (o, acc) in out_block.iter_mut().zip(acc) {
                *o += acc;
            }
        }
    }
}

/// Adds one partition's Eq. 4 term to eight output columns:
///
/// `acc += (((a.s·b.s)·dot + (b.m·a.s)·Σa) + (a.m·b.s)·Σb) + (len·a.m)·b.m`
///
/// The eight columns are independent lanes running the scalar reference's
/// floating-point sequence: each lane does the same IEEE `f32` operations in
/// the same association (`len·a.m` is lane-invariant, so computing it once
/// changes no bit), Rust never contracts them into fused multiply-adds, and
/// `dot as f32` rounds to nearest whether it compiles to a scalar or a packed
/// `cvtdq2ps`. The fixed-width array form lets the compiler run the lanes as
/// packed vector instructions; the result is bit-identical either way.
#[inline(always)]
fn eq4_lanes(
    acc: &mut [f32; DOT_BLOCK],
    dot: &[i32; DOT_BLOCK],
    a: PartitionMeta,
    a_sum: f32,
    len: f32,
    b: &BlockLanes,
) {
    let len_a_min = len * a.min;
    for c in 0..DOT_BLOCK {
        acc[c] += a.scale * b.scale[c] * dot[c] as f32
            + b.min[c] * a.scale * a_sum
            + a.min * b.scale[c] * b.sum[c]
            + len_a_min * b.min[c];
    }
}

/// The pre-change scalar homomorphic GEMM, retained verbatim.
///
/// It is the bit-exactness oracle the blocked kernel above is pinned against in
/// tests.
#[cfg(test)]
pub mod reference {
    use super::*;

    /// Scalar homomorphic GEMM (the seed implementation of
    /// [`super::homomorphic_matmul`]).
    pub fn homomorphic_matmul_scalar(
        a: &QuantizedTensor,
        b: &QuantizedTensor,
        use_stored_sums: bool,
    ) -> (Matrix, HomomorphicOpCounts) {
        check_compat(a, b);
        let m = a.rows();
        let n = b.rows();
        let z = a.cols();
        let n_parts = a.n_partitions();
        let mut out = Matrix::zeros(m, n);
        let mut counts = HomomorphicOpCounts::default();

        for p in 0..n_parts {
            let (start, end) = a.partition_range(p);
            let len = (end - start) as f32;

            // Pre-fetch the per-partition sums for both operands.
            let a_sums: Vec<i32> = (0..m)
                .map(|i| {
                    if use_stored_sums {
                        a.sum(i, p)
                    } else {
                        counts.sum_recompute_ops += end - start;
                        a.recompute_sum(i, p)
                    }
                })
                .collect();
            let b_sums: Vec<i32> = (0..n)
                .map(|j| {
                    if use_stored_sums {
                        b.sum(j, p)
                    } else {
                        counts.sum_recompute_ops += end - start;
                        b.recompute_sum(j, p)
                    }
                })
                .collect();

            #[allow(clippy::needless_range_loop)]
            for i in 0..m {
                let a_codes = &a.codes_row(i)[start..end];
                let a_meta = a.meta(i, p);
                let out_row = out.row_mut(i);
                for j in 0..n {
                    let b_codes = &b.codes_row(j)[start..end];
                    let b_meta = b.meta(j, p);

                    // Integer inner product on the raw codes.
                    let mut dot = 0i32;
                    for (x, y) in a_codes.iter().zip(b_codes) {
                        dot += *x as i32 * *y as i32;
                    }
                    counts.int_mac_ops += end - start;

                    // Affine correction (Eq. 4).
                    let approx = a_meta.scale * b_meta.scale * dot as f32
                        + b_meta.min * a_meta.scale * a_sums[i] as f32
                        + a_meta.min * b_meta.scale * b_sums[j] as f32
                        + len * a_meta.min * b_meta.min;
                    counts.approx_ops += 9;
                    out_row[j] += approx;
                }
            }
        }
        counts.m = m;
        counts.n = n;
        counts.z = z;
        (out, counts)
    }
}

/// Dequantize-then-multiply comparator: the path KV-quantization baselines (CacheGen,
/// KVQuant) must take. Both operands are fully dequantized to FP16 precision and the
/// product is computed in floating point. Mathematically this equals the homomorphic
/// result; the paper's point is that it costs a full dequantization of the KV data on
/// every decode iteration.
pub fn dequant_matmul(a: &QuantizedTensor, b: &QuantizedTensor) -> Matrix {
    check_compat(a, b);
    let a_deq = a.dequantize().to_f16_precision();
    let b_deq = b.dequantize().to_f16_precision();
    hack_tensor::matmul::matmul_transposed_b(&a_deq, &b_deq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{QuantBits, RoundingMode};
    use hack_tensor::matmul::matmul_transposed_b;
    use hack_tensor::{relative_frobenius_error, DetRng, Matrix};

    fn quantize_pair(
        a: &Matrix,
        b_t: &Matrix,
        a_bits: QuantBits,
        b_bits: QuantBits,
        partition: usize,
        rng: &mut DetRng,
    ) -> (QuantizedTensor, QuantizedTensor) {
        let qa = QuantizedTensor::quantize_rows(a, a_bits, partition, RoundingMode::Nearest, rng);
        let qb = QuantizedTensor::quantize_rows(b_t, b_bits, partition, RoundingMode::Nearest, rng);
        (qa, qb)
    }

    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_scalar_reference() {
        // The 8-column blocked kernel must reproduce the scalar seed implementation
        // exactly: same output bits, same operation counts, with and without SE.
        // The column counts cover every residue modulo 8 (1–7 live lanes in the
        // last block, and full blocks), up to decode P'·V'-like widths; the
        // contracted lengths cover full, ragged-last and single short partitions;
        // Π ∈ {16, 32, 64, 128} (at Π = 16 every partition is shorter than one
        // 32-code SIMD step); and both microkernel paths run (2/4-bit right codes,
        // Int8 × Int8).
        let lengths = [128usize, 96, 100, 16, 130, 256, 200, 320];
        let shapes = (1..=17usize)
            .chain([128, 130])
            .enumerate()
            .map(|(case, n)| (1 + case % 3, n, lengths[case % lengths.len()]));
        let bit_pairs = [
            (QuantBits::Int8, QuantBits::Int2),
            (QuantBits::Int8, QuantBits::Int4),
            (QuantBits::Int8, QuantBits::Int8),
            (QuantBits::Int2, QuantBits::Int2),
        ];
        for (case, (m, n, z)) in shapes.enumerate() {
            for partition in [16, 32, 64, 128] {
                for (a_bits, b_bits) in bit_pairs {
                    let mut rng = DetRng::new(4242 + case as u64);
                    let a = Matrix::random_normal(m, z, 0.0, 1.0, &mut rng);
                    let b_t = Matrix::random_normal(n, z, 0.0, 1.0, &mut rng);
                    let (qa, qb) = quantize_pair(&a, &b_t, a_bits, b_bits, partition, &mut rng);
                    for use_se in [true, false] {
                        let label =
                            format!("{m}x{n}x{z} Π={partition} {a_bits:?}×{b_bits:?} se={use_se}");
                        let (fast, fast_counts) = homomorphic_matmul_counted(&qa, &qb, use_se);
                        let (slow, slow_counts) =
                            reference::homomorphic_matmul_scalar(&qa, &qb, use_se);
                        assert_eq!(bits_of(&fast), bits_of(&slow), "{label}: outputs differ");
                        assert_eq!(fast_counts, slow_counts, "{label}: counts");
                    }
                }
            }
        }
    }

    #[test]
    fn row_product_on_prefixes_matches_the_full_product() {
        // Causal prefill reads prefixes of the full product: the first columns of a
        // row, or a row's leading partitions (the later ones all-zero codes with
        // zero metadata, as masked probabilities quantize). Both must be exactly
        // the corresponding entries of a full product.
        let mut rng = DetRng::new(77);
        let (n, z, partition) = (11, 200, 64);
        let b_t = Matrix::random_normal(n, z, 0.0, 1.0, &mut rng);
        let qb = QuantizedTensor::quantize_rows(
            &b_t,
            QuantBits::Int2,
            partition,
            RoundingMode::Stochastic,
            &mut rng,
        );
        let mut product = RowProduct::new(&qb);
        for visible in [1, 63, 64, 65, 199, 200] {
            let a = Matrix::from_fn(1, z, |_, c| {
                if c < visible {
                    rng.range_f32(0.0, 1.0)
                } else {
                    0.0
                }
            });
            let qa = QuantizedTensor::quantize_rows(
                &a,
                QuantBits::Int8,
                partition,
                RoundingMode::Stochastic,
                &mut rng,
            );
            let full = homomorphic_matmul(&qa, &qb);
            let prefix = qa.row_prefix(0, visible.div_ceil(partition), qa.sums());
            for cols in [1, 7, 8, 9, n] {
                let mut out = vec![0.0f32; cols];
                product.accumulate(prefix, &mut out);
                let expect: Vec<u32> = full.row(0)[..cols].iter().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expect, "visible {visible} cols {cols}");
            }
        }
    }

    #[test]
    fn grown_lanes_equal_lanes_built_from_the_grown_tensor() {
        // K' grows by rows (one token at a time, across block boundaries), V' by
        // columns (requantizing the last partition, then starting a new one). After
        // every append the kept lanes must equal fresh ones, and a product over them
        // must equal `homomorphic_matmul_counted`.
        let mut rng = DetRng::new(31);
        let (d_h, partition) = (20, 8);
        let mut k =
            QuantizedTensor::from_parts(0, d_h, QuantBits::Int2, partition, vec![], vec![], vec![]);
        let mut v = QuantizedTensor::empty(d_h, QuantBits::Int2, partition);
        let (mut k_lanes, mut v_lanes) =
            (RightLanes::new(&k, k.sums()), RightLanes::new(&v, v.sums()));
        for t in 0..3 * partition + 3 {
            let row = Matrix::random_normal(1, d_h, 0.0, 1.0, &mut rng);
            k.append_row(row.row(0), RoundingMode::Stochastic, &mut rng);
            k_lanes.push_rows(&k, k.sums());
            v.append_columns(&row.transpose(), RoundingMode::Stochastic, &mut rng);
            v_lanes.extend_cols(&v, v.sums());
            assert_eq!(k_lanes, RightLanes::new(&k, k.sums()), "K' lanes after {t}");
            assert_eq!(v_lanes, RightLanes::new(&v, v.sums()), "V' lanes after {t}");

            let q = Matrix::random_normal(1, d_h, 0.0, 1.0, &mut rng);
            let qq = QuantizedTensor::quantize_rows(
                &q,
                QuantBits::Int8,
                partition,
                RoundingMode::Nearest,
                &mut rng,
            );
            let p = Matrix::random_normal(1, t + 1, 0.0, 1.0, &mut rng);
            let pq = QuantizedTensor::quantize_rows(
                &p,
                QuantBits::Int8,
                partition,
                RoundingMode::Nearest,
                &mut rng,
            );
            for (a, b, lanes) in [(&qq, &k, &k_lanes), (&pq, &v, &v_lanes)] {
                let (got, got_counts) = homomorphic_matmul_with_lanes(a, b, lanes);
                let (expect, expect_counts) = homomorphic_matmul_counted(a, b, true);
                assert_eq!(bits_of(&got), bits_of(&expect), "product after {t}");
                assert_eq!(got_counts, expect_counts);
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not describe")]
    fn lanes_of_another_shape_are_rejected() {
        let mut rng = DetRng::new(32);
        let m = Matrix::random_normal(9, 16, 0.0, 1.0, &mut rng);
        let b =
            QuantizedTensor::quantize_rows(&m, QuantBits::Int2, 8, RoundingMode::Nearest, &mut rng);
        let shorter = QuantizedTensor::quantize_rows(
            &m.row_block(0, 8),
            QuantBits::Int2,
            8,
            RoundingMode::Nearest,
            &mut rng,
        );
        let a = QuantizedTensor::quantize_rows(
            &m.row_block(0, 1),
            QuantBits::Int8,
            8,
            RoundingMode::Nearest,
            &mut rng,
        );
        homomorphic_matmul_with_lanes(&a, &b, &RightLanes::new(&shorter, shorter.sums()));
    }

    #[test]
    fn matches_dequantize_then_multiply() {
        // Eq. 4 is the exact algebraic expansion of the dequantized product, so the two
        // paths must agree to floating-point rounding.
        let mut rng = DetRng::new(1);
        let a = Matrix::random_normal(4, 128, 0.0, 1.0, &mut rng);
        let b_t = Matrix::random_normal(6, 128, 0.0, 1.0, &mut rng);
        let (qa, qb) = quantize_pair(&a, &b_t, QuantBits::Int8, QuantBits::Int2, 64, &mut rng);
        let hom = homomorphic_matmul(&qa, &qb);
        let deq = dequant_matmul(&qa, &qb);
        let err = relative_frobenius_error(&deq, &hom);
        assert!(err < 2e-3, "homomorphic vs dequantized mismatch: {err}");
    }

    #[test]
    fn approximates_true_product_with_int8() {
        let mut rng = DetRng::new(2);
        let a = Matrix::random_normal(8, 128, 0.0, 1.0, &mut rng);
        let b_t = Matrix::random_normal(8, 128, 0.0, 1.0, &mut rng);
        let truth = matmul_transposed_b(&a, &b_t);
        let (qa, qb) = quantize_pair(&a, &b_t, QuantBits::Int8, QuantBits::Int8, 64, &mut rng);
        let hom = homomorphic_matmul(&qa, &qb);
        let err = relative_frobenius_error(&truth, &hom);
        assert!(err < 0.02, "int8 homomorphic error too large: {err}");
    }

    #[test]
    fn int2_error_is_moderate_and_improves_with_smaller_partitions() {
        let mut rng = DetRng::new(3);
        let a = Matrix::random_normal(4, 128, 0.0, 1.0, &mut rng);
        let b_t = Matrix::random_normal(16, 128, 0.0, 1.0, &mut rng);
        let truth = matmul_transposed_b(&a, &b_t);

        let (qa32, qb32) = quantize_pair(&a, &b_t, QuantBits::Int8, QuantBits::Int2, 32, &mut rng);
        let (qa128, qb128) =
            quantize_pair(&a, &b_t, QuantBits::Int8, QuantBits::Int2, 128, &mut rng);
        let e32 = relative_frobenius_error(&truth, &homomorphic_matmul(&qa32, &qb32));
        let e128 = relative_frobenius_error(&truth, &homomorphic_matmul(&qa128, &qb128));
        assert!(
            e32 < e128,
            "Π=32 error {e32} should be below Π=128 error {e128}"
        );
        assert!(e128 < 0.6, "Π=128 error should still be bounded: {e128}");
    }

    #[test]
    fn exact_when_values_lie_on_quantization_grid() {
        // Construct matrices whose entries are exactly representable with 2-bit codes
        // (values in {0, 1, 2, 3}); nearest-rounding quantization is then lossless and
        // the homomorphic product must equal the exact product.
        let mut rng = DetRng::new(4);
        let a = Matrix::from_fn(3, 64, |_, _| rng.range_usize(0, 4) as f32);
        let b_t = Matrix::from_fn(5, 64, |_, _| rng.range_usize(0, 4) as f32);
        let truth = matmul_transposed_b(&a, &b_t);
        let (qa, qb) = quantize_pair(&a, &b_t, QuantBits::Int2, QuantBits::Int2, 32, &mut rng);
        let hom = homomorphic_matmul(&qa, &qb);
        let err = relative_frobenius_error(&truth, &hom);
        assert!(
            err < 1e-3,
            "grid-aligned product should be (nearly) exact: {err}"
        );
    }

    #[test]
    fn se_and_no_se_agree_exactly() {
        let mut rng = DetRng::new(5);
        let a = Matrix::random_normal(2, 96, 0.0, 1.0, &mut rng);
        let b_t = Matrix::random_normal(7, 96, 0.0, 1.0, &mut rng);
        let (qa, qb) = quantize_pair(&a, &b_t, QuantBits::Int8, QuantBits::Int2, 32, &mut rng);
        let with_se = homomorphic_matmul(&qa, &qb);
        let without_se = homomorphic_matmul_no_se(&qa, &qb);
        assert_eq!(with_se.as_slice(), without_se.as_slice());
    }

    #[test]
    fn op_counts_match_paper_formulas() {
        let mut rng = DetRng::new(6);
        let m = 3;
        let n = 10;
        let z = 128;
        let partition = 64;
        let a = Matrix::random_normal(m, z, 0.0, 1.0, &mut rng);
        let b_t = Matrix::random_normal(n, z, 0.0, 1.0, &mut rng);
        let (qa, qb) = quantize_pair(
            &a,
            &b_t,
            QuantBits::Int8,
            QuantBits::Int2,
            partition,
            &mut rng,
        );

        let (_, counts) = homomorphic_matmul_counted(&qa, &qb, true);
        // Integer MACs: one per (i, j, z) triple.
        assert_eq!(counts.int_mac_ops, m * n * z);
        // Approximation: 9 ops per (i, j, partition) triple.
        let n_parts = z / partition;
        assert_eq!(counts.approx_ops, 9 * m * n * n_parts);
        assert_eq!(counts.sum_recompute_ops, 0);

        let (_, counts_no_se) = homomorphic_matmul_counted(&qa, &qb, false);
        // Without SE every partition sum of both operands is recomputed: (m + n) * z ops.
        assert_eq!(counts_no_se.sum_recompute_ops, (m + n) * z);
    }

    #[test]
    fn decode_shape_single_query_row() {
        // Decode: L_Q = 1 against a long KV history.
        let mut rng = DetRng::new(7);
        let d_h = 128;
        let l_kv = 300;
        let q = Matrix::random_normal(1, d_h, 0.0, 1.0, &mut rng);
        let k = Matrix::random_normal(l_kv, d_h, 0.0, 1.0, &mut rng);
        let truth = matmul_transposed_b(&q, &k);
        let qq = QuantizedTensor::quantize_rows(
            &q,
            QuantBits::Int8,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let qk = QuantizedTensor::quantize_rows(
            &k,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let hom = homomorphic_matmul(&qq, &qk);
        assert_eq!(hom.shape(), (1, l_kv));
        // Pure-Gaussian K is the worst case for 2-bit quantization (real keys carry
        // much more per-partition structure); the error just needs to stay bounded.
        let err = relative_frobenius_error(&truth, &hom);
        assert!(err < 0.6, "decode-shape error {err}");
    }

    #[test]
    #[should_panic(expected = "contracted dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let mut rng = DetRng::new(8);
        let a = Matrix::zeros(2, 64);
        let b = Matrix::zeros(2, 32);
        let qa = QuantizedTensor::quantize_rows(
            &a,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let qb = QuantizedTensor::quantize_rows(
            &b,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        homomorphic_matmul(&qa, &qb);
    }

    #[test]
    #[should_panic(expected = "partition size mismatch")]
    fn mismatched_partitions_panic() {
        let mut rng = DetRng::new(9);
        let a = Matrix::zeros(2, 64);
        let qa = QuantizedTensor::quantize_rows(
            &a,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let qb = QuantizedTensor::quantize_rows(
            &a,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        homomorphic_matmul(&qa, &qb);
    }

    #[test]
    fn stochastic_rounding_is_unbiased_in_the_product() {
        // Averaging many stochastic quantizations of the same product should converge
        // towards the true product (the whole point of stochastic rounding).
        let mut rng = DetRng::new(10);
        let a = Matrix::random_normal(1, 64, 0.0, 1.0, &mut rng);
        let b_t = Matrix::random_normal(1, 64, 0.0, 1.0, &mut rng);
        let truth = matmul_transposed_b(&a, &b_t).get(0, 0);
        let trials = 400;
        let mut acc = 0.0f64;
        for _ in 0..trials {
            let qa = QuantizedTensor::quantize_rows(
                &a,
                QuantBits::Int8,
                64,
                RoundingMode::Stochastic,
                &mut rng,
            );
            let qb = QuantizedTensor::quantize_rows(
                &b_t,
                QuantBits::Int2,
                64,
                RoundingMode::Stochastic,
                &mut rng,
            );
            acc += homomorphic_matmul(&qa, &qb).get(0, 0) as f64;
        }
        let mean = acc / trials as f64;
        assert!(
            (mean - truth as f64).abs() < 0.35,
            "stochastic mean {mean} vs truth {truth}"
        );
    }
}
