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
//!
//! On the CPU both parts run fused in one kernel, [`RowProduct`], called once per
//! left row by causal prefill, decode and [`homomorphic_matmul`] alike. Its AVX2 and
//! portable bodies are both bit-identical to the scalar reference the tests keep.

use crate::cost::HomomorphicOpCounts;
use crate::qmatrix::{QuantRow, QuantizedTensor};
use crate::stochastic::PartitionMeta;
use hack_tensor::matmul::dot_u8_i32;
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
    product: RowProduct<'_>,
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

/// Right-operand rows (output columns) per block of the row kernel: one
/// `i32 × 8` dot vector and one `f32 × 8` Eq. 4 accumulator per partition.
const DOT_BLOCK: usize = 8;

/// Largest right-operand code the AVX2 body multiplies with `maddubs`. That
/// instruction sums two `u8 × i8` products into a saturating `i16`; with left
/// codes ≤ 255 and right codes ≤ 15 (at most 4-bit) a pair is at most
/// `2 · 255 · 15 = 7650 < 2¹⁵`, so it never saturates and stays exact.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const MADDUBS_MAX_B: u32 = 15;

/// How [`RowProduct`] computes its integer dots, chosen once when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DotBody {
    /// `maddubs` + `pmaddwd`, the whole row inside one AVX2 function; needs
    /// right codes of at most [`MADDUBS_MAX_B`].
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// One [`dot_u8_i32`] per partition and column: right codes above 4 bits,
    /// or no AVX2.
    Portable,
}

/// The Eq. 4 product of single left-operand rows with the rows of one right
/// operand.
///
/// [`homomorphic_matmul`] runs it once per left row over every column and
/// partition. Causal prefill runs it on prefixes: `Q'·K'ᵀ` row `i` over the
/// keys `j ≤ i` only, and `P'·V'` row `i` over the probability partitions up
/// to the diagonal only. Decode runs it on lanes its state keeps.
///
/// Each [`Self::accumulate`] validates the row once and runs one loop over
/// blocks of eight output columns and, in each, the partitions in order: eight
/// integer dots with right code rows read row-major (dead lanes of the last
/// block repeat its last live row), their Eq. 4 terms added to eight `f32`
/// accumulators, which land in `out` once per block. With AVX2 and right codes
/// of at most 4 bits the whole loop runs inside one AVX2 function (`maddubs`
/// dots, 256-bit `mulps`/`addps` epilogue); otherwise it takes one
/// [`dot_u8_i32`] per partition and column. Both bodies are bit-identical to
/// the scalar reference.
#[derive(Debug)]
pub struct RowProduct<'b> {
    b: &'b QuantizedTensor,
    body: DotBody,
    spans: Vec<(usize, usize)>,
    lens: Vec<f32>,
    lanes: Cow<'b, RightLanes>,
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
        let body = match b.bits().max_code() {
            #[cfg(target_arch = "x86_64")]
            b_max if b_max <= MADDUBS_MAX_B && std::arch::is_x86_feature_detected!("avx2") => {
                DotBody::Avx2
            }
            _ => DotBody::Portable,
        };
        Self {
            b,
            body,
            lens: spans.iter().map(|&(s, e)| (e - s) as f32).collect(),
            lanes,
            spans,
        }
    }

    /// This product with the portable dot body, whatever the host supports.
    #[cfg(test)]
    fn portable(self) -> Self {
        Self {
            body: DotBody::Portable,
            ..self
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
    /// Panics if `out` is longer than the right operand has rows, `a` has more
    /// partitions than it, `a.sums` and `a.metas` differ in length, or
    /// `a.codes` ends before the last partition `a` carries.
    pub fn accumulate(&self, a: QuantRow<'_>, out: &mut [f32]) {
        let n_parts = a.metas.len();
        assert_eq!(a.sums.len(), n_parts, "left row: one sum per partition");
        assert!(
            n_parts <= self.spans.len() && out.len() <= self.b.rows(),
            "left row of {n_parts} partitions × {} columns exceeds the right operand",
            out.len()
        );
        let end = n_parts.checked_sub(1).map_or(0, |p| self.spans[p].1);
        assert!(
            a.codes.len() >= end,
            "left row of {} codes ends before its partitions do ({end})",
            a.codes.len()
        );
        match self.body {
            // SAFETY: `Avx2` is only chosen on hosts with AVX2, for right codes
            // of at most `MADDUBS_MAX_B`. The checks above keep every span `a`
            // carries inside `a.codes` and `out` within the right operand's
            // rows, each of which the spans partition.
            #[cfg(target_arch = "x86_64")]
            DotBody::Avx2 => unsafe { self.row_avx2(a, out) },
            DotBody::Portable => self.row(a, out, |a, b, rows, (s, e)| {
                rows.map(|r| dot_u8_i32(&a[s..e], &b[r + s..r + e]))
            }),
        }
    }

    /// [`Self::row`] with AVX2 dots, all of it compiled for AVX2.
    ///
    /// # Safety
    /// AVX2 must be available, every right code at most [`MADDUBS_MAX_B`],
    /// every span of `a` inside `a.codes`, and `out` no longer than the right
    /// operand has rows.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn row_avx2(&self, a: QuantRow<'_>, out: &mut [f32]) {
        // SAFETY: AVX2 and the code bound are this function's contract. `row`
        // passes spans of `a` (inside `a.codes` by contract) and offsets of
        // right rows below `out.len()`, so each span lies inside every row.
        self.row(a, out, |a, b, rows, span| unsafe {
            dots_avx2(a, b, rows, span)
        });
    }

    /// The row loop both bodies share: blocks of eight output columns, and in
    /// each the partitions of `a` in order, `dots` giving one partition's eight
    /// integer dots.
    #[inline(always)]
    fn row(
        &self,
        a: QuantRow<'_>,
        out: &mut [f32],
        dots: impl Fn(&[u8], &[u8], [usize; DOT_BLOCK], (usize, usize)) -> [i32; DOT_BLOCK],
    ) {
        let n_parts = a.metas.len();
        let (spans, lens) = (&self.spans[..n_parts], &self.lens[..n_parts]);
        let b_parts = self.lanes.n_parts;
        let (b_codes, cols) = (self.b.codes(), self.b.cols());
        let last = out.len().saturating_sub(1);
        for (block, out_block) in out.chunks_mut(DOT_BLOCK).enumerate() {
            let rows = std::array::from_fn(|c| (block * DOT_BLOCK + c).min(last) * cols);
            let lanes = &self.lanes.lanes[block * b_parts..][..n_parts];
            let mut acc = [0.0f32; DOT_BLOCK];
            for (p, ((&span, &len), b)) in spans.iter().zip(lens).zip(lanes).enumerate() {
                let dot = dots(a.codes, b_codes, rows, span);
                eq4_lanes(&mut acc, &dot, a.metas[p], a.sums[p] as f32, len, b);
            }
            for (o, acc) in out_block.iter_mut().zip(acc) {
                *o += acc;
            }
        }
    }
}

/// The integer dots of one partition `start..end` of the left codes `a` with
/// the eight right code rows that start at offsets `rows` of `b`: `maddubs` +
/// `pmaddwd` on 32 codes per step, each left chunk loaded once, the eight
/// accumulators reduced to one vector, and the `< 32`-code tail added in
/// scalar. Exact integer arithmetic, so bit-identical to scalar dots.
///
/// # Safety
/// AVX2 must be available, `start..end` must lie inside `a` and `r + start..r +
/// end` inside `b` for every `r` in `rows`, and every right code must be at most
/// [`MADDUBS_MAX_B`] for exact sums (a larger one gives wrong but memory-safe
/// sums).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dots_avx2(
    a: &[u8],
    b: &[u8],
    rows: [usize; DOT_BLOCK],
    (start, end): (usize, usize),
) -> [i32; DOT_BLOCK] {
    use std::arch::x86_64::*;
    const STEP: usize = 32;
    let simd_end = start + (end - start) / STEP * STEP;
    let mut out = [0i32; DOT_BLOCK];
    // SAFETY: every load reads `STEP` bytes starting below `simd_end`, so it
    // stays inside `start..end` of `a` and of every row (caller contract); the
    // loads and the store into `out` are unaligned.
    unsafe {
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); DOT_BLOCK];
        let mut i = start;
        while i < simd_end {
            let pa = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            for (acc_r, row) in acc.iter_mut().zip(rows) {
                let pb = _mm256_loadu_si256(b.as_ptr().add(row + i).cast());
                // `maddubs` pairs fit in i16 (see MADDUBS_MAX_B) and `pmaddwd`
                // against ones widens them to exact i32 lanes.
                let prod = _mm256_madd_epi16(_mm256_maddubs_epi16(pa, pb), ones);
                *acc_r = _mm256_add_epi32(*acc_r, prod);
            }
            i += STEP;
        }
        // Two rounds of hadd leave partial totals of rows 0–3 in each 128-bit
        // half of `h0` and of rows 4–7 in each half of `h1`; adding the low
        // halves to the high halves gives [r0, …, r7].
        let h0 = _mm256_hadd_epi32(
            _mm256_hadd_epi32(acc[0], acc[1]),
            _mm256_hadd_epi32(acc[2], acc[3]),
        );
        let h1 = _mm256_hadd_epi32(
            _mm256_hadd_epi32(acc[4], acc[5]),
            _mm256_hadd_epi32(acc[6], acc[7]),
        );
        let sums = _mm256_add_epi32(
            _mm256_permute2x128_si256(h0, h1, 0x20),
            _mm256_permute2x128_si256(h0, h1, 0x31),
        );
        _mm256_storeu_si256(out.as_mut_ptr().cast(), sums);
    }
    for idx in simd_end..end {
        let x = a[idx] as i32;
        for (o, row) in out.iter_mut().zip(rows) {
            *o = o.wrapping_add(x * b[row + idx] as i32);
        }
    }
    out
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
    use crate::qmatrix::PartitionLayout;
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
        let product = RowProduct::new(&qb);
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

    /// Both dot bodies of `b`'s row products: the one [`RowProduct::new`] picks on
    /// this host, then the portable one.
    fn both_bodies(b: &QuantizedTensor) -> [RowProduct<'_>; 2] {
        [RowProduct::new(b), RowProduct::new(b).portable()]
    }

    #[test]
    fn row_kernel_bodies_match_the_scalar_reference() {
        // Each dot body, one `accumulate` per left row, against the scalar
        // reference: every output width 1..=17 (every live-lane count of the last
        // block, one to three blocks) and causal prefixes (left rows whose later
        // partitions are all zero, as masked probabilities quantize, passed with
        // only their leading partitions). Π = 16 and 48 leave a scalar tail after
        // the 32-code chunks; every contracted length ends in a ragged partition.
        // Int2 and Int4 right codes take the AVX2 body on AVX2 hosts, Int8 the
        // portable one; the portable body also runs on every code width.
        let n = 17;
        for partition in [16, 48, 64, 128] {
            let z = 3 * partition + 5;
            for b_bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
                let mut rng = DetRng::new(900 + partition as u64);
                let b_t = Matrix::random_normal(n, z, 0.0, 1.0, &mut rng);
                let visible = [1, partition - 1, partition + 1, 2 * partition, z];
                let a = Matrix::from_fn(visible.len(), z, |r, c| {
                    if c < visible[r] {
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
                let qb = QuantizedTensor::quantize_rows(
                    &b_t,
                    b_bits,
                    partition,
                    RoundingMode::Stochastic,
                    &mut rng,
                );
                let (expect, _) = reference::homomorphic_matmul_scalar(&qa, &qb, true);
                let [picked, portable] = both_bodies(&qb);
                assert_eq!(portable.body, DotBody::Portable);
                #[cfg(target_arch = "x86_64")]
                if b_bits != QuantBits::Int8 && std::arch::is_x86_feature_detected!("avx2") {
                    assert_eq!(picked.body, DotBody::Avx2, "{b_bits:?}");
                } else {
                    assert_eq!(picked.body, DotBody::Portable, "{b_bits:?}");
                }
                for product in [picked, portable] {
                    for (i, &vis) in visible.iter().enumerate() {
                        let row = qa.row_prefix(i, vis.div_ceil(partition), qa.sums());
                        for cols in 1..=n {
                            let mut out = vec![0.0f32; cols];
                            product.accumulate(row, &mut out);
                            assert_eq!(
                                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                bits_of(&expect.row_block(i, i + 1))[..cols],
                                "Π={partition} {b_bits:?} {:?} visible {vis} cols {cols}",
                                product.body
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_kernel_is_exact_on_saturated_codes() {
        // Left codes 255 against the largest right code in every lane: the largest
        // maddubs pair sums (Int2, Int4) and pmaddwd products (Int8). With unit
        // scales and zero minima every entry is the plain sum of its partition
        // dots, which for right codes ≤ 15 is an exact integer in f32.
        for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
            let b_max = bits.max_code() as u8;
            for (z, partition) in [(255usize, 255usize), (255, 64), (4096, 4096), (4096, 64)] {
                let n_parts = z.div_ceil(partition);
                let unit = PartitionMeta {
                    min: 0.0,
                    scale: 1.0,
                };
                let tensor = |rows: usize, bits: QuantBits, code: u8| {
                    let sum = |p: usize| {
                        let (s, e) = PartitionLayout::new(z, partition).range(p);
                        ((e - s) * code as usize) as i32
                    };
                    QuantizedTensor::from_parts(
                        rows,
                        z,
                        bits,
                        partition,
                        vec![code; rows * z],
                        vec![unit; rows * n_parts],
                        (0..rows * n_parts).map(|i| sum(i % n_parts)).collect(),
                    )
                };
                let a = tensor(1, QuantBits::Int8, 255);
                let b = tensor(DOT_BLOCK + 1, bits, b_max);
                let (expect, _) = reference::homomorphic_matmul_scalar(&a, &b, true);
                for product in both_bodies(&b) {
                    let mut out = vec![0.0f32; b.rows()];
                    product.accumulate(a.row_prefix(0, n_parts, a.sums()), &mut out);
                    let label = format!("{bits:?} z {z} Π {partition} {:?}", product.body);
                    assert_eq!(out, expect.row(0), "{label}");
                    if bits.max_code() <= MADDUBS_MAX_B {
                        let exact = (z * 255 * b_max as usize) as f32;
                        assert_eq!(out, vec![exact; b.rows()], "{label}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ends before its partitions do")]
    fn row_kernel_rejects_a_left_row_shorter_than_its_spans() {
        let mut rng = DetRng::new(33);
        let m = Matrix::random_normal(3, 128, 0.0, 1.0, &mut rng);
        let b = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let a = b.row_prefix(0, 2, b.sums());
        let short = QuantRow {
            codes: &a.codes[..127],
            ..a
        };
        RowProduct::new(&b).accumulate(short, &mut [0.0; 3]);
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
