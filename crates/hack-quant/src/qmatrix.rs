//! Partitioned, asymmetric, quantized storage of a set of vectors.
//!
//! A [`QuantizedTensor`] holds `rows` vectors of length `cols`, where `cols` is the
//! *contracted* dimension of a matrix product:
//!
//! * for the left operand `A` (`M × Z`) the vectors are the rows of `A`;
//! * for the right operand `B` (`Z × N`) the vectors are the **columns** of `B`
//!   (i.e. the tensor stores `Bᵀ`), which is also exactly how K and V are laid out in
//!   the KV cache (token-major for K, channel-major for V).
//!
//! Each vector is split into partitions of `Π` consecutive elements (Fig. 6); each
//! partition carries its own `min`/`scale` metadata and, for Summation Elimination
//! (§5.3), the integer sum of its codes.
//!
//! Codes are held unpacked (one byte per code) for compute — mirroring §6, where 2-bit
//! codes are widened to INT8 in local GPU memory before the matrix multiplication —
//! while [`packed bytes`](QuantizedTensor::packed_code_bytes) are used for transfer and
//! memory accounting.

use crate::params::{QuantBits, RoundingMode};
use crate::stochastic::{dequantize_value, rounds_up, split_code, PartitionMeta};
use hack_tensor::{DetRng, Matrix};
use std::borrow::Cow;

/// Statistics returned by append operations; used by the ablation cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Number of already-quantized elements that had to be dequantized and requantized
    /// because the range of their partition changed (only non-zero without RQE).
    pub requantized_elements: usize,
    /// Number of new partitions created by the append.
    pub new_partitions: usize,
    /// Number of new elements quantized.
    pub quantized_elements: usize,
}

impl AppendStats {
    /// Merges two stats objects.
    pub fn merge(self, other: AppendStats) -> AppendStats {
        AppendStats {
            requantized_elements: self.requantized_elements + other.requantized_elements,
            new_partitions: self.new_partitions + other.new_partitions,
            quantized_elements: self.quantized_elements + other.quantized_elements,
        }
    }
}

/// Elements per pass of [`quantize_partition`].
const QUANTIZE_CHUNK: usize = 64;

/// Quantizes one partition's values into `dst` (same length), returning the partition
/// metadata and the code sum (Summation Elimination). Every [`QuantizedTensor`]
/// constructor quantizes through this function, so a caller that builds rows
/// partition by partition (causal prefill's P') draws the same RNG stream as
/// quantizing the whole tensor.
///
/// The codes, the sum and the draws are exactly those of
/// [`quantize_value`](crate::stochastic::quantize_value) applied element by
/// element. The work runs in two passes over chunks of `QUANTIZE_CHUNK`
/// elements: first the draw-free normalise, clamp, floor and fraction for the whole
/// chunk, which the compiler vectorizes, then the rounding decisions in element
/// order, so stochastic rounding draws the same sequence. A constant partition
/// (scale 0) takes code 0 everywhere without a draw, as `quantize_value` does.
#[inline]
pub fn quantize_partition(
    src: &[f32],
    dst: &mut [u8],
    bits: QuantBits,
    mode: RoundingMode,
    rng: &mut DetRng,
) -> (PartitionMeta, i32) {
    debug_assert_eq!(src.len(), dst.len());
    let pm = PartitionMeta::from_values(src, bits);
    if pm.scale == 0.0 {
        dst.fill(0);
        return (pm, 0);
    }
    let max_code = bits.max_code();
    let mut sum = 0i32;
    let mut floors = [0u8; QUANTIZE_CHUNK];
    let mut fracs = [0.0f32; QUANTIZE_CHUNK];
    for (src, dst) in src
        .chunks(QUANTIZE_CHUNK)
        .zip(dst.chunks_mut(QUANTIZE_CHUNK))
    {
        for ((&v, floor), frac) in src.iter().zip(&mut floors).zip(&mut fracs) {
            let (f, r) = split_code((v - pm.min) / pm.scale, max_code);
            *floor = f as u8;
            *frac = r;
        }
        for ((c, &floor), &frac) in dst.iter_mut().zip(&floors).zip(&fracs) {
            *c = floor + rounds_up(frac, mode, rng) as u8;
            sum += *c as i32;
        }
    }
    (pm, sum)
}

/// Partition layout of one vector along the contracted dimension: Π plus the vector
/// length. This is the single place the partition-index arithmetic lives; every
/// quantize/dequantize/append path derives its ranges from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionLayout {
    cols: usize,
    partition: usize,
}

impl PartitionLayout {
    /// Creates a layout for vectors of length `cols` split into partitions of Π =
    /// `partition` elements.
    ///
    /// # Panics
    /// Panics if `partition` is zero.
    pub fn new(cols: usize, partition: usize) -> Self {
        assert!(partition > 0, "partition size must be positive");
        Self { cols, partition }
    }

    /// Number of partitions per vector (zero for zero-length vectors).
    #[inline]
    pub fn n_partitions(&self) -> usize {
        if self.cols == 0 {
            0
        } else {
            self.cols.div_ceil(self.partition)
        }
    }

    /// `[start, end)` column range of partition `p` (the last partition may be short).
    #[inline]
    pub fn range(&self, p: usize) -> (usize, usize) {
        let start = p * self.partition;
        let end = (start + self.partition).min(self.cols);
        (start, end)
    }

    /// Iterator over `(start, end)` ranges of every partition, in order.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_partitions()).map(|p| self.range(p))
    }
}

/// One quantized vector, or a prefix of its partitions: codes, per-partition metadata
/// and per-partition code sums. `metas` and `sums` have one entry per partition; the
/// codes must cover every partition they describe.
#[derive(Debug, Clone, Copy)]
pub struct QuantRow<'a> {
    /// Codes, one byte each.
    pub codes: &'a [u8],
    /// Metadata of each partition, in order.
    pub metas: &'a [PartitionMeta],
    /// Code sum of each partition (Summation Elimination), in order.
    pub sums: &'a [i32],
}

/// Quantized, partitioned tensor (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    bits: QuantBits,
    partition: usize,
    /// Unpacked codes, `rows × cols`, row-major, each in `[0, 2^bits)`.
    codes: Vec<u8>,
    /// Per-partition metadata, `rows × n_partitions`, row-major.
    meta: Vec<PartitionMeta>,
    /// Per-partition code sums (Summation Elimination), same layout as `meta`.
    sums: Vec<i32>,
}

impl QuantizedTensor {
    /// Quantizes the rows of `m` (each row is one vector along the contracted
    /// dimension). Use for the left operand of a product and for K (token-major).
    pub fn quantize_rows(
        m: &Matrix,
        bits: QuantBits,
        partition: usize,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> Self {
        let mut q = Self::with_capacity(m.rows(), m.cols(), bits, partition);
        for r in 0..m.rows() {
            q.push_row(m.row(r), mode, rng);
        }
        q
    }

    /// Quantizes one vector held in a slice: the one-row tensor
    /// [`Self::quantize_rows`] builds from a `1 × values.len()` matrix, with the
    /// same codes, metadata, sums and RNG draws.
    pub fn quantize_row(
        values: &[f32],
        bits: QuantBits,
        partition: usize,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> Self {
        let mut q = Self::with_capacity(1, values.len(), bits, partition);
        q.push_row(values, mode, rng);
        q
    }

    /// A tensor of no vectors of length `cols`, with room for `rows` of them.
    fn with_capacity(rows: usize, cols: usize, bits: QuantBits, partition: usize) -> Self {
        let n_parts = PartitionLayout::new(cols, partition).n_partitions();
        Self {
            rows: 0,
            cols,
            bits,
            partition,
            codes: Vec::with_capacity(rows * cols),
            meta: Vec::with_capacity(rows * n_parts),
            sums: Vec::with_capacity(rows * n_parts),
        }
    }

    /// Quantizes the columns of `m` (`Z × N`): the resulting tensor has `N` vectors of
    /// length `Z` (it stores `mᵀ`). Use for the right operand of a product and for V
    /// (sequence-major source, channel-major storage).
    pub fn quantize_cols(
        m: &Matrix,
        bits: QuantBits,
        partition: usize,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> Self {
        Self::quantize_rows(&m.transpose(), bits, partition, mode, rng)
    }

    /// Creates an empty tensor with `rows` vectors of length zero, ready for appends.
    pub fn empty(rows: usize, bits: QuantBits, partition: usize) -> Self {
        assert!(partition > 0, "partition size must be positive");
        Self {
            rows,
            cols: 0,
            bits,
            partition,
            codes: Vec::new(),
            meta: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Rebuilds a tensor from its raw parts (used by the transport layer).
    ///
    /// # Panics
    /// Panics if the part lengths are inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        rows: usize,
        cols: usize,
        bits: QuantBits,
        partition: usize,
        codes: Vec<u8>,
        meta: Vec<PartitionMeta>,
        sums: Vec<i32>,
    ) -> Self {
        assert_eq!(codes.len(), rows * cols, "codes length mismatch");
        let n_parts = PartitionLayout::new(cols, partition).n_partitions();
        assert_eq!(meta.len(), rows * n_parts, "meta length mismatch");
        assert_eq!(sums.len(), rows * n_parts, "sums length mismatch");
        Self {
            rows,
            cols,
            bits,
            partition,
            codes,
            meta,
            sums,
        }
    }

    /// Number of vectors.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Length of each vector (the contracted dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantization precision.
    pub fn bits(&self) -> QuantBits {
        self.bits
    }

    /// Partition size Π.
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// Partition layout of the stored vectors.
    #[inline]
    pub fn layout(&self) -> PartitionLayout {
        PartitionLayout {
            cols: self.cols,
            partition: self.partition,
        }
    }

    /// Number of partitions per vector.
    #[inline]
    pub fn n_partitions(&self) -> usize {
        self.layout().n_partitions()
    }

    /// `[start, end)` column range of partition `p`.
    #[inline]
    pub fn partition_range(&self, p: usize) -> (usize, usize) {
        self.layout().range(p)
    }

    /// Codes of vector `r`.
    pub fn codes_row(&self, r: usize) -> &[u8] {
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Vector `r` over its first `n_parts` partitions, with the code sums read from
    /// `sums` (one per partition of every vector, row-major, as [`Self::code_sums`]
    /// returns them).
    ///
    /// # Panics
    /// Panics if `r` or `n_parts` is out of range, or `sums` is too short.
    pub fn row_prefix<'a>(&'a self, r: usize, n_parts: usize, sums: &'a [i32]) -> QuantRow<'a> {
        assert!(
            n_parts <= self.n_partitions(),
            "{n_parts} partitions requested of {}",
            self.n_partitions()
        );
        let base = r * self.n_partitions();
        QuantRow {
            codes: self.codes_row(r),
            metas: &self.meta[base..base + n_parts],
            sums: &sums[base..base + n_parts],
        }
    }

    /// All codes, row-major.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// All partition metadata, row-major.
    pub fn metas(&self) -> &[PartitionMeta] {
        &self.meta
    }

    /// All partition sums, row-major.
    pub fn sums(&self) -> &[i32] {
        &self.sums
    }

    /// Metadata of partition `p` of vector `r`.
    #[inline]
    pub fn meta(&self, r: usize, p: usize) -> PartitionMeta {
        self.meta[r * self.n_partitions() + p]
    }

    /// Stored code sum of partition `p` of vector `r` (Summation Elimination).
    #[inline]
    pub fn sum(&self, r: usize, p: usize) -> i32 {
        self.sums[r * self.n_partitions() + p]
    }

    /// Recomputes the code sum of partition `p` of vector `r` from the codes.
    ///
    /// This is what the HACK/SE ablation does every decode iteration instead of reading
    /// the stored sums.
    pub fn recompute_sum(&self, r: usize, p: usize) -> i32 {
        let (start, end) = self.partition_range(p);
        self.codes_row(r)[start..end]
            .iter()
            .map(|&c| c as i32)
            .sum()
    }

    /// Every per-partition code sum, row-major: the stored ones with Summation
    /// Elimination (`use_stored_sums`), otherwise recomputed from the codes once per
    /// `(row, partition)`, the work the HACK/SE ablation pays on every product.
    pub fn code_sums(&self, use_stored_sums: bool) -> Cow<'_, [i32]> {
        if use_stored_sums {
            return Cow::Borrowed(&self.sums);
        }
        let layout = self.layout();
        let mut sums = Vec::with_capacity(self.sums.len());
        for row_codes in self.codes.chunks_exact(self.cols.max(1)) {
            for (start, end) in layout.ranges() {
                sums.push(row_codes[start..end].iter().map(|&c| c as i32).sum());
            }
        }
        Cow::Owned(sums)
    }

    /// Verifies the stored-sum invariant (every stored sum equals the recomputed one).
    pub fn sums_consistent(&self) -> bool {
        for r in 0..self.rows {
            for p in 0..self.n_partitions() {
                if self.sum(r, p) != self.recompute_sum(r, p) {
                    return false;
                }
            }
        }
        true
    }

    /// Dequantizes into a `rows × cols` matrix (in the stored orientation).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let cols = self.cols;
        if cols == 0 {
            return out;
        }
        let layout = self.layout();
        let n_parts = layout.n_partitions();
        let data = out.as_mut_slice();
        for (r, (row_codes, out_row)) in self
            .codes
            .chunks_exact(cols)
            .zip(data.chunks_exact_mut(cols))
            .enumerate()
        {
            let meta_row = &self.meta[r * n_parts..(r + 1) * n_parts];
            for (p, (start, end)) in layout.ranges().enumerate() {
                let pm = meta_row[p];
                for (o, &c) in out_row[start..end].iter_mut().zip(&row_codes[start..end]) {
                    *o = dequantize_value(c, &pm);
                }
            }
        }
        out
    }

    /// Dequantizes and transposes, recovering the original orientation of a tensor that
    /// was built with [`Self::quantize_cols`].
    pub fn dequantize_transposed(&self) -> Matrix {
        self.dequantize().transpose()
    }

    /// Appends a new vector (`cols` long), quantizing it with fresh partitions. This
    /// is the K-append path during decode: the new token's K vector forms its own
    /// partitions, so existing metadata never changes.
    pub fn append_row(&mut self, row: &[f32], mode: RoundingMode, rng: &mut DetRng) -> AppendStats {
        assert_eq!(
            row.len(),
            self.cols,
            "append_row expects a vector of length {}",
            self.cols
        );
        self.push_row(row, mode, rng)
    }

    /// Quantizes `row` (`cols` long) partition by partition as a new last vector.
    fn push_row(&mut self, row: &[f32], mode: RoundingMode, rng: &mut DetRng) -> AppendStats {
        let mut stats = AppendStats::default();
        let layout = self.layout();
        let base = self.codes.len();
        self.codes.resize(base + self.cols, 0);
        let row_codes = &mut self.codes[base..];
        for (start, end) in layout.ranges() {
            let (pm, sum) = quantize_partition(
                &row[start..end],
                &mut row_codes[start..end],
                self.bits,
                mode,
                rng,
            );
            self.meta.push(pm);
            self.sums.push(sum);
            stats.new_partitions += 1;
            stats.quantized_elements += end - start;
        }
        self.rows += 1;
        stats
    }

    /// Appends new elements along the contracted dimension to **every** vector.
    ///
    /// `new_cols` must be a `rows × t` matrix: row `r` holds the `t` new elements of
    /// vector `r`. This is the V-append path during decode *without* Requantization
    /// Elimination: when the last partition is partial, its range may grow and all its
    /// existing codes must be requantized (Fig. 8). The returned [`AppendStats`] counts
    /// exactly how many elements were requantized.
    pub fn append_columns(
        &mut self,
        new_cols: &Matrix,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> AppendStats {
        assert_eq!(
            new_cols.rows(),
            self.rows,
            "append_columns expects {} rows",
            self.rows
        );
        let t = new_cols.cols();
        if t == 0 {
            return AppendStats::default();
        }
        let old_cols = self.cols;
        let new_total = old_cols + t;
        let old_parts = self.n_partitions();
        let new_layout = PartitionLayout::new(new_total, self.partition);
        let new_parts = new_layout.n_partitions();
        let mut stats = AppendStats::default();

        // Rebuild codes/meta/sums row by row (the contracted dimension is contiguous
        // per row, so growth shifts every subsequent row's storage anyway).
        let mut new_codes = vec![0u8; self.rows * new_total];
        let mut new_meta = Vec::with_capacity(self.rows * new_parts);
        let mut new_sums = Vec::with_capacity(self.rows * new_parts);
        // Scratch for the values of a partition that must be (re)quantized.
        let mut values: Vec<f32> = Vec::with_capacity(self.partition);

        for (r, new_row_codes) in new_codes.chunks_exact_mut(new_total).enumerate() {
            // Assemble the full real-valued row: dequantized existing full partitions
            // stay untouched; the partial last partition (if any) is dequantized so it
            // can be requantized together with the new values.
            let old_row_codes = &self.codes[r * old_cols..(r + 1) * old_cols];
            let old_meta_row = &self.meta[r * old_parts..(r + 1) * old_parts];
            let old_sums_row = &self.sums[r * old_parts..(r + 1) * old_parts];
            let new_row_vals = new_cols.row(r);

            for (p, (start, end)) in new_layout.ranges().enumerate() {
                if end <= old_cols {
                    // Entirely existing, untouched partition: copy codes/meta/sum.
                    new_row_codes[start..end].copy_from_slice(&old_row_codes[start..end]);
                    new_meta.push(old_meta_row[p]);
                    new_sums.push(old_sums_row[p]);
                    continue;
                }

                // Partition contains new elements (and possibly old ones needing
                // requantization).
                let n_old = old_cols.saturating_sub(start);
                values.clear();
                if n_old > 0 {
                    let pm_old = old_meta_row[p];
                    values.extend(
                        old_row_codes[start..old_cols]
                            .iter()
                            .map(|&c| dequantize_value(c, &pm_old)),
                    );
                    stats.requantized_elements += n_old;
                }
                let new_from = start.max(old_cols);
                values.extend_from_slice(&new_row_vals[new_from - old_cols..end - old_cols]);
                stats.quantized_elements += end - new_from;
                if p >= old_parts || n_old == 0 {
                    stats.new_partitions += 1;
                }

                let (pm, sum) = quantize_partition(
                    &values,
                    &mut new_row_codes[start..end],
                    self.bits,
                    mode,
                    rng,
                );
                new_meta.push(pm);
                new_sums.push(sum);
            }
        }

        self.cols = new_total;
        self.codes = new_codes;
        self.meta = new_meta;
        self.sums = new_sums;
        stats
    }

    /// Appends exactly one full partition's worth of elements (`rows × Π`) to every
    /// vector. Used by the RQE path when the FP16 tail buffer fills up: the flushed
    /// block becomes a brand-new partition, so no existing codes are touched.
    ///
    /// # Panics
    /// Panics if the current length is not a multiple of Π or the block is not `Π` wide.
    pub fn append_full_partition(
        &mut self,
        block: &Matrix,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> AppendStats {
        assert_eq!(
            self.cols % self.partition,
            0,
            "append_full_partition requires the tensor to end on a partition boundary"
        );
        assert_eq!(block.cols(), self.partition, "block must be exactly Π wide");
        let stats = self.append_columns(block, mode, rng);
        debug_assert_eq!(stats.requantized_elements, 0);
        stats
    }

    /// Bytes needed for the densely packed codes (2/4/8-bit packing).
    pub fn packed_code_bytes(&self) -> usize {
        self.rows * self.bits.packed_bytes(self.cols)
    }

    /// Bytes needed for the per-partition `min`/`scale` metadata (two FP16 each).
    pub fn metadata_bytes(&self) -> usize {
        self.meta.len() * PartitionMeta::STORAGE_BYTES
    }

    /// Bytes needed for the stored partition sums, honouring the alignment rule of §6
    /// (1 byte when `b + ⌈log2 Π⌉ ≤ 8`, otherwise INT16).
    pub fn sum_bytes(&self) -> usize {
        let per = crate::params::PartitionSize(self.partition).sum_storage_bytes(self.bits);
        self.sums.len() * per
    }

    /// Total storage bytes. `include_sums` is false for methods that do not use
    /// Summation Elimination (baselines, HACK/SE).
    pub fn total_bytes(&self, include_sums: bool) -> usize {
        self.packed_code_bytes()
            + self.metadata_bytes()
            + if include_sums { self.sum_bytes() } else { 0 }
    }
}

/// Pre-change scalar implementations, kept verbatim as the bit-exactness oracle for
/// the blocked kernels above. Every optimized path must reproduce these exactly —
/// codes, metadata, sums and RNG stream consumption included.
#[cfg(test)]
mod scalar_reference {
    use super::*;
    use crate::stochastic::quantize_value;

    /// The seed's element-indexed `quantize_rows`.
    pub fn quantize_rows(
        m: &Matrix,
        bits: QuantBits,
        partition: usize,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> QuantizedTensor {
        assert!(partition > 0, "partition size must be positive");
        let rows = m.rows();
        let cols = m.cols();
        let n_parts = cols
            .div_ceil(partition.max(1))
            .max(if cols == 0 { 0 } else { 1 });
        let mut codes = vec![0u8; rows * cols];
        let mut meta = Vec::with_capacity(rows * n_parts);
        let mut sums = Vec::with_capacity(rows * n_parts);
        for r in 0..rows {
            let row = m.row(r);
            for p in 0..n_parts {
                let start = p * partition;
                let end = (start + partition).min(cols);
                let slice = &row[start..end];
                let pm = PartitionMeta::from_values(slice, bits);
                let mut sum = 0i32;
                for (i, &v) in slice.iter().enumerate() {
                    let c = quantize_value(v, &pm, bits, mode, rng);
                    codes[r * cols + start + i] = c;
                    sum += c as i32;
                }
                meta.push(pm);
                sums.push(sum);
            }
        }
        QuantizedTensor::from_parts(rows, cols, bits, partition, codes, meta, sums)
    }

    /// The seed's element-indexed `dequantize`.
    pub fn dequantize(q: &QuantizedTensor) -> Matrix {
        let mut out = Matrix::zeros(q.rows(), q.cols());
        let n_parts = q.n_partitions();
        for r in 0..q.rows() {
            for p in 0..n_parts {
                let (start, end) = q.partition_range(p);
                let pm = q.metas()[r * n_parts + p];
                for c in start..end {
                    out.set(r, c, dequantize_value(q.codes()[r * q.cols() + c], &pm));
                }
            }
        }
        out
    }

    /// The seed's element-indexed `append_columns`.
    pub fn append_columns(
        q: &mut QuantizedTensor,
        new_cols: &Matrix,
        mode: RoundingMode,
        rng: &mut DetRng,
    ) -> AppendStats {
        assert_eq!(new_cols.rows(), q.rows(), "append_columns rows");
        let t = new_cols.cols();
        if t == 0 {
            return AppendStats::default();
        }
        let old_cols = q.cols();
        let new_total = old_cols + t;
        let old_parts = q.n_partitions();
        let partition = q.partition();
        let bits = q.bits();
        let new_parts = new_total.div_ceil(partition);
        let mut stats = AppendStats::default();

        let mut new_codes = vec![0u8; q.rows() * new_total];
        let mut new_meta = Vec::with_capacity(q.rows() * new_parts);
        let mut new_sums = Vec::with_capacity(q.rows() * new_parts);

        for r in 0..q.rows() {
            let old_row_codes = &q.codes()[r * old_cols..(r + 1) * old_cols];
            let new_row_vals = new_cols.row(r);

            for p in 0..new_parts {
                let start = p * partition;
                let end = (start + partition).min(new_total);

                if end <= old_cols {
                    let pm = q.metas()[r * old_parts + p];
                    let sum = q.sums()[r * old_parts + p];
                    new_codes[r * new_total + start..r * new_total + end]
                        .copy_from_slice(&old_row_codes[start..end]);
                    new_meta.push(pm);
                    new_sums.push(sum);
                    continue;
                }

                let n_old = old_cols.saturating_sub(start);
                let mut values: Vec<f32> = Vec::with_capacity(end - start);
                if n_old > 0 {
                    let pm_old = q.metas()[r * old_parts + p];
                    #[allow(clippy::needless_range_loop)]
                    for c in start..old_cols {
                        values.push(dequantize_value(old_row_codes[c], &pm_old));
                    }
                    stats.requantized_elements += n_old;
                }
                for idx in (start.max(old_cols))..end {
                    values.push(new_row_vals[idx - old_cols]);
                }
                stats.quantized_elements += end - start.max(old_cols);
                if p >= old_parts || n_old == 0 {
                    stats.new_partitions += 1;
                }

                let pm = PartitionMeta::from_values(&values, bits);
                let mut sum = 0i32;
                for (i, &v) in values.iter().enumerate() {
                    let c = quantize_value(v, &pm, bits, mode, rng);
                    new_codes[r * new_total + start + i] = c;
                    sum += c as i32;
                }
                new_meta.push(pm);
                new_sums.push(sum);
            }
        }

        *q = QuantizedTensor::from_parts(
            q.rows(),
            new_total,
            bits,
            partition,
            new_codes,
            new_meta,
            new_sums,
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::relative_frobenius_error;

    fn rng() -> DetRng {
        DetRng::new(1234)
    }

    // --- Bit-exactness of the blocked kernels against the scalar reference. ---

    #[test]
    fn blocked_quantize_rows_is_bit_identical_to_scalar_reference() {
        for (case, (rows, cols, partition)) in
            [(3, 128, 64), (5, 100, 32), (1, 16, 16), (4, 97, 64)]
                .into_iter()
                .enumerate()
        {
            for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
                for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                    let mut data_rng = DetRng::new(500 + case as u64);
                    let m = Matrix::random_normal(rows, cols, 0.0, 1.5, &mut data_rng);
                    let mut rng_a = DetRng::new(42 + case as u64);
                    let mut rng_b = DetRng::new(42 + case as u64);
                    let fast =
                        QuantizedTensor::quantize_rows(&m, bits, partition, mode, &mut rng_a);
                    let slow =
                        scalar_reference::quantize_rows(&m, bits, partition, mode, &mut rng_b);
                    assert_eq!(fast, slow, "case {case} {bits:?} {mode:?}");
                    // The RNG streams must stay in lockstep, so later draws agree too.
                    assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "case {case}");
                }
            }
        }
    }

    #[test]
    fn two_pass_quantize_partition_matches_per_element_quantization() {
        // Codes, metadata, sum and the next RNG draw against `quantize_value` applied
        // element by element: both rounding modes, every width, lengths on both sides
        // of the chunk size, and partitions that are Gaussian, softmax-like (mostly
        // tiny positives), constant (scale 0), or carry NaN and −0.0.
        use crate::stochastic::quantize_value;
        let mut data = DetRng::new(91);
        for len in [0usize, 1, 5, 63, 64, 65, 127, 128, 130, 200] {
            let gaussian = Matrix::random_normal(1, len, 0.0, 1.0, &mut data)
                .as_slice()
                .to_vec();
            let softmax_like: Vec<f32> = (0..len).map(|_| data.next_f32().powi(8)).collect();
            let mut special = gaussian.clone();
            for (i, v) in special.iter_mut().enumerate() {
                match i % 7 {
                    0 => *v = f32::NAN,
                    3 => *v = -0.0,
                    _ => {}
                }
            }
            let zero_min: Vec<f32> = (0..len).map(|i| [0.0, -0.0, 0.5, 1.0][i % 4]).collect();
            let cases = [
                gaussian,
                softmax_like,
                vec![0.75; len],
                special,
                zero_min,
                vec![f32::NAN; len],
            ];
            for (case, src) in cases.iter().enumerate() {
                for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
                    for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                        let label = format!("len {len} case {case} {bits:?} {mode:?}");
                        let (mut rng_a, mut rng_b) = (DetRng::new(17), DetRng::new(17));
                        let mut codes = vec![0xAAu8; len];
                        let (pm, sum) = quantize_partition(src, &mut codes, bits, mode, &mut rng_a);
                        let expect_pm = PartitionMeta::from_values(src, bits);
                        let expect: Vec<u8> = src
                            .iter()
                            .map(|&v| quantize_value(v, &expect_pm, bits, mode, &mut rng_b))
                            .collect();
                        assert_eq!(codes, expect, "{label}: codes");
                        assert_eq!(
                            (pm.min.to_bits(), pm.scale.to_bits()),
                            (expect_pm.min.to_bits(), expect_pm.scale.to_bits()),
                            "{label}: meta"
                        );
                        let expect_sum: i32 = expect.iter().map(|&c| c as i32).sum();
                        assert_eq!(sum, expect_sum, "{label}: sum");
                        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{label}: draws");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_dequantize_is_bit_identical_to_scalar_reference() {
        for seed in 0..4 {
            let mut rng = DetRng::new(700 + seed);
            let m = Matrix::random_normal(6, 150, 0.0, 2.0, &mut rng);
            let q = QuantizedTensor::quantize_rows(
                &m,
                QuantBits::Int2,
                64,
                RoundingMode::Stochastic,
                &mut rng,
            );
            let fast = q.dequantize();
            let slow = scalar_reference::dequantize(&q);
            assert_eq!(fast.as_slice(), slow.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn blocked_append_columns_is_bit_identical_to_scalar_reference() {
        // Exercise aligned, unaligned and growing-past-a-boundary appends.
        for (case, (cols, t)) in [(64, 3), (40, 1), (40, 30), (0, 32), (33, 64)]
            .into_iter()
            .enumerate()
        {
            for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                let mut data_rng = DetRng::new(900 + case as u64);
                let head = Matrix::random_normal(4, cols, 0.0, 1.0, &mut data_rng);
                let tail = Matrix::random_normal(4, t, 0.0, 2.0, &mut data_rng);
                let mut rng_a = DetRng::new(77 + case as u64);
                let mut rng_b = DetRng::new(77 + case as u64);
                let mut fast = if cols == 0 {
                    QuantizedTensor::empty(4, QuantBits::Int2, 32)
                } else {
                    QuantizedTensor::quantize_rows(&head, QuantBits::Int2, 32, mode, &mut rng_a)
                };
                let mut slow = if cols == 0 {
                    QuantizedTensor::empty(4, QuantBits::Int2, 32)
                } else {
                    scalar_reference::quantize_rows(&head, QuantBits::Int2, 32, mode, &mut rng_b)
                };
                let stats_fast = fast.append_columns(&tail, mode, &mut rng_a);
                let stats_slow =
                    scalar_reference::append_columns(&mut slow, &tail, mode, &mut rng_b);
                assert_eq!(fast, slow, "case {case} {mode:?}");
                assert_eq!(stats_fast, stats_slow, "case {case} {mode:?}");
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "case {case}");
            }
        }
    }

    #[test]
    fn quantize_dequantize_rows_bounded_error() {
        let mut rng = rng();
        let m = Matrix::random_normal(8, 128, 0.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int8,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let back = q.dequantize();
        let err = relative_frobenius_error(&m, &back);
        assert!(err < 0.01, "int8 relative error {err}");
    }

    #[test]
    fn int2_error_larger_than_int8_but_bounded() {
        let mut rng = rng();
        let m = Matrix::random_normal(8, 128, 0.0, 1.0, &mut rng);
        let q2 = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let q8 = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int8,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let e2 = relative_frobenius_error(&m, &q2.dequantize());
        let e8 = relative_frobenius_error(&m, &q8.dequantize());
        assert!(e2 > e8, "int2 error {e2} should exceed int8 error {e8}");
        assert!(e2 < 0.5, "int2 error should still be bounded, got {e2}");
    }

    #[test]
    fn smaller_partitions_give_lower_error() {
        let mut rng = rng();
        // Rows with a strong per-segment structure so partition granularity matters.
        let m = Matrix::from_fn(4, 128, |r, c| {
            let segment = (c / 32) as f32;
            (r as f32 + 1.0) * segment + ((c % 32) as f32) * 0.01
        });
        let q32 = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let q128 = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            128,
            RoundingMode::Nearest,
            &mut rng,
        );
        let e32 = relative_frobenius_error(&m, &q32.dequantize());
        let e128 = relative_frobenius_error(&m, &q128.dequantize());
        assert!(
            e32 < e128,
            "Π=32 error {e32} should be below Π=128 error {e128}"
        );
    }

    #[test]
    fn quantize_cols_stores_transpose() {
        let mut rng = rng();
        let m = Matrix::random_normal(64, 16, 0.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize_cols(
            &m,
            QuantBits::Int8,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        assert_eq!(q.rows(), 16);
        assert_eq!(q.cols(), 64);
        let back = q.dequantize_transposed();
        assert_eq!(back.shape(), (64, 16));
        assert!(relative_frobenius_error(&m, &back) < 0.01);
    }

    #[test]
    fn partition_layout_and_ranges() {
        let mut rng = rng();
        let m = Matrix::random_normal(2, 100, 0.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        assert_eq!(q.n_partitions(), 2);
        assert_eq!(q.partition_range(0), (0, 64));
        assert_eq!(q.partition_range(1), (64, 100));
        assert_eq!(q.metas().len(), 4);
        assert_eq!(q.sums().len(), 4);
    }

    #[test]
    fn stored_sums_match_recomputed() {
        let mut rng = rng();
        let m = Matrix::random_normal(5, 96, 0.0, 2.0, &mut rng);
        let q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            32,
            RoundingMode::Stochastic,
            &mut rng,
        );
        assert!(q.sums_consistent());
        for r in 0..q.rows() {
            for p in 0..q.n_partitions() {
                assert_eq!(q.sum(r, p), q.recompute_sum(r, p));
            }
        }
        assert!(matches!(q.code_sums(true), Cow::Borrowed(_)));
        assert!(matches!(q.code_sums(false), Cow::Owned(_)));
        assert_eq!(q.code_sums(false), q.code_sums(true));
    }

    #[test]
    fn slice_quantizers_match_the_matrix_ones() {
        // `quantize_row` then `append_row` build the tensor `quantize_rows` builds
        // from the same two rows, with the same RNG stream.
        let mut src = rng();
        let m = Matrix::random_normal(2, 100, 0.0, 1.0, &mut src);
        for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
            let (mut a, mut b) = (DetRng::new(3), DetRng::new(3));
            let mut rows =
                QuantizedTensor::quantize_row(m.row(0), QuantBits::Int8, 32, mode, &mut a);
            rows.append_row(m.row(1), mode, &mut a);
            let whole = QuantizedTensor::quantize_rows(&m, QuantBits::Int8, 32, mode, &mut b);
            assert_eq!(rows, whole);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn append_rows_preserves_existing_metadata() {
        let mut rng = rng();
        let m = Matrix::random_normal(3, 64, 0.0, 1.0, &mut rng);
        let mut q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        let before_meta = q.metas().to_vec();
        let extra = Matrix::random_normal(2, 64, 0.0, 1.0, &mut rng);
        let mut stats = AppendStats::default();
        for row in extra.iter_rows() {
            stats = stats.merge(q.append_row(row, RoundingMode::Nearest, &mut rng));
        }
        assert_eq!(q.rows(), 5);
        assert_eq!(stats.new_partitions, 2);
        assert_eq!(stats.requantized_elements, 0);
        assert_eq!(&q.metas()[..before_meta.len()], &before_meta[..]);
        assert!(q.sums_consistent());
    }

    #[test]
    fn append_columns_requantizes_partial_partition() {
        let mut rng = rng();
        // 8 channels, 40 tokens, partition 32: last partition has 8 tokens.
        let v = Matrix::random_normal(8, 40, 0.0, 1.0, &mut rng);
        let mut q = QuantizedTensor::quantize_rows(
            &v,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let extra = Matrix::random_normal(8, 1, 0.0, 5.0, &mut rng); // likely out of range
        let stats = q.append_columns(&extra, RoundingMode::Nearest, &mut rng);
        assert_eq!(q.cols(), 41);
        // All 8 rows requantize their 8 existing tail elements.
        assert_eq!(stats.requantized_elements, 8 * 8);
        assert_eq!(stats.quantized_elements, 8);
        assert!(q.sums_consistent());
    }

    #[test]
    fn append_columns_on_boundary_creates_new_partition_without_requantization() {
        let mut rng = rng();
        let v = Matrix::random_normal(4, 64, 0.0, 1.0, &mut rng);
        let mut q = QuantizedTensor::quantize_rows(
            &v,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let extra = Matrix::random_normal(4, 3, 0.0, 1.0, &mut rng);
        let stats = q.append_columns(&extra, RoundingMode::Nearest, &mut rng);
        assert_eq!(stats.requantized_elements, 0);
        assert_eq!(stats.new_partitions, 4);
        assert_eq!(q.cols(), 67);
        assert_eq!(q.n_partitions(), 3);
        assert!(q.sums_consistent());
    }

    #[test]
    fn append_full_partition_never_requantizes() {
        let mut rng = rng();
        let v = Matrix::random_normal(4, 64, 0.0, 1.0, &mut rng);
        let mut q = QuantizedTensor::quantize_rows(
            &v,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let block = Matrix::random_normal(4, 32, 0.0, 1.0, &mut rng);
        let stats = q.append_full_partition(&block, RoundingMode::Nearest, &mut rng);
        assert_eq!(stats.requantized_elements, 0);
        assert_eq!(q.cols(), 96);
    }

    #[test]
    #[should_panic(expected = "partition boundary")]
    fn append_full_partition_requires_boundary() {
        let mut rng = rng();
        let v = Matrix::random_normal(2, 40, 0.0, 1.0, &mut rng);
        let mut q = QuantizedTensor::quantize_rows(
            &v,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let block = Matrix::zeros(2, 32);
        q.append_full_partition(&block, RoundingMode::Nearest, &mut rng);
    }

    #[test]
    fn append_columns_equivalent_to_direct_quantization_of_full_matrix() {
        // With nearest rounding and appends aligned to partition boundaries, appending
        // must produce exactly the same codes as quantizing the concatenated matrix.
        let mut rng_a = DetRng::new(9);
        let mut rng_b = DetRng::new(9);
        let head = Matrix::random_normal(4, 64, 0.0, 1.0, &mut rng_a);
        let tail = Matrix::random_normal(4, 32, 0.0, 1.0, &mut rng_a);
        let full = head.hstack(&tail);

        let mut incremental = QuantizedTensor::quantize_rows(
            &head,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng_b,
        );
        incremental.append_columns(&tail, RoundingMode::Nearest, &mut rng_b);
        let direct = QuantizedTensor::quantize_rows(
            &full,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng_b,
        );
        assert_eq!(incremental.codes(), direct.codes());
        assert_eq!(incremental.metas(), direct.metas());
        assert_eq!(incremental.sums(), direct.sums());
    }

    #[test]
    fn empty_tensor_appends() {
        let mut rng = rng();
        let mut q = QuantizedTensor::empty(8, QuantBits::Int2, 32);
        assert_eq!(q.n_partitions(), 0);
        assert_eq!(q.total_bytes(true), 0);
        let cols = Matrix::random_normal(8, 32, 0.0, 1.0, &mut rng);
        q.append_columns(&cols, RoundingMode::Nearest, &mut rng);
        assert_eq!(q.cols(), 32);
        assert_eq!(q.n_partitions(), 1);
        assert!(q.sums_consistent());
    }

    #[test]
    fn storage_accounting() {
        let mut rng = rng();
        let m = Matrix::random_normal(16, 128, 0.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            64,
            RoundingMode::Nearest,
            &mut rng,
        );
        // 16 rows x 128 cols x 2 bits = 512 bytes of codes.
        assert_eq!(q.packed_code_bytes(), 512);
        // 16 rows x 2 partitions x 4 bytes of metadata.
        assert_eq!(q.metadata_bytes(), 128);
        // Π=64, 2-bit: sums fit in one byte -> 32 bytes.
        assert_eq!(q.sum_bytes(), 32);
        assert_eq!(q.total_bytes(true), 512 + 128 + 32);
        assert_eq!(q.total_bytes(false), 512 + 128);
        // Compression vs FP16: 16*128*2 = 4096 bytes -> ~84% compression with sums.
        let fp16 = 16 * 128 * 2;
        let ratio = 1.0 - q.total_bytes(true) as f64 / fp16 as f64;
        assert!(ratio > 0.8, "compression ratio {ratio}");
    }

    #[test]
    fn from_parts_round_trip() {
        let mut rng = rng();
        let m = Matrix::random_normal(4, 96, 0.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize_rows(
            &m,
            QuantBits::Int2,
            32,
            RoundingMode::Nearest,
            &mut rng,
        );
        let rebuilt = QuantizedTensor::from_parts(
            q.rows(),
            q.cols(),
            q.bits(),
            q.partition(),
            q.codes().to_vec(),
            q.metas().to_vec(),
            q.sums().to_vec(),
        );
        assert_eq!(q, rebuilt);
    }

    #[test]
    fn codes_stay_within_bit_range() {
        let mut rng = rng();
        let m = Matrix::random_normal(6, 64, 0.0, 3.0, &mut rng);
        for bits in [QuantBits::Int2, QuantBits::Int4, QuantBits::Int8] {
            let q =
                QuantizedTensor::quantize_rows(&m, bits, 32, RoundingMode::Stochastic, &mut rng);
            let max = bits.max_code() as u8;
            assert!(
                q.codes().iter().all(|&c| c <= max),
                "codes exceed {max} for {bits:?}"
            );
        }
    }
}
