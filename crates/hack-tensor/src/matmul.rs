//! Matrix multiplication kernels.
//!
//! The reproduction needs three flavours of GEMM:
//!
//! 1. An FP32 reference GEMM ([`matmul`], [`matmul_transposed_b`]) for baseline
//!    attention and for validating every other kernel.
//! 2. A cache-blocked FP32 GEMM ([`matmul_blocked`]) used by the larger reference
//!    transformer forward passes.
//! 3. Integer GEMMs on small codes ([`gemm_i8_i32`], [`gemm_u8_i32`]) that model the
//!    INT8 tensor-core path the paper lowers the homomorphic multiplication onto
//!    (§6: quantized 2-bit codes are widened to INT8 before the GEMM because Triton's
//!    minimum compute precision is INT8).

use crate::matrix::Matrix;

/// Reference FP32 GEMM: `C = A · B`.
///
/// # Panics
/// Panics if the inner dimensions do not match.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimension mismatch: {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        vecmat_acc(a.row(i), b, out.row_mut(i));
    }
    out
}

/// Adds the vector-matrix product `x · B` to `out`: for each non-zero `x[z]` in
/// order, `out[j] += x[z] · B[z][j]`. This is one row of [`matmul`], for a left
/// operand held in a slice.
///
/// # Panics
/// Panics if `x` is not `B.rows()` long or `out` is not `B.cols()` long.
pub fn vecmat_acc(x: &[f32], b: &Matrix, out: &mut [f32]) {
    assert_eq!(
        x.len(),
        b.rows(),
        "vecmat_acc: x must have one entry per row of B"
    );
    assert_eq!(
        out.len(),
        b.cols(),
        "vecmat_acc: out must have one entry per column of B"
    );
    for (z, &x_z) in x.iter().enumerate() {
        if x_z == 0.0 {
            continue;
        }
        for (o, &b_zj) in out.iter_mut().zip(b.row(z)) {
            *o += x_z * b_zj;
        }
    }
}

/// FP32 GEMM with the second operand given transposed: `C = A · Bᵀ`.
///
/// Attention computes `Q · Kᵀ`, where both `Q` and `K` are stored token-major
/// (`L × d_h`); this kernel avoids materialising the transpose.
pub fn matmul_transposed_b(a: &Matrix, b_t: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b_t.cols(),
        "matmul_transposed_b inner dimension mismatch: {}x{} · ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b_t.rows(),
        b_t.cols()
    );
    let m = a.rows();
    let n = b_t.rows();
    let k = a.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            let b_row = b_t.row(j);
            let mut acc = 0.0f32;
            for z in 0..k {
                acc += a_row[z] * b_row[z];
            }
            out_row[j] = acc;
        }
    }
    out
}

/// Cache-blocked FP32 GEMM. Identical results (up to FP associativity) to [`matmul`]
/// but substantially faster for the reference-transformer shapes.
pub fn matmul_blocked(a: &Matrix, b: &Matrix, block: usize) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_blocked inner dimension mismatch"
    );
    assert!(block > 0, "block size must be positive");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for ii in (0..m).step_by(block) {
        let i_end = (ii + block).min(m);
        for kk in (0..k).step_by(block) {
            let k_end = (kk + block).min(k);
            for jj in (0..n).step_by(block) {
                let j_end = (jj + block).min(n);
                for i in ii..i_end {
                    let a_row = a.row(i);
                    let out_row = out.row_mut(i);
                    #[allow(clippy::needless_range_loop)]
                    for z in kk..k_end {
                        let a_iz = a_row[z];
                        if a_iz == 0.0 {
                            continue;
                        }
                        let b_row = b.row(z);
                        for j in jj..j_end {
                            out_row[j] += a_iz * b_row[j];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Integer GEMM on signed 8-bit codes with 32-bit accumulation: `C = A · B`.
///
/// `a` is `m × k` row-major, `b` is `k × n` row-major. This is the CPU stand-in for the
/// INT8 tensor-core GEMM used by HACK's homomorphic multiplication.
pub fn gemm_i8_i32(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "gemm_i8_i32: A length mismatch");
    assert_eq!(b.len(), k * n, "gemm_i8_i32: B length mismatch");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (z, &a_iz) in a_row.iter().enumerate() {
            if a_iz == 0 {
                continue;
            }
            let a_val = a_iz as i32;
            let b_row = &b[z * n..(z + 1) * n];
            for (j, &b_zj) in b_row.iter().enumerate() {
                out_row[j] += a_val * b_zj as i32;
            }
        }
    }
    out
}

/// Integer GEMM on unsigned 8-bit codes (the widened 2-bit/8-bit quantization codes,
/// which are always non-negative) with 32-bit accumulation: `C = A · B`.
pub fn gemm_u8_i32(a: &[u8], b: &[u8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "gemm_u8_i32: A length mismatch");
    assert_eq!(b.len(), k * n, "gemm_u8_i32: B length mismatch");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (z, &a_iz) in a_row.iter().enumerate() {
            if a_iz == 0 {
                continue;
            }
            let a_val = a_iz as i32;
            let b_row = &b[z * n..(z + 1) * n];
            for (j, &b_zj) in b_row.iter().enumerate() {
                out_row[j] += a_val * b_zj as i32;
            }
        }
    }
    out
}

/// Blocked inner product of two unsigned code slices with `i32` accumulation —
/// the innermost kernel of the homomorphic GEMM (§5.3).
///
/// On x86-64 this widens the codes to 16-bit lanes and multiply-adds them with
/// `pmaddwd` — the CPU analogue of the paper's §6 trick of widening 2-bit codes
/// to INT8 for the tensor-core GEMM. It dispatches at run time: slices of at
/// least 32 codes take an AVX2 body (32 codes per step) when the CPU has AVX2,
/// everything else the SSE2 body (16 codes per step, part of the x86-64
/// baseline). Other targets take a scalar loop. Every step is exact integer
/// arithmetic and `i32` addition is associative (also modulo 2³², so even on
/// overflow), making the result bit-identical to the scalar left-to-right sum.
#[inline]
pub fn dot_u8_i32(a: &[u8], b: &[u8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_u8_i32 length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        // `is_x86_feature_detected!` caches its probe in an atomic, so this is
        // one relaxed load + predictable branch per call.
        if a.len() >= 32 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence just checked.
            return unsafe { dot_u8_i32_avx2(a, b) };
        }
        // SAFETY: SSE2 is part of the x86-64 baseline instruction set.
        unsafe { dot_u8_i32_sse2(a, b) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    dot_u8_i32_scalar(a, b)
}

/// Portable fallback (and the oracle the SIMD path is tested against).
#[inline]
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn dot_u8_i32_scalar(a: &[u8], b: &[u8]) -> i32 {
    let mut acc = 0i32;
    for (x, y) in a.iter().zip(b) {
        acc = acc.wrapping_add(*x as i32 * *y as i32);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn dot_u8_i32_sse2(a: &[u8], b: &[u8]) -> i32 {
    use std::arch::x86_64::*;
    let len = a.len();
    let chunks = len / 16;
    unsafe {
        let zero = _mm_setzero_si128();
        let mut acc = _mm_setzero_si128(); // four i32 partial sums
        for c in 0..chunks {
            let pa = _mm_loadu_si128(a.as_ptr().add(c * 16).cast());
            let pb = _mm_loadu_si128(b.as_ptr().add(c * 16).cast());
            // Zero-extend u8 -> 16-bit lanes (0..=255 is non-negative as i16),
            // then pmaddwd: lane products (<= 255² = 65025) are summed pairwise
            // into i32 lanes — exact.
            let a_lo = _mm_unpacklo_epi8(pa, zero);
            let a_hi = _mm_unpackhi_epi8(pa, zero);
            let b_lo = _mm_unpacklo_epi8(pb, zero);
            let b_hi = _mm_unpackhi_epi8(pb, zero);
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
        }
        // Horizontal sum of the four i32 lanes.
        let hi64 = _mm_unpackhi_epi64(acc, acc);
        let sum2 = _mm_add_epi32(acc, hi64);
        let hi32 = _mm_shuffle_epi32(sum2, 0b0000_0001);
        let mut total = _mm_cvtsi128_si32(_mm_add_epi32(sum2, hi32));
        for i in chunks * 16..len {
            total = total.wrapping_add(*a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32);
        }
        total
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_u8_i32_avx2(a: &[u8], b: &[u8]) -> i32 {
    use std::arch::x86_64::*;
    let len = a.len();
    let chunks = len / 32;
    unsafe {
        let zero = _mm256_setzero_si256();
        let mut acc = _mm256_setzero_si256(); // eight i32 partial sums
        for c in 0..chunks {
            let pa = _mm256_loadu_si256(a.as_ptr().add(c * 32).cast());
            let pb = _mm256_loadu_si256(b.as_ptr().add(c * 32).cast());
            // Same widen-then-pmaddwd scheme as the SSE2 path, 32 codes at a time.
            let a_lo = _mm256_unpacklo_epi8(pa, zero);
            let a_hi = _mm256_unpackhi_epi8(pa, zero);
            let b_lo = _mm256_unpacklo_epi8(pb, zero);
            let b_hi = _mm256_unpackhi_epi8(pb, zero);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
        }
        // Horizontal sum of the eight i32 lanes.
        let lo128 = _mm256_castsi256_si128(acc);
        let hi128 = _mm256_extracti128_si256(acc, 1);
        let sum4 = _mm_add_epi32(lo128, hi128);
        let hi64 = _mm_unpackhi_epi64(sum4, sum4);
        let sum2 = _mm_add_epi32(sum4, hi64);
        let hi32 = _mm_shuffle_epi32(sum2, 0b0000_0001);
        let mut total = _mm_cvtsi128_si32(_mm_add_epi32(sum2, hi32));
        for i in chunks * 32..len {
            total = total.wrapping_add(*a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32);
        }
        total
    }
}

/// Right-operand rows per [`partition_dots8_u8_i32`] call: the output columns
/// of one homomorphic GEMM block, one `i32 × 8` AVX2 vector per partition.
pub const DOT_BLOCK: usize = 8;

/// Largest right-operand code the AVX2 path multiplies with `maddubs`. That
/// instruction sums two `u8 × i8` products into a saturating `i16`; with left
/// codes ≤ 255 and right codes ≤ 15 (at most 4-bit) a pair is at most
/// `2 · 255 · 15 = 7650 < 2¹⁵`, so it never saturates and stays exact.
const MADDUBS_MAX_B: u8 = 15;

/// Per-partition inner products of one left code row against up to
/// [`DOT_BLOCK`] right code rows: `out[p][r] = dot(a[span_p], b[r][span_p])`.
/// Lanes `r ≥ b.len()` are zero.
///
/// This is the integer part of the homomorphic GEMM (§5.3), fused over a whole
/// partitioned row and eight output columns: the feature dispatch and span
/// validation happen once per call, each chunk of the left row is loaded once
/// and multiplied against eight right rows, and the eight partition totals are
/// reduced into one vector.
///
/// `b_max` bounds every code in `b`. On AVX2 the kernel multiplies with
/// `maddubs` + `pmaddwd` when `b_max ≤ 15` (K and V codes of at most 4 bits).
/// Otherwise (Int8 × Int8), or without AVX2, it takes one [`dot_u8_i32`] per
/// span and row, which is the widen + `pmaddwd` scheme. All paths are exact
/// integer arithmetic, bit-identical to the scalar sums. A code above `b_max`
/// gives unspecified (but memory-safe) sums.
///
/// # Panics
/// Panics if `b` holds no rows or more than [`DOT_BLOCK`], `spans` and `out`
/// differ in length, or a span is reversed or ends past `a` or a `b` row.
pub fn partition_dots8_u8_i32(
    a: &[u8],
    b: &[&[u8]],
    b_max: u8,
    spans: &[(usize, usize)],
    out: &mut [[i32; DOT_BLOCK]],
) {
    let live = b.len();
    assert!(
        (1..=DOT_BLOCK).contains(&live),
        "partition_dots8_u8_i32 takes 1..={DOT_BLOCK} right rows, got {live}"
    );
    assert_eq!(spans.len(), out.len(), "partition_dots8_u8_i32 span count");
    let mut end = 0;
    for &(s, e) in spans {
        assert!(s <= e, "partition span {s}..{e} is reversed");
        end = end.max(e);
    }
    let shortest = b.iter().map(|r| r.len()).fold(a.len(), usize::min);
    assert!(
        end <= shortest,
        "partition spans end at {end}, past a row of length {shortest}"
    );
    debug_assert!(
        b.iter().all(|r| spans
            .iter()
            .all(|&(s, e)| r[s..e].iter().all(|&c| c <= b_max))),
        "a right-operand code exceeds b_max = {b_max}"
    );
    let rows = pad_rows(b);
    #[cfg(target_arch = "x86_64")]
    if b_max <= MADDUBS_MAX_B && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence just checked; every span lies inside `a` and
        // every row of `rows` (validated above).
        unsafe { dots8_avx2(a, rows, spans, out) };
    } else {
        dots8_per_row(a, rows, spans, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    dots8_per_row(a, rows, spans, out);
    for o in out.iter_mut() {
        o[live..].fill(0);
    }
}

/// `b` padded to [`DOT_BLOCK`] rows for the bodies of [`partition_dots8_u8_i32`]:
/// dead lanes repeat row 0 so the SIMD loop has no per-lane branch, and the
/// caller zeroes them afterwards.
fn pad_rows<'a>(b: &[&'a [u8]]) -> [&'a [u8]; DOT_BLOCK] {
    std::array::from_fn(|r| b.get(r).copied().unwrap_or(b[0]))
}

/// Portable body of [`partition_dots8_u8_i32`], taken for right codes above
/// 4 bits or without AVX2: one [`dot_u8_i32`] per span and row. Kept out of
/// line so the AVX2 caller stays small.
#[inline(never)]
fn dots8_per_row(
    a: &[u8],
    b: [&[u8]; DOT_BLOCK],
    spans: &[(usize, usize)],
    out: &mut [[i32; DOT_BLOCK]],
) {
    for (o, &(s, e)) in out.iter_mut().zip(spans) {
        for (x, row) in o.iter_mut().zip(b) {
            *x = dot_u8_i32(&a[s..e], &row[s..e]);
        }
    }
}

/// AVX2 body of [`partition_dots8_u8_i32`]: `maddubs` + `pmaddwd` on 32 codes
/// per step, for right codes ≤ [`MADDUBS_MAX_B`].
///
/// # Safety
/// AVX2 must be available, every span must lie inside `a` and every row, and
/// every right code must be at most [`MADDUBS_MAX_B`] for exact sums.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dots8_avx2(
    a: &[u8],
    b: [&[u8]; DOT_BLOCK],
    spans: &[(usize, usize)],
    out: &mut [[i32; DOT_BLOCK]],
) {
    use std::arch::x86_64::*;
    const STEP: usize = 32;
    // SAFETY: AVX2 is available (caller contract). Every load reads `STEP`
    // bytes starting below `simd_end`, so it stays inside `start..end`, which
    // lies inside `a` and every row (caller contract); the loads and the
    // 32-byte store into the `[i32; 8]` entry are unaligned.
    unsafe {
        let ones = _mm256_set1_epi16(1);
        for (o, &(start, end)) in out.iter_mut().zip(spans) {
            let simd_end = start + (end - start) / STEP * STEP;
            let mut acc = [_mm256_setzero_si256(); DOT_BLOCK];
            let mut i = start;
            while i < simd_end {
                let pa = _mm256_loadu_si256(a.as_ptr().add(i).cast());
                for (acc_r, row) in acc.iter_mut().zip(b) {
                    let pb = _mm256_loadu_si256(row.as_ptr().add(i).cast());
                    // `maddubs` pairs fit in i16 (see MADDUBS_MAX_B) and
                    // `pmaddwd` against ones widens them to exact i32 lanes.
                    let prod = _mm256_madd_epi16(_mm256_maddubs_epi16(pa, pb), ones);
                    *acc_r = _mm256_add_epi32(*acc_r, prod);
                }
                i += STEP;
            }
            // Reduce the eight accumulators into one vector. Two rounds of
            // hadd leave partial totals of rows 0–3 in each 128-bit half of
            // `h0` and of rows 4–7 in each half of `h1`; adding the low halves
            // to the high halves gives [r0, …, r7].
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
            _mm256_storeu_si256(o.as_mut_ptr().cast(), sums);
            for idx in simd_end..end {
                let x = a[idx] as i32;
                for (acc_r, row) in o.iter_mut().zip(b) {
                    *acc_r = acc_r.wrapping_add(x * row[idx] as i32);
                }
            }
        }
    }
}

/// Integer GEMM where `B` is provided transposed (`n × k` row-major): `C = A · Bᵀ`.
///
/// The quantized K matrix is stored token-major, so the score computation `Q'·K'ᵀ` uses
/// this layout directly.
pub fn gemm_u8_i32_transposed_b(a: &[u8], b_t: &[u8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(
        a.len(),
        m * k,
        "gemm_u8_i32_transposed_b: A length mismatch"
    );
    assert_eq!(
        b_t.len(),
        n * k,
        "gemm_u8_i32_transposed_b: B length mismatch"
    );
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, out_ij) in out_row.iter_mut().enumerate() {
            *out_ij = dot_u8_i32(a_row, &b_t[j * k..(j + 1) * k]);
        }
    }
    out
}

/// Matrix-vector product `y = A · x` (FP32).
pub fn matvec(a: &Matrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.cols(), x.len(), "matvec dimension mismatch");
    a.iter_rows()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// Dot product of two slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert!(
                    (a.get(r, c) - b.get(r, c)).abs() <= tol,
                    "({r},{c}): {} vs {}",
                    a.get(r, c),
                    b.get(r, c)
                );
            }
        }
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = DetRng::new(4);
        let a = Matrix::random_normal(6, 6, 0.0, 1.0, &mut rng);
        let i = Matrix::identity(6);
        assert_close(&matmul(&a, &i), &a, 1e-6);
        assert_close(&matmul(&i, &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_shapes_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        matmul(&a, &b);
    }

    #[test]
    fn transposed_b_matches_explicit_transpose() {
        let mut rng = DetRng::new(5);
        let a = Matrix::random_normal(4, 8, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(8, 5, 0.0, 1.0, &mut rng);
        let expect = matmul(&a, &b);
        let got = matmul_transposed_b(&a, &b.transpose());
        assert_close(&expect, &got, 1e-4);
    }

    #[test]
    fn blocked_matches_reference() {
        let mut rng = DetRng::new(6);
        let a = Matrix::random_normal(17, 23, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(23, 11, 0.0, 1.0, &mut rng);
        let expect = matmul(&a, &b);
        for block in [1, 4, 8, 64] {
            let got = matmul_blocked(&a, &b, block);
            assert_close(&expect, &got, 1e-3);
        }
    }

    #[test]
    fn i8_gemm_known_values() {
        // A = [[1, -2], [3, 4]], B = [[5, 6], [7, 8]]
        let a: Vec<i8> = vec![1, -2, 3, 4];
        let b: Vec<i8> = vec![5, 6, 7, 8];
        let c = gemm_i8_i32(&a, &b, 2, 2, 2);
        assert_eq!(c, vec![-9, -10, 43, 50]);
    }

    #[test]
    fn u8_gemm_matches_f32_reference() {
        let mut rng = DetRng::new(7);
        let m = 5;
        let k = 16;
        let n = 9;
        let a: Vec<u8> = (0..m * k).map(|_| rng.range_usize(0, 4) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|_| rng.range_usize(0, 256) as u8).collect();
        let got = gemm_u8_i32(&a, &b, m, k, n);
        let af = Matrix::from_vec(m, k, a.iter().map(|&x| x as f32).collect());
        let bf = Matrix::from_vec(k, n, b.iter().map(|&x| x as f32).collect());
        let expect = matmul(&af, &bf);
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g as f32, expect.as_slice()[i]);
        }
    }

    #[test]
    fn blocked_u8_dot_matches_scalar_sum() {
        let mut rng = DetRng::new(11);
        for len in [0, 1, 15, 16, 17, 31, 32, 64, 100, 255] {
            let a: Vec<u8> = (0..len).map(|_| rng.range_usize(0, 256) as u8).collect();
            let b: Vec<u8> = (0..len).map(|_| rng.range_usize(0, 256) as u8).collect();
            let scalar: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_u8_i32(&a, &b), scalar, "len {len}");
            assert_eq!(dot_u8_i32_scalar(&a, &b), scalar, "scalar len {len}");
        }
        // Saturated inputs at maximal length exercise the pairwise i32 sums.
        let a = vec![255u8; 4096];
        assert_eq!(dot_u8_i32(&a, &a), 4096 * 255 * 255);
    }

    /// The oracle for [`partition_dots8_u8_i32`]: scalar dots per span and live
    /// row, dead lanes zero.
    fn scalar_dots8(a: &[u8], b: &[&[u8]], spans: &[(usize, usize)]) -> Vec<[i32; DOT_BLOCK]> {
        spans
            .iter()
            .map(|&(s, e)| {
                let mut lanes = [0i32; DOT_BLOCK];
                for (lane, row) in lanes.iter_mut().zip(b) {
                    *lane = dot_u8_i32_scalar(&a[s..e], &row[s..e]);
                }
                lanes
            })
            .collect()
    }

    fn spans_of(len: usize, partition: usize) -> Vec<(usize, usize)> {
        (0..len.div_ceil(partition))
            .map(|p| (p * partition, ((p + 1) * partition).min(len)))
            .collect()
    }

    #[test]
    fn fused_partition_dots_match_per_partition_dots() {
        // The fused 8-row kernel against scalar dots, partition by partition:
        // every length 0..=255 (so every SIMD tail), whole-row and partitioned
        // spans with ragged last partitions (the homomorphic GEMM's Π = 16..=64
        // among them), 1..=8 live rows, and right-operand code ranges that take
        // the maddubs path (Int2, Int4) and the per-row widen path (Int8). The
        // portable per-row body is also called directly, so it runs on every
        // code range on AVX2 hosts too.
        let mut rng = DetRng::new(13);
        for b_max in [3u8, 15, 255] {
            for len in 0..=255usize {
                let a: Vec<u8> = (0..len).map(|_| rng.range_usize(0, 256) as u8).collect();
                let b_rows: Vec<Vec<u8>> = (0..DOT_BLOCK)
                    .map(|_| {
                        (0..len)
                            .map(|_| rng.range_usize(0, b_max as usize + 1) as u8)
                            .collect()
                    })
                    .collect();
                for partition in [len.max(1), 16, 32, 64, 100] {
                    let spans = spans_of(len, partition);
                    for live in 1..=DOT_BLOCK {
                        let b: Vec<&[u8]> = b_rows[..live].iter().map(Vec::as_slice).collect();
                        let expect = scalar_dots8(&a, &b, &spans);
                        let label = format!("len {len} Π {partition} live {live} b_max {b_max}");
                        let mut got = vec![[-7i32; DOT_BLOCK]; spans.len()];
                        partition_dots8_u8_i32(&a, &b, b_max, &spans, &mut got);
                        assert_eq!(got, expect, "{label}");
                        let mut portable = vec![[-7i32; DOT_BLOCK]; spans.len()];
                        dots8_per_row(&a, pad_rows(&b), &spans, &mut portable);
                        for (lanes, want) in portable.iter().zip(&expect) {
                            assert_eq!(lanes[..live], want[..live], "portable {label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dots8_are_exact_on_saturated_codes() {
        // 255 × max code in every lane: the largest maddubs pair sums (Int2, Int4)
        // and the largest pmaddwd products (Int8), on the dispatched kernel and on
        // the portable body.
        for b_max in [3u8, 15, 255] {
            for len in [255usize, 4096] {
                let a = vec![255u8; len];
                let row = vec![b_max; len];
                let b = [row.as_slice(); DOT_BLOCK];
                for spans in [vec![(0, len)], spans_of(len, 64)] {
                    let mut got = vec![[0i32; DOT_BLOCK]; spans.len()];
                    partition_dots8_u8_i32(&a, &b, b_max, &spans, &mut got);
                    let mut portable = vec![[0i32; DOT_BLOCK]; spans.len()];
                    dots8_per_row(&a, b, &spans, &mut portable);
                    for ((lanes, portable), &(s, e)) in got.iter().zip(&portable).zip(&spans) {
                        let expect = ((e - s) * 255 * b_max as usize) as i32;
                        assert_eq!(*lanes, [expect; DOT_BLOCK], "len {len} b_max {b_max}");
                        assert_eq!(*portable, [expect; DOT_BLOCK], "portable len {len}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "past a row")]
    fn dots8_reject_spans_past_a_short_row() {
        let mut out = [[0i32; DOT_BLOCK]];
        partition_dots8_u8_i32(&[1; 64], &[&[1; 64], &[1; 63]], 3, &[(0, 64)], &mut out);
    }

    #[test]
    fn u8_gemm_transposed_matches_untransposed() {
        let mut rng = DetRng::new(8);
        let m = 3;
        let k = 12;
        let n = 7;
        let a: Vec<u8> = (0..m * k).map(|_| rng.range_usize(0, 4) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|_| rng.range_usize(0, 4) as u8).collect();
        // b_t is n x k.
        let mut b_t = vec![0u8; n * k];
        for z in 0..k {
            for j in 0..n {
                b_t[j * k + z] = b[z * n + j];
            }
        }
        assert_eq!(
            gemm_u8_i32(&a, &b, m, k, n),
            gemm_u8_i32_transposed_b(&a, &b_t, m, k, n)
        );
    }

    #[test]
    fn i8_gemm_accumulates_in_i32_without_overflow() {
        // 127 * 127 * 512 = 8,258,048 which overflows i16 but not i32.
        let k = 512;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        let c = gemm_i8_i32(&a, &b, 1, k, 1);
        assert_eq!(c[0], 127 * 127 * k as i32);
    }

    #[test]
    fn matvec_and_dot() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let y = matvec(&a, &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 8.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn zero_sized_products() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (0, 4));
    }

    #[test]
    fn associativity_of_scaling() {
        let mut rng = DetRng::new(9);
        let a = Matrix::random_normal(3, 3, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(3, 3, 0.0, 1.0, &mut rng);
        let left = matmul(&a.scale(2.0), &b);
        let right = matmul(&a, &b).scale(2.0);
        assert_close(&left, &right, 1e-4);
    }
}
