//! Matrix multiplication kernels.
//!
//! Two flavours:
//!
//! 1. FP32 GEMMs ([`matmul`], [`matmul_transposed_b`], [`vecmat_acc`]) for baseline
//!    attention, the FP16 V tail of HACK decode, and for validating every other
//!    kernel.
//! 2. The integer inner product on small codes ([`dot_u8_i32`]) that models the INT8
//!    tensor-core path the paper lowers the homomorphic multiplication onto (§6:
//!    quantized 2-bit codes are widened to INT8 before the GEMM because Triton's
//!    minimum compute precision is INT8). It is the portable body of
//!    `hack-quant`'s homomorphic row kernel.

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
