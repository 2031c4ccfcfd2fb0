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
