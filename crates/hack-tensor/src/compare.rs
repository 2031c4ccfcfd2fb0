//! Numerical comparison helpers shared by every test-suite and by the fidelity
//! experiments (Table 6 / Table 7 proxies).

use crate::matrix::Matrix;

/// Maximum absolute element-wise difference between two matrices.
///
/// # Panics
/// Panics if the shapes differ.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Mean absolute element-wise difference.
pub fn mean_abs_error(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "mean_abs_error shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() as f64)
        .sum();
    (sum / a.len() as f64) as f32
}

/// Relative error in the Frobenius norm: `||a - b||_F / ||a||_F`.
///
/// Returns the absolute norm of `b` if `a` is (numerically) zero.
pub fn relative_frobenius_error(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(
        a.shape(),
        b.shape(),
        "relative_frobenius_error shape mismatch"
    );
    let diff: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum();
    let norm: f64 = a.as_slice().iter().map(|x| (*x as f64).powi(2)).sum();
    if norm < 1e-30 {
        return (diff.sqrt()) as f32;
    }
    (diff.sqrt() / norm.sqrt()) as f32
}

/// Cosine similarity between two matrices viewed as flat vectors.
///
/// Returns 1.0 for two zero matrices and 0.0 when exactly one of them is zero.
pub fn cosine_similarity(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "cosine_similarity shape mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        dot += *x as f64 * *y as f64;
        na += (*x as f64).powi(2);
        nb += (*y as f64).powi(2);
    }
    if na < 1e-30 && nb < 1e-30 {
        return 1.0;
    }
    if na < 1e-30 || nb < 1e-30 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn identical_matrices_have_zero_error() {
        let mut rng = DetRng::new(1);
        let a = Matrix::random_normal(5, 5, 0.0, 1.0, &mut rng);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
        assert_eq!(mean_abs_error(&a, &a), 0.0);
        assert_eq!(relative_frobenius_error(&a, &a), 0.0);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn known_difference() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![1.5, 1.0]);
        assert_eq!(max_abs_diff(&a, &b), 1.0);
        assert_eq!(mean_abs_error(&a, &b), 0.75);
    }

    #[test]
    fn relative_error_scales() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 3.0]);
        // ||a|| = 5, ||a-b|| = 1
        assert!((relative_frobenius_error(&a, &b) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let b = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_vectors_is_minus_one() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let b = a.scale(-3.0);
        assert!((cosine_similarity(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_matrix_edge_cases() {
        let z = Matrix::zeros(2, 2);
        let a = Matrix::full(2, 2, 1.0);
        assert_eq!(cosine_similarity(&z, &z), 1.0);
        assert_eq!(cosine_similarity(&z, &a), 0.0);
        assert!(relative_frobenius_error(&z, &a) > 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        max_abs_diff(&a, &b);
    }
}
