//! Scalar error metrics on plain vectors (used by the fidelity harness on logits and
//! probability distributions).

/// Mean absolute error between two equal-length slices.
pub fn mean_abs_error(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mean_abs_error length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64)
        .sum::<f64>()
        / a.len() as f64
}

/// Cosine similarity between two equal-length slices (1.0 for two zero vectors).
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        dot += *x as f64 * *y as f64;
        na += (*x as f64).powi(2);
        nb += (*y as f64).powi(2);
    }
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Top-1 agreement rate between two sequences of predictions.
pub fn agreement_rate<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "agreement_rate length mismatch");
    if a.is_empty() {
        return 1.0;
    }
    a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_known_values() {
        assert_eq!(mean_abs_error(&[1.0, 2.0], &[1.5, 1.0]), 0.75);
        assert_eq!(mean_abs_error(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_known_values() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-9);
        assert_eq!(cosine(&[0.0], &[0.0]), 1.0);
        assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn agreement_counts_matches() {
        assert_eq!(agreement_rate(&[1, 2, 3, 4], &[1, 9, 3, 8]), 0.5);
        assert_eq!(agreement_rate::<u32>(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        cosine(&[1.0], &[1.0, 2.0]);
    }
}
