//! Numerically-stable row softmax, with and without a causal mask.

use crate::matrix::Matrix;

/// Row-wise numerically-stable softmax (Eq. 3 of the paper).
pub fn softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = scores.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// In-place row-wise softmax.
pub fn softmax_rows_inplace(scores: &mut Matrix) {
    let cols = scores.cols();
    if cols == 0 {
        return;
    }
    for r in 0..scores.rows() {
        let row = scores.row_mut(r);
        softmax_slice_inplace(row);
    }
}

/// In-place softmax of a single slice.
pub fn softmax_slice_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // Fully-masked row: define the output as uniform to avoid NaN propagation.
        let v = 1.0 / row.len() as f32;
        for x in row.iter_mut() {
            *x = v;
        }
        return;
    }
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Row-wise causal-masked softmax for prefill self-attention.
///
/// Entry `(i, j)` is masked (set to probability 0) when `j > i + offset`, where
/// `offset = L_KV - L_Q`; with `L_Q == L_KV` this is the standard causal mask, and
/// during decode (`L_Q == 1`) nothing is masked.
pub fn causal_softmax_rows(scores: &Matrix, l_kv_minus_l_q: usize) -> Matrix {
    let mut out = scores.clone();
    for r in 0..out.rows() {
        let limit = r + l_kv_minus_l_q; // inclusive last visible column
        let row = out.row_mut(r);
        for (c, v) in row.iter_mut().enumerate() {
            if c > limit {
                *v = f32::NEG_INFINITY;
            }
        }
        softmax_slice_inplace(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn rows_sum_to_one() {
        let mut rng = DetRng::new(1);
        let s = Matrix::random_normal(8, 16, 0.0, 3.0, &mut rng);
        let p = softmax_rows(&s);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(p.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let s = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let shifted = s.map(|x| x + 100.0);
        let a = softmax_rows(&s);
        let b = softmax_rows(&shifted);
        for c in 0..3 {
            assert!((a.get(0, c) - b.get(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let s = Matrix::from_vec(1, 3, vec![1e4, -1e4, 0.0]);
        let p = softmax_rows(&s);
        assert!(p.all_finite());
        assert!((p.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_scores_give_uniform_probabilities() {
        let s = Matrix::full(2, 5, 0.7);
        let p = softmax_rows(&s);
        for r in 0..2 {
            for c in 0..5 {
                assert!((p.get(r, c) - 0.2).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fully_masked_row_is_uniform_not_nan() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_slice_inplace(&mut row);
        assert!(row.iter().all(|x| (x - 0.25).abs() < 1e-6));
    }

    #[test]
    fn causal_mask_zeroes_future_positions() {
        let s = Matrix::full(3, 3, 1.0);
        let p = causal_softmax_rows(&s, 0);
        // Row 0 attends only to position 0.
        assert!((p.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(p.get(0, 1), 0.0);
        assert_eq!(p.get(0, 2), 0.0);
        // Row 1 attends to 0 and 1 equally.
        assert!((p.get(1, 0) - 0.5).abs() < 1e-6);
        assert!((p.get(1, 1) - 0.5).abs() < 1e-6);
        assert_eq!(p.get(1, 2), 0.0);
        // Row 2 attends to everything.
        for c in 0..3 {
            assert!((p.get(2, c) - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn causal_mask_with_kv_offset() {
        // L_Q = 2, L_KV = 4 (two cached tokens): row 0 sees columns 0..=2.
        let s = Matrix::full(2, 4, 0.0);
        let p = causal_softmax_rows(&s, 2);
        assert_eq!(p.get(0, 3), 0.0);
        assert!((p.get(0, 0) - 1.0 / 3.0).abs() < 1e-6);
        // Row 1 sees all four.
        assert!((p.get(1, 3) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn empty_row_softmax_is_noop() {
        let mut empty: Vec<f32> = vec![];
        softmax_slice_inplace(&mut empty);
        assert!(empty.is_empty());
    }
}
