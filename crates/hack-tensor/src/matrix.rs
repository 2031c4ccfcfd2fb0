//! Row-major `f32` matrix type used by every kernel in the workspace.

use crate::half::round_to_f16;
use crate::rng::DetRng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f32` values.
///
/// Attention tensors in the reproduction are 2-D per head (`L × d_h` for Q/K/V,
/// `L_Q × L_KV` for scores/probabilities), so a simple 2-D matrix is sufficient; the
/// multi-head and multi-layer structure lives above this type.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix with i.i.d. normal entries (`mean`, `std_dev`).
    pub fn random_normal(
        rows: usize,
        cols: usize,
        mean: f32,
        std_dev: f32,
        rng: &mut DetRng,
    ) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.normal_f32(mean, std_dev))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable access to the backing row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Returns a copy of the sub-matrix `[row_start..row_end) × [col_start..col_end)`.
    pub fn block(
        &self,
        row_start: usize,
        row_end: usize,
        col_start: usize,
        col_end: usize,
    ) -> Matrix {
        assert!(
            row_start <= row_end && row_end <= self.rows,
            "row range out of bounds"
        );
        assert!(
            col_start <= col_end && col_end <= self.cols,
            "col range out of bounds"
        );
        let mut out = Matrix::zeros(row_end - row_start, col_end - col_start);
        for (or, r) in (row_start..row_end).enumerate() {
            let src = &self.row(r)[col_start..col_end];
            out.row_mut(or).copy_from_slice(src);
        }
        out
    }

    /// Returns the columns `[col_start..col_end)` of the matrix as a new matrix.
    pub fn col_block(&self, col_start: usize, col_end: usize) -> Matrix {
        self.block(0, self.rows, col_start, col_end)
    }

    /// Returns the rows `[row_start..row_end)` of the matrix as a new matrix.
    pub fn row_block(&self, row_start: usize, row_end: usize) -> Matrix {
        self.block(row_start, row_end, 0, self.cols)
    }

    /// Writes `block` into this matrix at offset `(row_off, col_off)`.
    pub fn set_block(&mut self, row_off: usize, col_off: usize, block: &Matrix) {
        assert!(
            row_off + block.rows <= self.rows,
            "block rows overflow destination"
        );
        assert!(
            col_off + block.cols <= self.cols,
            "block cols overflow destination"
        );
        for r in 0..block.rows {
            let dst = &mut self.data[(row_off + r) * self.cols + col_off
                ..(row_off + r) * self.cols + col_off + block.cols];
            dst.copy_from_slice(block.row(r));
        }
    }

    /// Vertically concatenates `self` on top of `other` (both must have equal `cols`).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Appends a single row (must have `cols` elements).
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Horizontally concatenates `self` with `other` (equal row counts).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack requires equal row counts");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise subtraction (`self - other`).
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Rounds every element to FP16 storage precision (see [`crate::half`]).
    pub fn to_f16_precision(&self) -> Matrix {
        self.map(round_to_f16)
    }

    /// Minimum and maximum over a row range of a single column, used by per-column
    /// quantization partitions.
    pub fn col_min_max(&self, col: usize, row_start: usize, row_end: usize) -> (f32, f32) {
        assert!(col < self.cols && row_start < row_end && row_end <= self.rows);
        let mut mn = f32::INFINITY;
        let mut mx = f32::NEG_INFINITY;
        for r in row_start..row_end {
            let v = self.get(r, col);
            mn = mn.min(v);
            mx = mx.max(v);
        }
        (mn, mx)
    }

    /// Returns true if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Matrix::full(2, 2, 3.5);
        assert!(f.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        m[(0, 1)] = -2.0;
        assert_eq!(m[(0, 1)], -2.0);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = DetRng::new(1);
        let m = Matrix::random_normal(5, 7, 0.0, 1.0, &mut rng);
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
        assert_eq!(m.transpose().shape(), (7, 5));
        assert_eq!(m.get(2, 3), m.transpose().get(3, 2));
    }

    #[test]
    fn block_extraction() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let b = m.block(1, 3, 2, 4);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.get(0, 0), 6.0);
        assert_eq!(b.get(1, 1), 11.0);
        let rb = m.row_block(2, 4);
        assert_eq!(rb.row(0), m.row(2));
        let cb = m.col_block(0, 2);
        assert_eq!(cb.get(3, 1), 13.0);
    }

    #[test]
    fn set_block_round_trips() {
        let mut m = Matrix::zeros(4, 4);
        let b = Matrix::full(2, 2, 9.0);
        m.set_block(1, 2, &b);
        assert_eq!(m.block(1, 3, 2, 4), b);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn stack_and_push_row() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);

        let mut c = a.clone();
        c.push_row(&[7.0, 8.0]);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(1), &[7.0, 8.0]);

        let h = a.hstack(&Matrix::from_vec(1, 1, vec![9.0]));
        assert_eq!(h.shape(), (1, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).row(0), &[1.5, 2.5, 3.5]);
        assert_eq!(a.sub(&b).row(0), &[0.5, 1.5, 2.5]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(a.map(|x| x * x).row(0), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_vec(1, 4, vec![1.0, -2.0, 2.0, 0.0]);
        assert_eq!(m.sum(), 1.0);
        assert_eq!(m.mean(), 0.25);
        assert!(m.all_finite());
        let bad = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(!bad.all_finite());
    }

    #[test]
    fn min_max_helpers() {
        let m = Matrix::from_vec(3, 2, vec![1.0, -1.0, 5.0, 2.0, -3.0, 0.0]);
        assert_eq!(m.col_min_max(0, 0, 3), (-3.0, 5.0));
        assert_eq!(m.col_min_max(0, 0, 2), (1.0, 5.0));
    }

    #[test]
    fn random_normal_statistics() {
        let mut rng = DetRng::new(3);
        let m = Matrix::random_normal(100, 100, 1.0, 2.0, &mut rng);
        let mean = m.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn f16_precision_reduces_resolution() {
        let m = Matrix::from_vec(1, 2, vec![1.0 + 1e-5, 1000.25]);
        let h = m.to_f16_precision();
        assert_eq!(h.get(0, 0), 1.0);
        // 1000.25 is not representable in fp16 (spacing is 0.5 at that magnitude).
        assert_eq!(h.get(0, 1), 1000.0);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[4.0, 5.0]);
    }

    #[test]
    fn col_returns_column_copy() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.col(1), vec![1.0, 4.0, 7.0]);
    }

    #[test]
    fn debug_format_does_not_panic() {
        let m = Matrix::from_fn(10, 12, |r, c| (r + c) as f32);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x12"));
    }
}
