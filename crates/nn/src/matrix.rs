//! A minimal row-major `f32` matrix with the handful of kernels the column
//! encoder needs. No BLAS — the inner loops are the shared `deepjoin-simd`
//! kernels (`axpy` for the rank-1 updates in `matmul`/`t_matmul`, `dot` for
//! `matmul_t`), which dispatch to AVX2+FMA at runtime.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Row-major matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major contents, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from data. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, seeded.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Uniform init in `(-bound, bound)`, seeded. With `bound =
    /// sqrt(3/cols)` rows have expected unit norm — the right scale for
    /// embedding tables (unlike Xavier, whose bound shrinks with the row
    /// count and leaves rarely-touched rows with negligible magnitude).
    pub fn uniform(rows: usize, cols: usize, bound: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Reshape to `rows x cols`, reusing the allocation; contents are
    /// unspecified (zero where the matrix grew).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Immutable row view.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate rows.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// `self @ other` — (m×k)·(k×n) → m×n.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        // ikj loop order: the inner j-loop is an axpy over contiguous memory
        // in both `other` and `out`.
        for i in 0..m {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (p, &a) in a_row.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                deepjoin_simd::axpy(out_row, other.row(p), a);
            }
        }
        out
    }

    /// `selfᵀ @ other` — (m×k)ᵀ·(m×n) → k×n. Used for weight gradients.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(k, n);
        for i in 0..m {
            let a_row = self.row(i);
            let b_row = other.row(i);
            for (p, &a) in a_row.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                deepjoin_simd::axpy(out.row_mut(p), b_row, a);
            }
        }
        out
    }

    /// `self @ otherᵀ` — (m×k)·(n×k)ᵀ → m×n. Used for input gradients and
    /// similarity matrices.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let m = self.rows;
        let mut out = Matrix::zeros(m, other.rows);
        // `other`'s rows are contiguous, so each output row is exactly the
        // blocked one-vs-many dot kernel.
        for i in 0..m {
            deepjoin_simd::dot_block(self.row(i), &other.data, out.row_mut(i));
        }
        out
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise `self *= s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Set every element to zero (for gradient buffers).
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        let c = a.t_matmul(&b); // aᵀ @ I = aᵀ
        assert_eq!(c.rows, 3);
        assert_eq!(c.cols, 2);
        assert_eq!(c.data, vec![1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn matmul_t_is_similarity() {
        let a = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        let b = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let c = a.matmul_t(&b);
        // row i of c = [a_i · b_0, a_i · b_1]
        assert_eq!(c.data, vec![1., 3., 2., 4.]);
    }

    #[test]
    fn xavier_is_seeded_and_bounded() {
        let a = Matrix::xavier(4, 4, 5);
        let b = Matrix::xavier(4, 4, 5);
        assert_eq!(a, b);
        let bound = (6.0 / 8.0f32).sqrt();
        assert!(a.data.iter().all(|&x| x.abs() <= bound));
        assert!(a.data.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn row_views() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[1., 2., 3.]);
        assert_eq!(m.row(0), &[0., 0., 0.]);
        assert_eq!(m.row(1), &[1., 2., 3.]);
        assert_eq!(m.rows_iter().count(), 2);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(1, 2, vec![3., 4.]);
        a.add_assign(&b);
        assert_eq!(a.data, vec![4., 6.]);
        a.scale(0.5);
        assert_eq!(a.data, vec![2., 3.]);
        a.zero();
        assert_eq!(a.data, vec![0., 0.]);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
