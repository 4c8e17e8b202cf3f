//! Dense row-major matrix with the handful of operations neural-network
//! training needs: GEMM (plain, A·Bᵀ and Aᵀ·B variants), element-wise maps,
//! a fused bias epilogue and reductions.
//!
//! All storage is `f64`: the networks used by the tuner are tiny (tens of
//! thousands of parameters), so numeric robustness is worth far more than
//! the memory halving `f32` would give.
//!
//! # Summation order
//!
//! [`Matrix::matmul_transpose_b`] (the forward-pass product) guarantees,
//! for every output `out[i][j]`, one accumulator that starts at `0.0` and
//! adds `a[i][k] * b[j][k]` for `k` ascending, each product rounded before
//! the add (no fused multiply-add). The kernel is register-tiled: 4 × 4
//! output tiles while 4 or more rows remain, then 2 × 4 and 1 × 4, with
//! `R × 1` tiles for the columns left over. Tiling only interleaves
//! independent outputs, so the result is bit-identical to the plain dot
//! product, and a row's output does not depend on the other rows of the
//! batch: scoring `n` rows at once equals `n` one-row calls bit for bit.
//! [`Matrix::matmul_transpose_b_bias`] adds the bias after that full sum.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix with every entry set to `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// A `1 × n` row vector borrowing from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// `self · other` — panics on inner-dimension mismatch.
    ///
    /// Uses the classic ikj loop order so the inner loop streams both the
    /// output row and the `other` row contiguously.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dims: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ`. Both operands are walked row-contiguously, so this is
    /// the cheapest product shape; layers store weights so forward passes use
    /// it. See the module docs for the summation order it guarantees.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b dims: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        let mut i = 0;
        while i < self.rows {
            i += match self.rows - i {
                4.. => gemm_nt_tile::<4>(self, other, i, &mut out),
                2 | 3 => gemm_nt_tile::<2>(self, other, i, &mut out),
                _ => gemm_nt_tile::<1>(self, other, i, &mut out),
            };
        }
        out
    }

    /// `self · otherᵀ + bias` with `bias` (a `1 × other.rows` row vector)
    /// added to every row after the full sum: the dense-layer affine map
    /// with no intermediate matrix.
    pub fn matmul_transpose_b_bias(&self, other: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, other.rows, "bias width mismatch");
        let mut out = self.matmul_transpose_b(other);
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// `selfᵀ · other` — used for weight gradients (`xᵀ · δ`).
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul dims: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise sum; panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise combine.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Sum over rows into a `1 × cols` matrix — bias gradient reduction.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`; panics on row mismatch.
    /// Critics consume `[state | action]` rows built with this.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hconcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Split columns at `at`, returning `(left, right)` copies.
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols, "split point out of range");
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Stack row slices into a matrix; panics if widths differ.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut out = Matrix::zeros(rows.len(), cols);
        for (r, src) in rows.iter().enumerate() {
            assert_eq!(src.len(), cols, "ragged rows");
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Mean of all entries (0.0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// Rows `i..i + R` of `a · bᵀ` into `out`: `R × 4` output tiles with `4R`
/// independent accumulators, then `R × 1` tiles for the last `b.rows % 4`
/// columns. Returns `R`.
fn gemm_nt_tile<const R: usize>(a: &Matrix, b: &Matrix, i: usize, out: &mut Matrix) -> usize {
    let k = a.cols;
    let rows: [&[f64]; R] = std::array::from_fn(|r| a.row(i + r));
    let m = b.rows;
    let dst = &mut out.data[i * m..(i + R) * m];
    let mut j = 0;
    while j + 4 <= m {
        let cols: [&[f64]; 4] = std::array::from_fn(|c| &b.row(j + c)[..k]);
        let mut acc = [[0.0f64; 4]; R];
        for p in 0..k {
            let w = [cols[0][p], cols[1][p], cols[2][p], cols[3][p]];
            for (acc_r, row) in acc.iter_mut().zip(&rows) {
                let x = row[p];
                for (o, &wc) in acc_r.iter_mut().zip(&w) {
                    *o += x * wc;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            dst[r * m + j..r * m + j + 4].copy_from_slice(acc_r);
        }
        j += 4;
    }
    for jj in j..m {
        let col = &b.row(jj)[..k];
        let mut acc = [0.0f64; R];
        for p in 0..k {
            for (o, row) in acc.iter_mut().zip(&rows) {
                *o += row[p] * col[p];
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            dst[r * m + jj] = v;
        }
    }
    R
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.5 - 1.0);
        let b = Matrix::from_fn(5, 4, |r, c| (r as f64 - c as f64) * 0.25);
        let fast = a.matmul_transpose_b(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_a_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(4, 5, |r, c| (2 * r + c) as f64 * 0.1);
        let fast = a.transpose_a_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint_shapes() {
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let identity = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        let y = x.matmul_transpose_b_bias(&identity, &b);
        assert_eq!(y.get(2, 1), 3.0 + 20.0);
        let s = y.sum_rows();
        assert_eq!(s.rows(), 1);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.get(0, 0), 0.0 + 1.0 + 2.0 + 30.0);
    }

    #[test]
    fn hconcat_hsplit_round_trip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(2, 2, |r, c| 100.0 + (r * 2 + c) as f64);
        let cat = a.hconcat(&b);
        let (l, r) = cat.hsplit(3);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn norm_and_mean() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.norm() - 5.0).abs() < 1e-12);
        assert!((m.mean() - 3.5).abs() < 1e-12);
    }
}
