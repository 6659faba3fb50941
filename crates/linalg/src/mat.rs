//! Row-major dense matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f32`.
///
/// This is the storage type for CPD factor matrices and all of the small
/// `F×F` intermediates of the ALS update. Row-major layout matches the
/// access pattern of MTTKRP, which streams whole factor rows.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
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

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[0, 1)` using the
    /// supplied RNG — the standard CPD-ALS factor initialisation.
    pub fn random(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen::<f32>())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major data slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Fills every entry with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Frobenius norm `‖M‖_F = sqrt(Σ m_ij²)`, accumulated in `f64` for
    /// stability on large factors.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Maximum absolute entry-wise difference to `other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Entry-wise `self += alpha * other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// True when all entries are finite (no NaN/∞) — used as a sanity check
    /// after ALS updates.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Mat::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_is_row_major() {
        let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Mat::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn frob_norm_matches_manual() {
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Mat::from_vec(1, 3, vec![10.0, 10.0, 10.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 7.0, 8.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 14.0, 16.0]);
    }

    #[test]
    fn max_abs_diff_zero_for_equal() {
        let m = Mat::from_fn(4, 4, |r, c| (r + c) as f32);
        assert_eq!(m.max_abs_diff(&m.clone()), 0.0);
    }

    #[test]
    fn random_in_unit_interval() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9E3779B97F4A7C15);
        let m = Mat::random(8, 8, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Mat::zeros(2, 2);
        assert!(m.is_finite());
        m[(1, 1)] = f32::NAN;
        assert!(!m.is_finite());
    }
}
