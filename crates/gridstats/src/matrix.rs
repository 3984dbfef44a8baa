//! A small dense, row-major `f64` matrix.
//!
//! Ordinary least squares over the handful of predictors GRASP calibration
//! uses (execution time, processor load, bandwidth utilisation) only needs
//! tiny matrices — typically `n×3` design matrices and `3×3` normal
//! equations — so this module favours clarity and numerical robustness
//! (partial pivoting) over blocking or SIMD.

use crate::regression::StatsError;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros with the given shape.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build a matrix from a row-major vector.  Returns `None` when the data
    /// length does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Option<Self> {
        if data.len() != rows * cols {
            return None;
        }
        Some(Matrix { rows, cols, data })
    }

    /// Build a column vector (n×1 matrix).
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.  Returns an error on a shape mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != rhs.rows {
            return Err(StatsError::ShapeMismatch {
                expected: self.cols,
                found: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Solve the linear system `self * x = b` using Gaussian elimination with
    /// partial pivoting.  `self` must be square and `b` must have matching row
    /// count.  Returns `StatsError::SingularMatrix` when a pivot collapses.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::ShapeMismatch {
                expected: self.rows,
                found: self.cols,
            });
        }
        if b.rows != self.rows {
            return Err(StatsError::ShapeMismatch {
                expected: self.rows,
                found: b.rows,
            });
        }
        let n = self.rows;
        let m = b.cols;
        // Build the augmented matrix [A | b].
        let mut aug = Matrix::zeros(n, n + m);
        for i in 0..n {
            for j in 0..n {
                aug[(i, j)] = self[(i, j)];
            }
            for j in 0..m {
                aug[(i, n + j)] = b[(i, j)];
            }
        }
        // Forward elimination with partial pivoting.
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = aug[(col, col)].abs();
            for r in (col + 1)..n {
                let v = aug[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(StatsError::SingularMatrix);
            }
            if pivot_row != col {
                for j in 0..(n + m) {
                    let tmp = aug[(col, j)];
                    aug[(col, j)] = aug[(pivot_row, j)];
                    aug[(pivot_row, j)] = tmp;
                }
            }
            let pivot = aug[(col, col)];
            for r in (col + 1)..n {
                let factor = aug[(r, col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..(n + m) {
                    aug[(r, j)] -= factor * aug[(col, j)];
                }
            }
        }
        // Back substitution.
        let mut x = Matrix::zeros(n, m);
        for j in 0..m {
            for i in (0..n).rev() {
                let mut acc = aug[(i, n + j)];
                for k in (i + 1)..n {
                    acc -= aug[(i, k)] * x[(k, j)];
                }
                x[(i, j)] = acc / aug[(i, i)];
            }
        }
        Ok(x)
    }

    /// Element-wise maximum absolute difference against another matrix of the
    /// same shape; `None` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(None, |acc, d| Some(acc.map_or(d, |m: f64| m.max(d))))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(i.matmul(&a).unwrap(), a);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx(c[(0, 0)], 58.0));
        assert!(approx(c[(0, 1)], 64.0));
        assert!(approx(c[(1, 0)], 139.0));
        assert!(approx(c[(1, 1)], 154.0));
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(StatsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  => x = 1, y = 3
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let b = Matrix::column(&[5.0, 10.0]);
        let x = a.solve(&b).unwrap();
        assert!(approx(x[(0, 0)], 1.0));
        assert!(approx(x[(1, 0)], 3.0));
    }

    #[test]
    fn solve_requires_pivoting() {
        // The (0,0) entry is zero: naive elimination would divide by zero.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let b = Matrix::column(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert!(approx(x[(0, 0)], 3.0));
        assert!(approx(x[(1, 0)], 2.0));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        let b = Matrix::column(&[1.0, 2.0]);
        assert!(matches!(a.solve(&b), Err(StatsError::SingularMatrix)));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 7.0, 2.0, 6.0]).unwrap();
        let identity = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let inv = a.solve(&identity).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&identity).unwrap() < 1e-9);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_none());
    }
}
