//! Univariate and multivariate ordinary least squares.
//!
//! GRASP's statistical calibration "adjusts" the raw execution-time table
//! using "univariate and multivariate linear regression involving execution
//! time, processor load, and bandwidth utilisation" (Algorithm 1).  The
//! calibration layer in `grasp-core` fits a model
//!
//! ```text
//! exec_time ≈ β₀ + β₁·cpu_load + β₂·(1 − bandwidth_avail) + …
//! ```
//!
//! per node pool and uses the fitted coefficients to *extrapolate* what a
//! node's execution time would be under projected resource conditions, which
//! is what the ranking is then based on.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by the statistics layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatsError {
    /// Not enough observations for the requested fit.
    InsufficientData {
        /// Observations required.
        needed: usize,
        /// Observations supplied.
        got: usize,
    },
    /// Two inputs that must agree in length/shape did not.
    ShapeMismatch {
        /// Expected dimension.
        expected: usize,
        /// Found dimension.
        found: usize,
    },
    /// The normal-equations matrix was singular (e.g. perfectly collinear
    /// predictors, or a constant predictor column).
    SingularMatrix,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InsufficientData { needed, got } => {
                write!(
                    f,
                    "insufficient data: need {needed} observations, got {got}"
                )
            }
            StatsError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            StatsError::SingularMatrix => write!(f, "singular matrix in least-squares solve"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Result of a univariate (simple) linear regression `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Intercept β₀.
    pub intercept: f64,
    /// Slope β₁.
    pub slope: f64,
    /// Coefficient of determination R² in `[0, 1]` (1 when the fit is exact).
    pub(crate) r_squared: f64,
    /// Number of observations used.
    pub(crate) n: usize,
}

impl LinearFit {
    /// Predicted response at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fit `y = β₀ + β₁·x` by ordinary least squares.
///
/// Requires at least two observations and a non-constant predictor.
pub fn linear_regression(x: &[f64], y: &[f64]) -> Result<LinearFit, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::ShapeMismatch {
            expected: x.len(),
            found: y.len(),
        });
    }
    let n = x.len();
    if n < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: n });
    }
    let nf = n as f64;
    let mean_x = x.iter().sum::<f64>() / nf;
    let mean_y = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mean_x;
        let dy = y[i] - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx < 1e-15 {
        return Err(StatsError::SingularMatrix);
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy < 1e-15 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(LinearFit {
        intercept,
        slope,
        r_squared,
        n,
    })
}

/// Result of a multivariate OLS fit `y = β₀ + Σ βᵢ·xᵢ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultivariateFit {
    /// Coefficients `[β₀, β₁, …, βₖ]`; index 0 is the intercept.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination R².
    pub(crate) r_squared: f64,
    /// Adjusted R² (penalises extra predictors); equals R² when n ≤ k+1 makes
    /// the adjustment undefined.
    pub(crate) adjusted_r_squared: f64,
    /// Residuals yᵢ − ŷᵢ in observation order.
    pub(crate) residuals: Vec<f64>,
    /// Number of observations.
    pub(crate) n: usize,
    /// Number of predictors (excluding the intercept).
    pub(crate) k: usize,
}

impl MultivariateFit {
    /// Predicted response for a predictor vector (length must equal `k`).
    /// Returns `None` on a length mismatch.
    pub fn predict(&self, xs: &[f64]) -> Option<f64> {
        if xs.len() != self.k {
            return None;
        }
        let mut y = self.coefficients[0];
        for (i, x) in xs.iter().enumerate() {
            y += self.coefficients[i + 1] * x;
        }
        Some(y)
    }
}

/// Fit a multivariate OLS model with intercept.
///
/// `rows` holds one predictor vector per observation (all the same length
/// `k ≥ 1`), `y` the responses.  Requires `n ≥ k + 1` observations.
pub fn multivariate_regression(
    rows: &[Vec<f64>],
    y: &[f64],
) -> Result<MultivariateFit, StatsError> {
    let n = rows.len();
    if n != y.len() {
        return Err(StatsError::ShapeMismatch {
            expected: n,
            found: y.len(),
        });
    }
    if n == 0 {
        return Err(StatsError::InsufficientData { needed: 2, got: 0 });
    }
    let k = rows[0].len();
    if k == 0 {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    if rows.iter().any(|r| r.len() != k) {
        return Err(StatsError::ShapeMismatch {
            expected: k,
            found: rows.iter().map(|r| r.len()).find(|&l| l != k).unwrap_or(k),
        });
    }
    if n < k + 1 {
        return Err(StatsError::InsufficientData {
            needed: k + 1,
            got: n,
        });
    }

    // Design matrix with a leading column of ones for the intercept.
    let mut design = Matrix::zeros(n, k + 1);
    for i in 0..n {
        design[(i, 0)] = 1.0;
        for j in 0..k {
            design[(i, j + 1)] = rows[i][j];
        }
    }
    let yv = Matrix::column(y);
    let xt = design.transpose();
    let xtx = xt.matmul(&design)?;
    let xty = xt.matmul(&yv)?;
    let beta = xtx.solve(&xty)?;

    let coefficients: Vec<f64> = (0..=k).map(|i| beta[(i, 0)]).collect();

    // Goodness of fit.
    let fitted = design.matmul(&beta)?;
    let mean_y = y.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    let mut residuals = Vec::with_capacity(n);
    for i in 0..n {
        let resid = y[i] - fitted[(i, 0)];
        residuals.push(resid);
        ss_res += resid * resid;
        let d = y[i] - mean_y;
        ss_tot += d * d;
    }
    let r_squared = if ss_tot < 1e-15 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    let adjusted_r_squared = if n > k + 1 {
        1.0 - (1.0 - r_squared) * ((n - 1) as f64) / ((n - k - 1) as f64)
    } else {
        r_squared
    };

    Ok(MultivariateFit {
        coefficients,
        r_squared,
        adjusted_r_squared,
        residuals,
        n,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn univariate_recovers_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 2.0 * v).collect();
        let fit = linear_regression(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn univariate_rejects_constant_predictor() {
        let x = [2.0, 2.0, 2.0];
        let y = [1.0, 2.0, 3.0];
        assert!(matches!(
            linear_regression(&x, &y),
            Err(StatsError::SingularMatrix)
        ));
    }

    #[test]
    fn univariate_rejects_mismatched_lengths() {
        assert!(matches!(
            linear_regression(&[1.0, 2.0], &[1.0]),
            Err(StatsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn univariate_requires_two_points() {
        assert!(matches!(
            linear_regression(&[1.0], &[1.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn univariate_r_squared_degrades_with_noise() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let clean: Vec<f64> = x.iter().map(|v| 1.0 + 0.5 * v).collect();
        // Deterministic "noise" with zero mean.
        let noisy: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 1.0 + 0.5 * v + if i % 2 == 0 { 4.0 } else { -4.0 })
            .collect();
        let f_clean = linear_regression(&x, &clean).unwrap();
        let f_noisy = linear_regression(&x, &noisy).unwrap();
        assert!(f_clean.r_squared > f_noisy.r_squared);
    }

    #[test]
    fn multivariate_recovers_plane() {
        // y = 1 + 2·a − 3·b
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let fit = multivariate_regression(&rows, &y).unwrap();
        assert!((fit.coefficients[0] - 1.0).abs() < 1e-6);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-6);
        assert!((fit.coefficients[2] + 3.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999999);
        assert!(fit.residuals.iter().all(|r| r.abs() < 1e-6));
        assert!((fit.predict(&[5.0, 2.0]).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn multivariate_matches_univariate_for_single_predictor() {
        let x = [1.0, 2.0, 3.0, 5.0, 8.0];
        let y = [2.1, 3.9, 6.2, 9.8, 16.1];
        let uni = linear_regression(&x, &y).unwrap();
        let rows: Vec<Vec<f64>> = x.iter().map(|v| vec![*v]).collect();
        let multi = multivariate_regression(&rows, &y).unwrap();
        assert!((multi.coefficients[0] - uni.intercept).abs() < 1e-9);
        assert!((multi.coefficients[1] - uni.slope).abs() < 1e-9);
        assert!((multi.r_squared - uni.r_squared).abs() < 1e-9);
    }

    #[test]
    fn multivariate_detects_collinearity() {
        // Second predictor is exactly twice the first → singular normal matrix.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(matches!(
            multivariate_regression(&rows, &y),
            Err(StatsError::SingularMatrix)
        ));
    }

    #[test]
    fn multivariate_requires_enough_observations() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let y = vec![1.0, 2.0];
        assert!(matches!(
            multivariate_regression(&rows, &y),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn multivariate_rejects_ragged_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let y = vec![1.0, 2.0];
        assert!(matches!(
            multivariate_regression(&rows, &y),
            Err(StatsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn predict_rejects_wrong_arity() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] + r[1]).collect();
        let fit = multivariate_regression(&rows, &y).unwrap();
        assert!(fit.predict(&[1.0]).is_none());
        assert!(fit.predict(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn adjusted_r_squared_never_exceeds_r_squared() {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, ((i * 13) % 11) as f64, ((i * 7) % 5) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] * 1.5 + r[1] - r[2] + (i % 4) as f64)
            .collect();
        let fit = multivariate_regression(&rows, &y).unwrap();
        assert!(fit.adjusted_r_squared <= fit.r_squared + 1e-12);
    }
}
