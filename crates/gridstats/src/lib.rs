//! # gridstats — statistical substrate for GRASP calibration
//!
//! The GRASP calibration phase (Algorithm 1 of the PPoPP'07 paper) ranks grid
//! nodes "by extrapolating their performance based on the execution times
//! only (the faster a node the fitter it is), or on statistical functions,
//! such as univariate and multivariate linear regression involving execution
//! time, processor load, and bandwidth utilisation".
//!
//! This crate provides, from scratch and without external numeric
//! dependencies, everything those statistical functions need:
//!
//! * `descriptive` — means, variances, medians, quantiles, minima and
//!   maxima;
//! * `matrix` — a small dense row-major matrix with the operations needed
//!   by ordinary least squares (multiplication, transpose, Gaussian
//!   elimination with partial pivoting, inversion);
//! * `regression` — univariate and multivariate ordinary least squares,
//!   with goodness-of-fit diagnostics (R², adjusted R², residuals);
//! * `ranking` — ranking utilities (argsort, dense ranks, rank
//!   correlation) used to order nodes by fitness;
//! * `outlier` — robust outlier rejection (median absolute deviation,
//!   interquartile fences) used to discard pathological calibration samples.
//!
//! All routines operate on `f64` slices, are deterministic, and are
//! panic-free on well-formed input; degenerate inputs (empty slices, singular
//! systems) are reported through `Option`/`Result` rather than panics so
//! that the calibration layer can fall back to time-only ranking.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod descriptive;
mod matrix;
mod outlier;
mod ranking;
mod regression;

pub use descriptive::{max, mean, median, min, percentile, sample_variance};
pub use matrix::Matrix;
pub use outlier::{reject_outliers, OutlierPolicy};
pub use ranking::{argsort_ascending, argsort_descending, dense_ranks, spearman_rho};
pub use regression::{linear_regression, multivariate_regression};
