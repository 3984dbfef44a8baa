//! Robust outlier rejection for calibration samples.
//!
//! A calibration sample taken while a node suffered a transient spike (page
//! fault storm, competing burst) would poison a least-squares fit.  The
//! calibration layer therefore filters samples through interquartile fences
//! (Tukey) before ranking.

use crate::descriptive::percentile;

/// Tukey fences `(lower, upper)` at `k` IQRs beyond the quartiles.
/// `None` when the sample is empty.
pub(crate) fn iqr_fences(xs: &[f64], k: f64) -> Option<(f64, f64)> {
    let q1 = percentile(xs, 25.0)?;
    let q3 = percentile(xs, 75.0)?;
    let iqr = q3 - q1;
    Some((q1 - k * iqr, q3 + k * iqr))
}

/// Keep the samples inside the Tukey fences at `k` interquartile ranges
/// beyond the quartiles (`k = 1.5` is the conventional value), in the
/// original order.  An empty input yields an empty output; if the fences
/// would reject everything (possible only for pathological `k`), the
/// original data is returned unchanged so callers never lose the whole
/// sample.
pub fn reject_outliers(xs: &[f64], k: f64) -> Vec<f64> {
    let kept: Vec<f64> = match iqr_fences(xs, k) {
        Some((lo, hi)) => xs.iter().copied().filter(|&x| x >= lo && x <= hi).collect(),
        None => return xs.to_vec(),
    };
    if kept.is_empty() {
        xs.to_vec()
    } else {
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_fences_cover_clean_data() {
        let xs = [10.0, 11.0, 12.0, 13.0, 14.0];
        let (lo, hi) = iqr_fences(&xs, 1.5).unwrap();
        assert!(xs.iter().all(|&x| x >= lo && x <= hi));
    }

    #[test]
    fn iqr_policy_drops_spike() {
        let xs = [10.0, 11.0, 12.0, 11.5, 10.5, 200.0];
        let kept = reject_outliers(&xs, 1.5);
        assert!(!kept.contains(&200.0));
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn rejection_never_empties_the_sample() {
        // Zero-width fences at the interpolated quartiles 2.5 and 7.5 hold
        // neither sample.
        let xs = [0.0, 10.0];
        assert_eq!(reject_outliers(&xs, 0.0), xs.to_vec());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(reject_outliers(&[], 1.5).is_empty());
    }
}
