//! Robust outlier rejection for calibration samples.
//!
//! A calibration sample taken while a node suffered a transient spike (page
//! fault storm, competing burst) would poison a least-squares fit.  The
//! calibration layer therefore filters samples through interquartile fences
//! (Tukey) before ranking; the median absolute deviation rule is the other
//! robust policy offered.

use crate::descriptive::{median, percentile};

/// Outlier rejection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierPolicy {
    /// Keep every sample.
    None,
    /// Tukey fences at `k` interquartile ranges beyond the quartiles
    /// (`k = 1.5` is the conventional value).
    Iqr {
        /// Fence multiplier.
        k: f64,
    },
    /// Reject samples more than `k` scaled median absolute deviations from
    /// the median (`k = 3.0` is the conventional value).
    Mad {
        /// Deviation multiplier.
        k: f64,
    },
}

impl Default for OutlierPolicy {
    fn default() -> Self {
        OutlierPolicy::Iqr { k: 1.5 }
    }
}

/// Median absolute deviation, scaled by 1.4826 so that it estimates the
/// standard deviation for normally distributed data.  `None` when empty.
pub(crate) fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&devs).map(|d| d * 1.4826)
}

/// Tukey fences `(lower, upper)` at `k` IQRs beyond the quartiles.
/// `None` when the sample is empty.
pub(crate) fn iqr_fences(xs: &[f64], k: f64) -> Option<(f64, f64)> {
    let q1 = percentile(xs, 25.0)?;
    let q3 = percentile(xs, 75.0)?;
    let iqr = q3 - q1;
    Some((q1 - k * iqr, q3 + k * iqr))
}

/// Apply an [`OutlierPolicy`], returning the retained samples (in the
/// original order).  An empty input yields an empty output; if the policy
/// would reject everything (possible only for pathological `k`), the original
/// data is returned unchanged so callers never lose the whole sample.
pub fn reject_outliers(xs: &[f64], policy: OutlierPolicy) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let kept: Vec<f64> = match policy {
        OutlierPolicy::None => xs.to_vec(),
        OutlierPolicy::Iqr { k } => match iqr_fences(xs, k) {
            Some((lo, hi)) => xs.iter().copied().filter(|&x| x >= lo && x <= hi).collect(),
            None => xs.to_vec(),
        },
        OutlierPolicy::Mad { k } => {
            let m = match median(xs) {
                Some(m) => m,
                None => return xs.to_vec(),
            };
            match mad(xs) {
                Some(d) if d > 0.0 => xs
                    .iter()
                    .copied()
                    .filter(|&x| (x - m).abs() <= k * d)
                    .collect(),
                // Zero MAD means at least half the samples are identical; keep
                // exactly the samples equal to the median.
                Some(_) => xs.iter().copied().filter(|&x| x == m).collect(),
                None => xs.to_vec(),
            }
        }
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
    fn mad_of_symmetric_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        // median 3, |devs| = [2,1,0,1,2], median dev 1 → 1.4826
        assert!((mad(&xs).unwrap() - 1.4826).abs() < 1e-9);
    }

    #[test]
    fn mad_empty_is_none() {
        assert!(mad(&[]).is_none());
    }

    #[test]
    fn iqr_fences_cover_clean_data() {
        let xs = [10.0, 11.0, 12.0, 13.0, 14.0];
        let (lo, hi) = iqr_fences(&xs, 1.5).unwrap();
        assert!(xs.iter().all(|&x| x >= lo && x <= hi));
    }

    #[test]
    fn iqr_policy_drops_spike() {
        let xs = [10.0, 11.0, 12.0, 11.5, 10.5, 200.0];
        let kept = reject_outliers(&xs, OutlierPolicy::Iqr { k: 1.5 });
        assert!(!kept.contains(&200.0));
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn mad_policy_drops_spike() {
        let xs = [10.0, 11.0, 12.0, 11.5, 10.5, 200.0];
        let kept = reject_outliers(&xs, OutlierPolicy::Mad { k: 3.0 });
        assert!(!kept.contains(&200.0));
    }

    #[test]
    fn none_policy_keeps_everything() {
        let xs = [1.0, 100.0, 10000.0];
        assert_eq!(reject_outliers(&xs, OutlierPolicy::None), xs.to_vec());
    }

    #[test]
    fn rejection_never_empties_the_sample() {
        let xs = [5.0];
        let kept = reject_outliers(&xs, OutlierPolicy::Mad { k: 0.0 });
        assert!(!kept.is_empty());
    }

    #[test]
    fn zero_mad_keeps_modal_values() {
        let xs = [7.0, 7.0, 7.0, 7.0, 50.0];
        let kept = reject_outliers(&xs, OutlierPolicy::Mad { k: 3.0 });
        assert!(kept.iter().all(|&x| x == 7.0));
        assert_eq!(kept.len(), 4);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(reject_outliers(&[], OutlierPolicy::default()).is_empty());
    }
}
