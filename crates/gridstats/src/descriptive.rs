//! Descriptive statistics over `f64` samples.
//!
//! These are the primitives used by the calibration ranking (mean execution
//! time per node) and by the benchmark harness when it aggregates repeated
//! runs.

/// Arithmetic mean of a sample. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased (n−1) sample variance. Returns `None` for fewer than two samples.
pub fn sample_variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some(ss / (xs.len() as f64 - 1.0))
}

/// Median (linear-interpolation free: lower-biased for even lengths is not
/// used; the conventional average-of-middle-two definition is).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Minimum value, `None` when empty. NaNs are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.min(x),
            })
        })
}

/// Maximum value, `None` when empty. NaNs are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.max(x),
            })
        })
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// Uses the common "type 7" (Excel / NumPy default) definition.  Returns
/// `None` for an empty slice or `p` outside the valid range.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (n as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_of_empty_is_none() {
        assert!(mean(&[]).is_none());
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert!(sample_variance(&[5.0, 5.0, 5.0]).unwrap().abs() < EPS);
    }

    #[test]
    fn sample_variance_known_value() {
        // variance of 2,4,4,4,5,5,7,9 (population) = 4; sample = 32/7
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn variance_requires_two_samples() {
        assert!(sample_variance(&[1.0]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert!((median(&[3.0, 1.0, 2.0]).unwrap() - 2.0).abs() < EPS);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn percentile_extremes() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((percentile(&xs, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((percentile(&xs, 100.0).unwrap() - 5.0).abs() < EPS);
        assert!(percentile(&xs, 101.0).is_none());
        assert!(percentile(&xs, -1.0).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0];
        assert!((percentile(&xs, 50.0).unwrap() - 15.0).abs() < EPS);
        assert!((percentile(&xs, 25.0).unwrap() - 12.5).abs() < EPS);
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert!(min(&[f64::NAN]).is_none());
    }
}
