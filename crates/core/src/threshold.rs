//! Performance thresholds (the *Z* of Algorithm 2).
//!
//! "By using the performance threshold while recording the execution times of
//! the given functions, the skeleton adapts to the infrastructure by allowing
//! performance variations up to the threshold.  Once the threshold is
//! reached, the skeleton takes action."
//!
//! The policy decides how *Z* is derived from what calibration measured and,
//! optionally, from what execution has observed since.

/// How the performance threshold *Z* is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// `Z = factor × (best calibrated per-work-unit time)`.  The paper's
    /// basic scheme: tolerate slowdowns up to a fixed multiple of what the
    /// fittest node achieved at calibration time.
    Factor {
        /// Tolerated slowdown factor (≥ 1).
        factor: f64,
    },
    /// `Z = factor × (p-th percentile of the calibrated per-work-unit
    /// times)` — more robust when the calibration sample itself was noisy.
    Percentile {
        /// Percentile of the calibration distribution in `[0, 100]`.
        percentile: f64,
        /// Tolerated slowdown factor (≥ 1).
        factor: f64,
    },
    /// An absolute time budget in virtual seconds **per work unit** (the
    /// farm reports work-normalised times to the monitor), independent of
    /// calibration (useful for deadline-style runs and for tests).
    Absolute {
        /// The budget in seconds per work unit.
        seconds: f64,
    },
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        // Allow tasks to take up to twice the calibrated best before adapting.
        ThresholdPolicy::Factor { factor: 2.0 }
    }
}

impl ThresholdPolicy {
    /// Compute the threshold from the calibration's per-work-unit reference
    /// times (one entry per chosen node, already outlier-filtered).  Falls back to
    /// `f64::INFINITY` (never adapt) when the sample is empty, except for the
    /// absolute policy which needs no sample.
    pub fn compute(&self, calibrated_times: &[f64]) -> f64 {
        match *self {
            ThresholdPolicy::Absolute { seconds } => seconds.max(0.0),
            ThresholdPolicy::Factor { factor } => match gridstats::min(calibrated_times) {
                Some(best) => best * factor.max(1.0),
                None => f64::INFINITY,
            },
            ThresholdPolicy::Percentile { percentile, factor } => {
                match gridstats::percentile(calibrated_times, percentile.clamp(0.0, 100.0)) {
                    Some(p) => p * factor.max(1.0),
                    None => f64::INFINITY,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_policy_scales_the_best_time() {
        let z = ThresholdPolicy::Factor { factor: 2.0 }.compute(&[4.0, 2.0, 8.0]);
        assert!((z - 4.0).abs() < 1e-12);
    }

    #[test]
    fn factor_below_one_is_clamped() {
        let z = ThresholdPolicy::Factor { factor: 0.5 }.compute(&[2.0]);
        assert!((z - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_policy_uses_the_distribution() {
        let times = [1.0, 2.0, 3.0, 4.0, 5.0];
        let z = ThresholdPolicy::Percentile {
            percentile: 50.0,
            factor: 1.5,
        }
        .compute(&times);
        assert!((z - 4.5).abs() < 1e-9);
    }

    #[test]
    fn absolute_policy_ignores_the_sample() {
        let z = ThresholdPolicy::Absolute { seconds: 7.5 }.compute(&[]);
        assert_eq!(z, 7.5);
        assert_eq!(
            ThresholdPolicy::Absolute { seconds: -1.0 }.compute(&[]),
            0.0
        );
    }

    #[test]
    fn empty_sample_disables_adaptation_for_relative_policies() {
        assert_eq!(ThresholdPolicy::default().compute(&[]), f64::INFINITY);
        assert_eq!(
            ThresholdPolicy::Percentile {
                percentile: 90.0,
                factor: 2.0
            }
            .compute(&[]),
            f64::INFINITY
        );
    }
}
