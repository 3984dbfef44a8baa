//! Virtual time.
//!
//! Everything in the simulator is expressed in **virtual seconds**.  Using a
//! dedicated newtype rather than a bare `f64` keeps time values from being
//! mixed up with work units or load fractions, while remaining cheap to copy.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or duration of) virtual time, in seconds.
///
/// `SimTime` is totally ordered; NaN values are rejected at construction via
/// [`SimTime::new`] (which clamps NaN to zero) so ordering is always defined.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds; NaN becomes 0 and negative values are clamped
    /// to 0 (virtual time never runs backwards).
    pub fn new(seconds: f64) -> Self {
        if seconds.is_nan() || seconds < 0.0 {
            SimTime(0.0)
        } else {
            SimTime(seconds)
        }
    }

    /// Construct from seconds without the non-negativity clamp.  Only used
    /// internally for differences; still maps NaN to zero.
    pub(crate) fn raw(seconds: f64) -> Self {
        if seconds.is_nan() {
            SimTime(0.0)
        } else {
            SimTime(seconds)
        }
    }

    /// Seconds as `f64`.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// `true` when this time is `0`.
    pub fn is_zero(&self) -> bool {
        self.0 == 0.0
    }

    /// Element-wise minimum.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Element-wise maximum.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::raw(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::raw(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::raw(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::raw(self.0 / rhs)
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // NaN is excluded at construction, so partial_cmp always succeeds.
        self.partial_cmp(other).unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_nan_and_negative() {
        assert_eq!(SimTime::new(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::new(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::new(2.5).as_secs(), 2.5);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::new(2.0);
        let b = SimTime::new(0.5);
        assert_eq!((a + b).as_secs(), 2.5);
        assert_eq!((a - b).as_secs(), 1.5);
        assert_eq!((a * 3.0).as_secs(), 6.0);
        assert_eq!((a / 4.0).as_secs(), 0.5);
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(format!("{}", SimTime::new(1.5)), "1.500000s");
    }
}
