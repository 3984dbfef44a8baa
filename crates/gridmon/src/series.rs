//! Bounded time series of observations.
//!
//! Each monitored quantity (CPU load on node *n*, bandwidth between two
//! sites, task execution time on a worker) is stored as a bounded series of
//! `(time, value)` pairs.  The bound keeps long-running executions from
//! growing memory without limit and matches how NWS-style monitors only keep
//! a sliding history.

use gridsim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A bounded, append-only series of timestamped observations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    capacity: usize,
    times: VecDeque<f64>,
    values: VecDeque<f64>,
}

impl TimeSeries {
    /// Create a series that retains at most `capacity` observations
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TimeSeries {
            capacity,
            times: VecDeque::with_capacity(capacity),
            values: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no observations are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Record an observation, evicting the oldest if the series is full.
    /// NaN values are ignored.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if value.is_nan() {
            return;
        }
        if self.values.len() == self.capacity {
            self.times.pop_front();
            self.values.pop_front();
        }
        self.times.push_back(t.as_secs());
        self.values.push_back(value);
    }

    /// Most recent value.
    pub fn last(&self) -> Option<f64> {
        self.values.back().copied()
    }

    /// All stored values, oldest first.
    pub fn values(&self) -> Vec<f64> {
        self.values.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn push_and_read_back() {
        let mut s = TimeSeries::with_capacity(10);
        s.push(t(1.0), 0.5);
        s.push(t(2.0), 0.6);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some(0.6));
        assert_eq!(s.values(), vec![0.5, 0.6]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::with_capacity(3);
        for i in 0..5 {
            s.push(t(i as f64), i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut s = TimeSeries::with_capacity(0);
        s.push(t(0.0), 1.0);
        s.push(t(1.0), 2.0);
        assert_eq!(s.values(), vec![2.0]);
    }

    #[test]
    fn nan_observations_are_dropped() {
        let mut s = TimeSeries::with_capacity(4);
        s.push(t(0.0), f64::NAN);
        assert!(s.is_empty());
    }
}
