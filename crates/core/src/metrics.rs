//! Execution metrics: speedup, efficiency, and throughput timelines.
//!
//! These are the quantities the evaluation plots: completion time against a
//! sequential or single-node reference, efficiency against the aggregate
//! capacity actually allocated, and throughput over time (which is how the
//! adaptation-response figures visualise a load spike being absorbed).

use gridsim::SimTime;
use serde::{Deserialize, Serialize};

/// Classic speedup: reference (e.g. sequential or non-adaptive) time divided
/// by the measured time.  Returns 0 when the measured time is non-positive.
pub(crate) fn speedup(reference_time: f64, measured_time: f64) -> f64 {
    if measured_time <= 0.0 {
        0.0
    } else {
        reference_time / measured_time
    }
}

/// Parallel efficiency: speedup divided by the number of workers.
pub fn efficiency(reference_time: f64, measured_time: f64, workers: usize) -> f64 {
    if workers == 0 {
        0.0
    } else {
        speedup(reference_time, measured_time) / workers as f64
    }
}

/// Tasks-per-second throughput recorded in fixed intervals of virtual time.
///
/// Every completion is assigned to the bucket containing its completion
/// time; the timeline then reports tasks/second per bucket, which is the
/// series plotted by the adaptation-response experiment (E7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputTimeline {
    interval_s: f64,
    buckets: Vec<u64>,
}

impl ThroughputTimeline {
    /// A timeline with the given bucket width (clamped to ≥ 1 ms).
    pub(crate) fn new(interval_s: f64) -> Self {
        ThroughputTimeline {
            interval_s: interval_s.max(1e-3),
            buckets: Vec::new(),
        }
    }

    /// Bucket width in seconds.
    pub fn interval(&self) -> f64 {
        self.interval_s
    }

    /// Record one completion at virtual time `t`.
    pub(crate) fn record(&mut self, t: SimTime) {
        let idx = (t.as_secs() / self.interval_s).floor() as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Throughput (tasks per second) per bucket.
    pub fn rates(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|&c| c as f64 / self.interval_s)
            .collect()
    }

    /// Total completions recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Minimum bucket throughput (tasks/s) — the depth of the dip a load
    /// spike causes.
    pub fn min_rate(&self) -> f64 {
        self.rates().into_iter().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_efficiency_basics() {
        assert_eq!(speedup(100.0, 25.0), 4.0);
        assert_eq!(speedup(100.0, 0.0), 0.0);
        assert_eq!(efficiency(100.0, 25.0, 8), 0.5);
        assert_eq!(efficiency(100.0, 25.0, 0), 0.0);
    }

    #[test]
    fn timeline_buckets_completions() {
        let mut tl = ThroughputTimeline::new(10.0);
        for s in [1.0, 2.0, 11.0, 25.0, 26.0, 27.0] {
            tl.record(SimTime::new(s));
        }
        assert_eq!(tl.buckets, vec![2, 1, 3]);
        assert_eq!(tl.total(), 6);
        let rates = tl.rates();
        assert!((rates[0] - 0.2).abs() < 1e-12);
        assert!((rates[2] - 0.3).abs() < 1e-12);
        assert!((tl.min_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_is_sane() {
        let tl = ThroughputTimeline::new(5.0);
        assert!(tl.buckets.is_empty());
        assert_eq!(tl.total(), 0);
    }

    #[test]
    fn degenerate_interval_is_clamped() {
        let tl = ThroughputTimeline::new(0.0);
        assert!(tl.interval() > 0.0);
    }
}
