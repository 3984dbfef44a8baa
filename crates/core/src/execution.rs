//! The execution-phase monitor — Algorithm 2 of the paper.
//!
//! ```text
//! while ¬ Recalibration do
//!     Execute F over Chosen nodes concurrently;
//!     Set t ← execution times(F);
//!     if monitor node then
//!         Collect t from Chosen nodes into T;
//!         if min T > Z then Set Recalibration ← true;
//!     else
//!         Send time from this node to monitor node;
//! ```
//!
//! [`ExecutionMonitor`] is the "monitor node" of that loop: workers report
//! their per-task execution times to it, and at every monitoring interval it
//! collects them into the table *T* and compares the **minimum** recent
//! per-task time against the performance threshold *Z*.  The minimum is the
//! paper's criterion: if even the *fastest* chosen node now exceeds the
//! threshold, the external conditions have changed enough that recalibration
//! (not merely demand-driven rebalancing) is warranted.  On top of that, the
//! verdict singles out individual nodes whose recent times exceed
//! `demote_factor × Z`, which the skeleton may demote without a full
//! recalibration — a cheaper action enabled by the farm's intrinsic property
//! that any task may run anywhere.

use gridsim::{NodeId, SimTime};
use gridstats::mean;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the monitor concluded at the end of an interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorVerdict {
    /// When the verdict was produced.
    pub(crate) time: SimTime,
    /// Per-node mean execution time over the elapsed interval (the table
    /// *T*), in the unit the workers report — seconds per work unit for the
    /// farm.
    pub per_node_mean: Vec<(NodeId, f64)>,
    /// Minimum of the per-node means (`min T`).
    pub min_time: f64,
    /// The threshold *Z* in force.
    pub threshold: f64,
    /// `min T > Z`: the whole pool has degraded — recalibrate.
    pub recalibrate: bool,
    /// Nodes whose recent mean exceeded `demote_factor × Z`.
    pub demote: Vec<NodeId>,
}

/// The monitor-node state of Algorithm 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionMonitor {
    threshold: f64,
    interval_s: f64,
    demote_factor: f64,
    /// Cap on retained recent observations per node (the shared
    /// `monitor_window` of the execution config); 0 means unbounded.
    window_cap: usize,
    window: BTreeMap<NodeId, Vec<f64>>,
    last_evaluation: SimTime,
    evaluations: usize,
}

impl ExecutionMonitor {
    /// Create a monitor.
    ///
    /// * `threshold` — the performance threshold *Z*, in whatever time unit
    ///   the callers report (the farm reports seconds per work unit so that
    ///   irregular task sizes do not trip the monitor).
    /// * `interval_s` — monitoring period in virtual seconds.
    /// * `demote_factor` — per-node demotion multiplier (≥ 1).
    pub fn new(threshold: f64, interval_s: f64, demote_factor: f64) -> Self {
        ExecutionMonitor {
            threshold: threshold.max(0.0),
            interval_s: interval_s.max(1e-3),
            demote_factor: demote_factor.max(1.0),
            window_cap: 0,
            window: BTreeMap::new(),
            last_evaluation: SimTime::ZERO,
            evaluations: 0,
        }
    }

    /// Judge each node by at most its `cap` most recent observations per
    /// interval (0 = unbounded).  This is the shared `monitor_window` of
    /// [`crate::config::ExecutionConfig`].
    pub(crate) fn with_window(mut self, cap: usize) -> Self {
        self.window_cap = cap;
        self
    }

    /// The threshold currently in force.
    pub(crate) fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Replace the threshold (after a recalibration).
    pub(crate) fn set_threshold(&mut self, z: f64) {
        self.threshold = z.max(0.0);
    }

    /// Number of completed monitoring evaluations.
    pub(crate) fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Worker-side report: "Send time from this node to monitor node".
    pub fn record(&mut self, node: NodeId, execution_time_s: f64) {
        if execution_time_s.is_nan() || execution_time_s < 0.0 {
            return;
        }
        let times = self.window.entry(node).or_default();
        times.push(execution_time_s);
        if self.window_cap > 0 && times.len() > self.window_cap {
            times.remove(0);
        }
    }

    /// Whether the monitoring interval has elapsed at `now`.
    pub(crate) fn due(&self, now: SimTime) -> bool {
        (now - self.last_evaluation).as_secs() >= self.interval_s
    }

    /// Evaluate the interval if due.  Returns `None` when the interval has
    /// not yet elapsed or no times were reported (an empty table cannot
    /// trigger recalibration).
    pub fn evaluate(&mut self, now: SimTime) -> Option<MonitorVerdict> {
        if !self.due(now) {
            return None;
        }
        self.last_evaluation = now;
        if self.window.is_empty() {
            return None;
        }
        let per_node_mean: Vec<(NodeId, f64)> = self
            .window
            .iter()
            .filter_map(|(&n, times)| mean(times).map(|m| (n, m)))
            .collect();
        self.window.clear();
        if per_node_mean.is_empty() {
            return None;
        }
        self.evaluations += 1;
        let min_time = per_node_mean
            .iter()
            .map(|(_, m)| *m)
            .fold(f64::INFINITY, f64::min);
        let recalibrate = min_time > self.threshold;
        let demote: Vec<NodeId> = per_node_mean
            .iter()
            .filter(|(_, m)| *m > self.threshold * self.demote_factor)
            .map(|(n, _)| *n)
            .collect();
        Some(MonitorVerdict {
            time: now,
            per_node_mean,
            min_time,
            threshold: self.threshold,
            recalibrate,
            demote,
        })
    }

    /// Forget everything reported so far and restart the interval at `now`
    /// (used immediately after a recalibration so stale times from the old
    /// node set cannot re-trigger).
    pub(crate) fn reset(&mut self, now: SimTime) {
        self.window.clear();
        self.last_evaluation = now;
    }

    /// Per-node mean of the observations accumulated **so far this
    /// interval**, without evaluating (the window is left intact, unlike
    /// [`ExecutionMonitor::evaluate`]).  This is the live rank view the
    /// work-stealing dispatcher uses mid-interval for victim selection;
    /// nodes with no observation yet are absent.
    pub(crate) fn recent_means(&self) -> Vec<(NodeId, f64)> {
        self.window
            .iter()
            .filter_map(|(&n, times)| mean(times).map(|m| (n, m)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn no_verdict_before_the_interval_elapses() {
        let mut m = ExecutionMonitor::new(2.0, 10.0, 3.0);
        m.record(NodeId(0), 1.0);
        assert!(m.evaluate(t(5.0)).is_none());
        assert!(m.due(t(10.0)));
        assert!(m.evaluate(t(10.0)).is_some());
    }

    #[test]
    fn healthy_pool_does_not_recalibrate() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0);
        m.record(NodeId(0), 1.0);
        m.record(NodeId(1), 1.8);
        let v = m.evaluate(t(1.0)).unwrap();
        assert!(!v.recalibrate);
        assert!(v.demote.is_empty());
        assert!((v.min_time - 1.0).abs() < 1e-12);
        assert_eq!(v.per_node_mean.len(), 2);
        assert_eq!(m.evaluations(), 1);
    }

    #[test]
    fn recent_means_are_non_destructive() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0);
        assert!(m.recent_means().is_empty());
        m.record(NodeId(0), 1.0);
        m.record(NodeId(0), 3.0);
        m.record(NodeId(1), 0.5);
        let ranks = m.recent_means();
        assert_eq!(ranks, vec![(NodeId(0), 2.0), (NodeId(1), 0.5)]);
        // The window is untouched: the interval evaluation still sees the
        // same observations afterwards.
        assert_eq!(m.recent_means(), ranks);
        let v = m.evaluate(t(1.0)).unwrap();
        assert_eq!(v.per_node_mean, ranks);
        assert!(m.recent_means().is_empty(), "evaluate clears the window");
    }

    #[test]
    fn min_over_threshold_triggers_recalibration() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0);
        m.record(NodeId(0), 2.5);
        m.record(NodeId(1), 4.0);
        let v = m.evaluate(t(1.0)).unwrap();
        assert!(v.recalibrate, "even the fastest node exceeded Z");
    }

    #[test]
    fn single_slow_node_is_demoted_not_recalibrated() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0);
        m.record(NodeId(0), 1.0);
        m.record(NodeId(1), 7.0); // > 3 × Z
        let v = m.evaluate(t(1.0)).unwrap();
        assert!(!v.recalibrate, "min is still healthy");
        assert_eq!(v.demote, vec![NodeId(1)]);
    }

    #[test]
    fn window_clears_between_intervals() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0);
        m.record(NodeId(0), 5.0);
        let _ = m.evaluate(t(1.0)).unwrap();
        // New interval with healthy times: the old slow sample must be gone.
        m.record(NodeId(0), 1.0);
        let v = m.evaluate(t(2.0)).unwrap();
        assert!(!v.recalibrate);
    }

    #[test]
    fn empty_interval_produces_no_verdict() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0);
        assert!(m.evaluate(t(5.0)).is_none());
        assert_eq!(m.evaluations(), 0);
    }

    #[test]
    fn reset_restarts_the_interval() {
        let mut m = ExecutionMonitor::new(2.0, 10.0, 3.0);
        m.record(NodeId(0), 9.0);
        m.reset(t(10.0));
        m.record(NodeId(0), 1.0);
        assert!(m.evaluate(t(15.0)).is_none(), "interval restarted at reset");
        let v = m.evaluate(t(20.0)).unwrap();
        assert!(!v.recalibrate);
    }

    #[test]
    fn threshold_can_be_updated_after_recalibration() {
        let mut m = ExecutionMonitor::new(1.0, 1.0, 3.0);
        m.set_threshold(10.0);
        m.record(NodeId(0), 5.0);
        let v = m.evaluate(t(1.0)).unwrap();
        assert!(!v.recalibrate);
        assert_eq!(v.threshold, 10.0);
    }

    #[test]
    fn window_cap_keeps_only_recent_observations() {
        let mut m = ExecutionMonitor::new(2.0, 1.0, 3.0).with_window(2);
        // Two old slow samples are displaced by two recent healthy ones.
        m.record(NodeId(0), 9.0);
        m.record(NodeId(0), 9.0);
        m.record(NodeId(0), 1.0);
        m.record(NodeId(0), 1.0);
        let v = m.evaluate(t(1.0)).unwrap();
        assert!(!v.recalibrate, "old samples must have been evicted");
        assert!((v.min_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_times_are_ignored() {
        let mut m = ExecutionMonitor::new(1.0, 1.0, 3.0);
        m.record(NodeId(0), f64::NAN);
        m.record(NodeId(0), -4.0);
        assert!(m.evaluate(t(1.0)).is_none());
    }
}
