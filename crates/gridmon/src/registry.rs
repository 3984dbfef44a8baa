//! Per-node monitor registry.
//!
//! The registry is what the GRASP phases actually hold: one bounded series
//! and one adaptive forecaster per monitored node (CPU) and, optionally, per
//! node pair (bandwidth towards the root node, i.e. the master), plus a
//! liveness table of heartbeats.  Each holder pays only for what it reads: calibration
//! samples every candidate once and reads the *current* values it gets back
//! to adjust the execution-time table, and so does the sim farm's
//! recalibration; the thread backend feeds one observation per worker per
//! monitor interval and reads the CPU-load forecasts at the end of a run; the
//! frame master uses the liveness table only.

use crate::forecast::{AdaptiveForecaster, Forecaster};
use crate::series::TimeSeries;
use gridsim::{Grid, NodeId, SimTime};
use std::collections::BTreeMap;

/// The latest monitored state of one node, as consumed by statistical
/// calibration (Algorithm 1: "Collect processor and bandwidth values").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeObservation {
    /// Node the observation refers to.
    pub node: NodeId,
    /// Observation time.
    pub time: SimTime,
    /// External CPU load fraction in `[0, 1]`.
    pub cpu_load: f64,
    /// Available bandwidth fraction towards the root/master node in `[0, 1]`.
    pub bandwidth_availability: f64,
}

impl NodeObservation {
    /// Derive a grid-style observation from **wall-clock execution times**:
    /// an executor's "external CPU load" is estimated from how much slower
    /// it currently runs than its calibrated baseline
    /// (`load = 1 − baseline / observed`, clamped to `[0, 1]`), and
    /// bandwidth is reported as fully available (a shared-memory executor
    /// has no link towards the master).
    ///
    /// This is the plumbing that lets real-thread backends feed the same
    /// [`MonitorRegistry`] and forecasters the simulated grid uses: `time`
    /// is whatever the caller's clock says (wall seconds since run start),
    /// and the registry neither knows nor cares which clock produced it.
    pub fn from_wall_times(
        node: NodeId,
        at: SimTime,
        baseline_s_per_unit: f64,
        observed_s_per_unit: f64,
    ) -> Self {
        let cpu_load = if baseline_s_per_unit > 0.0 && observed_s_per_unit > 0.0 {
            (1.0 - baseline_s_per_unit / observed_s_per_unit).clamp(0.0, 1.0)
        } else {
            0.0
        };
        NodeObservation {
            node,
            time: at,
            cpu_load,
            bandwidth_availability: 1.0,
        }
    }
}

struct NodeMonitor {
    cpu_series: TimeSeries,
    bw_series: TimeSeries,
    cpu_forecast: AdaptiveForecaster,
    bw_forecast: AdaptiveForecaster,
}

impl NodeMonitor {
    fn new(history: usize) -> Self {
        NodeMonitor {
            cpu_series: TimeSeries::with_capacity(history),
            bw_series: TimeSeries::with_capacity(history),
            cpu_forecast: AdaptiveForecaster::standard(),
            bw_forecast: AdaptiveForecaster::standard(),
        }
    }
}

/// Registry of per-node monitors.
pub struct MonitorRegistry {
    monitors: BTreeMap<NodeId, NodeMonitor>,
    /// Liveness: last heartbeat per node (see
    /// [`MonitorRegistry::note_heartbeat`]).  Kept separate from the
    /// performance monitors because a node can prove it is alive long before
    /// it has produced any load observation.
    heartbeats: BTreeMap<NodeId, SimTime>,
    history: usize,
    root: NodeId,
}

impl MonitorRegistry {
    /// Create a registry whose bandwidth observations are measured towards
    /// `root` (the master / root node of the skeleton), keeping `history`
    /// samples per series.
    pub fn new(root: NodeId, history: usize) -> Self {
        MonitorRegistry {
            monitors: BTreeMap::new(),
            heartbeats: BTreeMap::new(),
            history: history.max(1),
            root,
        }
    }

    /// The root node bandwidth is measured against.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes currently monitored.
    pub fn monitored_nodes(&self) -> usize {
        self.monitors.len()
    }

    /// Sample every given node from the grid at time `t`, updating series and
    /// forecasters, and return the fresh observations.
    pub fn observe_all(
        &mut self,
        grid: &Grid,
        nodes: &[NodeId],
        t: SimTime,
    ) -> Vec<NodeObservation> {
        nodes.iter().map(|&n| self.observe(grid, n, t)).collect()
    }

    /// Sample one node from the grid at time `t`.
    pub fn observe(&mut self, grid: &Grid, node: NodeId, t: SimTime) -> NodeObservation {
        let cpu = grid.cpu_load(node, t);
        let bw = if node == self.root {
            1.0
        } else {
            grid.bandwidth_availability(node, self.root, t)
        };
        let entry = self
            .monitors
            .entry(node)
            .or_insert_with(|| NodeMonitor::new(self.history));
        entry.cpu_series.push(t, cpu);
        entry.bw_series.push(t, bw);
        entry.cpu_forecast.observe(cpu);
        entry.bw_forecast.observe(bw);
        NodeObservation {
            node,
            time: t,
            cpu_load: cpu,
            bandwidth_availability: bw,
        }
    }

    /// Record an externally measured observation (e.g. taken by a worker and
    /// shipped to the root) without touching the grid.
    pub fn record(&mut self, obs: NodeObservation) {
        let entry = self
            .monitors
            .entry(obs.node)
            .or_insert_with(|| NodeMonitor::new(self.history));
        entry.cpu_series.push(obs.time, obs.cpu_load);
        entry.bw_series.push(obs.time, obs.bandwidth_availability);
        entry.cpu_forecast.observe(obs.cpu_load);
        entry.bw_forecast.observe(obs.bandwidth_availability);
    }

    /// Latest observed CPU load of a node, if any.
    pub fn latest_cpu_load(&self, node: NodeId) -> Option<f64> {
        self.monitors.get(&node).and_then(|m| m.cpu_series.last())
    }

    /// Latest observed bandwidth availability of a node, if any.
    pub fn latest_bandwidth(&self, node: NodeId) -> Option<f64> {
        self.monitors.get(&node).and_then(|m| m.bw_series.last())
    }

    /// Forecast CPU load of a node; falls back to the latest observation.
    pub fn forecast_cpu_load(&self, node: NodeId) -> Option<f64> {
        let m = self.monitors.get(&node)?;
        m.cpu_forecast.predict().or_else(|| m.cpu_series.last())
    }

    /// Forecast bandwidth availability of a node; falls back to the latest
    /// observation.
    pub fn forecast_bandwidth(&self, node: NodeId) -> Option<f64> {
        let m = self.monitors.get(&node)?;
        m.bw_forecast.predict().or_else(|| m.bw_series.last())
    }

    /// The recorded CPU-load history of a node (oldest first).
    pub fn cpu_history(&self, node: NodeId) -> Vec<f64> {
        self.monitors
            .get(&node)
            .map(|m| m.cpu_series.values())
            .unwrap_or_default()
    }

    /// Record a liveness heartbeat from `node` at time `t`.
    ///
    /// Heartbeats are the monitoring-message side of executor liveness: a
    /// remote worker that can no longer be observed (hard-killed, network
    /// partition) simply stops producing them, and the master detects the
    /// loss through [`MonitorRegistry::stale_nodes`].  Any observation-style
    /// message (a result, a monitor report) doubles as a heartbeat.
    pub fn note_heartbeat(&mut self, node: NodeId, t: SimTime) {
        let entry = self.heartbeats.entry(node).or_insert(t);
        if t > *entry {
            *entry = t;
        }
    }

    /// The time of the last heartbeat recorded for `node`, if any.
    pub fn last_heartbeat(&self, node: NodeId) -> Option<SimTime> {
        self.heartbeats.get(&node).copied()
    }

    /// Nodes that have heartbeated at least once but whose last heartbeat is
    /// older than `timeout_s` at `now` — presumed dead until they report
    /// again.
    pub fn stale_nodes(&self, now: SimTime, timeout_s: f64) -> Vec<NodeId> {
        self.heartbeats
            .iter()
            .filter(|(_, &last)| (now - last).as_secs() > timeout_s)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Forget a node's liveness record (after the caller has acted on its
    /// loss, so it is not re-reported every sweep).
    pub fn forget_heartbeat(&mut self, node: NodeId) {
        self.heartbeats.remove(&node);
    }

    /// Drop all recorded state (used when a recalibration decides to start
    /// from scratch).
    pub fn clear(&mut self) {
        self.monitors.clear();
        self.heartbeats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::{ConstantLoad, GridBuilder, PeriodicLoad, TopologyBuilder};

    fn grid() -> Grid {
        let topo = TopologyBuilder::multi_site(&[(2, 10.0), (2, 20.0)]);
        GridBuilder::new(topo)
            .node_load(NodeId(1), ConstantLoad::new(0.5))
            .node_load(NodeId(3), PeriodicLoad::new(0.4, 0.3, 50.0, 0.0))
            .default_link_load(ConstantLoad::new(0.2))
            .build()
    }

    #[test]
    fn observe_populates_series_and_forecasts() {
        let g = grid();
        let mut reg = MonitorRegistry::new(NodeId(0), 64);
        let nodes: Vec<NodeId> = g.node_ids();
        for i in 0..10 {
            reg.observe_all(&g, &nodes, SimTime::new(i as f64 * 5.0));
        }
        assert_eq!(reg.monitored_nodes(), 4);
        assert!((reg.latest_cpu_load(NodeId(1)).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(reg.latest_cpu_load(NodeId(0)).unwrap(), 0.0);
        // Root's bandwidth to itself is perfect; remote node sees link load.
        assert_eq!(reg.latest_bandwidth(NodeId(0)).unwrap(), 1.0);
        assert!((reg.latest_bandwidth(NodeId(3)).unwrap() - 0.8).abs() < 1e-12);
        assert!(reg.forecast_cpu_load(NodeId(1)).is_some());
        assert!(reg.forecast_bandwidth(NodeId(3)).is_some());
        assert_eq!(reg.cpu_history(NodeId(1)).len(), 10);
    }

    #[test]
    fn forecast_tracks_constant_load_closely() {
        let g = grid();
        let mut reg = MonitorRegistry::new(NodeId(0), 64);
        for i in 0..30 {
            reg.observe(&g, NodeId(1), SimTime::new(i as f64));
        }
        let f = reg.forecast_cpu_load(NodeId(1)).unwrap();
        assert!((f - 0.5).abs() < 0.05);
    }

    #[test]
    fn unknown_node_has_no_data() {
        let reg = MonitorRegistry::new(NodeId(0), 16);
        assert!(reg.latest_cpu_load(NodeId(9)).is_none());
        assert!(reg.forecast_cpu_load(NodeId(9)).is_none());
        assert!(reg.cpu_history(NodeId(9)).is_empty());
    }

    #[test]
    fn wall_time_observations_estimate_load_from_the_slowdown() {
        // Running at the calibrated baseline = no external load; running 4x
        // slower = 75 % of the executor stolen by something else.
        let at = SimTime::new(3.0);
        let healthy = NodeObservation::from_wall_times(NodeId(1), at, 0.01, 0.01);
        assert!(healthy.cpu_load.abs() < 1e-12);
        assert_eq!(healthy.bandwidth_availability, 1.0);
        let slowed = NodeObservation::from_wall_times(NodeId(1), at, 0.01, 0.04);
        assert!((slowed.cpu_load - 0.75).abs() < 1e-12);
        // Degenerate inputs fall back to "no load" instead of NaN.
        assert_eq!(
            NodeObservation::from_wall_times(NodeId(1), at, 0.0, 0.04).cpu_load,
            0.0
        );
        // A faster-than-baseline observation clamps at zero load.
        assert_eq!(
            NodeObservation::from_wall_times(NodeId(1), at, 0.02, 0.01).cpu_load,
            0.0
        );
        // Fed through the registry, the forecaster tracks the estimate.
        let mut reg = MonitorRegistry::new(NodeId(0), 16);
        for i in 0..10 {
            reg.record(NodeObservation::from_wall_times(
                NodeId(1),
                SimTime::new(i as f64),
                0.01,
                0.04,
            ));
        }
        let f = reg.forecast_cpu_load(NodeId(1)).unwrap();
        assert!((f - 0.75).abs() < 0.05, "forecast {f}");
    }

    #[test]
    fn record_accepts_external_observations() {
        let mut reg = MonitorRegistry::new(NodeId(0), 16);
        reg.record(NodeObservation {
            node: NodeId(7),
            time: SimTime::new(1.0),
            cpu_load: 0.33,
            bandwidth_availability: 0.9,
        });
        assert!((reg.latest_cpu_load(NodeId(7)).unwrap() - 0.33).abs() < 1e-12);
        assert!((reg.latest_bandwidth(NodeId(7)).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn clear_empties_the_registry() {
        let g = grid();
        let mut reg = MonitorRegistry::new(NodeId(0), 16);
        reg.observe(&g, NodeId(1), SimTime::ZERO);
        reg.note_heartbeat(NodeId(1), SimTime::ZERO);
        assert_eq!(reg.monitored_nodes(), 1);
        reg.clear();
        assert_eq!(reg.monitored_nodes(), 0);
        assert!(reg.last_heartbeat(NodeId(1)).is_none());
    }

    #[test]
    fn heartbeat_timeouts_flag_silent_nodes_only() {
        let mut reg = MonitorRegistry::new(NodeId(0), 16);
        reg.note_heartbeat(NodeId(1), SimTime::new(1.0));
        reg.note_heartbeat(NodeId(2), SimTime::new(9.5));
        // A never-seen node is not reported: it has nothing to go stale.
        assert!(reg.last_heartbeat(NodeId(7)).is_none());
        assert_eq!(reg.stale_nodes(SimTime::new(10.0), 2.0), vec![NodeId(1)]);
        // A fresh heartbeat clears the suspicion…
        reg.note_heartbeat(NodeId(1), SimTime::new(10.0));
        assert!(reg.stale_nodes(SimTime::new(10.0), 2.0).is_empty());
        // …and heartbeats never move a node's clock backwards.
        reg.note_heartbeat(NodeId(1), SimTime::new(3.0));
        assert_eq!(reg.last_heartbeat(NodeId(1)), Some(SimTime::new(10.0)));
        // Forgetting a node stops it from being re-reported every sweep.
        reg.note_heartbeat(NodeId(3), SimTime::ZERO);
        assert_eq!(reg.stale_nodes(SimTime::new(50.0), 2.0).len(), 3);
        reg.forget_heartbeat(NodeId(3));
        assert_eq!(reg.stale_nodes(SimTime::new(50.0), 2.0).len(), 2);
    }

    #[test]
    fn a_node_re_registering_after_staleness_starts_with_fresh_liveness() {
        // Dynamic membership: a node declared stale, acted upon, and later
        // re-admitted must not inherit its old heartbeat record.  The
        // caller's contract is forget-then-note on re-registration; after
        // that, the node is fresh — not instantly stale again — and the
        // sweep stops re-reporting it in between.
        let mut reg = MonitorRegistry::new(NodeId(0), 16);
        reg.note_heartbeat(NodeId(1), SimTime::ZERO);
        assert_eq!(reg.stale_nodes(SimTime::new(10.0), 2.0), vec![NodeId(1)]);
        // The caller acts on the loss: forget.  No more re-reports.
        reg.forget_heartbeat(NodeId(1));
        assert!(reg.stale_nodes(SimTime::new(10.0), 2.0).is_empty());
        assert!(reg.last_heartbeat(NodeId(1)).is_none());
        // Re-registration at t=10: without the preceding forget, the
        // never-move-backwards rule would pin the node to its dead past
        // (note_heartbeat(10) after a surviving record of 0 is fine — but a
        // *stray late frame* re-inserting t=0 would make it stale forever).
        reg.forget_heartbeat(NodeId(1)); // idempotent on the caller's path
        reg.note_heartbeat(NodeId(1), SimTime::new(10.0));
        assert!(
            reg.stale_nodes(SimTime::new(11.0), 2.0).is_empty(),
            "a re-registered node is fresh"
        );
        assert_eq!(reg.last_heartbeat(NodeId(1)), Some(SimTime::new(10.0)));
        // And it goes stale again only on its own new silence.
        assert_eq!(reg.stale_nodes(SimTime::new(13.0), 2.0), vec![NodeId(1)]);
    }
}
