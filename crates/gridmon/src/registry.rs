//! Per-node monitor registry.
//!
//! The registry is what the GRASP phases actually hold: one bounded series
//! and one adaptive forecaster per monitored node (CPU) and, optionally, per
//! node pair (bandwidth towards the root node, i.e. the master).  Each
//! holder pays only for what it reads: calibration samples every candidate
//! once and reads the *current* values it gets back to adjust the
//! execution-time table, and so does the sim farm's recalibration; the
//! thread backend feeds one observation per worker per monitor interval and
//! reads the CPU-load forecasts at the end of a run.

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

    /// Drop all recorded state (used when a recalibration decides to start
    /// from scratch).
    pub fn clear(&mut self) {
        self.monitors.clear();
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
        assert_eq!(reg.monitored_nodes(), 1);
        reg.clear();
        assert_eq!(reg.monitored_nodes(), 0);
    }
}
