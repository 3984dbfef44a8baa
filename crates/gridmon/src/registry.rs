//! Per-node monitor registry.
//!
//! The registry is what the GRASP phases actually hold: one bounded CPU-load
//! series and one adaptive forecaster per monitored node.  Each holder pays
//! only for what it reads: calibration samples every candidate once and reads
//! the *current* CPU and bandwidth (towards the root node, i.e. the master)
//! values it gets back to adjust the execution-time table, and so does the
//! sim farm's recalibration; the thread backend feeds one observation per
//! worker per monitor interval and reads the CPU-load forecasts at the end of
//! a run.

use crate::forecast::{AdaptiveForecaster, Forecaster};
use crate::series::TimeSeries;
use gridsim::{Grid, NodeId, SimTime};
use std::collections::BTreeMap;

/// The latest monitored state of one node, as consumed by statistical
/// calibration (Algorithm 1: "Collect processor and bandwidth values").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeObservation {
    /// Node the observation refers to.
    pub(crate) node: NodeId,
    /// Observation time.
    pub(crate) time: SimTime,
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
    cpu_forecast: AdaptiveForecaster,
}

impl NodeMonitor {
    fn new(history: usize) -> Self {
        NodeMonitor {
            cpu_series: TimeSeries::with_capacity(history),
            cpu_forecast: AdaptiveForecaster::standard(),
        }
    }

    fn push(&mut self, t: SimTime, cpu_load: f64) {
        self.cpu_series.push(t, cpu_load);
        self.cpu_forecast.observe(cpu_load);
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

    /// Sample one node from the grid at time `t`.
    pub fn observe(&mut self, grid: &Grid, node: NodeId, t: SimTime) -> NodeObservation {
        let cpu = grid.cpu_load(node, t);
        let bw = if node == self.root {
            1.0
        } else {
            grid.bandwidth_availability(node, self.root, t)
        };
        self.record_cpu(node, t, cpu);
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
        self.record_cpu(obs.node, obs.time, obs.cpu_load);
    }

    fn record_cpu(&mut self, node: NodeId, t: SimTime, cpu_load: f64) {
        let history = self.history;
        self.monitors
            .entry(node)
            .or_insert_with(|| NodeMonitor::new(history))
            .push(t, cpu_load);
    }

    /// Forecast CPU load of a node; falls back to the latest observation.
    pub fn forecast_cpu_load(&self, node: NodeId) -> Option<f64> {
        let m = self.monitors.get(&node)?;
        m.cpu_forecast.predict().or_else(|| m.cpu_series.last())
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
        let mut last = Vec::new();
        for i in 0..10 {
            let t = SimTime::new(i as f64 * 5.0);
            last = g
                .node_ids()
                .iter()
                .map(|&n| reg.observe(&g, n, t))
                .collect();
        }
        assert!((last[1].cpu_load - 0.5).abs() < 1e-12);
        assert_eq!(last[0].cpu_load, 0.0);
        // Root's bandwidth to itself is perfect; remote node sees link load.
        assert_eq!(last[0].bandwidth_availability, 1.0);
        assert!((last[3].bandwidth_availability - 0.8).abs() < 1e-12);
        for n in g.node_ids() {
            assert!(reg.forecast_cpu_load(n).is_some());
        }
        assert!((reg.forecast_cpu_load(NodeId(1)).unwrap() - 0.5).abs() < 1e-12);
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
        assert!(reg.forecast_cpu_load(NodeId(9)).is_none());
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
        assert!((reg.forecast_cpu_load(NodeId(7)).unwrap() - 0.33).abs() < 1e-12);
    }
}
