//! The dynamic grid: topology + external load + faults.
//!
//! [`Grid`] is the facade the GRASP layers talk to.  It answers exactly the
//! questions a skeleton running on a real grid would have to discover
//! empirically:
//!
//! * *How long does `w` units of work take on node `n` if started at `t`?* —
//!   [`Grid::execute`], which integrates the node's availability over time, so
//!   a task started just before a load spike genuinely takes longer.
//! * *How long does a `b`-byte message take between nodes?* —
//!   [`Grid::transfer`].
//! * *What would a resource monitor read right now?* — [`Grid::cpu_load`],
//!   [`Grid::bandwidth_availability`]; the `gridmon` registry samples these
//!   and through it they feed the statistical calibration.
//!
//! The grid itself never schedules anything: scheduling is the skeletons' job.

use crate::clock::SimTime;
use crate::fault::FaultPlan;
use crate::load::{ConstantLoad, LoadModel};
use crate::node::{NodeId, NodeSpec};
use crate::topology::GridTopology;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Result of estimating a data transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferEstimate {
    /// Total transfer duration (latency + serialisation at available bandwidth).
    pub duration: SimTime,
    /// Effective bandwidth in MiB/s after background traffic.
    pub(crate) effective_bandwidth_mib_s: f64,
}

/// A simulated computational grid: static topology plus dynamic behaviour.
pub struct Grid {
    topology: GridTopology,
    node_loads: Vec<Arc<dyn LoadModel>>,
    link_loads: BTreeMap<(usize, usize), Arc<dyn LoadModel>>,
    default_link_load: Arc<dyn LoadModel>,
    faults: FaultPlan,
    /// Maximum integration step used by [`Grid::execute`].
    quantum_s: f64,
}

impl Grid {
    /// A dedicated (idle, fault-free) grid over the given topology.
    pub fn dedicated(topology: GridTopology) -> Self {
        GridBuilder::new(topology).build()
    }

    /// The underlying static topology.
    pub fn topology(&self) -> &GridTopology {
        &self.topology
    }

    /// Convenience: all node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.topology.node_ids()
    }

    /// Convenience: node spec lookup.
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.topology.node(id)
    }

    /// External CPU load on `node` at `t` (1.0 when the node is down).
    pub fn cpu_load(&self, node: NodeId, t: SimTime) -> f64 {
        if !self.is_up(node, t) {
            return 1.0;
        }
        match self.node_loads.get(node.index()) {
            Some(m) => m.load_at(t),
            None => 0.0,
        }
    }

    /// CPU availability of `node` at `t` in `[0, 1]` (0 when down).
    pub(crate) fn availability(&self, node: NodeId, t: SimTime) -> f64 {
        if !self.is_up(node, t) {
            0.0
        } else {
            1.0 - self.cpu_load(node, t)
        }
    }

    /// Is the node up (not revoked) at `t`?
    pub fn is_up(&self, node: NodeId, t: SimTime) -> bool {
        self.topology.node(node).is_some() && self.faults.is_up(node, t)
    }

    /// Effective processing speed (work units per second) of `node` at `t`.
    pub fn effective_speed(&self, node: NodeId, t: SimTime) -> f64 {
        match self.topology.node(node) {
            Some(spec) => spec.base_speed * self.availability(node, t),
            None => 0.0,
        }
    }

    /// The fault plan in force.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Execute `work` units on `node` starting at `start`, integrating the
    /// node's availability over time.
    ///
    /// Returns the completion time, or `None` when the work cannot finish
    /// within `horizon` seconds of simulated time (e.g. the node is revoked
    /// and never recovers) — the caller treats that as a lost task.
    pub fn execute(&self, node: NodeId, work: f64, start: SimTime) -> Option<SimTime> {
        self.execute_within(node, work, start, 1e7)
    }

    /// [`Grid::execute`] with an explicit horizon (seconds of simulated time
    /// after `start`).
    pub fn execute_within(
        &self,
        node: NodeId,
        work: f64,
        start: SimTime,
        horizon_s: f64,
    ) -> Option<SimTime> {
        let spec = self.topology.node(node)?;
        if work <= 0.0 {
            return Some(start);
        }
        let mut remaining = work;
        let mut t = start;
        let deadline = start + SimTime::new(horizon_s);
        while remaining > 0.0 {
            if t >= deadline {
                return None;
            }
            let avail = self.availability(node, t);
            if avail <= 1e-9 {
                // The node is down: skip to its next fault transition.  A node
                // with no future transition never recovers, so the work is lost.
                let next = match self.faults.next_transition(node, t) {
                    Some(ev) => ev.time,
                    None => return None,
                };
                t = next.max(t + SimTime::new(1e-6)).min(deadline);
                continue;
            }
            let speed = spec.base_speed * avail;
            let needed = remaining / speed;
            let dt = needed.min(self.quantum_s);
            remaining -= speed * dt;
            t += SimTime::new(dt);
            if remaining <= 1e-12 {
                return Some(t);
            }
        }
        Some(t)
    }

    /// Background load on the link between two nodes at `t`.
    fn link_load(&self, a: NodeId, b: NodeId, t: SimTime) -> f64 {
        let (sa, sb) = match (self.topology.node(a), self.topology.node(b)) {
            (Some(na), Some(nb)) => (na.site.index(), nb.site.index()),
            _ => return 0.0,
        };
        let key = if sa <= sb { (sa, sb) } else { (sb, sa) };
        match self.link_loads.get(&key) {
            Some(m) => m.load_at(t),
            None => self.default_link_load.load_at(t),
        }
    }

    /// Fraction of nominal bandwidth available between two nodes at `t`.
    pub fn bandwidth_availability(&self, a: NodeId, b: NodeId, t: SimTime) -> f64 {
        1.0 - self.link_load(a, b, t)
    }

    /// Estimate a transfer of `bytes` from `a` to `b` starting at `t`.
    /// Transfers to the same node are free.  Returns `None` for unknown nodes.
    pub fn transfer(
        &self,
        a: NodeId,
        b: NodeId,
        bytes: u64,
        t: SimTime,
    ) -> Option<TransferEstimate> {
        if a == b {
            return Some(TransferEstimate {
                duration: SimTime::ZERO,
                effective_bandwidth_mib_s: f64::INFINITY,
            });
        }
        let link = self.topology.link_between(a, b)?;
        let avail = self.bandwidth_availability(a, b, t).clamp(1e-3, 1.0);
        let duration = SimTime::new(link.transfer_time(bytes, avail));
        Some(TransferEstimate {
            duration,
            effective_bandwidth_mib_s: link.bandwidth_mib_s * avail,
        })
    }
}

/// Builder assembling a [`Grid`] from a topology, load models and a fault plan.
pub struct GridBuilder {
    topology: GridTopology,
    node_loads: Vec<Arc<dyn LoadModel>>,
    link_loads: BTreeMap<(usize, usize), Arc<dyn LoadModel>>,
    default_link_load: Arc<dyn LoadModel>,
    faults: FaultPlan,
    quantum_s: f64,
}

impl GridBuilder {
    /// Start from a topology; all nodes idle, all links quiet, no faults.
    pub fn new(topology: GridTopology) -> Self {
        let idle: Arc<dyn LoadModel> = Arc::new(ConstantLoad::idle());
        let node_loads = vec![idle.clone(); topology.node_count()];
        GridBuilder {
            topology,
            node_loads,
            link_loads: BTreeMap::new(),
            default_link_load: idle,
            faults: FaultPlan::none(),
            quantum_s: 0.5,
        }
    }

    /// Attach a load model to one node.
    pub fn node_load(mut self, node: NodeId, model: impl LoadModel + 'static) -> Self {
        if node.index() < self.node_loads.len() {
            self.node_loads[node.index()] = Arc::new(model);
        }
        self
    }

    /// Attach the same load model to every node.
    pub fn uniform_node_load(mut self, model: impl LoadModel + 'static) -> Self {
        let shared: Arc<dyn LoadModel> = Arc::new(model);
        for slot in &mut self.node_loads {
            *slot = shared.clone();
        }
        self
    }

    /// Generate a per-node load model from the node id (e.g. different seeds).
    pub fn node_loads_with(mut self, f: impl Fn(NodeId) -> Arc<dyn LoadModel>) -> Self {
        for (i, slot) in self.node_loads.iter_mut().enumerate() {
            *slot = f(NodeId(i));
        }
        self
    }

    /// Attach a background-traffic model to the link between two sites.
    pub fn link_load(
        mut self,
        a: crate::site::SiteId,
        b: crate::site::SiteId,
        model: impl LoadModel + 'static,
    ) -> Self {
        let key = if a.index() <= b.index() {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        self.link_loads.insert(key, Arc::new(model));
        self
    }

    /// Set the background traffic used on links without an explicit model.
    pub fn default_link_load(mut self, model: impl LoadModel + 'static) -> Self {
        self.default_link_load = Arc::new(model);
        self
    }

    /// Attach a fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the integration quantum used by [`Grid::execute`] (seconds).
    pub fn quantum(mut self, quantum_s: f64) -> Self {
        self.quantum_s = quantum_s.max(1e-3);
        self
    }

    /// Finish building.
    pub fn build(self) -> Grid {
        Grid {
            topology: self.topology,
            node_loads: self.node_loads,
            link_loads: self.link_loads,
            default_link_load: self.default_link_load,
            faults: self.faults,
            quantum_s: self.quantum_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{ConstantLoad, SpikeLoad};
    use crate::topology::TopologyBuilder;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn dedicated_grid_executes_at_base_speed() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(2, 10.0));
        let done = grid.execute(NodeId(0), 100.0, t(0.0)).unwrap();
        assert!((done.as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_finishes_immediately() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(1, 10.0));
        assert_eq!(grid.execute(NodeId(0), 0.0, t(3.0)).unwrap(), t(3.0));
    }

    #[test]
    fn unknown_node_returns_none() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(1, 10.0));
        assert!(grid.execute(NodeId(5), 1.0, t(0.0)).is_none());
    }

    #[test]
    fn constant_load_halves_effective_speed() {
        let topo = TopologyBuilder::uniform_cluster(1, 10.0);
        let grid = GridBuilder::new(topo)
            .uniform_node_load(ConstantLoad::new(0.5))
            .build();
        let done = grid.execute(NodeId(0), 100.0, t(0.0)).unwrap();
        assert!((done.as_secs() - 20.0).abs() < 1e-6);
        assert!((grid.effective_speed(NodeId(0), t(0.0)) - 5.0).abs() < 1e-9);
        assert!((grid.cpu_load(NodeId(0), t(0.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spike_during_execution_slows_the_task_down() {
        let topo = TopologyBuilder::uniform_cluster(1, 10.0);
        // Spike of 90 % load between t=5 and t=15.
        let grid = GridBuilder::new(topo)
            .uniform_node_load(SpikeLoad::new(0.0, 0.9, t(5.0), t(15.0)))
            .quantum(0.1)
            .build();
        // 100 work units: 5 s at full speed does 50 units, then 10 s at 10 %
        // speed does 10 units, then the remaining 40 at full speed = 4 s.
        let done = grid.execute(NodeId(0), 100.0, t(0.0)).unwrap();
        assert!(
            (done.as_secs() - 19.0).abs() < 0.2,
            "got {}",
            done.as_secs()
        );
    }

    #[test]
    fn task_started_after_spike_is_unaffected() {
        let topo = TopologyBuilder::uniform_cluster(1, 10.0);
        let grid = GridBuilder::new(topo)
            .uniform_node_load(SpikeLoad::new(0.0, 0.9, t(5.0), t(15.0)))
            .build();
        let done = grid.execute(NodeId(0), 100.0, t(20.0)).unwrap();
        assert!((done.as_secs() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn revoked_node_reports_zero_availability_and_stalls() {
        let topo = TopologyBuilder::uniform_cluster(2, 10.0);
        let faults = FaultPlan::none().with_outage(NodeId(0), t(0.0), t(50.0));
        let grid = GridBuilder::new(topo).faults(faults).build();
        assert_eq!(grid.availability(NodeId(0), t(10.0)), 0.0);
        assert!(!grid.is_up(NodeId(0), t(10.0)));
        assert!(grid.is_up(NodeId(1), t(10.0)));
        // Work waits out the outage then completes.
        let done = grid.execute(NodeId(0), 100.0, t(0.0)).unwrap();
        assert!((done.as_secs() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn permanently_dead_node_times_out() {
        let topo = TopologyBuilder::uniform_cluster(1, 10.0);
        // An explicit open-ended revocation: down at t=0, never recovers.
        let faults = FaultPlan::none().revoked_from(NodeId(0), t(0.0));
        let grid = GridBuilder::new(topo).faults(faults).build();
        assert!(grid
            .execute_within(NodeId(0), 10.0, t(0.0), 100.0)
            .is_none());
    }

    #[test]
    fn intra_site_transfer_is_faster_than_inter_site() {
        let topo = TopologyBuilder::multi_site(&[(2, 10.0), (2, 10.0)]);
        let grid = Grid::dedicated(topo);
        let local = grid
            .transfer(NodeId(0), NodeId(1), 10 * 1024 * 1024, t(0.0))
            .unwrap();
        let remote = grid
            .transfer(NodeId(0), NodeId(2), 10 * 1024 * 1024, t(0.0))
            .unwrap();
        assert!(local.duration < remote.duration);
        assert!(local.effective_bandwidth_mib_s > remote.effective_bandwidth_mib_s);
    }

    #[test]
    fn self_transfer_is_free() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(2, 10.0));
        let est = grid
            .transfer(NodeId(0), NodeId(0), 1 << 30, t(0.0))
            .unwrap();
        assert_eq!(est.duration, SimTime::ZERO);
    }

    #[test]
    fn link_background_traffic_reduces_bandwidth() {
        let topo = TopologyBuilder::multi_site(&[(1, 10.0), (1, 10.0)]);
        let s0 = topo.sites()[0].id;
        let s1 = topo.sites()[1].id;
        let quiet = Grid::dedicated(TopologyBuilder::multi_site(&[(1, 10.0), (1, 10.0)]));
        let busy = GridBuilder::new(topo)
            .link_load(s0, s1, ConstantLoad::new(0.75))
            .build();
        let bytes = 50 * 1024 * 1024;
        let tq = quiet.transfer(NodeId(0), NodeId(1), bytes, t(0.0)).unwrap();
        let tb = busy.transfer(NodeId(0), NodeId(1), bytes, t(0.0)).unwrap();
        assert!(tb.duration > tq.duration);
        assert!((busy.bandwidth_availability(NodeId(0), NodeId(1), t(0.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn per_node_loads_differ() {
        let topo = TopologyBuilder::uniform_cluster(3, 10.0);
        let grid = GridBuilder::new(topo)
            .node_load(NodeId(1), ConstantLoad::new(0.8))
            .build();
        assert!(grid.effective_speed(NodeId(0), t(0.0)) > grid.effective_speed(NodeId(1), t(0.0)));
        assert_eq!(grid.cpu_load(NodeId(2), t(0.0)), 0.0);
    }

    #[test]
    fn node_loads_with_generator() {
        let topo = TopologyBuilder::uniform_cluster(4, 10.0);
        let grid = GridBuilder::new(topo)
            .node_loads_with(|id| {
                Arc::new(ConstantLoad::new(0.1 * id.index() as f64)) as Arc<dyn LoadModel>
            })
            .build();
        assert!((grid.cpu_load(NodeId(0), t(0.0)) - 0.0).abs() < 1e-12);
        assert!((grid.cpu_load(NodeId(3), t(0.0)) - 0.3).abs() < 1e-12);
    }
}
