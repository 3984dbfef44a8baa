//! Fault injection: node revocation and recovery.
//!
//! Grid nodes are non-dedicated; the local administrator (or a higher-priority
//! local job) may reclaim a node at any moment.  GRASP's execution phase must
//! treat such a node as a performance catastrophe and route around it.  A
//! [`FaultPlan`] is a deterministic schedule of down/up transitions per node
//! that the [`crate::grid::Grid`] consults when reporting availability.
//!
//! Availability queries sit in the skeletons' dispatch hot loops (every
//! dispatch and every starvation check filters the candidate pool through
//! [`FaultPlan::is_up`]), so the plan keeps a secondary index of its events
//! sorted by `(node, time)` and answers queries by binary search instead of
//! scanning the whole schedule.

use crate::clock::SimTime;
use crate::node::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happens to the node at the event time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node is revoked: it stops making progress and loses in-flight work.
    Revoke,
    /// The node becomes available again.
    Recover,
}

/// One scheduled state transition for a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Affected node.
    pub node: NodeId,
    /// When the transition happens.
    pub time: SimTime,
    /// Transition direction.
    pub kind: FaultKind,
}

/// A deterministic schedule of node revocations/recoveries.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// All events, sorted by time (the public, chronological view).
    events: Vec<FaultEvent>,
    /// The same events re-sorted by `(node, time)` so per-node state queries
    /// binary-search instead of scanning the whole schedule.  Rebuilt by
    /// every constructor/mutator; ties at equal `(node, time)` preserve the
    /// chronological order (stable sort), so query semantics match a linear
    /// scan of `events` exactly.
    by_node: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: every node is up forever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit events (sorted internally by time).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.time);
        let mut plan = FaultPlan {
            events,
            by_node: Vec::new(),
        };
        plan.rebuild_index();
        plan
    }

    /// Revoke `node` during `[start, end)`.  An empty interval
    /// (`end <= start`) schedules nothing — use [`FaultPlan::revoked_from`]
    /// for an outage that never ends.
    pub fn with_outage(mut self, node: NodeId, start: SimTime, end: SimTime) -> Self {
        if end <= start {
            return self;
        }
        self.events.push(FaultEvent {
            node,
            time: start,
            kind: FaultKind::Revoke,
        });
        self.events.push(FaultEvent {
            node,
            time: end,
            kind: FaultKind::Recover,
        });
        self.events.sort_by_key(|e| e.time);
        self.rebuild_index();
        self
    }

    /// Revoke `node` at `start` with no scheduled recovery: the node is down
    /// for the rest of the simulation (a permanent revocation).
    pub fn revoked_from(mut self, node: NodeId, start: SimTime) -> Self {
        self.events.push(FaultEvent {
            node,
            time: start,
            kind: FaultKind::Revoke,
        });
        self.events.sort_by_key(|e| e.time);
        self.rebuild_index();
        self
    }

    /// Generate a random plan: each of `nodes` suffers an outage with
    /// probability `p_outage`, starting uniformly in `[0, horizon)` and
    /// lasting `mean_outage_s` on average.  Deterministic per seed.
    pub fn random(
        nodes: &[NodeId],
        p_outage: f64,
        horizon_s: f64,
        mean_outage_s: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for &node in nodes {
            if rng.gen_range(0.0..1.0) < p_outage.clamp(0.0, 1.0) {
                let start = rng.gen_range(0.0..horizon_s.max(1.0));
                let u: f64 = rng.gen_range(1e-9..1.0);
                let dur = -mean_outage_s.max(1.0) * u.ln();
                events.push(FaultEvent {
                    node,
                    time: SimTime::new(start),
                    kind: FaultKind::Revoke,
                });
                events.push(FaultEvent {
                    node,
                    time: SimTime::new(start + dur),
                    kind: FaultKind::Recover,
                });
            }
        }
        FaultPlan::from_events(events)
    }

    /// Rebuild the `(node, time)`-sorted query index from `events`.  The sort
    /// is stable, so events tied on `(node, time)` keep their chronological
    /// (insertion) order and queries agree with a linear scan.
    fn rebuild_index(&mut self) {
        self.by_node = self.events.clone();
        self.by_node
            .sort_by(|a, b| a.node.cmp(&b.node).then(a.time.cmp(&b.time)));
    }

    /// All scheduled events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index one past the last indexed event of `node` with `time <= t`.
    fn upper_bound(&self, node: NodeId, t: SimTime) -> usize {
        self.by_node
            .partition_point(|e| e.node < node || (e.node == node && e.time <= t))
    }

    /// Is `node` up at time `t`?  Nodes start up; the most recent transition
    /// at or before `t` decides the state.  `O(log events)`: the indexed
    /// event just before the upper bound is that transition when it belongs
    /// to `node`.
    pub(crate) fn is_up(&self, node: NodeId, t: SimTime) -> bool {
        match self.upper_bound(node, t).checked_sub(1) {
            Some(i) if self.by_node[i].node == node => {
                matches!(self.by_node[i].kind, FaultKind::Recover)
            }
            _ => true,
        }
    }

    /// The next transition affecting `node` strictly after `t`, if any.
    /// `O(log events)`.
    pub fn next_transition(&self, node: NodeId, t: SimTime) -> Option<FaultEvent> {
        self.by_node
            .get(self.upper_bound(node, t))
            .filter(|e| e.node == node)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_keeps_everything_up() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.is_up(NodeId(0), SimTime::new(1e9)));
    }

    #[test]
    fn outage_window_takes_node_down_then_up() {
        let plan = FaultPlan::none().with_outage(NodeId(2), SimTime::new(10.0), SimTime::new(20.0));
        assert!(plan.is_up(NodeId(2), SimTime::new(9.9)));
        assert!(!plan.is_up(NodeId(2), SimTime::new(10.0)));
        assert!(!plan.is_up(NodeId(2), SimTime::new(19.9)));
        assert!(plan.is_up(NodeId(2), SimTime::new(20.0)));
        // Other nodes are unaffected.
        assert!(plan.is_up(NodeId(3), SimTime::new(15.0)));
    }

    #[test]
    fn empty_outage_interval_is_a_no_op() {
        // `[start, start)` is empty, so the node must stay up — the plan
        // schedules nothing at all.
        let t = SimTime::new(10.0);
        let plan = FaultPlan::none().with_outage(NodeId(1), t, t);
        assert!(plan.is_empty());
        assert!(plan.is_up(NodeId(1), t));
        assert!(plan.is_up(NodeId(1), SimTime::new(1e9)));
        // An inverted interval is equally empty.
        let plan = FaultPlan::none().with_outage(NodeId(1), SimTime::new(10.0), SimTime::new(5.0));
        assert!(plan.is_empty());
    }

    #[test]
    fn revoked_from_downs_the_node_forever() {
        let plan = FaultPlan::none().revoked_from(NodeId(4), SimTime::new(3.0));
        assert_eq!(plan.events().len(), 1);
        assert!(plan.is_up(NodeId(4), SimTime::new(2.9)));
        assert!(!plan.is_up(NodeId(4), SimTime::new(3.0)));
        assert!(!plan.is_up(NodeId(4), SimTime::new(1e12)));
        assert!(plan.next_transition(NodeId(4), SimTime::new(3.0)).is_none());
    }

    #[test]
    fn events_are_sorted_by_time() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                node: NodeId(0),
                time: SimTime::new(5.0),
                kind: FaultKind::Recover,
            },
            FaultEvent {
                node: NodeId(0),
                time: SimTime::new(1.0),
                kind: FaultKind::Revoke,
            },
        ]);
        assert_eq!(plan.events()[0].time, SimTime::new(1.0));
        assert!(plan.is_up(NodeId(0), SimTime::new(6.0)));
    }

    #[test]
    fn next_transition_finds_the_following_event() {
        let plan = FaultPlan::none().with_outage(NodeId(1), SimTime::new(10.0), SimTime::new(30.0));
        let next = plan.next_transition(NodeId(1), SimTime::new(0.0)).unwrap();
        assert_eq!(next.kind, FaultKind::Revoke);
        let next = plan.next_transition(NodeId(1), SimTime::new(15.0)).unwrap();
        assert_eq!(next.kind, FaultKind::Recover);
        assert!(plan
            .next_transition(NodeId(1), SimTime::new(40.0))
            .is_none());
        assert!(plan.next_transition(NodeId(9), SimTime::new(0.0)).is_none());
    }

    #[test]
    fn indexed_queries_agree_with_a_linear_scan() {
        // Every constructor and mutator must leave the binary-searched index
        // covering `events`: on a plan from each of them, queries reproduce
        // the reference linear-scan semantics, including at exact event
        // times, at ties on `(node, time)`, and before/after the schedule.
        let at = SimTime::new;
        let ev = |node, time, kind| FaultEvent {
            node: NodeId(node),
            time: SimTime::new(time),
            kind,
        };
        let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
        let plans = [
            FaultPlan::none(),
            FaultPlan::default(),
            // Unsorted input.
            FaultPlan::from_events(vec![
                ev(3, 9.0, FaultKind::Recover),
                ev(1, 4.0, FaultKind::Revoke),
                ev(3, 2.0, FaultKind::Revoke),
                ev(1, 6.0, FaultKind::Recover),
            ]),
            // Ties at equal `(node, time)`: the last one in input order decides.
            FaultPlan::from_events(vec![
                ev(2, 5.0, FaultKind::Revoke),
                ev(4, 7.0, FaultKind::Recover),
                ev(2, 5.0, FaultKind::Recover),
                ev(4, 1.0, FaultKind::Revoke),
                ev(2, 5.0, FaultKind::Revoke),
                ev(4, 7.0, FaultKind::Revoke),
            ]),
            FaultPlan::none()
                .with_outage(NodeId(5), at(10.0), at(20.0))
                .with_outage(NodeId(0), at(15.0), at(30.0))
                .with_outage(NodeId(5), at(18.0), at(25.0)),
            FaultPlan::none()
                .revoked_from(NodeId(7), at(3.0))
                .with_outage(NodeId(7), at(1.0), at(2.0))
                .revoked_from(NodeId(8), at(3.0)),
            FaultPlan::random(&nodes, 0.8, 50.0, 10.0, 1234),
        ];
        for plan in &plans {
            let linear_is_up = |node: NodeId, t: SimTime| {
                let mut up = true;
                for ev in plan.events() {
                    if ev.time > t {
                        break;
                    }
                    if ev.node == node {
                        up = matches!(ev.kind, FaultKind::Recover);
                    }
                }
                up
            };
            let linear_next = |node: NodeId, t: SimTime| {
                plan.events()
                    .iter()
                    .find(|ev| ev.node == node && ev.time > t)
                    .copied()
            };
            let mut probes: Vec<SimTime> = plan.events().iter().map(|e| e.time).collect();
            probes.extend((0..200).map(|i| SimTime::new(i as f64 * 0.37)));
            probes.push(SimTime::new(1e9));
            for &node in &nodes {
                for &t in &probes {
                    assert_eq!(plan.is_up(node, t), linear_is_up(node, t), "{node:?} {t}");
                    assert_eq!(
                        plan.next_transition(node, t),
                        linear_next(node, t),
                        "{node:?} {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let nodes: Vec<NodeId> = (0..20).map(NodeId).collect();
        let a = FaultPlan::random(&nodes, 0.5, 100.0, 20.0, 9);
        let b = FaultPlan::random(&nodes, 0.5, 100.0, 20.0, 9);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::random(&nodes, 0.5, 100.0, 20.0, 10);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn random_plan_respects_probability_extremes() {
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        assert!(FaultPlan::random(&nodes, 0.0, 100.0, 10.0, 1).is_empty());
        let all = FaultPlan::random(&nodes, 1.0, 100.0, 10.0, 1);
        assert_eq!(
            all.events().len(),
            20,
            "every node gets a revoke + recover pair"
        );
    }
}
