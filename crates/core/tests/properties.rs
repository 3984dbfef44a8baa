//! Property-based tests over the GRASP core: calibration, monitor, adaptation
//! bookkeeping and configuration validation.

use grasp_core::calibration::Calibrator;
use grasp_core::engine::{ExecutorSet, Recalibration};
use grasp_core::execution::ExecutionMonitor;
use grasp_core::prelude::*;
use gridmon::MonitorRegistry;
use gridsim::{Grid, NodeId, SimTime, TopologyBuilder};
use proptest::prelude::*;

/// A scripted executor set: `refusals` says which `demote` calls it refuses
/// and `answers` how it meets each whole-pool breach (0 decline, 1 resample,
/// 2 re-rank to every executor and rebase).  It records what the engine
/// did to it.
struct FakeSet {
    executors: usize,
    active: Vec<NodeId>,
    floor: usize,
    refusals: Vec<bool>,
    answers: Vec<u8>,
    demote_calls: usize,
    recalibrate_calls: usize,
    accepted: Vec<NodeId>,
    below_floor_calls: usize,
    /// `active()` right after each breach the set did not decline.
    chosen_after: Vec<Vec<NodeId>>,
}

impl ExecutorSet for FakeSet {
    fn active(&self) -> Vec<NodeId> {
        self.active.clone()
    }

    fn demote(&mut self, executor: NodeId) -> bool {
        if self.active.len() <= self.floor {
            self.below_floor_calls += 1;
        }
        let refuse = self.refusals[self.demote_calls % self.refusals.len()];
        self.demote_calls += 1;
        if refuse || !self.active.contains(&executor) {
            return false;
        }
        self.active.retain(|&n| n != executor);
        self.accepted.push(executor);
        true
    }

    fn recalibrate(&mut self, _now: SimTime) -> Recalibration {
        let answer = self.answers[self.recalibrate_calls % self.answers.len()];
        self.recalibrate_calls += 1;
        let answer = match answer {
            0 => return Recalibration::Decline,
            1 => Recalibration::Resample,
            _ => {
                self.active = (0..self.executors).map(NodeId).collect();
                Recalibration::Rebase(vec![1.5; self.executors])
            }
        };
        self.chosen_after.push(self.active.clone());
        answer
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Calibration on a dedicated pool always selects the requested fraction
    /// (rounded up, floored by min_nodes) and ranks fastest-first.
    #[test]
    fn calibration_selects_the_requested_fraction(
        nodes in 2usize..24,
        fraction in 0.1f64..1.0,
        min_nodes in 1usize..4,
        seed in any::<u64>(),
    ) {
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(nodes, 10.0, 90.0, seed));
        let tasks = TaskSpec::uniform(nodes * 2, 40.0, 1024, 1024);
        let cfg = CalibrationConfig {
            samples_per_node: 1,
            selection_fraction: fraction,
            min_nodes,
            ..CalibrationConfig::default()
        };
        let mut registry = MonitorRegistry::new(NodeId(0), 32);
        let report = Calibrator::new(cfg)
            .calibrate(&grid, &mut registry, &grid.node_ids(), &tasks, NodeId(0), SimTime::ZERO)
            .unwrap();
        let expected = ((nodes as f64 * fraction).ceil() as usize)
            .max(min_nodes)
            .min(nodes);
        prop_assert_eq!(report.chosen.len(), expected);
        // Ranking is fastest-first: adjusted times must be non-decreasing.
        let times: Vec<f64> = report
            .ranking
            .iter()
            .map(|n| report.table.iter().find(|c| c.node == *n).unwrap().adjusted_time)
            .collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        // Chosen nodes are exactly the ranking prefix.
        prop_assert_eq!(&report.chosen[..], &report.ranking[..expected]);
    }

    /// The execution monitor recalibrates exactly when the minimum recent
    /// mean exceeds the threshold.
    #[test]
    fn monitor_verdict_matches_definition(
        times in prop::collection::vec((0usize..6, 0.01f64..20.0), 1..60),
        threshold in 0.1f64..10.0,
    ) {
        let mut monitor = ExecutionMonitor::new(threshold, 1.0, 3.0);
        for (node, t) in &times {
            monitor.record(NodeId(*node), *t);
        }
        let verdict = monitor.evaluate(SimTime::new(10.0)).unwrap();
        let min_mean = verdict
            .per_node_mean
            .iter()
            .map(|(_, m)| *m)
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(verdict.recalibrate, min_mean > threshold);
        for node in &verdict.demote {
            let m = verdict.per_node_mean.iter().find(|(n, _)| n == node).unwrap().1;
            prop_assert!(m > threshold * 3.0);
        }
    }

    /// Algorithm 2's verdicts are monotone in the observed times: worsening
    /// every observation can never un-breach the threshold (`min T > Z`
    /// stays true when every per-node mean grows), and the demote set can
    /// only grow.  Exercised through the backend-neutral engine so the
    /// property covers exactly the loop both backends run.
    #[test]
    fn threshold_verdicts_are_monotone_in_observed_times(
        reference in prop::collection::vec(0.05f64..10.0, 1..8),
        observations in prop::collection::vec((0usize..5, 0.01f64..30.0), 1..40),
        degradations in prop::collection::vec(1.0f64..8.0, 40),
        factor in 1.0f64..4.0,
    ) {
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor },
            monitor_interval_s: 1.0,
            ..ExecutionConfig::default()
        };
        let mut base = AdaptationEngine::for_executors(&exec, &reference, SimTime::ZERO);
        let mut worse = AdaptationEngine::for_executors(&exec, &reference, SimTime::ZERO);
        for (i, (node, t)) in observations.iter().enumerate() {
            base.observe(NodeId(*node), *t);
            // Worsen every observation by its own factor >= 1: each node's
            // mean can only grow.
            worse.observe(NodeId(*node), *t * degradations[i % degradations.len()]);
        }
        let base_poll = base.poll(SimTime::new(5.0)).expect("observations were reported");
        let worse_poll = worse.poll(SimTime::new(5.0)).expect("observations were reported");
        if base_poll.verdict.recalibrate {
            prop_assert!(
                worse_poll.verdict.recalibrate,
                "worsening times un-breached the threshold: base min {} worse min {} Z {}",
                base_poll.verdict.min_time,
                worse_poll.verdict.min_time,
                base_poll.verdict.threshold,
            );
        }
        for node in &base_poll.verdict.demote {
            prop_assert!(
                worse_poll.verdict.demote.contains(node),
                "worsening times un-demoted node {node:?}"
            );
        }
    }

    /// The engine steers any executor set under one discipline: the pool
    /// never shrinks below `max(1, min_active_nodes)`, the log records
    /// exactly the demotions the set accepted and the recalibrations it did
    /// not decline (each with the set's active executors after its hook),
    /// and only applied recalibrations spend the budget.
    #[test]
    fn steering_respects_the_floor_the_set_and_the_budget(
        executors in 1usize..7,
        intervals in prop::collection::vec(
            prop::collection::vec((0usize..7, 0.05f64..30.0), 0..12),
            1..16,
        ),
        min_active_nodes in 0usize..=4,
        budget in 0usize..=3,
        refusals in prop::collection::vec(any::<bool>(), 1..8),
        answers in prop::collection::vec(0u8..3, 1..8),
    ) {
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 2.0 },
            monitor_interval_s: 1.0,
            min_active_nodes,
            max_recalibrations: budget,
            ..ExecutionConfig::default()
        };
        let floor = min_active_nodes.max(1);
        let mut engine = AdaptationEngine::for_executors(&exec, &[1.0], SimTime::ZERO);
        let mut set = FakeSet {
            executors,
            active: (0..executors).map(NodeId).collect(),
            floor,
            refusals: refusals.clone(),
            answers: answers.clone(),
            demote_calls: 0,
            recalibrate_calls: 0,
            accepted: Vec::new(),
            below_floor_calls: 0,
            chosen_after: Vec::new(),
        };
        for (k, observations) in intervals.iter().enumerate() {
            for &(executor, t) in observations {
                engine.observe(NodeId(executor % executors), t);
            }
            engine.steer(SimTime::new((k + 1) as f64), &mut set);
            prop_assert!(set.active.len() >= floor.min(executors));
            prop_assert!(engine.recalibrations() <= budget);
        }
        prop_assert_eq!(set.below_floor_calls, 0, "demote called at the floor");
        let mut demoted = Vec::new();
        let mut chosen = Vec::new();
        for event in engine.log().events() {
            match &event.action {
                AdaptationAction::NodeDemoted { node, .. } => demoted.push(*node),
                AdaptationAction::Recalibrated { new_chosen } => chosen.push(new_chosen.clone()),
                other => prop_assert!(false, "unexpected action {:?}", other),
            }
        }
        prop_assert_eq!(&demoted, &set.accepted);
        prop_assert_eq!(&chosen, &set.chosen_after);
        // Declined breaches spent nothing: the budget used is exactly the
        // applied recalibrations.
        prop_assert_eq!(engine.recalibrations(), set.chosen_after.len());
    }

    /// Config validation accepts exactly the documented parameter ranges.
    #[test]
    fn config_validation_matches_ranges(
        fraction in -0.5f64..1.5,
        interval in -1.0f64..10.0,
        demote in 0.0f64..5.0,
    ) {
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = fraction;
        cfg.execution.monitor_interval_s = interval;
        cfg.execution.demote_factor = demote;
        let ok = fraction > 0.0 && fraction <= 1.0 && interval > 0.0 && demote >= 1.0;
        prop_assert_eq!(cfg.validate().is_ok(), ok);
    }

    /// Farm node shares always sum to one and per-node counts to the total.
    #[test]
    fn farm_accounting_is_consistent(
        tasks_n in 5usize..50,
        nodes in 2usize..6,
        work in 5.0f64..100.0,
    ) {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(nodes, 40.0));
        let tasks = TaskSpec::uniform(tasks_n, work, 2048, 2048);
        let out = TaskFarm::new(GraspConfig::default()).run(&grid, &tasks).unwrap();
        let counted: usize = out.per_node_tasks.values().sum();
        prop_assert_eq!(counted, out.completed_tasks());
        let share_sum: f64 = out.node_shares().values().sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(out.timeline.total() as usize, out.completed_tasks());
    }
}
