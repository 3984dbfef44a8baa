//! Property-based tests over the GRASP core: calibration, monitor, adaptation
//! bookkeeping and configuration validation.

use grasp_core::calibration::Calibrator;
use grasp_core::engine::{ExecutorSet, Recalibration, StageRemap, StageSet};
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

/// A scripted stage set: `answers` says how it meets each breach (0
/// decline, 1 replicate, 2 migrate, 3 remap the whole chain onto the
/// thresholds `remap_z`).  It records when and for which stage it was asked.
struct FakeStages {
    stages: usize,
    answers: Vec<u8>,
    remap_z: f64,
    calls: Vec<(SimTime, usize)>,
}

impl StageSet for FakeStages {
    fn remap(&mut self, now: SimTime, stage: usize) -> Result<StageRemap, GraspError> {
        let answer = self.answers[self.calls.len() % self.answers.len()];
        self.calls.push((now, stage));
        let home = NodeId(self.stages + stage);
        Ok(match answer {
            0 => StageRemap::Decline,
            1 => StageRemap::Replicated { replicas: 2 },
            2 => StageRemap::Migrated {
                from: NodeId(stage),
                to: home,
                checkpointed_items: 3,
            },
            _ => StageRemap::Remapped {
                moves: vec![(stage, NodeId(stage), home)],
                chosen: (0..self.stages).map(NodeId).collect(),
                thresholds: vec![self.remap_z; self.stages],
            },
        })
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
        let base_verdict = base.poll(SimTime::new(5.0)).expect("observations were reported");
        let worse_verdict = worse.poll(SimTime::new(5.0)).expect("observations were reported");
        if base_verdict.recalibrate {
            prop_assert!(
                worse_verdict.recalibrate,
                "worsening times un-breached the threshold: base min {} worse min {} Z {}",
                base_verdict.min_time,
                worse_verdict.min_time,
                base_verdict.threshold,
            );
        }
        for node in &base_verdict.demote {
            prop_assert!(
                worse_verdict.demote.contains(node),
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

    /// The engine steers any stage set under one discipline, checked event
    /// by event against a reference: a breach asks the set only with a full
    /// window over *Zₛ*, budget left and the spacing gate open (a lost stage
    /// needs only the budget); a decline logs nothing, spends nothing and
    /// leaves the gate where it was; an applied action is logged against
    /// the *Zₛ* in force, spends one unit and clears every window, and a
    /// remap installs its *Zₛ*.  Stage actions never outnumber the budget,
    /// and breach-driven ones never come closer than the interval.
    #[test]
    fn stage_steering_respects_the_window_the_gate_and_the_budget(
        stages in 1usize..4,
        window in 1usize..5,
        interval in 0.0f64..3.0,
        budget in 0usize..=3,
        z0 in 0.5f64..10.0,
        remap_z in 0.5f64..20.0,
        answers in prop::collection::vec(0u8..4, 1..8),
        events in prop::collection::vec((0usize..3, 0.05f64..30.0, 0.0f64..1.0, 0u8..12), 1..80),
    ) {
        // A third of the cases run without a gate, like the simulated
        // pipeline.
        let interval = if interval < 1.0 { 0.0 } else { interval };
        let exec = ExecutionConfig {
            monitor_window: window,
            max_recalibrations: budget,
            ..ExecutionConfig::default()
        };
        let mut engine = AdaptationEngine::for_stages(&exec, vec![z0; stages])
            .with_stage_action_interval(interval);
        let mut set = FakeStages { stages, answers: answers.clone(), remap_z, calls: Vec::new() };
        // The reference state: windows, Zₛ, budget spent, last action.
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); stages];
        let mut z = vec![z0; stages];
        let (mut spent, mut last_action, mut now) = (0usize, 0.0f64, 0.0f64);
        for &(stage, service, dt, kind) in &events {
            now += dt;
            let stage = stage % stages;
            let lost = kind == 0;
            let (asked, logged) = (set.calls.len(), engine.log().len());
            if lost {
                engine.remap_lost_stage(SimTime::new(now), stage, &mut set).unwrap();
            } else {
                engine.observe_stage(SimTime::new(now), stage, service, &mut set).unwrap();
                windows[stage].push(service);
                if windows[stage].len() > window {
                    windows[stage].remove(0);
                }
            }
            let w = &windows[stage];
            let hot = w.len() == window && w.iter().sum::<f64>() / w.len() as f64 > z[stage];
            let gate_open = interval == 0.0 || now - last_action >= interval;
            let breach = spent < budget && (lost || (hot && gate_open));
            prop_assert_eq!(set.calls.len(), asked + usize::from(breach), "asked at t={}", now);
            let answer = answers[asked % answers.len()];
            if !breach || answer == 0 {
                prop_assert_eq!(engine.log().len(), logged, "nothing applied at t={}", now);
                prop_assert_eq!(engine.recalibrations(), spent);
                continue;
            }
            let first = &engine.log().events()[logged];
            prop_assert_eq!(first.threshold, z[stage], "logged against the Zₛ in force");
            prop_assert_eq!(first.trigger_value.is_infinite(), lost);
            prop_assert_eq!(engine.log().len(), logged + if answer == 3 { 2 } else { 1 });
            spent += 1;
            last_action = now;
            windows.iter_mut().for_each(Vec::clear);
            if answer == 3 {
                z = vec![remap_z; stages];
            }
            prop_assert_eq!(engine.recalibrations(), spent);
        }
        let actions: Vec<_> = engine
            .log()
            .events()
            .iter()
            .filter(|e| !matches!(e.action, AdaptationAction::Recalibrated { .. }))
            .collect();
        prop_assert!(actions.len() <= budget);
        for pair in actions.windows(2) {
            let gap = (pair[1].time - pair[0].time).as_secs();
            prop_assert!(
                pair[1].trigger_value.is_infinite() || gap >= interval,
                "breach-driven actions {} s apart, interval {}", gap, interval
            );
        }
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
