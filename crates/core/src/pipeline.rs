//! The adaptive pipeline skeleton.
//!
//! GRASP's second skeleton (reference \[7\] of the paper: "Towards fully
//! adaptive pipeline parallelism for heterogeneous distributed
//! environments").  A stream of items flows through an ordered chain of
//! stages, each stage mapped to one grid node.  The pipeline's intrinsic
//! properties differ from the farm's — items are ordered, stages may carry
//! state, and adaptation means *remapping whole stages* rather than
//! redirecting individual tasks — so the adaptation actions differ too:
//!
//! * calibration ranks the candidate nodes and maps the heaviest stages onto
//!   the fittest nodes (largest-first matching);
//! * during execution each stage's recent service times are compared against
//!   its own threshold *Zₛ*; when a stage degrades beyond the threshold the
//!   skeleton **feeds back into calibration**: the node pool is re-ranked
//!   from the monitor's current load readings and the whole stage→node
//!   mapping is recomputed, paying a one-off state-transfer penalty for every
//!   stage that moves.

use crate::adaptation::AdaptationLog;
use crate::calibration::{CalibrationReport, Calibrator};
use crate::config::GraspConfig;
use crate::engine::{AdaptationDirective, AdaptationEngine};
use crate::error::GraspError;
use crate::metrics::ThroughputTimeline;
use crate::properties::SkeletonProperties;
use crate::task::TaskSpec;
use gridmon::MonitorRegistry;
use gridsim::{Grid, NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// Static description of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage index (0-based position in the chain).
    pub id: usize,
    /// Work units each item costs at this stage.
    pub work_per_item: f64,
    /// Bytes forwarded to the next stage per item.
    pub forward_bytes: u64,
    /// Bytes of stage-local state that must move if the stage is remapped.
    pub(crate) state_bytes: u64,
}

impl StageSpec {
    /// Create a stage.
    pub fn new(id: usize, work_per_item: f64, forward_bytes: u64, state_bytes: u64) -> Self {
        StageSpec {
            id,
            work_per_item: work_per_item.max(0.0),
            forward_bytes,
            state_bytes,
        }
    }

    /// A balanced `n`-stage pipeline with identical per-stage cost.
    pub fn balanced(n: usize, work_per_item: f64, forward_bytes: u64) -> Vec<StageSpec> {
        (0..n.max(1))
            .map(|i| StageSpec::new(i, work_per_item, forward_bytes, 0))
            .collect()
    }
}

/// Everything a pipeline run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineOutcome {
    /// Virtual time until the last item left the last stage.
    pub makespan: SimTime,
    /// Number of items processed.
    pub items: usize,
    /// Items per virtual second over the whole run.
    pub(crate) throughput: f64,
    /// Final stage → node mapping.
    pub stage_assignment: Vec<(usize, NodeId)>,
    /// The initial calibration report.
    pub(crate) calibration: CalibrationReport,
    /// Adaptations taken (stage remaps and the recalibrations driving them).
    pub adaptation: AdaptationLog,
    /// Item completions over time.
    pub timeline: ThroughputTimeline,
    /// Per-item completion times (ordered by item index).
    pub item_completions: Vec<SimTime>,
}

impl PipelineOutcome {
    /// Steady-state throughput estimated from the second half of the stream
    /// (ignores pipeline fill).
    pub fn steady_state_throughput(&self) -> f64 {
        let n = self.item_completions.len();
        if n < 4 {
            return self.throughput;
        }
        let half = n / 2;
        let t0 = self.item_completions[half - 1];
        let t1 = self.item_completions[n - 1];
        let dt = (t1 - t0).as_secs();
        if dt <= 0.0 {
            self.throughput
        } else {
            (n - half) as f64 / dt
        }
    }
}

/// The adaptive pipeline skeleton.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: GraspConfig,
    properties: SkeletonProperties,
}

impl Pipeline {
    /// A pipeline with the given configuration.  The per-stage monitor's
    /// recent-service window comes from the shared
    /// [`crate::config::ExecutionConfig::monitor_window`].
    pub fn new(config: GraspConfig) -> Self {
        Pipeline {
            config,
            properties: SkeletonProperties::pipeline(1.0, true),
        }
    }

    /// Override the skeleton properties.
    pub(crate) fn with_properties(mut self, properties: SkeletonProperties) -> Self {
        self.properties = properties;
        self
    }

    /// Process `items` stream elements through `stages` on `grid`, using all
    /// grid nodes as candidates.
    pub fn run(
        &self,
        grid: &Grid,
        stages: &[StageSpec],
        items: usize,
    ) -> Result<PipelineOutcome, GraspError> {
        self.run_on(grid, &grid.node_ids(), stages, items)
    }

    /// Process the stream on an explicit candidate node pool.
    pub(crate) fn run_on(
        &self,
        grid: &Grid,
        candidates: &[NodeId],
        stages: &[StageSpec],
        items: usize,
    ) -> Result<PipelineOutcome, GraspError> {
        self.config.validate()?;
        if stages.is_empty() {
            return Err(GraspError::EmptyPipeline);
        }
        if items == 0 {
            return Err(GraspError::EmptyWorkload);
        }
        if candidates.is_empty() {
            return Err(GraspError::NoUsableNodes);
        }
        let master = self.config.master.unwrap_or(candidates[0]);
        let mut registry = MonitorRegistry::new(master, 256);

        // ----------------------- Calibration + mapping -----------------------
        // Calibrate with per-stage probe tasks so that node ranking reflects
        // the real stage costs; probes do not consume stream items.
        let probe_tasks: Vec<TaskSpec> = stages
            .iter()
            .map(|s| TaskSpec::new(s.id, s.work_per_item, s.forward_bytes, s.forward_bytes))
            .collect();
        let mut cal_cfg = self.config.calibration;
        // A pipeline needs at least one node per stage if available.
        cal_cfg.min_nodes = cal_cfg.min_nodes.max(stages.len().min(candidates.len()));
        let calibrator = Calibrator::new(cal_cfg);
        let calibration = calibrator.calibrate(
            grid,
            &mut registry,
            candidates,
            &probe_tasks,
            master,
            SimTime::ZERO,
        )?;

        let mut assignment = Self::map_stages(stages, &calibration.ranking);
        if assignment.len() != stages.len() {
            return Err(GraspError::CalibrationFailed(
                "not enough usable nodes to host every stage".to_string(),
            ));
        }

        // Per-stage thresholds Zₛ derived from the expected service time on
        // the node each stage is currently mapped to.  The stage-mode
        // adaptation engine owns the thresholds, the recent-service windows,
        // the remap budget and the audit log; this pipeline feeds it service
        // observations and applies the remap directives it emits.
        let exec_cfg = &self.config.execution;
        let mut engine = AdaptationEngine::for_stages(
            exec_cfg,
            Self::stage_thresholds(grid, stages, &assignment, &self.config, SimTime::ZERO),
        )
        .with_stage_window(exec_cfg.monitor_window);

        // ------------------------------ Execution ----------------------------
        let start = calibration.duration;
        let mut timeline = ThroughputTimeline::new(exec_cfg.monitor_interval_s);
        let mut item_completions = Vec::with_capacity(items);
        // stage_free[s] = when stage s finished (or will finish) its latest item.
        let mut stage_free: Vec<SimTime> = vec![start; stages.len()];

        for item in 0..items {
            // The item enters stage 0 as soon as stage 0 is free.
            let mut ready = stage_free[0];
            for (s, stage) in stages.iter().enumerate() {
                let node = assignment[s].1;
                // Wait for the stage to be free (previous item still in it).
                let enter = ready.max(stage_free[s]);
                let mut attempt_node = node;
                let mut attempt_enter = enter;
                let mut banned: Vec<NodeId> = Vec::new();
                let finish = loop {
                    match grid.execute_within(attempt_node, stage.work_per_item, attempt_enter, 1e6)
                    {
                        Some(f) => break f,
                        None => {
                            // The hosting node died (or dies before finishing
                            // and never recovers).  Feed back into calibration
                            // — excluding nodes already seen to fail for this
                            // item — and retry the stage on its new node.
                            if !engine.adaptive()
                                || !engine.can_recalibrate()
                                || banned.len() >= candidates.len()
                            {
                                return Err(GraspError::TaskLost { task: item });
                            }
                            banned.push(attempt_node);
                            engine.try_consume_recalibration();
                            Self::remap_all(
                                grid,
                                &mut registry,
                                stages,
                                candidates,
                                &banned,
                                &mut assignment,
                                &mut stage_free,
                                &mut engine,
                                &self.config,
                                attempt_enter,
                                f64::INFINITY,
                            )?;
                            attempt_node = assignment[s].1;
                            attempt_enter = ready.max(stage_free[s]);
                        }
                    }
                };
                let service = (finish - enter).as_secs();
                stage_free[s] = finish;

                // ---------------- per-stage Algorithm 2 ----------------
                // The engine watches each stage's recent services against
                // its threshold Zₛ and emits a remap directive on breach;
                // the pipeline applies it by re-ranking and remapping the
                // whole chain (the only legal move for an ordered,
                // possibly stateful stage structure).
                if let Some(AdaptationDirective::RemapStage { recent_mean, .. }) =
                    engine.observe_stage(finish, s, service)
                {
                    engine.try_consume_recalibration();
                    Self::remap_all(
                        grid,
                        &mut registry,
                        stages,
                        candidates,
                        &[],
                        &mut assignment,
                        &mut stage_free,
                        &mut engine,
                        &self.config,
                        finish,
                        recent_mean,
                    )?;
                }

                // Forward the item to the next stage.
                let node_now = assignment[s].1;
                ready = if s + 1 < stages.len() {
                    let next_node = assignment[s + 1].1;
                    let xfer = grid
                        .transfer(node_now, next_node, stage.forward_bytes, finish)
                        .map(|e| e.duration)
                        .unwrap_or(SimTime::ZERO);
                    finish + xfer
                } else {
                    finish
                };
            }
            timeline.record(ready);
            item_completions.push(ready);
        }

        let makespan = *item_completions.last().unwrap_or(&start);
        let throughput = if makespan.as_secs() > 0.0 {
            items as f64 / makespan.as_secs()
        } else {
            0.0
        };

        Ok(PipelineOutcome {
            makespan,
            items,
            throughput,
            stage_assignment: assignment,
            calibration,
            adaptation: engine.into_log(),
            timeline,
            item_completions,
        })
    }

    /// Largest-first mapping: heaviest stage onto the fittest node.
    fn map_stages(stages: &[StageSpec], ranking: &[NodeId]) -> Vec<(usize, NodeId)> {
        if ranking.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..stages.len()).collect();
        order.sort_by(|&a, &b| {
            stages[b]
                .work_per_item
                .partial_cmp(&stages[a].work_per_item)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut assignment = vec![None; stages.len()];
        for (rank, &stage_idx) in order.iter().enumerate() {
            // Fewer nodes than stages: reuse nodes round-robin.
            let node = ranking[rank % ranking.len()];
            assignment[stage_idx] = Some((stages[stage_idx].id, node));
        }
        assignment.into_iter().flatten().collect()
    }

    /// Per-stage thresholds Zₛ from the expected service time of each stage
    /// on its currently assigned node under the load observed at `now`.
    fn stage_thresholds(
        grid: &Grid,
        stages: &[StageSpec],
        assignment: &[(usize, NodeId)],
        config: &GraspConfig,
        now: SimTime,
    ) -> Vec<f64> {
        stages
            .iter()
            .zip(assignment)
            .map(|(s, &(_, node))| {
                let speed = grid.effective_speed(node, now).max(1e-9);
                config
                    .execution
                    .threshold
                    .compute(&[s.work_per_item / speed])
            })
            .collect()
    }

    /// Feed back into calibration: re-rank every candidate node from the
    /// monitor's current readings, recompute the whole stage→node mapping and
    /// migrate the state of every stage that moved.  This is the pipeline's
    /// adaptation action ("modifying the task scheduling according to the
    /// inherent properties of the skeleton in hand" — for a pipeline the only
    /// legal move is remapping whole stages).
    #[allow(clippy::too_many_arguments)]
    fn remap_all(
        grid: &Grid,
        registry: &mut MonitorRegistry,
        stages: &[StageSpec],
        candidates: &[NodeId],
        exclude: &[NodeId],
        assignment: &mut Vec<(usize, NodeId)>,
        stage_free: &mut [SimTime],
        engine: &mut AdaptationEngine,
        config: &GraspConfig,
        now: SimTime,
        trigger_value: f64,
    ) -> Result<(), GraspError> {
        // Rank candidates by the speed the monitor currently attributes to
        // them (base speed × observed availability).
        let mut ranked: Vec<(NodeId, f64)> = candidates
            .iter()
            .copied()
            .filter(|&n| grid.is_up(n, now) && !exclude.contains(&n))
            .map(|n| {
                let obs = registry.observe(grid, n, now);
                let base = grid.node(n).map(|s| s.base_speed).unwrap_or(1.0);
                (n, base * (1.0 - obs.cpu_load))
            })
            .collect();
        if ranked.is_empty() {
            return Err(GraspError::NoUsableNodes);
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let ranking: Vec<NodeId> = ranked.iter().map(|(n, _)| *n).collect();
        let new_assignment = Self::map_stages(stages, &ranking);

        for (s, stage) in stages.iter().enumerate() {
            let old = assignment[s].1;
            let new = new_assignment[s].1;
            if old != new {
                let migration = grid
                    .transfer(old, new, stage.state_bytes, now)
                    .map(|e| e.duration)
                    .unwrap_or(SimTime::ZERO);
                stage_free[s] = stage_free[s].max(now) + migration;
                engine.note_stage_remapped(now, s, old, new, trigger_value);
            }
        }
        // Times observed under the old mapping must not condemn the new one.
        engine.clear_stage_windows();
        *assignment = new_assignment;
        engine.note_stages_recalibrated(
            now,
            assignment.iter().map(|(_, n)| *n).collect(),
            trigger_value,
        );
        engine.set_stage_thresholds(Self::stage_thresholds(
            grid, stages, assignment, config, now,
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::ThresholdPolicy;
    use gridsim::{ConstantLoad, FaultPlan, GridBuilder, SpikeLoad, TopologyBuilder};

    fn quiet_grid(n: usize) -> Grid {
        Grid::dedicated(TopologyBuilder::uniform_cluster(n, 40.0))
    }

    fn stages4() -> Vec<StageSpec> {
        vec![
            StageSpec::new(0, 20.0, 64 * 1024, 128 * 1024),
            StageSpec::new(1, 40.0, 64 * 1024, 128 * 1024),
            StageSpec::new(2, 30.0, 64 * 1024, 128 * 1024),
            StageSpec::new(3, 10.0, 64 * 1024, 128 * 1024),
        ]
    }

    #[test]
    fn processes_every_item_in_order() {
        let grid = quiet_grid(6);
        let out = Pipeline::new(GraspConfig::default())
            .run(&grid, &stages4(), 50)
            .unwrap();
        assert_eq!(out.items, 50);
        assert_eq!(out.item_completions.len(), 50);
        // Completions are monotonically non-decreasing (stream order holds).
        assert!(out.item_completions.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.throughput > 0.0);
        assert!(out.steady_state_throughput() > 0.0);
        assert_eq!(out.timeline.total(), 50);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let grid = quiet_grid(4);
        let p = Pipeline::new(GraspConfig::default());
        assert!(matches!(
            p.run(&grid, &[], 10),
            Err(GraspError::EmptyPipeline)
        ));
        assert!(matches!(
            p.run(&grid, &stages4(), 0),
            Err(GraspError::EmptyWorkload)
        ));
        assert!(matches!(
            p.run_on(&grid, &[], &stages4(), 10),
            Err(GraspError::NoUsableNodes)
        ));
    }

    #[test]
    fn heaviest_stage_goes_to_the_fastest_node() {
        // Node speeds 10, 20, 40, 80 — stage 1 is the heaviest.
        let mut b = TopologyBuilder::new();
        let s = b.add_site("c", gridsim::LinkSpec::lan());
        for (i, speed) in [10.0, 20.0, 40.0, 80.0].iter().enumerate() {
            b.add_node(s, format!("n{i}"), *speed);
        }
        let grid = Grid::dedicated(b.build());
        let out = Pipeline::new(GraspConfig::default())
            .run(&grid, &stages4(), 20)
            .unwrap();
        let heaviest = out
            .stage_assignment
            .iter()
            .find(|(id, _)| *id == 1)
            .unwrap()
            .1;
        assert_eq!(
            heaviest,
            NodeId(3),
            "assignment: {:?}",
            out.stage_assignment
        );
    }

    #[test]
    fn pipeline_throughput_tracks_the_bottleneck_stage() {
        let grid = quiet_grid(5);
        let stages = StageSpec::balanced(4, 20.0, 1024);
        let out = Pipeline::new(GraspConfig::default())
            .run(&grid, &stages, 100)
            .unwrap();
        // Bottleneck service time = 20 work / 40 speed = 0.5 s/item → ~2 items/s.
        let tput = out.steady_state_throughput();
        assert!((tput - 2.0).abs() < 0.5, "expected ~2 items/s, got {tput}");
    }

    #[test]
    fn adaptive_pipeline_remaps_a_degraded_stage() {
        // 6 nodes; the four initially chosen nodes become 95 % loaded after
        // 20 s while two spares stay idle.  The adaptive pipeline should feed
        // back into calibration, move the heavy stages to the spares and end
        // up substantially faster than the rigid mapping.
        let make_grid = || {
            let topo = TopologyBuilder::uniform_cluster(6, 40.0);
            let node_ids = topo.node_ids();
            let mut builder = GridBuilder::new(topo).quantum(0.1);
            for &n in &node_ids {
                if n.index() < 4 {
                    builder = builder.node_load(
                        n,
                        SpikeLoad::new(0.0, 0.95, SimTime::new(20.0), SimTime::new(1e6)),
                    );
                }
            }
            builder.build()
        };
        let stages = stages4();
        let mut adaptive_cfg = GraspConfig::default();
        adaptive_cfg.execution.threshold = ThresholdPolicy::Factor { factor: 2.0 };
        let adaptive = Pipeline::new(adaptive_cfg)
            .run(&make_grid(), &stages, 200)
            .unwrap();
        let mut rigid_cfg = GraspConfig::default();
        rigid_cfg.execution.adaptive = false;
        let rigid = Pipeline::new(rigid_cfg)
            .run(&make_grid(), &stages, 200)
            .unwrap();
        assert!(
            adaptive.adaptation.stage_remaps() > 0,
            "expected at least one remap"
        );
        assert!(
            adaptive.makespan.as_secs() < rigid.makespan.as_secs() * 0.6,
            "adaptive {}s vs rigid {}s",
            adaptive.makespan.as_secs(),
            rigid.makespan.as_secs()
        );
    }

    #[test]
    fn stage_hosted_on_a_revoked_node_migrates() {
        let topo = TopologyBuilder::uniform_cluster(5, 40.0);
        let node_ids = topo.node_ids();
        // Revoke every originally attractive node at t=30 except the last.
        let mut faults = FaultPlan::none();
        for &n in &node_ids[..2] {
            faults = faults.with_outage(n, SimTime::new(30.0), SimTime::new(1e9));
        }
        let grid = GridBuilder::new(topo).faults(faults).build();
        let stages = stages4();
        let out = Pipeline::new(GraspConfig::default())
            .run(&grid, &stages, 120)
            .unwrap();
        assert_eq!(out.items, 120);
        // The final assignment must avoid the revoked nodes.
        assert!(out.stage_assignment.iter().all(|(_, n)| n.index() >= 2));
    }

    #[test]
    fn constant_background_load_does_not_cause_thrashing() {
        let topo = TopologyBuilder::uniform_cluster(6, 40.0);
        let grid = GridBuilder::new(topo)
            .uniform_node_load(ConstantLoad::new(0.2))
            .build();
        let out = Pipeline::new(GraspConfig::default())
            .run(&grid, &stages4(), 100)
            .unwrap();
        // A uniform 20 % load is within the 2x default threshold (measured
        // against the load-aware expectation), so nothing should move.
        assert_eq!(out.adaptation.stage_remaps(), 0);
        assert_eq!(out.items, 100);
    }

    #[test]
    fn more_stages_than_nodes_still_works() {
        let grid = quiet_grid(2);
        let stages = StageSpec::balanced(5, 10.0, 1024);
        let out = Pipeline::new(GraspConfig::default())
            .run(&grid, &stages, 30)
            .unwrap();
        assert_eq!(out.items, 30);
        assert_eq!(out.stage_assignment.len(), 5);
    }

    #[test]
    fn monitor_window_comes_from_the_shared_config() {
        let grid = quiet_grid(4);
        let mut cfg = GraspConfig::default();
        cfg.execution.monitor_window = 1;
        let out = Pipeline::new(cfg).run(&grid, &stages4(), 10).unwrap();
        assert_eq!(out.items, 10);
    }
}
