//! The adaptive task farm skeleton.
//!
//! GRASP's first skeleton (reference \[6\] of the paper: "Self-adaptive
//! skeletal task farm for computational grids").  A master holds a bag of
//! independent tasks; workers request chunks, compute them and return the
//! results.  The GRASP instrumentation wraps the classic farm with:
//!
//! * an initial **calibration** (Algorithm 1) that consumes the first few
//!   tasks to rank nodes and select the fittest subset;
//! * **adaptive chunking** — chunk sizes weighted by each node's calibrated
//!   relative speed;
//! * an execution **monitor** (Algorithm 2) that compares recent per-task
//!   times against the performance threshold *Z* and reacts by demoting
//!   individual nodes, requeueing work from revoked nodes, or feeding back
//!   into calibration (re-ranking the whole pool);
//! * a complete audit trail ([`crate::adaptation::AdaptationLog`],
//!   throughput timeline, per-node accounting) for the experiments.
//!
//! The farm runs against the simulated [`gridsim::Grid`]; a real-thread
//! shared-memory farm with the same surface lives in `grasp-exec`.

use crate::adaptation::AdaptationLog;
use crate::calibration::{CalibrationMode, CalibrationReport, Calibrator};
use crate::config::GraspConfig;
use crate::engine::{AdaptationEngine, ExecutorSet, Recalibration};
use crate::error::GraspError;
use crate::metrics::ThroughputTimeline;
use crate::properties::SkeletonProperties;
use crate::task::{total_work, TaskOutcome, TaskSpec};
use gridmon::MonitorRegistry;
use gridsim::{EventQueue, Grid, NodeId, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Horizon (simulated seconds) after which an in-flight chunk on a node is
/// declared lost instead of waiting for the node to recover.
const CHUNK_HORIZON_S: f64 = 1e6;

/// The adaptive task-farm skeleton.
#[derive(Debug, Clone)]
pub struct TaskFarm {
    config: GraspConfig,
    properties: SkeletonProperties,
}

/// Everything a farm run produced.
#[derive(Debug, Clone)]
pub struct FarmOutcome {
    /// Virtual time from job start to the last result arriving at the master.
    pub makespan: SimTime,
    /// Every completed task (calibration samples included).
    pub task_outcomes: Vec<TaskOutcome>,
    /// The initial calibration report.
    pub calibration: CalibrationReport,
    /// Adaptations taken during execution.
    pub adaptation: AdaptationLog,
    /// Completions over time.
    pub timeline: ThroughputTimeline,
    /// Tasks completed per node.
    pub per_node_tasks: BTreeMap<NodeId, usize>,
    /// How many monitoring evaluations the monitor node performed.
    pub monitor_evaluations: usize,
}

impl FarmOutcome {
    /// Number of completed tasks.
    pub fn completed_tasks(&self) -> usize {
        self.task_outcomes.len()
    }

    /// Fraction of tasks executed by each node.
    pub fn node_shares(&self) -> BTreeMap<NodeId, f64> {
        let total = self.completed_tasks().max(1) as f64;
        self.per_node_tasks
            .iter()
            .map(|(&n, &c)| (n, c as f64 / total))
            .collect()
    }

    /// Mean per-task latency (dispatch to completion) in seconds.
    pub fn mean_task_latency(&self) -> f64 {
        let durs: Vec<f64> = self
            .task_outcomes
            .iter()
            .map(|o| o.duration().as_secs())
            .collect();
        gridstats::mean(&durs).unwrap_or(0.0)
    }
}

/// Internal event: a dispatched chunk finished (or was found lost).
struct ChunkCompletion {
    node: NodeId,
    outcomes: Vec<TaskOutcome>,
    /// Tasks that could not be completed because the node died.
    lost: Vec<TaskSpec>,
}

impl TaskFarm {
    /// A farm with the given configuration; the computation/communication
    /// ratio of the properties is derived from the task list at run time.
    pub fn new(config: GraspConfig) -> Self {
        TaskFarm {
            config,
            properties: SkeletonProperties::task_farm(1.0),
        }
    }

    /// Override the skeleton properties (used by compositions).
    pub(crate) fn with_properties(mut self, properties: SkeletonProperties) -> Self {
        self.properties = properties;
        self
    }

    /// Run the farm over `tasks` on `grid`, using every node of the grid as
    /// the candidate pool.
    pub fn run(&self, grid: &Grid, tasks: &[TaskSpec]) -> Result<FarmOutcome, GraspError> {
        self.run_on(grid, &grid.node_ids(), tasks)
    }

    /// Run the farm over `tasks` on an explicit candidate node pool.
    pub(crate) fn run_on(
        &self,
        grid: &Grid,
        candidates: &[NodeId],
        tasks: &[TaskSpec],
    ) -> Result<FarmOutcome, GraspError> {
        self.config.validate()?;
        if tasks.is_empty() {
            return Err(GraspError::EmptyWorkload);
        }
        if candidates.is_empty() {
            return Err(GraspError::NoUsableNodes);
        }
        let master = self.config.master.unwrap_or(candidates[0]);
        let mut registry = MonitorRegistry::new(master, 256);
        let calibrator = Calibrator::new(self.config.calibration);

        // --------------------------- Calibration ---------------------------
        let calibration = calibrator.calibrate(
            grid,
            &mut registry,
            candidates,
            tasks,
            master,
            SimTime::ZERO,
        )?;
        let mut pending: VecDeque<TaskSpec> = tasks[calibration.tasks_consumed.min(tasks.len())..]
            .iter()
            .copied()
            .collect();
        // The execution phase's job total: StaticBlock precomputes its equal
        // per-worker block from this instead of re-splitting the remainder.
        let execution_total = pending.len();

        let exec_cfg = &self.config.execution;
        // The calibrate→monitor→act loop lives in the backend-neutral
        // engine; this farm feeds observations in and supplies the pool it
        // steers.  Its monitor unit mirrors the calibrator's: per-work-unit
        // times when the job has real work, raw seconds for a pure-transfer
        // job.
        let mut engine = AdaptationEngine::for_executors(
            exec_cfg,
            &calibration.chosen_reference_times(),
            calibration.duration,
        )
        .with_units(tasks.iter().any(|t| t.work > 0.0), 0);

        let mut active: Vec<NodeId> = calibration.chosen.clone();
        let mut weights: BTreeMap<NodeId, f64> = calibration
            .table
            .iter()
            .map(|c| (c.node, c.weight.max(0.0)))
            .collect();

        // ----------------------------- Execution ----------------------------
        let mut outcomes: Vec<TaskOutcome> = calibration.outcomes.clone();
        let mut per_node: BTreeMap<NodeId, usize> = BTreeMap::new();
        for o in &outcomes {
            *per_node.entry(o.node).or_insert(0) += 1;
        }
        let mut timeline = ThroughputTimeline::new(exec_cfg.monitor_interval_s);
        for o in &outcomes {
            timeline.record(o.completed);
        }
        // Dispatching is held back until the initial calibration barrier has
        // passed; recalibrations are barrier-free (see below).
        let recalibrating_until = calibration.duration;
        let mut makespan = calibration.duration;

        let mut events: EventQueue<ChunkCompletion> = EventQueue::new();
        // Per-node "chunk in flight" flags, indexed by node id: the idle
        // refill below checks every active node on every completion event,
        // so the check must be a load, not a map search (on a 1 024-node
        // grid the map search was two thirds of the run).
        let mut busy: Vec<bool> = Vec::new();

        // Prime every chosen node with an initial chunk.
        let start = calibration.duration;
        let initial_nodes = active.clone();
        for node in initial_nodes {
            Self::dispatch_to(
                grid,
                &mut pending,
                &mut events,
                &mut busy,
                &self.config,
                execution_total,
                &weights,
                &active,
                node,
                master,
                start,
            );
        }

        // If nothing could be dispatched (e.g. calibration consumed all
        // tasks) the job is already done.
        while let Some(ev) = events.pop() {
            let now = ev.time;
            let completion = ev.payload;
            set_busy(&mut busy, completion.node, false);

            if !completion.lost.is_empty() {
                // The node died mid-chunk: requeue its work and drop the node.
                for spec in completion.lost.iter().rev() {
                    pending.push_front(*spec);
                }
                active.retain(|&n| n != completion.node);
                engine.note_node_lost(now, completion.node, completion.lost.len());
            }

            for o in &completion.outcomes {
                outcomes.push(*o);
                *per_node.entry(o.node).or_insert(0) += 1;
                timeline.record(o.completed);
                makespan = makespan.max(o.completed);
                engine.observe_unit(o.node, o.work, o.duration().as_secs(), now);
            }

            // ----------------------- Algorithm 2 -----------------------
            // The engine runs the monitor→threshold loop and steers the
            // farm's pool.
            engine.steer(
                now,
                &mut SimPool {
                    active: &mut active,
                    weights: &mut weights,
                    has_pending: !pending.is_empty(),
                    grid,
                    registry: &mut registry,
                    candidates,
                    calibration: &calibration,
                    config: &self.config,
                },
            );

            // Keep every idle active node fed (unless a recalibration barrier
            // is still in progress).
            if now >= recalibrating_until {
                let idle: Vec<NodeId> = active
                    .iter()
                    .copied()
                    .filter(|n| !busy.get(n.index()).copied().unwrap_or(false))
                    .collect();
                for node in idle {
                    if pending.is_empty() {
                        break;
                    }
                    Self::dispatch_to(
                        grid,
                        &mut pending,
                        &mut events,
                        &mut busy,
                        &self.config,
                        execution_total,
                        &weights,
                        &active,
                        node,
                        master,
                        now,
                    );
                }
            } else if events.is_empty() {
                // Everything is waiting on the recalibration barrier: dispatch
                // from the barrier time.
                let at = recalibrating_until;
                let nodes = active.clone();
                for node in nodes {
                    if pending.is_empty() {
                        break;
                    }
                    Self::dispatch_to(
                        grid,
                        &mut pending,
                        &mut events,
                        &mut busy,
                        &self.config,
                        execution_total,
                        &weights,
                        &active,
                        node,
                        master,
                        at,
                    );
                }
            }

            // Starvation guard: work remains but nothing is in flight.
            if events.is_empty() && !pending.is_empty() {
                let mut at = now;
                let mut usable: Vec<NodeId> = candidates
                    .iter()
                    .copied()
                    .filter(|&n| grid.is_up(n, at))
                    .collect();
                if usable.is_empty() {
                    // Every candidate is down right now.  Resume dispatching
                    // at the earliest future instant some candidate is back
                    // up, if any.  Node state only changes at fault events,
                    // so scanning the scheduled events in time order and
                    // probing `is_up` at each is exhaustive — and unlike
                    // "the node's next transition is a Recover" it is not
                    // fooled by overlapping outages, where a down node's
                    // next event can be another Revoke with the real
                    // recovery behind it.
                    let next_up = grid
                        .faults()
                        .events()
                        .iter()
                        .filter(|e| e.time > at && candidates.contains(&e.node))
                        .find(|e| grid.is_up(e.node, e.time))
                        .map(|e| e.time);
                    if let Some(t) = next_up {
                        at = t;
                        usable = candidates
                            .iter()
                            .copied()
                            .filter(|&n| grid.is_up(n, at))
                            .collect();
                    }
                }
                if usable.is_empty() {
                    return Err(GraspError::TaskLost {
                        task: pending.front().map(|t| t.id).unwrap_or(0),
                    });
                }
                // Fall back to every node that is (or has come back) up.
                active = usable;
                let nodes = active.clone();
                for node in nodes {
                    if pending.is_empty() {
                        break;
                    }
                    Self::dispatch_to(
                        grid,
                        &mut pending,
                        &mut events,
                        &mut busy,
                        &self.config,
                        execution_total,
                        &weights,
                        &active,
                        node,
                        master,
                        at,
                    );
                }
                if events.is_empty() {
                    return Err(GraspError::TaskLost {
                        task: pending.front().map(|t| t.id).unwrap_or(0),
                    });
                }
            }
        }

        let monitor_evaluations = engine.evaluations();
        Ok(FarmOutcome {
            makespan,
            task_outcomes: outcomes,
            calibration,
            adaptation: engine.into_log(),
            timeline,
            per_node_tasks: per_node,
            monitor_evaluations,
        })
    }

    /// Hand one chunk of pending tasks to `node`, scheduling its completion
    /// event.  Does nothing when there is no pending work, or when the node
    /// is currently revoked — the master observes revocation, so handing a
    /// chunk to a known-down node (which would sit idle for the whole
    /// outage) is a dispatch bug, not a fault-tolerance feature.  A node
    /// that recovers later is fed again by the idle-refill loop.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_to(
        grid: &Grid,
        pending: &mut VecDeque<TaskSpec>,
        events: &mut EventQueue<ChunkCompletion>,
        busy: &mut Vec<bool>,
        config: &GraspConfig,
        total: usize,
        weights: &BTreeMap<NodeId, f64>,
        active: &[NodeId],
        node: NodeId,
        master: NodeId,
        now: SimTime,
    ) {
        if pending.is_empty() || !grid.is_up(node, now) {
            return;
        }
        let weight = weights.get(&node).copied().unwrap_or(1.0);
        let chunk_size = config.scheduler.next_chunk_with_total(
            pending.len(),
            total,
            active.len().max(1),
            if weight > 0.0 { weight } else { 1.0 },
        );
        if chunk_size == 0 {
            return;
        }
        let chunk: Vec<TaskSpec> = (0..chunk_size)
            .filter_map(|_| pending.pop_front())
            .collect();

        let mut t = now;
        let mut completed = Vec::with_capacity(chunk.len());
        let mut lost = Vec::new();
        for (i, spec) in chunk.iter().enumerate() {
            let dispatched = t;
            let after_in = match grid.transfer(master, node, spec.input_bytes, t) {
                Some(est) => t + est.duration,
                None => t,
            };
            match grid.execute_within(node, spec.work, after_in, CHUNK_HORIZON_S) {
                Some(after_compute) => {
                    let done = match grid.transfer(node, master, spec.output_bytes, after_compute) {
                        Some(est) => after_compute + est.duration,
                        None => after_compute,
                    };
                    completed.push(TaskOutcome {
                        task: spec.id,
                        node,
                        work: spec.work,
                        dispatched,
                        completed: done,
                        during_calibration: false,
                    });
                    t = done;
                }
                None => {
                    // Node died: this task and the rest of the chunk are lost.
                    lost.extend(chunk[i..].iter().copied());
                    break;
                }
            }
        }
        set_busy(busy, node, true);
        // The completion event fires when the node finished its whole chunk.
        // A lost chunk is reported when the master *observes* the revocation
        // — the node's next Revoke transition — never at the dispatch time
        // itself: re-reporting a loss at `now` would let the farm redispatch
        // to the same still-up-at-`now` node in the same virtual instant and
        // livelock.  The epsilon floor keeps time advancing even when the
        // fault schedule yields no usable transition.
        let fire_at = if lost.is_empty() {
            t
        } else {
            grid.faults()
                .next_transition(node, now)
                .filter(|e| matches!(e.kind, gridsim::FaultKind::Revoke))
                .map(|e| e.time)
                .unwrap_or(t)
                .max(now + SimTime::new(1e-6))
        };
        events.schedule_at(
            fire_at,
            ChunkCompletion {
                node,
                outcomes: completed,
                lost,
            },
        );
    }

    /// Time a single (fault-free, idle) reference node would need for the
    /// whole task list — the sequential baseline used for speedup numbers.
    pub fn sequential_reference(grid: &Grid, node: NodeId, tasks: &[TaskSpec]) -> Option<f64> {
        let spec = grid.node(node)?;
        Some(total_work(tasks) / spec.base_speed)
    }
}

/// Set `node`'s busy flag, growing the flag vector to cover it.
fn set_busy(busy: &mut Vec<bool>, node: NodeId, value: bool) {
    let i = node.index();
    if busy.len() <= i {
        busy.resize(i + 1, false);
    }
    busy[i] = value;
}

/// The sim farm's executor set: its dispatchable nodes, plus what the
/// model-based re-rank of a whole-pool breach reads and rewrites.
struct SimPool<'a> {
    active: &'a mut Vec<NodeId>,
    weights: &'a mut BTreeMap<NodeId, f64>,
    has_pending: bool,
    grid: &'a Grid,
    registry: &'a mut MonitorRegistry,
    candidates: &'a [NodeId],
    calibration: &'a CalibrationReport,
    config: &'a GraspConfig,
}

impl ExecutorSet for SimPool<'_> {
    fn active(&self) -> Vec<NodeId> {
        self.active.clone()
    }

    fn demote(&mut self, node: NodeId) -> bool {
        let before = self.active.len();
        self.active.retain(|&n| n != node);
        self.active.len() < before
    }

    /// Whole-pool degradation: feed back into calibration.
    ///
    /// The initial calibration runs Algorithm 1 verbatim (sample tasks on
    /// every node).  Recalibration re-uses the monitoring data instead of
    /// re-sampling: the pool is re-ranked from the nodes' base speeds scaled
    /// by their currently observed availability, the chunking weights and
    /// the chosen set are recomputed, and the threshold Z is re-based on the
    /// execution times the monitor just collected — so the feedback itself
    /// costs the job no extra work and imposes no barrier.  With no pending
    /// work left there is nothing to steer: the job drains.
    fn recalibrate(&mut self, now: SimTime) -> Recalibration {
        if !self.has_pending {
            return Recalibration::Decline;
        }
        let (grid, calibration) = (self.grid, self.calibration);
        // (node, effective speed, bandwidth availability)
        let mut ranked: Vec<(NodeId, f64, f64)> = self
            .candidates
            .iter()
            .copied()
            .filter(|&n| grid.is_up(n, now))
            .map(|n| {
                let obs = self.registry.observe(grid, n, now);
                let base = grid.node(n).map(|s| s.base_speed).unwrap_or(1.0);
                (
                    n,
                    base * (1.0 - obs.cpu_load).max(0.02),
                    obs.bandwidth_availability.clamp(0.02, 1.0),
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if ranked.is_empty() {
            return Recalibration::Decline;
        }
        let frac = self.config.calibration.selection_fraction.clamp(1e-6, 1.0);
        let want = ((ranked.len() as f64) * frac).ceil() as usize;
        let count = want
            .max(self.config.calibration.min_nodes.max(1))
            .max(self.config.execution.min_active_nodes)
            .min(ranked.len());
        *self.active = ranked[..count].iter().map(|(n, _, _)| *n).collect();
        let chosen_mean = ranked[..count].iter().map(|(_, s, _)| *s).sum::<f64>() / count as f64;
        *self.weights = ranked
            .iter()
            .map(|(n, s, _)| {
                let w = if self.active.contains(n) && chosen_mean > 0.0 {
                    s / chosen_mean
                } else {
                    0.0
                };
                (*n, w)
            })
            .collect();
        // Re-base Z on what the retained nodes are *expected* to achieve under
        // the observed conditions.  The verdict's window means straddle the
        // degradation onset and would under-estimate the new steady state,
        // re-triggering a spurious second recalibration.  Expected time =
        // degraded compute (1/effective-speed, the calibration table's
        // seconds-per-work-unit unit) plus the node's calibrated communication
        // overhead scaled by its currently observed bandwidth availability —
        // dropping either term would under-shoot Z on communication-heavy
        // workloads or congested links and loop instead.
        let retained_expected: Vec<f64> = ranked[..count]
            .iter()
            .map(|(n, s, bw)| {
                // Comm at nominal bandwidth = calibrated total − calibrated
                // compute, rescaled to nominal bandwidth.  What "calibrated"
                // means depends on the mode: TimeOnly rows hold raw totals at
                // the degraded speed and observed bandwidth, while the
                // statistical modes have already removed the load (and, for
                // Multivariate, the bandwidth) effect from adjusted_time.
                let nominal_comm = calibration
                    .table
                    .iter()
                    .find(|c| c.node == *n)
                    .map(|c| {
                        let base = grid
                            .node(*n)
                            .map(|sp| sp.base_speed)
                            .unwrap_or(1.0)
                            .max(1e-9);
                        let (compute_ref, bw_scale) = match calibration.mode {
                            CalibrationMode::TimeOnly => (
                                1.0 / (base * (1.0 - c.cpu_load).max(0.02)),
                                c.bandwidth_availability.clamp(0.02, 1.0),
                            ),
                            CalibrationMode::Univariate => {
                                (1.0 / base, c.bandwidth_availability.clamp(0.02, 1.0))
                            }
                            CalibrationMode::Multivariate => (1.0 / base, 1.0),
                        };
                        (c.adjusted_time - compute_ref).max(0.0) * bw_scale
                    })
                    .filter(|c| c.is_finite())
                    .unwrap_or(0.0);
                1.0 / s.max(1e-9) + nominal_comm / bw
            })
            .collect();
        Recalibration::Rebase(retained_expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulePolicy;
    use crate::threshold::ThresholdPolicy;
    use gridsim::{ConstantLoad, FaultPlan, GridBuilder, LinkSpec, SpikeLoad, TopologyBuilder};

    fn uniform_tasks(n: usize) -> Vec<TaskSpec> {
        TaskSpec::uniform(n, 50.0, 32 * 1024, 32 * 1024)
    }

    fn het_grid(nodes: usize) -> Grid {
        Grid::dedicated(TopologyBuilder::heterogeneous_cluster(nodes, 20.0, 80.0, 7))
    }

    #[test]
    fn all_tasks_complete_exactly_once_on_idle_grid() {
        let grid = het_grid(8);
        let tasks = uniform_tasks(120);
        let farm = TaskFarm::new(GraspConfig::default());
        let out = farm.run(&grid, &tasks).unwrap();
        assert_eq!(out.completed_tasks(), 120);
        let mut ids: Vec<usize> = out.task_outcomes.iter().map(|o| o.task).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 120, "every task exactly once");
        assert!(out.makespan.as_secs() > 0.0);
        assert!(out.mean_task_latency() > 0.0);
        let share_sum: f64 = out.node_shares().values().sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_workload_is_rejected() {
        let grid = het_grid(4);
        let farm = TaskFarm::new(GraspConfig::default());
        assert!(matches!(
            farm.run(&grid, &[]),
            Err(GraspError::EmptyWorkload)
        ));
    }

    #[test]
    fn empty_candidate_pool_is_rejected() {
        let grid = het_grid(4);
        let farm = TaskFarm::new(GraspConfig::default());
        assert!(matches!(
            farm.run_on(&grid, &[], &uniform_tasks(10)),
            Err(GraspError::NoUsableNodes)
        ));
    }

    #[test]
    fn farm_beats_single_node() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(8, 40.0));
        let tasks = uniform_tasks(160);
        let farm = TaskFarm::new(GraspConfig::default());
        let out = farm.run(&grid, &tasks).unwrap();
        let seq = TaskFarm::sequential_reference(&grid, NodeId(0), &tasks).unwrap();
        assert!(
            out.makespan.as_secs() < seq / 3.0,
            "8 workers should be much faster than 1: {} vs {}",
            out.makespan.as_secs(),
            seq
        );
    }

    #[test]
    fn adaptive_farm_beats_static_block_under_external_load() {
        // Half the nodes are heavily loaded; the adaptive farm should route
        // work away from them while the static farm suffers the stragglers.
        let topo = TopologyBuilder::uniform_cluster(8, 40.0);
        let node_ids = topo.node_ids();
        let mut builder = GridBuilder::new(topo);
        for &n in &node_ids {
            let load = if n.index() >= 4 { 0.85 } else { 0.05 };
            builder = builder.node_load(n, ConstantLoad::new(load));
        }
        let grid = builder.build();
        let tasks = uniform_tasks(200);

        let adaptive = TaskFarm::new(GraspConfig::default())
            .run(&grid, &tasks)
            .unwrap();
        let static_farm = TaskFarm::new(GraspConfig::static_baseline())
            .run(&grid, &tasks)
            .unwrap();
        assert_eq!(adaptive.completed_tasks(), 200);
        assert_eq!(static_farm.completed_tasks(), 200);
        assert!(
            adaptive.makespan < static_farm.makespan,
            "adaptive {}s vs static {}s",
            adaptive.makespan.as_secs(),
            static_farm.makespan.as_secs()
        );
    }

    #[test]
    fn load_spike_triggers_adaptation() {
        // All nodes quiet except: at t=30 every node in the second half of
        // the pool becomes 95 % loaded.  The monitor must notice and adapt.
        let topo = TopologyBuilder::uniform_cluster(6, 30.0);
        let node_ids = topo.node_ids();
        let mut builder = GridBuilder::new(topo).quantum(0.25);
        for &n in &node_ids {
            if n.index() >= 2 {
                builder = builder.node_load(
                    n,
                    SpikeLoad::new(0.0, 0.95, SimTime::new(30.0), SimTime::new(10_000.0)),
                );
            }
        }
        let grid = builder.build();
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = 1.0;
        cfg.execution.monitor_interval_s = 10.0;
        cfg.execution.threshold = ThresholdPolicy::Factor { factor: 1.5 };
        let tasks = TaskSpec::uniform(400, 60.0, 16 * 1024, 16 * 1024);
        let out = TaskFarm::new(cfg).run(&grid, &tasks).unwrap();
        assert_eq!(out.completed_tasks(), 400);
        assert!(
            !out.adaptation.is_empty(),
            "the spike should have triggered at least one adaptation"
        );
        assert!(out.monitor_evaluations > 0);
    }

    #[test]
    fn synthetic_slow_pool_triggers_recalibration_exactly_once() {
        // Guard on Algorithm 2's hot path: a deterministic run in which the
        // *whole* pool degrades (every node is hit by the same synthetic load
        // spike injected through gridsim) must trip the threshold-Z feedback
        // (`min T > Z`) — and only once, because the recalibration re-bases Z
        // on the degraded times, after which the pool is "healthy" again
        // relative to the new baseline.
        let topo = TopologyBuilder::uniform_cluster(4, 40.0);
        let node_ids = topo.node_ids();
        let mut builder = GridBuilder::new(topo).quantum(0.25);
        for &n in &node_ids {
            // Quiet during calibration, then 90 % external load forever: every
            // task takes 10× its calibrated time, far beyond Z = 2× best.
            builder = builder.node_load(
                n,
                SpikeLoad::new(0.0, 0.9, SimTime::new(20.0), SimTime::new(1e9)),
            );
        }
        let grid = builder.build();
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = 1.0;
        cfg.execution.monitor_interval_s = 10.0;
        cfg.execution.max_recalibrations = 10; // not the limiting factor
        let tasks = TaskSpec::uniform(300, 60.0, 8 * 1024, 8 * 1024);
        let out = TaskFarm::new(cfg).run(&grid, &tasks).unwrap();
        assert_eq!(out.completed_tasks(), 300);
        assert_eq!(
            out.adaptation.recalibrations(),
            1,
            "uniform degradation must recalibrate exactly once: {}",
            out.adaptation.summary()
        );
        // The whole pool slowed down uniformly, so no individual node may be
        // singled out for demotion.
        assert_eq!(
            out.adaptation.demotions(),
            0,
            "{}",
            out.adaptation.summary()
        );
    }

    #[test]
    fn communication_heavy_degradation_does_not_thrash_recalibration() {
        // Tasks dominated by data movement (32 MiB each way over a
        // ~110 MiB/s LAN vs ~25 ms of compute) on workers separate from the
        // master, with the *link* — not the CPUs — degrading mid-run.  The
        // legitimate first recalibration must re-base Z including the
        // communication component at the observed bandwidth; a compute-only
        // (or nominal-bandwidth) Z would sit far below every observed time
        // and re-trigger at every interval until max_recalibrations.
        let topo = TopologyBuilder::uniform_cluster(4, 40.0);
        let site = topo.sites()[0].id;
        let grid = GridBuilder::new(topo)
            .quantum(0.25)
            .link_load(
                site,
                site,
                SpikeLoad::new(0.0, 0.8, SimTime::new(8.0), SimTime::new(1e9)),
            )
            .build();
        for mode in [
            CalibrationMode::TimeOnly,
            CalibrationMode::Univariate,
            CalibrationMode::Multivariate,
        ] {
            let mut cfg = GraspConfig::default();
            cfg.calibration.mode = mode;
            cfg.calibration.selection_fraction = 1.0;
            cfg.execution.monitor_interval_s = 10.0;
            cfg.execution.max_recalibrations = 10;
            // Node 0 is the master only; nodes 1–3 are the workers, so every
            // task pays the (degrading) transfer cost.
            cfg.master = Some(NodeId(0));
            let workers = [NodeId(1), NodeId(2), NodeId(3)];
            let tasks = TaskSpec::uniform(90, 1.0, 32 << 20, 32 << 20);
            let out = TaskFarm::new(cfg).run_on(&grid, &workers, &tasks).unwrap();
            assert_eq!(out.completed_tasks(), 90);
            assert_eq!(
                out.adaptation.recalibrations(),
                1,
                "{mode:?}: link degradation must recalibrate once, not thrash: {}",
                out.adaptation.summary()
            );
        }
    }

    #[test]
    fn pure_transfer_workload_completes_and_still_adapts() {
        // An all-zero-work job falls back to raw-second units consistently
        // (calibration and monitor alike), so Algorithm 2 must still notice
        // a mid-run link collapse rather than being silently disabled.
        let topo = TopologyBuilder::uniform_cluster(4, 40.0);
        let site = topo.sites()[0].id;
        let grid = GridBuilder::new(topo)
            .quantum(0.25)
            .link_load(
                site,
                site,
                SpikeLoad::new(0.0, 0.8, SimTime::new(3.0), SimTime::new(1e9)),
            )
            .build();
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = 1.0;
        cfg.execution.monitor_interval_s = 5.0;
        cfg.master = Some(NodeId(0));
        let workers = [NodeId(1), NodeId(2), NodeId(3)];
        let tasks = TaskSpec::uniform(300, 0.0, 8 << 20, 8 << 20);
        let out = TaskFarm::new(cfg).run_on(&grid, &workers, &tasks).unwrap();
        assert_eq!(out.completed_tasks(), 300);
        assert!(
            out.adaptation.recalibrations() >= 1,
            "link collapse must still trigger Algorithm 2 on a pure-transfer job: {}",
            out.adaptation.summary()
        );
    }

    #[test]
    fn revoked_node_work_is_requeued_and_job_completes() {
        let topo = TopologyBuilder::uniform_cluster(4, 30.0);
        // Node 2 is revoked early and never comes back.
        let faults = FaultPlan::none().with_outage(NodeId(2), SimTime::new(5.0), SimTime::new(1e9));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = 1.0;
        let tasks = TaskSpec::uniform(120, 80.0, 8 * 1024, 8 * 1024);
        let out = TaskFarm::new(cfg).run(&grid, &tasks).unwrap();
        assert_eq!(out.completed_tasks(), 120, "lost chunk must be re-executed");
        assert!(out.adaptation.node_losses() >= 1);
        assert!(out
            .task_outcomes
            .iter()
            .all(|o| o.node != NodeId(2) || o.completed <= SimTime::new(5.0)));
        let mut ids: Vec<usize> = out.task_outcomes.iter().map(|o| o.task).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 120);
    }

    #[test]
    fn total_outage_with_scheduled_recovery_is_waited_out_not_fatal() {
        // Both nodes are revoked at t=5 for longer than the chunk horizon:
        // in-flight chunks are declared lost and requeued, no known-down
        // node is handed new work, and when the first node recovers the
        // starvation guard resumes dispatching instead of erroring.
        let topo = TopologyBuilder::uniform_cluster(2, 30.0);
        let faults = FaultPlan::none()
            .with_outage(NodeId(0), SimTime::new(5.0), SimTime::new(2e6))
            .with_outage(NodeId(1), SimTime::new(5.0), SimTime::new(3e6));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let tasks = TaskSpec::uniform(40, 60.0, 1024, 1024);
        let out = TaskFarm::new(GraspConfig::default())
            .run(&grid, &tasks)
            .expect("a scheduled recovery must rescue the job");
        assert_eq!(out.completed_tasks(), 40);
        assert!(out.adaptation.node_losses() >= 1);
        assert!(out.adaptation.requeued_tasks() >= 1);
        assert!(
            out.makespan.as_secs() >= 2e6,
            "the job can only finish after the first recovery: {}",
            out.makespan.as_secs()
        );
    }

    #[test]
    fn overlapping_outages_do_not_hide_the_recovery() {
        // Node 1's outages overlap, so while it is down its *next* fault
        // event is a second Revoke — the real recovery sits behind it.  The
        // starvation guard must still find the recovery instant instead of
        // declaring the job lost.
        let topo = TopologyBuilder::uniform_cluster(2, 30.0);
        let faults = FaultPlan::none()
            // Node 0 dies for longer than the chunk horizon (chunks are lost,
            // not waited out) and never matters again.
            .with_outage(NodeId(0), SimTime::new(5.0), SimTime::new(9e6))
            // Node 1: overlapping outages [5, 2e6) and [10, 3e6).  Under the
            // last-event-wins state model the node is back up at the first
            // Recover (t=2e6), but while it is down its next event is the
            // second Revoke.
            .with_outage(NodeId(1), SimTime::new(5.0), SimTime::new(2e6))
            .with_outage(NodeId(1), SimTime::new(10.0), SimTime::new(3e6));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let tasks = TaskSpec::uniform(30, 60.0, 1024, 1024);
        let out = TaskFarm::new(GraspConfig::default())
            .run(&grid, &tasks)
            .expect("the overlapped recovery at t=2e6 must rescue the job");
        assert_eq!(out.completed_tasks(), 30);
        assert!(out.makespan.as_secs() >= 2e6);
    }

    #[test]
    fn whole_grid_down_is_an_error() {
        let topo = TopologyBuilder::uniform_cluster(2, 30.0);
        let faults = FaultPlan::none()
            .with_outage(NodeId(0), SimTime::ZERO, SimTime::new(1e12))
            .with_outage(NodeId(1), SimTime::ZERO, SimTime::new(1e12));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let farm = TaskFarm::new(GraspConfig::default());
        assert!(farm.run(&grid, &uniform_tasks(10)).is_err());
    }

    #[test]
    fn calibration_work_counts_toward_the_job() {
        let grid = het_grid(4);
        let mut cfg = GraspConfig::default();
        cfg.calibration.samples_per_node = 2;
        let tasks = uniform_tasks(40);
        let out = TaskFarm::new(cfg).run(&grid, &tasks).unwrap();
        let calib_tasks = out
            .task_outcomes
            .iter()
            .filter(|o| o.during_calibration)
            .count();
        assert_eq!(calib_tasks, 8, "4 nodes × 2 samples");
        assert_eq!(out.completed_tasks(), 40);
    }

    #[test]
    fn selection_fraction_limits_the_worker_set_on_a_quiet_grid() {
        let grid = het_grid(8);
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = 0.5;
        cfg.execution.adaptive = false; // keep the chosen set fixed
        let out = TaskFarm::new(cfg).run(&grid, &uniform_tasks(80)).unwrap();
        // Only calibration touches all 8 nodes; execution should use 4.
        let exec_nodes: std::collections::BTreeSet<NodeId> = out
            .task_outcomes
            .iter()
            .filter(|o| !o.during_calibration)
            .map(|o| o.node)
            .collect();
        assert!(exec_nodes.len() <= 4, "got {exec_nodes:?}");
    }

    #[test]
    fn self_scheduling_baseline_completes_everything() {
        let grid = het_grid(6);
        let out = TaskFarm::new(GraspConfig::self_scheduling_baseline())
            .run(&grid, &uniform_tasks(60))
            .unwrap();
        assert_eq!(out.completed_tasks(), 60);
        assert!(out.adaptation.is_empty(), "baseline must not adapt");
    }

    #[test]
    fn weighted_chunking_gives_fast_nodes_more_tasks() {
        // Two obviously different speeds, no adaptation needed.
        let mut b = TopologyBuilder::new();
        let s = b.add_site("c", LinkSpec::lan());
        b.add_node(s, "slow", 10.0);
        b.add_node(s, "slow2", 10.0);
        b.add_node(s, "fast", 80.0);
        b.add_node(s, "fast2", 80.0);
        let grid = Grid::dedicated(b.build());
        let mut cfg = GraspConfig::default();
        cfg.calibration.selection_fraction = 1.0;
        cfg.scheduler = SchedulePolicy::AdaptiveWeighted { min_chunk: 1 };
        let out = TaskFarm::new(cfg).run(&grid, &uniform_tasks(200)).unwrap();
        let slow_tasks = out.per_node_tasks.get(&NodeId(0)).copied().unwrap_or(0)
            + out.per_node_tasks.get(&NodeId(1)).copied().unwrap_or(0);
        let fast_tasks = out.per_node_tasks.get(&NodeId(2)).copied().unwrap_or(0)
            + out.per_node_tasks.get(&NodeId(3)).copied().unwrap_or(0);
        assert!(
            fast_tasks > slow_tasks * 2,
            "fast nodes should do most of the work: fast={fast_tasks} slow={slow_tasks}"
        );
    }

    #[test]
    fn statistical_calibration_mode_runs_end_to_end() {
        let topo = TopologyBuilder::uniform_cluster(6, 40.0);
        let node_ids = topo.node_ids();
        let mut builder = GridBuilder::new(topo);
        for &n in &node_ids {
            builder = builder.node_load(n, ConstantLoad::new(0.1 * (n.index() % 3) as f64));
        }
        let grid = builder.build();
        let mut cfg = GraspConfig::adaptive_multivariate();
        cfg.calibration.samples_per_node = 2;
        let out = TaskFarm::new(cfg).run(&grid, &uniform_tasks(90)).unwrap();
        assert_eq!(out.completed_tasks(), 90);
        assert_eq!(out.calibration.mode, CalibrationMode::Multivariate);
    }

    #[test]
    fn makespan_is_never_before_the_last_completion() {
        let grid = het_grid(5);
        let out = TaskFarm::new(GraspConfig::default())
            .run(&grid, &uniform_tasks(50))
            .unwrap();
        let last = out
            .task_outcomes
            .iter()
            .map(|o| o.completed)
            .fold(SimTime::ZERO, SimTime::max);
        assert_eq!(out.makespan, last);
        assert_eq!(out.timeline.total() as usize, out.completed_tasks());
    }
}
