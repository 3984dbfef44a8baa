//! Composable skeleton expressions and pluggable execution backends.
//!
//! The paper's skeletons are explicitly *composable* — "the model supports
//! nesting, e.g. a farm whose workers are pipelines" — and composition is
//! what makes structured adaptation pay off: a nested skeleton carries the
//! intrinsic properties of the whole structure, so it calibrates and adapts
//! as one unit.  This module makes the composition a first-class value:
//!
//! * [`Skeleton`] is an expression tree built with [`Skeleton::farm`],
//!   [`Skeleton::pipeline`], [`Skeleton::farm_of`] (a farm whose tasks are
//!   sub-skeletons, e.g. a farm-of-pipelines) and [`Skeleton::pipeline_of`]
//!   (a pipeline whose stages may be internally farmed, i.e. replicated).
//! * [`SkeletonProperties`] are derived **bottom-up** from the tree (the
//!   property algebra: comp/comm ratios and rebalancing rules propagate from
//!   the children; see `SkeletonProperties::compose_farm` /
//!   `compose_pipeline`).
//! * [`Backend`] is the `compile → calibrate/execute` life-cycle of Figure 1
//!   behind a trait, so the same expression runs on the simulated grid
//!   ([`SimBackend`]) or on real threads (`ThreadBackend` in `grasp-exec`)
//!   through the single entry point `Grasp::run`.
//! * [`SkeletonOutcome`] is the backend-neutral result: unit counts,
//!   makespan, and a child outcome per sub-skeleton, with the backend's rich
//!   native report attached as [`OutcomeDetail`].
//!
//! Calibration (Algorithm 1) is deliberately *not* a separate trait method:
//! the paper folds it into the job ("the processing performed during the
//! calibration contributes to the overall job"), so it is the opening act of
//! [`Backend::execute`] and is reported through
//! [`SkeletonOutcome::calibration_s`].

use crate::adaptation::AdaptationLog;
use crate::config::GraspConfig;
use crate::error::GraspError;
use crate::farm::{FarmOutcome, TaskFarm};
use crate::pipeline::{Pipeline, PipelineOutcome, StageSpec};
use crate::properties::{SkeletonKind, SkeletonProperties};
use crate::task::TaskSpec;
use gridsim::{Grid, NodeId};

/// One stage of a [`Skeleton::pipeline_of`] composition: a [`StageSpec`]
/// optionally farmed across `replicas` workers (the nested-farm stage of a
/// pipeline-of-farms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmedStage {
    /// The stage description (work per item, forwarded bytes, state).
    pub spec: StageSpec,
    /// How many farm workers serve this stage concurrently (≥ 1; 1 means a
    /// plain, unreplicated stage).
    pub replicas: usize,
}

impl FarmedStage {
    /// A plain (unreplicated) stage.
    pub fn plain(spec: StageSpec) -> Self {
        FarmedStage { spec, replicas: 1 }
    }

    /// A stage farmed across `replicas` workers (clamped to ≥ 1).
    pub fn farmed(spec: StageSpec, replicas: usize) -> Self {
        FarmedStage {
            spec,
            replicas: replicas.max(1),
        }
    }
}

/// A composable skeleton expression.
///
/// Leaves are the paper's two skeletons (task farm, pipeline); interior
/// nodes compose them (farm-of-pipelines, pipeline-of-farms, and deeper
/// nestings thereof).  The expression is backend-agnostic: hand it to
/// `Grasp::run` together with any [`Backend`].
#[derive(Debug, Clone, PartialEq)]
pub enum Skeleton {
    /// Independent tasks distributed master → workers.
    Farm {
        /// The task list.
        tasks: Vec<TaskSpec>,
    },
    /// A stream of `items` elements flowing through an ordered stage chain.
    Pipeline {
        /// The stage chain.
        stages: Vec<StageSpec>,
        /// Stream length.
        items: usize,
    },
    /// A farm whose tasks are themselves skeletons (each child is one
    /// independent sub-job, e.g. a whole pipeline instance).
    FarmOf {
        /// The independent sub-skeletons.
        children: Vec<Skeleton>,
    },
    /// A pipeline whose stages may be internally farmed (replicated).
    PipelineOf {
        /// The stage chain with per-stage replication.
        stages: Vec<FarmedStage>,
        /// Stream length.
        items: usize,
    },
}

/// The span of globally numbered work units covered by one child of a
/// composition, produced by [`Skeleton::lower_to_farm`].  Backends use the
/// spans to split a flat outcome back into the per-child outcomes of the
/// expression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSpan {
    /// The child's skeleton kind.
    pub(crate) kind: SkeletonKind,
    /// First global unit id of the child.
    pub(crate) start: usize,
    /// Number of units the child contributes.
    pub(crate) count: usize,
    /// Spans of the child's own children (empty for leaves).
    pub(crate) children: Vec<UnitSpan>,
}

impl UnitSpan {
    /// The per-child [`SkeletonOutcome`] of this span, derived from observed
    /// per-unit completion times (global unit id → seconds since job start).
    ///
    /// Every backend splits its flat engine result back into the expression
    /// tree through this one helper, so the semantics cannot diverge:
    /// `completed` counts only units with a recorded completion, and the
    /// child's makespan is the latest completion among *its own* units.
    pub fn outcome_from(
        &self,
        completions: &std::collections::BTreeMap<usize, f64>,
    ) -> SkeletonOutcome {
        let range = self.start..self.start + self.count;
        let unit_ids: Vec<usize> = completions
            .range(range.clone())
            .map(|(&id, _)| id)
            .collect();
        let makespan_s = completions
            .range(range)
            .map(|(_, &t)| t)
            .fold(0.0, f64::max);
        SkeletonOutcome {
            kind: self.kind,
            completed: unit_ids.len(),
            unit_ids,
            makespan_s,
            calibration_s: 0.0,
            adaptation_log: AdaptationLog::new(),
            resilience: ResilienceReport::default(),
            children: self
                .children
                .iter()
                .map(|c| c.outcome_from(completions))
                .collect(),
            detail: OutcomeDetail::None,
        }
    }
}

impl Skeleton {
    /// A task farm over `tasks`.
    pub fn farm(tasks: Vec<TaskSpec>) -> Self {
        Skeleton::Farm { tasks }
    }

    /// A pipeline streaming `items` elements through `stages`.
    pub fn pipeline(stages: Vec<StageSpec>, items: usize) -> Self {
        Skeleton::Pipeline { stages, items }
    }

    /// A farm whose tasks are sub-skeletons (e.g. a farm-of-pipelines).
    pub fn farm_of(children: Vec<Skeleton>) -> Self {
        Skeleton::FarmOf { children }
    }

    /// A pipeline whose stages may be farmed ([`FarmedStage::farmed`]).
    pub fn pipeline_of(stages: Vec<FarmedStage>, items: usize) -> Self {
        Skeleton::PipelineOf { stages, items }
    }

    /// The structural kind of the composition.  A `FarmOf` over plain farms
    /// collapses to a task farm; a `PipelineOf` with no replicated stage is a
    /// plain pipeline.
    pub fn kind(&self) -> SkeletonKind {
        match self {
            Skeleton::Farm { .. } => SkeletonKind::TaskFarm,
            Skeleton::Pipeline { .. } => SkeletonKind::Pipeline,
            Skeleton::FarmOf { children } => {
                if children.iter().all(|c| c.kind() == SkeletonKind::TaskFarm) {
                    SkeletonKind::TaskFarm
                } else {
                    SkeletonKind::FarmOfPipelines
                }
            }
            Skeleton::PipelineOf { stages, .. } => {
                if stages.iter().all(|s| s.replicas <= 1) {
                    SkeletonKind::Pipeline
                } else {
                    SkeletonKind::PipelineOfFarms
                }
            }
        }
    }

    /// Static validation (the compilation phase's first step): every leaf
    /// must carry work and every composition at least one child.
    pub fn validate(&self) -> Result<(), GraspError> {
        match self {
            Skeleton::Farm { tasks } => {
                if tasks.is_empty() {
                    return Err(GraspError::EmptyWorkload);
                }
            }
            Skeleton::Pipeline { stages, items } => {
                if stages.is_empty() {
                    return Err(GraspError::EmptyPipeline);
                }
                if *items == 0 {
                    return Err(GraspError::EmptyWorkload);
                }
            }
            Skeleton::FarmOf { children } => {
                if children.is_empty() {
                    return Err(GraspError::EmptyWorkload);
                }
                for c in children {
                    c.validate()?;
                }
            }
            Skeleton::PipelineOf { stages, items } => {
                if stages.is_empty() {
                    return Err(GraspError::EmptyPipeline);
                }
                if *items == 0 {
                    return Err(GraspError::EmptyWorkload);
                }
            }
        }
        Ok(())
    }

    /// Number of leaf work units (farm tasks plus stream items) in the whole
    /// expression — the quantity every backend must conserve.
    pub fn work_units(&self) -> usize {
        match self {
            Skeleton::Farm { tasks } => tasks.len(),
            Skeleton::Pipeline { items, .. } | Skeleton::PipelineOf { items, .. } => *items,
            Skeleton::FarmOf { children } => children.iter().map(Skeleton::work_units).sum(),
        }
    }

    /// Total computational weight (work units × their cost) of the whole
    /// expression.  Replication does not reduce total work — it spreads it.
    pub fn total_work(&self) -> f64 {
        match self {
            Skeleton::Farm { tasks } => tasks.iter().map(|t| t.work).sum(),
            Skeleton::Pipeline { stages, items } => {
                *items as f64 * stages.iter().map(|s| s.work_per_item).sum::<f64>()
            }
            Skeleton::PipelineOf { stages, items } => {
                *items as f64 * stages.iter().map(|s| s.spec.work_per_item).sum::<f64>()
            }
            Skeleton::FarmOf { children } => children.iter().map(Skeleton::total_work).sum(),
        }
    }

    /// Total bytes moved by the whole expression.
    pub(crate) fn total_bytes(&self) -> u64 {
        match self {
            Skeleton::Farm { tasks } => tasks.iter().map(TaskSpec::total_bytes).sum(),
            Skeleton::Pipeline { stages, items } => {
                *items as u64 * stages.iter().map(|s| s.forward_bytes).sum::<u64>()
            }
            Skeleton::PipelineOf { stages, items } => {
                *items as u64 * stages.iter().map(|s| s.spec.forward_bytes).sum::<u64>()
            }
            Skeleton::FarmOf { children } => children.iter().map(Skeleton::total_bytes).sum(),
        }
    }

    /// Derive the composition's intrinsic properties bottom-up.
    ///
    /// `ratio_of(work, bytes)` converts a leaf's computational weight and
    /// data volume into a computation/communication ratio for the target
    /// environment (backends supply their own; [`Skeleton::properties`] uses
    /// a reference environment).  Interior nodes combine their children with
    /// the property algebra of
    /// [`SkeletonProperties::compose_farm`] / [`compose_pipeline`]
    /// (work-weighted ratio, outer structure dictating rebalancing).
    ///
    /// [`compose_pipeline`]: SkeletonProperties::compose_pipeline
    pub(crate) fn properties_with(&self, ratio_of: &dyn Fn(f64, u64) -> f64) -> SkeletonProperties {
        match self {
            Skeleton::Farm { tasks } => {
                let n = tasks.len().max(1) as f64;
                let mean_work = self.total_work() / n;
                let mean_bytes = (self.total_bytes() as f64 / n) as u64;
                SkeletonProperties::task_farm(ratio_of(mean_work, mean_bytes))
            }
            Skeleton::Pipeline { stages, .. } => {
                let work: f64 = stages.iter().map(|s| s.work_per_item).sum();
                let bytes: u64 = stages.iter().map(|s| s.forward_bytes).sum();
                let stateful = stages.iter().any(|s| s.state_bytes > 0);
                SkeletonProperties::pipeline(ratio_of(work, bytes), stateful)
            }
            Skeleton::FarmOf { children } => {
                let parts: Vec<(SkeletonProperties, f64)> = children
                    .iter()
                    .map(|c| (c.properties_with(ratio_of), c.total_work()))
                    .collect();
                SkeletonProperties::compose_farm(&parts)
            }
            Skeleton::PipelineOf { stages, .. } => {
                let parts: Vec<(SkeletonProperties, f64)> = stages
                    .iter()
                    .map(|s| {
                        let ratio = ratio_of(s.spec.work_per_item, s.spec.forward_bytes);
                        let p = if s.replicas > 1 {
                            // A farmed stage behaves like an inner task farm:
                            // items entering it may be served by any replica.
                            SkeletonProperties::task_farm(ratio)
                        } else {
                            SkeletonProperties::pipeline(ratio, s.spec.state_bytes > 0)
                        };
                        (p, s.spec.work_per_item)
                    })
                    .collect();
                SkeletonProperties::compose_pipeline(&parts)
            }
        }
    }

    /// `Skeleton::properties_with` against the reference environment: a
    /// unit-speed node on the reference (LAN) link.
    pub fn properties(&self) -> SkeletonProperties {
        self.properties_with(&|work, bytes| reference_ratio(1.0, work, bytes))
    }

    /// Lower the expression to a flat farm-task list plus the [`UnitSpan`]
    /// tree mapping global unit ids back onto the expression's children.
    ///
    /// Lowering rules (shared by every backend so unit counts agree):
    /// * a leaf farm contributes its tasks **with their original ids** when
    ///   it is the whole expression, and re-numbered globally inside a
    ///   composition;
    /// * a (nested) pipeline contributes one task per stream item whose work
    ///   is the full per-item stage chain, entering with the first stage's
    ///   forwarded bytes and leaving with the last stage's;
    /// * `FarmOf` concatenates its children's units — the outer farm may
    ///   dispatch any child unit to any worker (the composition inherits the
    ///   farm's `AnyTaskAnyWorker` rebalancing rule).
    pub fn lower_to_farm(&self) -> (Vec<TaskSpec>, Vec<UnitSpan>) {
        if let Skeleton::Farm { tasks } = self {
            return (tasks.clone(), Vec::new());
        }
        let mut tasks = Vec::with_capacity(self.work_units());
        let span = self.lower_into(&mut tasks);
        let spans = match self {
            Skeleton::FarmOf { .. } => span.children,
            _ => vec![span],
        };
        (tasks, spans)
    }

    fn lower_into(&self, out: &mut Vec<TaskSpec>) -> UnitSpan {
        let start = out.len();
        let mut children = Vec::new();
        match self {
            Skeleton::Farm { tasks } => {
                for t in tasks {
                    let id = out.len();
                    out.push(TaskSpec::new(id, t.work, t.input_bytes, t.output_bytes));
                }
            }
            Skeleton::Pipeline { stages, items } => {
                lower_chain(
                    out,
                    *items,
                    stages.iter().map(|s| s.work_per_item).sum(),
                    stages.first().map(|s| s.forward_bytes).unwrap_or(0),
                    stages.last().map(|s| s.forward_bytes).unwrap_or(0),
                );
            }
            Skeleton::PipelineOf { stages, items } => {
                lower_chain(
                    out,
                    *items,
                    stages.iter().map(|s| s.spec.work_per_item).sum(),
                    stages.first().map(|s| s.spec.forward_bytes).unwrap_or(0),
                    stages.last().map(|s| s.spec.forward_bytes).unwrap_or(0),
                );
            }
            Skeleton::FarmOf { children: kids } => {
                for c in kids {
                    children.push(c.lower_into(out));
                }
            }
        }
        UnitSpan {
            kind: self.kind(),
            start,
            count: out.len() - start,
            children,
        }
    }

    /// The pipeline view of a pipeline-shaped expression: the raw stage
    /// specs, their replica counts and the stream length.  `None` for
    /// farm-shaped expressions.
    pub fn pipeline_plan(&self) -> Option<(Vec<StageSpec>, Vec<usize>, usize)> {
        match self {
            Skeleton::Pipeline { stages, items } => {
                Some((stages.clone(), vec![1; stages.len()], *items))
            }
            Skeleton::PipelineOf { stages, items } => Some((
                stages.iter().map(|s| s.spec).collect(),
                stages.iter().map(|s| s.replicas).collect(),
                *items,
            )),
            _ => None,
        }
    }
}

/// One task per stream item, carrying the whole per-item stage chain.
fn lower_chain(out: &mut Vec<TaskSpec>, items: usize, work: f64, in_bytes: u64, out_bytes: u64) {
    for _ in 0..items {
        let id = out.len();
        out.push(TaskSpec::new(id, work, in_bytes, out_bytes));
    }
}

/// Computation/communication ratio of `work` units at `speed` work-units/s
/// against shipping `bytes` over the reference (LAN) link.
pub(crate) fn reference_ratio(speed: f64, work: f64, bytes: u64) -> f64 {
    let compute_s = work / speed.max(1e-9);
    let comm_s = gridsim::LinkSpec::lan().transfer_time(bytes, 1.0).max(1e-9);
    (compute_s / comm_s).max(1e-3)
}

/// Backend-neutral account of the fault-tolerance work a run performed.
///
/// Every backend survives executor loss in its own way — the simulated grid
/// requeues the chunks of revoked nodes and migrates pipeline stages, the
/// thread backend isolates worker panics and retries the affected tasks on
/// surviving workers — but the *outcome-level* questions are the same: how
/// much work had to be given back, re-executed, or moved, and how many
/// executors were lost doing it.  The counters are overlapping views of the
/// same recovery activity (a requeued task is usually also a retried task),
/// not disjoint event classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Tasks returned to the pending pool after their executor was lost
    /// mid-flight (sim: chunks of revoked nodes; threads: panicked tasks
    /// handed back for another worker).
    pub requeued_tasks: usize,
    /// Tasks that were executed again after a failed first attempt and
    /// ultimately completed.
    pub retried_tasks: usize,
    /// Pipeline stages remapped/migrated to a different executor.
    pub migrated_stages: usize,
    /// Executors permanently removed from the run (sim: revoked nodes
    /// dropped from the active set; threads: workers retired after
    /// exhausting their panic budget).
    pub nodes_lost: usize,
    /// In-flight units speculatively duplicated on idle workers near the
    /// tail (straggler speculation; each unit is duplicated at most once).
    pub speculated_units: usize,
    /// Speculative duplicates whose result arrived first and won the race
    /// (the straggler's copy was discarded on arrival).
    pub speculation_wins: usize,
}

impl ResilienceReport {
    /// `true` when the run needed no fault handling at all.  Speculation is
    /// proactive adaptation rather than fault *handling*, so the
    /// speculation counters do not dirty a run: a job whose tail was
    /// rescued by duplicates but that never lost, requeued, or retried
    /// anything is still clean.
    pub fn is_clean(&self) -> bool {
        self.requeued_tasks == 0
            && self.retried_tasks == 0
            && self.migrated_stages == 0
            && self.nodes_lost == 0
    }
}

/// How a network worker ended its pool membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDeparture {
    /// The worker announced a Goodbye, drained its outstanding window and
    /// was released — no units were lost and nothing was requeued.
    Graceful,
    /// The connection died (socket EOF, frame corruption, or a heartbeat
    /// timeout) with the worker still owing work; its in-flight units were
    /// requeued and the loss counted in the [`ResilienceReport`].
    Death,
}

/// One worker's membership record in a network run (dynamic-membership
/// audit: who joined when, whether it was ranked by a calibration prefix,
/// and how it left — if it left).
#[derive(Debug, Clone)]
pub struct NetMemberReport {
    /// The pool slot the master assigned (never reused within a run).
    pub worker: usize,
    /// OS process id the worker reported in its Join frame.
    pub pid: u64,
    /// Master-clock seconds from run start to admission.
    pub joined_s: f64,
    /// `true` when the worker was admitted after dispatch had begun — the
    /// dynamic-membership path, where real units are withheld until the
    /// calibration prefix completes.
    pub joined_mid_run: bool,
    /// Calibration probe units the worker executed before receiving real
    /// units (0 for founding members, whose calibration rides on the job's
    /// own leading units).
    pub calibration_probes: usize,
    /// Real units this worker completed.
    pub units_completed: usize,
    /// How the worker left the pool; `None` when it was still a member at
    /// job completion.
    pub left: Option<NetDeparture>,
}

/// The backend's rich native report for the root of an executed skeleton,
/// when it exposes one.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum OutcomeDetail {
    /// No backend-specific detail.
    None,
    /// The simulated farm engine's full outcome.
    SimFarm(Box<FarmOutcome>),
    /// The simulated pipeline engine's full outcome.
    SimPipeline(Box<PipelineOutcome>),
    /// Thread-farm summary from the shared-memory backend.
    ThreadFarm {
        /// Worker threads used.
        workers: usize,
        /// Tasks completed per worker.
        tasks_per_worker: Vec<usize>,
        /// Declared work units each worker executed (successful attempts
        /// only).  The maximum over workers is the schedule's work critical
        /// path: proportional to the makespan on a dedicated machine with at
        /// least `workers` uniform cores.  Unlike wall-clock (which
        /// serialises on an overcommitted machine) or measured busy time
        /// (which counts preemption), this is schedule-sensitive on any
        /// hardware.
        work_per_worker: Vec<f64>,
        /// Per-worker external-load estimate at run end (0 = running at the
        /// calibrated baseline, → 1 = heavily slowed), forecast by the
        /// gridmon registry from the workers' wall-clock per-work-unit
        /// observations.  All zeros when the adaptation engine was off.
        load_per_worker: Vec<f64>,
        /// Steal attempts by idle workers (work-stealing policy only —
        /// zero under every other scheduler; a chosen victim whose deque
        /// drained first still counts as attempted).
        steals_attempted: usize,
        /// Steal attempts that actually moved a range between deques.
        steals_completed: usize,
        /// Task units moved between deques by completed steals — with the
        /// attempt counters, the price sheet for E16's steal-overhead
        /// accounting.
        units_stolen: usize,
    },
    /// Thread-pipeline summary from the shared-memory backend.
    ThreadPipeline {
        /// Index of the slowest stage.
        bottleneck_stage: usize,
        /// Worker threads per stage.
        replicas_per_stage: Vec<usize>,
    },
    /// Process-farm summary from the process-isolated backend
    /// (`grasp-proc`): the serialization boundary is real there, so the
    /// report carries wire accounting alongside the schedule.
    ProcFarm {
        /// Worker processes spawned.
        workers: usize,
        /// Units completed per worker process.
        tasks_per_worker: Vec<usize>,
        /// Bytes of frames written to the workers (tasks, init, shutdown).
        bytes_sent: u64,
        /// Bytes of frames received from the workers (hellos, results,
        /// heartbeats).
        bytes_received: u64,
        /// Wall seconds the master spent writing encoded frames to the
        /// transport (aggregate across workers).
        wire_write_s: f64,
        /// Wall seconds the master spent *encoding* frames — with
        /// `wire_write_s`, the run's serialization cost.
        wire_encode_s: f64,
        /// Payload bytes copied beyond the one encode per frame (0 in
        /// steady state on the stream, TCP, and shm transports).
        bytes_copied: u64,
        /// Per-unit result digests reported by the workers, sorted by unit
        /// id (all zero for spin payloads).  Lets callers verify that a
        /// worker's computation matches a locally computed reference.
        unit_digests: Vec<(usize, u64)>,
    },
    /// Network-farm summary from the socket backend (`grasp-net`): the
    /// process backend's wire accounting plus the dynamic-membership audit.
    NetFarm {
        /// Workers ever admitted to the pool (including ones that later
        /// left; slots are never reused).
        workers: usize,
        /// Units completed per admitted worker.
        tasks_per_worker: Vec<usize>,
        /// Connections refused at the handshake (version or capability
        /// mismatch, or a peer that never sent a valid Join).
        rejected_joins: usize,
        /// Bytes of frames written to the workers.
        bytes_sent: u64,
        /// Bytes of frames received from the workers.
        bytes_received: u64,
        /// Wall seconds the master spent writing encoded frames to the
        /// transport (aggregate across workers).
        wire_write_s: f64,
        /// Wall seconds the master spent *encoding* frames.
        wire_encode_s: f64,
        /// Payload bytes copied beyond the one encode per frame (the
        /// loopback transport's channel hand-off; 0 on TCP).
        bytes_copied: u64,
        /// Per-unit result digests, sorted by unit id.
        unit_digests: Vec<(usize, u64)>,
        /// Per-member membership audit, in admission order.
        members: Vec<NetMemberReport>,
    },
    /// Multi-job service summary (`grasp-service`): how this job rode the
    /// resident pool — who it shared its dispatch round with and how much
    /// of its calibration was served from the cross-job profile cache.
    Service {
        /// Service-assigned job id (unique for the service's lifetime).
        job: u64,
        /// Jobs sharing this job's dispatch round (including itself).
        batched_jobs: usize,
        /// `(worker, payload kind)` calibration profiles reused from the
        /// service's cache instead of being re-measured for this round.
        profile_hits: usize,
        /// Calibration profiles measured fresh during this round.
        profile_misses: usize,
        /// Resident pool workers the round could dispatch to.
        workers: usize,
        /// Units this job completed per pool worker.
        tasks_per_worker: Vec<usize>,
        /// Steal attempts during this job's dispatch round (work-stealing
        /// rounds only; round-level, shared by every job in the batch).
        steals_attempted: usize,
        /// Steal attempts that moved units during this job's round.
        steals_completed: usize,
        /// Units moved between workers by steals during this job's round.
        units_stolen: usize,
    },
}

/// Backend-neutral result of running a [`Skeleton`]: what completed, how
/// long it took (in the backend's clock — virtual seconds for the simulated
/// grid, wall-clock seconds for real threads), and one child outcome per
/// sub-skeleton of a composition.
#[derive(Debug, Clone)]
pub struct SkeletonOutcome {
    /// Structural kind of the skeleton (sub-)tree this outcome describes.
    pub kind: SkeletonKind,
    /// Leaf work units completed at or below this node.
    pub completed: usize,
    /// Global ids of the completed units (sorted, exactly once each).
    pub unit_ids: Vec<usize>,
    /// Seconds from job start to the last completion.
    pub makespan_s: f64,
    /// Seconds consumed by the calibration phase (0 for child outcomes — the
    /// composition calibrates once, as one unit).
    pub calibration_s: f64,
    /// The full audit trail of adaptation actions taken while this
    /// (sub-)skeleton ran: recalibrations, demotions, losses, stage
    /// remaps/replications, in the executing engine's clock.  Uniformly
    /// populated by every backend (job-level: child outcomes carry an empty
    /// log, like [`SkeletonOutcome::resilience`]).  The total count is
    /// [`SkeletonOutcome::adaptations`].
    pub adaptation_log: AdaptationLog,
    /// Fault-tolerance accounting for the whole run (job-level: child
    /// outcomes carry an empty report, because recovery happens at the
    /// executing engine's level, not per sub-skeleton).
    pub resilience: ResilienceReport,
    /// Per-child outcomes of a composition (empty for leaves).
    pub children: Vec<SkeletonOutcome>,
    /// The backend's native report, when it exposes one.
    pub detail: OutcomeDetail,
}

impl SkeletonOutcome {
    /// Number of adaptation actions taken while this (sub-)skeleton ran —
    /// derived from [`SkeletonOutcome::adaptation_log`], so the count can
    /// never drift from the audit trail.
    pub fn adaptations(&self) -> usize {
        self.adaptation_log.len()
    }

    /// Completed units per second over the whole run.
    pub fn throughput(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// Check the conservation invariant against the expression that
    /// produced this outcome: every leaf unit completed exactly once (the
    /// sorted id list must be strictly increasing — no duplicates), and the
    /// children of every composition account for their parent's units.
    pub fn conserves_units_of(&self, skeleton: &Skeleton) -> bool {
        if self.completed != skeleton.work_units() || self.unit_ids.len() != self.completed {
            return false;
        }
        if !self.unit_ids.windows(2).all(|w| w[0] < w[1]) {
            return false;
        }
        if let Skeleton::FarmOf { children } = skeleton {
            if self.children.len() != children.len() {
                return false;
            }
            let child_sum: usize = self.children.iter().map(|c| c.completed).sum();
            if child_sum != self.completed {
                return false;
            }
            return self
                .children
                .iter()
                .zip(children)
                .all(|(o, s)| o.conserves_units_of(s));
        }
        true
    }
}

/// An execution environment for skeleton expressions: the compilation /
/// calibration / execution phases of Figure 1 behind one trait.
///
/// `compile` is the static compilation phase (bind and validate the
/// expression against the backend's environment); `execute` runs calibration
/// (Algorithm 1) followed by adaptive execution (Algorithm 2) and returns
/// the unified outcome.  `Grasp::run` drives the full life-cycle.
pub trait Backend {
    /// The compiled (environment-bound) form of a skeleton.
    type Compiled;

    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Compilation phase: statically validate `skeleton` and bind it to this
    /// backend's environment.  No calibration feedback is available yet.
    fn compile(
        &self,
        config: &GraspConfig,
        skeleton: &Skeleton,
    ) -> Result<Self::Compiled, GraspError>;

    /// Calibration + execution phases over a compiled skeleton.
    fn execute(
        &self,
        config: &GraspConfig,
        compiled: &Self::Compiled,
    ) -> Result<SkeletonOutcome, GraspError>;
}

/// The simulated-grid backend: wraps the gridsim farm/pipeline engines
/// behind the [`Backend`] trait.
#[derive(Clone)]
pub struct SimBackend<'g> {
    grid: &'g Grid,
    candidates: Vec<NodeId>,
}

impl<'g> SimBackend<'g> {
    /// A backend over every node of `grid`.
    pub fn new(grid: &'g Grid) -> Self {
        let candidates = grid.node_ids();
        SimBackend { grid, candidates }
    }

    fn ratio_of(&self, work: f64, bytes: u64) -> f64 {
        reference_ratio(self.grid.topology().max_speed(), work, bytes)
    }

    fn farm_outcome(
        kind: SkeletonKind,
        outcome: FarmOutcome,
        spans: &[UnitSpan],
    ) -> SkeletonOutcome {
        let mut unit_ids: Vec<usize> = outcome.task_outcomes.iter().map(|o| o.task).collect();
        unit_ids.sort_unstable();
        // A task lost to a revoked node and later re-executed may in
        // principle surface more than one completion record; the
        // backend-neutral view counts each unit once (the engine-native
        // record in `detail` keeps every raw completion), which is what lets
        // `conserves_units_of` hold under loss + retry.
        unit_ids.dedup();
        // One pass over the outcomes builds the id → completion-time table
        // every span shares (a lost-then-requeued task keeps its latest
        // completion).
        let mut completions: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for o in &outcome.task_outcomes {
            let t = o.completed.as_secs();
            completions
                .entry(o.task)
                .and_modify(|cur| *cur = cur.max(t))
                .or_insert(t);
        }
        let children = spans.iter().map(|s| s.outcome_from(&completions)).collect();
        let requeued = outcome.adaptation.requeued_tasks();
        let resilience = ResilienceReport {
            requeued_tasks: requeued,
            // Every requeued task that made it into the outcome was executed
            // again on a surviving node.
            retried_tasks: requeued,
            migrated_stages: 0,
            speculated_units: outcome.adaptation.speculations(),
            speculation_wins: outcome.adaptation.speculation_wins(),
            nodes_lost: outcome.adaptation.node_losses(),
        };
        SkeletonOutcome {
            kind,
            completed: unit_ids.len(),
            unit_ids,
            makespan_s: outcome.makespan.as_secs(),
            calibration_s: outcome.calibration.duration.as_secs(),
            adaptation_log: outcome.adaptation.clone(),
            resilience,
            children,
            detail: OutcomeDetail::SimFarm(Box::new(outcome)),
        }
    }

    fn pipeline_outcome(kind: SkeletonKind, outcome: PipelineOutcome) -> SkeletonOutcome {
        let resilience = ResilienceReport {
            requeued_tasks: 0,
            retried_tasks: 0,
            migrated_stages: outcome.adaptation.stage_remaps()
                + outcome.adaptation.stage_migrations(),
            nodes_lost: 0,
            speculated_units: 0,
            speculation_wins: 0,
        };
        SkeletonOutcome {
            kind,
            completed: outcome.items,
            unit_ids: (0..outcome.items).collect(),
            makespan_s: outcome.makespan.as_secs(),
            calibration_s: outcome.calibration.duration.as_secs(),
            adaptation_log: outcome.adaptation.clone(),
            resilience,
            children: Vec::new(),
            detail: OutcomeDetail::SimPipeline(Box::new(outcome)),
        }
    }
}

/// A skeleton bound to the simulated grid, ready to calibrate and execute.
#[derive(Debug, Clone)]
pub struct SimCompiled {
    plan: SimPlan,
    properties: SkeletonProperties,
}

#[derive(Debug, Clone)]
enum SimPlan {
    /// Farm-shaped: a flat task list plus the span tree of the composition.
    Farm {
        tasks: Vec<TaskSpec>,
        spans: Vec<UnitSpan>,
    },
    /// Pipeline-shaped: effective stages (a farmed stage's per-item work is
    /// divided by its replica count — replication multiplies the stage's
    /// service capacity, which the sequential-per-stage simulation models as
    /// a proportionally shorter per-item service time) and the stream length.
    Pipeline {
        stages: Vec<StageSpec>,
        items: usize,
    },
}

impl Backend for SimBackend<'_> {
    type Compiled = SimCompiled;

    fn name(&self) -> &'static str {
        "sim"
    }

    fn compile(
        &self,
        config: &GraspConfig,
        skeleton: &Skeleton,
    ) -> Result<Self::Compiled, GraspError> {
        config.validate()?;
        skeleton.validate()?;
        if self.candidates.is_empty() {
            return Err(GraspError::NoUsableNodes);
        }
        let properties = skeleton.properties_with(&|w, b| self.ratio_of(w, b));
        let plan = match skeleton.pipeline_plan() {
            Some((stages, replicas, items)) => {
                let stages = stages
                    .iter()
                    .zip(&replicas)
                    .map(|(s, &r)| {
                        StageSpec::new(
                            s.id,
                            s.work_per_item / r.max(1) as f64,
                            s.forward_bytes,
                            s.state_bytes,
                        )
                    })
                    .collect();
                SimPlan::Pipeline { stages, items }
            }
            None => {
                let (tasks, spans) = skeleton.lower_to_farm();
                SimPlan::Farm { tasks, spans }
            }
        };
        Ok(SimCompiled { plan, properties })
    }

    fn execute(
        &self,
        config: &GraspConfig,
        compiled: &Self::Compiled,
    ) -> Result<SkeletonOutcome, GraspError> {
        match &compiled.plan {
            SimPlan::Farm { tasks, spans } => {
                let farm = TaskFarm::new(*config).with_properties(compiled.properties);
                let outcome = farm.run_on(self.grid, &self.candidates, tasks)?;
                Ok(Self::farm_outcome(compiled.properties.kind, outcome, spans))
            }
            SimPlan::Pipeline { stages, items } => {
                let pipeline = Pipeline::new(*config).with_properties(compiled.properties);
                let outcome = pipeline.run_on(self.grid, &self.candidates, stages, *items)?;
                Ok(Self::pipeline_outcome(compiled.properties.kind, outcome))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::Rebalancing;
    use gridsim::TopologyBuilder;

    fn imaging_like_pipeline(items: usize) -> Skeleton {
        Skeleton::pipeline(StageSpec::balanced(3, 10.0, 8 * 1024), items)
    }

    #[test]
    fn kinds_collapse_when_composition_is_degenerate() {
        let farm = Skeleton::farm(TaskSpec::uniform(4, 1.0, 0, 0));
        assert_eq!(farm.kind(), SkeletonKind::TaskFarm);
        let farm_of_farms = Skeleton::farm_of(vec![farm.clone(), farm.clone()]);
        assert_eq!(farm_of_farms.kind(), SkeletonKind::TaskFarm);
        let fop = Skeleton::farm_of(vec![farm, imaging_like_pipeline(3)]);
        assert_eq!(fop.kind(), SkeletonKind::FarmOfPipelines);
        let plain = Skeleton::pipeline_of(
            StageSpec::balanced(2, 5.0, 0)
                .into_iter()
                .map(FarmedStage::plain)
                .collect(),
            4,
        );
        assert_eq!(plain.kind(), SkeletonKind::Pipeline);
        let pof = Skeleton::pipeline_of(
            vec![
                FarmedStage::plain(StageSpec::new(0, 5.0, 0, 0)),
                FarmedStage::farmed(StageSpec::new(1, 20.0, 0, 0), 4),
            ],
            4,
        );
        assert_eq!(pof.kind(), SkeletonKind::PipelineOfFarms);
    }

    #[test]
    fn work_units_count_leaves_recursively() {
        let s = Skeleton::farm_of(vec![
            imaging_like_pipeline(7),
            Skeleton::farm(TaskSpec::uniform(5, 1.0, 0, 0)),
            Skeleton::farm_of(vec![imaging_like_pipeline(2)]),
        ]);
        assert_eq!(s.work_units(), 14);
        assert!(s.total_work() > 0.0);
    }

    #[test]
    fn validation_rejects_empty_leaves_anywhere_in_the_tree() {
        assert!(Skeleton::farm(vec![]).validate().is_err());
        assert!(Skeleton::pipeline(vec![], 3).validate().is_err());
        assert!(Skeleton::pipeline(StageSpec::balanced(2, 1.0, 0), 0)
            .validate()
            .is_err());
        assert!(Skeleton::farm_of(vec![]).validate().is_err());
        let nested_bad = Skeleton::farm_of(vec![imaging_like_pipeline(2), Skeleton::farm(vec![])]);
        assert!(nested_bad.validate().is_err());
        assert!(Skeleton::pipeline_of(vec![], 2).validate().is_err());
    }

    #[test]
    fn properties_compose_bottom_up() {
        let fop = Skeleton::farm_of(vec![imaging_like_pipeline(4), imaging_like_pipeline(4)]);
        let p = fop.properties();
        assert_eq!(p.kind, SkeletonKind::FarmOfPipelines);
        assert!(p.independent_tasks, "outer farm instances are independent");
        assert_eq!(p.rebalancing, Rebalancing::AnyTaskAnyWorker);

        let pof = Skeleton::pipeline_of(
            vec![
                FarmedStage::plain(StageSpec::new(0, 5.0, 1024, 0)),
                FarmedStage::farmed(StageSpec::new(1, 50.0, 1024, 0), 4),
            ],
            10,
        );
        let p = pof.properties();
        assert_eq!(p.kind, SkeletonKind::PipelineOfFarms);
        assert!(p.ordered_results);
        assert_eq!(p.rebalancing, Rebalancing::StageRemapping);
    }

    #[test]
    fn lowering_conserves_units_and_renumbers_globally() {
        let s = Skeleton::farm_of(vec![
            Skeleton::farm(TaskSpec::uniform(3, 2.0, 64, 64)),
            imaging_like_pipeline(5),
        ]);
        let (tasks, spans) = s.lower_to_farm();
        assert_eq!(tasks.len(), 8);
        let ids: Vec<usize> = tasks.iter().map(|t| t.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].count, 3);
        assert_eq!(spans[1].start, 3);
        assert_eq!(spans[1].count, 5);
        // The lowered pipeline items carry the whole per-item stage chain.
        assert!((tasks[3].work - 30.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_farm_lowering_preserves_original_ids() {
        let mut tasks = TaskSpec::uniform(4, 1.0, 0, 0);
        tasks.reverse(); // ids now 3, 2, 1, 0
        let s = Skeleton::farm(tasks.clone());
        let (lowered, spans) = s.lower_to_farm();
        assert_eq!(lowered, tasks);
        assert!(spans.is_empty());
    }

    #[test]
    fn sim_backend_runs_a_nested_farm_of_pipelines() {
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(6, 20.0, 60.0, 3));
        let skeleton = Skeleton::farm_of(vec![
            imaging_like_pipeline(10),
            imaging_like_pipeline(10),
            Skeleton::farm(TaskSpec::uniform(8, 25.0, 4096, 4096)),
        ]);
        let backend = SimBackend::new(&grid);
        let cfg = GraspConfig::default();
        let compiled = backend.compile(&cfg, &skeleton).unwrap();
        assert_eq!(
            compiled.properties.kind,
            SkeletonKind::FarmOfPipelines,
            "composed properties steer the run"
        );
        let outcome = backend.execute(&cfg, &compiled).unwrap();
        assert_eq!(outcome.completed, 28);
        assert!(outcome.conserves_units_of(&skeleton));
        assert_eq!(outcome.children.len(), 3);
        assert_eq!(outcome.children[2].completed, 8);
        assert!(outcome.makespan_s > 0.0);
        assert!(outcome.throughput() > 0.0);
        assert!(matches!(outcome.detail, OutcomeDetail::SimFarm(_)));
        // Child makespans are bounded by the parent's.
        for c in &outcome.children {
            assert!(c.makespan_s <= outcome.makespan_s + 1e-9);
        }
    }

    #[test]
    fn sim_backend_runs_a_pipeline_of_farms() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(6, 40.0));
        let heavy = StageSpec::new(1, 60.0, 8 * 1024, 0);
        let skeleton = Skeleton::pipeline_of(
            vec![
                FarmedStage::plain(StageSpec::new(0, 10.0, 8 * 1024, 0)),
                FarmedStage::farmed(heavy, 3),
                FarmedStage::plain(StageSpec::new(2, 10.0, 8 * 1024, 0)),
            ],
            30,
        );
        let backend = SimBackend::new(&grid);
        let cfg = GraspConfig::default();
        let compiled = backend.compile(&cfg, &skeleton).unwrap();
        let outcome = backend.execute(&cfg, &compiled).unwrap();
        assert_eq!(outcome.completed, 30);
        assert_eq!(outcome.kind, SkeletonKind::PipelineOfFarms);
        assert!(outcome.conserves_units_of(&skeleton));

        // The farmed heavy stage must not dominate: against the same chain
        // without replication the bottleneck service time drops ~3x.
        let rigid = Skeleton::pipeline(
            vec![
                StageSpec::new(0, 10.0, 8 * 1024, 0),
                StageSpec::new(1, 60.0, 8 * 1024, 0),
                StageSpec::new(2, 10.0, 8 * 1024, 0),
            ],
            30,
        );
        let rigid_out = backend
            .execute(&cfg, &backend.compile(&cfg, &rigid).unwrap())
            .unwrap();
        assert!(
            outcome.makespan_s < rigid_out.makespan_s,
            "replicating the bottleneck stage must help: {} vs {}",
            outcome.makespan_s,
            rigid_out.makespan_s
        );
    }

    #[test]
    fn sim_backend_rejects_empty_pools_and_workloads() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(2, 40.0));
        let cfg = GraspConfig::default();
        let skeleton = Skeleton::farm(TaskSpec::uniform(4, 1.0, 0, 0));
        let empty = Grid::dedicated(TopologyBuilder::new().build());
        assert!(matches!(
            SimBackend::new(&empty).compile(&cfg, &skeleton),
            Err(GraspError::NoUsableNodes)
        ));
        assert!(SimBackend::new(&grid)
            .compile(&cfg, &Skeleton::farm(vec![]))
            .is_err());
    }

    #[test]
    fn conservation_check_rejects_duplicated_and_missing_units() {
        let skeleton = Skeleton::farm(TaskSpec::uniform(3, 1.0, 0, 0));
        let ok = SkeletonOutcome {
            kind: SkeletonKind::TaskFarm,
            completed: 3,
            unit_ids: vec![0, 1, 2],
            makespan_s: 1.0,
            calibration_s: 0.0,
            adaptation_log: AdaptationLog::new(),
            resilience: ResilienceReport::default(),
            children: Vec::new(),
            detail: OutcomeDetail::None,
        };
        assert!(ok.conserves_units_of(&skeleton));
        // A unit completed twice while another was dropped must be caught
        // even though the counts line up.
        let duplicated = SkeletonOutcome {
            unit_ids: vec![0, 0, 2],
            ..ok.clone()
        };
        assert!(!duplicated.conserves_units_of(&skeleton));
        let short = SkeletonOutcome {
            completed: 2,
            unit_ids: vec![0, 1],
            ..ok
        };
        assert!(!short.conserves_units_of(&skeleton));
    }

    #[test]
    fn sim_backend_reports_resilience_under_node_revocation() {
        use gridsim::{FaultPlan, GridBuilder, SimTime};
        let topo = TopologyBuilder::uniform_cluster(4, 30.0);
        // Node 2 dies early and never comes back: its in-flight chunk must be
        // requeued, and the outcome must say so.
        let faults = FaultPlan::none().revoked_from(gridsim::NodeId(2), SimTime::new(5.0));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let skeleton = Skeleton::farm(TaskSpec::uniform(120, 80.0, 8 * 1024, 8 * 1024));
        let backend = SimBackend::new(&grid);
        let cfg = GraspConfig::default();
        let outcome = backend
            .execute(&cfg, &backend.compile(&cfg, &skeleton).unwrap())
            .unwrap();
        assert_eq!(outcome.completed, 120);
        assert!(outcome.conserves_units_of(&skeleton));
        assert!(outcome.resilience.nodes_lost >= 1);
        assert!(outcome.resilience.requeued_tasks >= 1);
        assert_eq!(
            outcome.resilience.retried_tasks,
            outcome.resilience.requeued_tasks
        );
        assert!(!outcome.resilience.is_clean());

        // A quiet grid reports a clean run.
        let quiet = Grid::dedicated(TopologyBuilder::uniform_cluster(4, 30.0));
        let backend = SimBackend::new(&quiet);
        let outcome = backend
            .execute(&cfg, &backend.compile(&cfg, &skeleton).unwrap())
            .unwrap();
        assert!(outcome.resilience.is_clean());
    }

    #[test]
    fn reference_ratio_scales_with_speed_and_bytes() {
        let fast = reference_ratio(10.0, 100.0, 1024);
        let slow = reference_ratio(1.0, 100.0, 1024);
        assert!(slow > fast, "slower nodes make compute relatively costlier");
        let chatty = reference_ratio(1.0, 100.0, 64 << 20);
        assert!(chatty < slow, "more bytes lower the ratio");
    }
}
