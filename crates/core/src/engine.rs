//! The backend-neutral adaptation engine — one monitor→threshold→recalibrate
//! loop for every backend.
//!
//! The paper's adaptive lifecycle (calibrate, execute, monitor against the
//! performance threshold *Z*, then recalibrate/demote — Algorithms 1–2) is
//! not specific to the simulated grid: the *same* loop applies whenever
//! executors report how long their work units take, whatever the clock.
//! [`AdaptationEngine`] packages that loop behind a clock-agnostic surface:
//!
//! * it owns the [`ExecutionMonitor`], the [`ThresholdPolicy`], the
//!   recalibration budget and the [`AdaptationLog`];
//! * it consumes **work-normalised time observations** (seconds per work
//!   unit) stamped with [`SimTime`] instants — virtual seconds on the
//!   simulated grid, or wall-clock seconds via [`WallClock`] on real
//!   threads — one rule per completed unit
//!   ([`AdaptationEngine::observe_unit`]), whose first observations can be
//!   the calibration prefix (Algorithm 1) that arms *Z*;
//! * in executor mode it **steers** ([`AdaptationEngine::steer`]) an
//!   [`ExecutorSet`], the one thing a surface supplies: what "demote node
//!   3" means (drop it from the chosen set, stop handing a worker thread
//!   chunks, close a member's channel) is the set's business; the pool
//!   floor, the recalibration budget and the audit log are the engine's.
//!
//! Two monitoring disciplines are supported, matching the paper's two
//! skeletons:
//!
//! * **executor mode** ([`AdaptationEngine::for_executors`]) — the farm's
//!   Algorithm 2: per-executor times are collected into the table *T* every
//!   monitoring interval; `min T > Z` means the whole pool degraded
//!   (recalibrate), a single executor beyond `demote_factor × Z` is demoted.
//! * **stage mode** ([`AdaptationEngine::for_stages`]) — the pipeline's
//!   variant: each stage has its own threshold *Zₛ* and a recent-service
//!   window; a full window whose mean exceeds *Zₛ* yields a
//!   [`AdaptationDirective::RemapStage`] directive, which the pipeline
//!   applies itself.
//!
//! Recalibration comes in two flavours because the backends have different
//! information available ([`Recalibration`]).  The simulated farm re-ranks
//! its pool from monitored load/bandwidth and re-bases *Z* on the retained
//! nodes' *expected* times.  A wall-clock backend has no load model to
//! consult, so it takes a **real re-calibration sample** instead: the
//! monitor window is flushed and the *next* full interval of fresh
//! observations re-bases *Z* — the cost is one interval of tolerance, the
//! gain is that the new *Z* reflects measured post-degradation reality.

use crate::adaptation::{AdaptationAction, AdaptationLog};
use crate::config::ExecutionConfig;
use crate::execution::{ExecutionMonitor, MonitorVerdict};
use crate::task::normalize_time;
use crate::threshold::ThresholdPolicy;
use gridsim::{NodeId, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// A wall-clock source yielding [`SimTime`] stamps, so real-thread backends
/// feed the engine through exactly the same surface as the simulated grid:
/// the engine never knows which clock it is on.
#[derive(Debug, Clone)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Start the clock now; subsequent [`WallClock::now`] calls report
    /// seconds elapsed since this instant.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`WallClock::start`], as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    /// The clock's reading at `instant` — for a caller that already read
    /// the time (say, to time a unit of work), so one clock read serves as
    /// both a duration's end and a timestamp.  Instants before the start
    /// read as zero.
    pub fn at(&self, instant: Instant) -> SimTime {
        SimTime::new(instant.saturating_duration_since(self.start).as_secs_f64())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::start()
    }
}

/// A typed adaptation decision.
///
/// Executor-mode decisions ([`AdaptationDirective::DemoteExecutor`],
/// [`AdaptationDirective::Recalibrate`]) are applied by the engine itself
/// through [`AdaptationEngine::steer`]; [`AdaptationEngine::poll`] exposes
/// them without applying anything.  Stage remaps and tail speculation are
/// answers to a caller's question ([`AdaptationEngine::observe_stage`],
/// [`AdaptationEngine::maybe_speculate`]): the caller acts and records what
/// it did through the matching `note_*` method.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationDirective {
    /// The whole pool degraded (`min T > Z`): feed back into calibration.
    Recalibrate,
    /// One executor's recent mean exceeded `demote_factor × Z`: drop it
    /// from the active set without a full recalibration.
    DemoteExecutor {
        /// The pathological executor.
        executor: NodeId,
        /// Its recent mean time (seconds per work unit).
        recent_mean: f64,
    },
    /// A pipeline stage's recent mean service exceeded its threshold *Zₛ*:
    /// remap it to a better executor (sim) or replicate it (threads).
    RemapStage {
        /// Index of the degraded stage.
        stage: usize,
        /// Its recent mean service time (seconds per item).
        recent_mean: f64,
    },
    /// The job is in its tail (every unit handed out, few enough still in
    /// flight): idle workers may duplicate in-flight units, first verified
    /// result wins.  Emitted by [`AdaptationEngine::maybe_speculate`]; the
    /// caller picks the concrete units, launches the duplicates, and
    /// reports each one via [`AdaptationEngine::note_speculated`].
    Speculate {
        /// Units still in flight when the directive fired.
        in_flight: usize,
    },
}

/// The result of one executor-mode monitoring evaluation: the raw monitor
/// verdict plus the directives the engine derived from it.
#[derive(Debug, Clone)]
pub struct EnginePoll {
    /// The monitor's verdict (table *T*, `min T`, threshold *Z* in force).
    pub verdict: MonitorVerdict,
    /// Directives derived from the verdict, demotions first.
    pub(crate) directives: Vec<AdaptationDirective>,
}

/// What a whole-pool breach does to an [`ExecutorSet`] (see
/// [`ExecutorSet::recalibrate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Recalibration {
    /// Nothing to steer: no budget is consumed and nothing is logged.
    Decline,
    /// Take a fresh sample: the next full interval's observations re-base
    /// *Z* (the wall-clock flavour).
    Resample,
    /// The set re-ranked itself: re-base *Z* now on the retained executors'
    /// expected seconds per work unit (the model-based flavour; an empty
    /// list keeps *Z*).
    Rebase(Vec<f64>),
}

/// The executors an executor-mode engine steers — all a surface supplies to
/// [`AdaptationEngine::steer`].
pub trait ExecutorSet {
    /// The executors still handed work.
    fn active(&self) -> Vec<NodeId>;

    /// Stop handing `executor` work; `false` when it cannot be stopped
    /// (already out, unknown, or refused by the surface).  Called only when
    /// the pool floor allows one fewer executor.
    fn demote(&mut self, executor: NodeId) -> bool;

    /// A whole-pool breach (`min T > Z`) with budget left, applied after the
    /// interval's demotions; runs at `now`.  Defaults to a fresh sample.
    fn recalibrate(&mut self, _now: SimTime) -> Recalibration {
        Recalibration::Resample
    }
}

/// The backend-neutral calibrate→monitor→act loop (see module docs).
#[derive(Debug, Clone)]
pub struct AdaptationEngine {
    policy: ThresholdPolicy,
    adaptive: bool,
    max_recalibrations: usize,
    recalibrations: usize,
    /// The pool floor demotions respect: `max(1, min_active_nodes)`.
    min_active: usize,
    monitor: ExecutionMonitor,
    /// Per-unit observations are in seconds per work unit, skipping
    /// zero-work units (see [`AdaptationEngine::observe_unit`]); `false`
    /// for an all-zero-work job, which is monitored in raw seconds.
    job_has_work: bool,
    /// The calibration prefix: kept observations until `sample_target` of
    /// them arm the engine at `armed_at` (0 = no prefix).
    sample: Vec<f64>,
    sample_target: usize,
    armed_at: Option<SimTime>,
    /// Set by a `Recalibration::Resample`: the next full interval's
    /// per-executor means re-base *Z* instead of producing a verdict.
    pending_rebase: bool,
    /// Stage-mode state: per-stage recent-service windows and thresholds.
    stage_windows: Vec<VecDeque<f64>>,
    stage_thresholds: Vec<f64>,
    stage_window_cap: usize,
    /// Minimum spacing between stage-mode actions (0 disables the gate; the
    /// noise-free simulated pipeline uses 0, wall-clock backends space
    /// actions by the monitor interval so scheduler jitter cannot thrash).
    stage_action_interval_s: f64,
    last_stage_action: SimTime,
    /// Tail fraction below which in-flight units may be duplicated
    /// (`ExecutionConfig::speculate_tail_fraction`; 0 disables speculation).
    speculate_tail_fraction: f64,
    log: AdaptationLog,
}

impl AdaptationEngine {
    /// An executor-mode engine (the farm's Algorithm 2).
    ///
    /// The threshold *Z* is derived from `reference_times` — the calibrated
    /// per-work-unit times of the chosen executors (Algorithm 1's output) —
    /// via the configured [`ThresholdPolicy`]; the monitoring interval
    /// starts at `start` (the calibration end).
    pub fn for_executors(exec: &ExecutionConfig, reference_times: &[f64], start: SimTime) -> Self {
        let threshold = exec.threshold.compute(reference_times);
        let mut monitor =
            ExecutionMonitor::new(threshold, exec.monitor_interval_s, exec.demote_factor)
                .with_window(exec.monitor_window);
        monitor.reset(start);
        AdaptationEngine {
            policy: exec.threshold,
            adaptive: exec.adaptive,
            max_recalibrations: exec.max_recalibrations,
            recalibrations: 0,
            min_active: exec.min_active_nodes.max(1),
            monitor,
            job_has_work: true,
            sample: Vec::new(),
            sample_target: 0,
            armed_at: None,
            pending_rebase: false,
            stage_windows: Vec::new(),
            stage_thresholds: Vec::new(),
            stage_window_cap: exec.monitor_window.max(1),
            stage_action_interval_s: 0.0,
            last_stage_action: SimTime::ZERO,
            speculate_tail_fraction: exec.speculate_tail_fraction.clamp(0.0, 1.0),
            log: AdaptationLog::new(),
        }
    }

    /// A stage-mode engine (the pipeline's per-stage loop) with one
    /// threshold *Zₛ* per stage.
    pub fn for_stages(exec: &ExecutionConfig, stage_thresholds: Vec<f64>) -> Self {
        let mut engine = Self::for_executors(exec, &[], SimTime::ZERO);
        engine.stage_windows = vec![VecDeque::new(); stage_thresholds.len()];
        engine.stage_thresholds = stage_thresholds;
        engine
    }

    /// Feed this engine unit by unit through
    /// [`AdaptationEngine::observe_unit`]: `job_has_work` is whether any of
    /// the job's units declares work (a multi-job engine passes `true`, the
    /// default), and the first `calibration_units` kept observations are
    /// the calibration sample that derives *Z* (0: *Z* comes from the
    /// constructor or [`AdaptationEngine::calibrate`]).
    pub fn with_units(mut self, job_has_work: bool, calibration_units: usize) -> Self {
        self.job_has_work = job_has_work;
        self.sample_target = calibration_units;
        self
    }

    /// Override the stage-mode recent-service window size (defaults to the
    /// shared `monitor_window` of the execution config).
    pub(crate) fn with_stage_window(mut self, window: usize) -> Self {
        self.stage_window_cap = window.max(1);
        self
    }

    /// Space stage-mode actions at least `interval_s` apart on the engine's
    /// clock (see [`AdaptationEngine`] field docs; 0 disables the gate).
    pub fn with_stage_action_interval(mut self, interval_s: f64) -> Self {
        self.stage_action_interval_s = interval_s.max(0.0);
        self
    }

    /// Whether Algorithm 2 is enabled at all.
    pub(crate) fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// The per-stage threshold *Zₛ* currently in force (stage mode).
    pub(crate) fn stage_threshold(&self, stage: usize) -> f64 {
        self.stage_thresholds
            .get(stage)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Completed monitoring evaluations (executor mode).
    pub(crate) fn evaluations(&self) -> usize {
        self.monitor.evaluations()
    }

    /// Live per-node rank snapshot (executor mode): the mean of each node's
    /// observations accumulated so far in the current monitoring interval,
    /// in seconds per work unit, **without** evaluating or clearing the
    /// window.  Work-stealing dispatchers read this mid-interval to weight
    /// owner chunks and pick the slowest-ranked steal victim; nodes with no
    /// observation yet are absent.
    pub fn rank_snapshot(&self) -> Vec<(NodeId, f64)> {
        self.monitor.recent_means()
    }

    /// Recalibrations performed so far.
    pub fn recalibrations(&self) -> usize {
        self.recalibrations
    }

    /// Whether the recalibration budget allows another feedback round.
    pub(crate) fn can_recalibrate(&self) -> bool {
        self.recalibrations < self.max_recalibrations
    }

    /// Complete (or redo) Algorithm 1: derive *Z* from freshly calibrated
    /// `reference_times` and restart the monitoring interval at `now`.
    ///
    /// This is the lifecycle's calibration step, not an adaptation: no
    /// budget is consumed and nothing is logged.  Backends whose
    /// calibration sample only becomes available mid-run (e.g. a thread
    /// farm whose probe tasks execute inside the job) construct the engine
    /// with an empty reference sample — *Z* = ∞, nothing can fire — and
    /// call this once the sample is in (or let the calibration prefix of
    /// [`AdaptationEngine::with_units`] call it).
    pub fn calibrate(&mut self, reference_times: &[f64], now: SimTime) {
        self.monitor
            .set_threshold(self.policy.compute(reference_times));
        self.monitor.reset(now);
    }

    /// Consume one unit of recalibration budget if available.
    pub fn try_consume_recalibration(&mut self) -> bool {
        if self.can_recalibrate() {
            self.recalibrations += 1;
            true
        } else {
            false
        }
    }

    // ------------------------- executor mode -------------------------

    /// Worker-side report: one executed work unit took `time_per_unit`
    /// seconds per declared work unit on `executor`.
    pub fn observe(&mut self, executor: NodeId, time_per_unit: f64) {
        self.monitor.record(executor, time_per_unit);
    }

    /// The observation one completed unit makes: seconds per declared work
    /// unit, `None` for a zero-work unit of a job that has work (it carries
    /// no signal in that unit and would spuriously demote its executor),
    /// and raw seconds for an all-zero-work job.
    pub fn unit_time(job_has_work: bool, work: f64, elapsed_s: f64) -> Option<f64> {
        (work > 0.0 || !job_has_work).then(|| normalize_time(work, elapsed_s))
    }

    /// Per-unit report: `executor` ran a unit of `work` declared units in
    /// `elapsed_s` seconds, finishing at `now`.  Its
    /// [`AdaptationEngine::unit_time`] joins the calibration prefix until
    /// the prefix is full — the last one arms *Z* at its own `now` — and
    /// the monitor afterwards.
    pub fn observe_unit(&mut self, executor: NodeId, work: f64, elapsed_s: f64, now: SimTime) {
        let Some(t) = Self::unit_time(self.job_has_work, work, elapsed_s) else {
            return;
        };
        if self.sample.len() < self.sample_target {
            self.sample.push(t);
            if self.sample.len() == self.sample_target {
                self.calibrate(&self.sample.clone(), now);
                self.armed_at = Some(now);
            }
        } else {
            self.monitor.record(executor, t);
        }
    }

    /// When the calibration prefix completed (`None` before, or without a
    /// prefix).
    pub fn armed_at(&self) -> Option<SimTime> {
        self.armed_at
    }

    /// The best time of the calibration prefix so far — once armed, the
    /// wall-clock backends' unloaded baseline.
    pub fn sample_best(&self) -> f64 {
        self.sample.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Whether the monitoring interval has elapsed at `now` (cheap check a
    /// hot path may use before paying for [`AdaptationEngine::poll`]).
    pub fn due(&self, now: SimTime) -> bool {
        self.monitor.due(now)
    }

    /// Run one monitoring evaluation if the interval has elapsed.
    ///
    /// Returns the verdict and the derived directives: one
    /// [`AdaptationDirective::DemoteExecutor`] per executor beyond the
    /// demotion threshold, then [`AdaptationDirective::Recalibrate`] when
    /// `min T > Z` and the recalibration budget is not exhausted.  Returns
    /// `None` when adaptation is disabled, the interval has not elapsed, no
    /// times were reported, or a pending resample consumed the interval to
    /// re-base *Z* (see [`Recalibration::Resample`]).  Applies nothing:
    /// [`AdaptationEngine::steer`] is the poll that acts.
    pub fn poll(&mut self, now: SimTime) -> Option<EnginePoll> {
        if !self.adaptive {
            return None;
        }
        let verdict = self.monitor.evaluate(now)?;
        if self.pending_rebase {
            // The fresh post-degradation interval is the re-calibration
            // sample: re-base Z on what the executors now achieve.
            let times: Vec<f64> = verdict.per_node_mean.iter().map(|(_, m)| *m).collect();
            if !times.is_empty() {
                self.monitor.set_threshold(self.policy.compute(&times));
            }
            self.pending_rebase = false;
            return None;
        }
        let mut directives: Vec<AdaptationDirective> = verdict
            .demote
            .iter()
            .map(|slow| AdaptationDirective::DemoteExecutor {
                executor: *slow,
                recent_mean: verdict
                    .per_node_mean
                    .iter()
                    .find(|(n, _)| n == slow)
                    .map(|(_, m)| *m)
                    .unwrap_or(f64::NAN),
            })
            .collect();
        if verdict.recalibrate && self.can_recalibrate() {
            directives.push(AdaptationDirective::Recalibrate);
        }
        Some(EnginePoll {
            verdict,
            directives,
        })
    }

    /// Algorithm 2's action step: [`AdaptationEngine::poll`] at `now`, then
    /// apply its directives to `set` — every demotion first, each only while
    /// more than `max(1, min_active_nodes)` executors are active and only if
    /// `set` accepts it, then a whole-pool breach through
    /// [`ExecutorSet::recalibrate`].  Every applied action is logged against
    /// the verdict that caused it; a declined recalibration logs nothing and
    /// consumes no budget.
    pub fn steer(&mut self, now: SimTime, set: &mut impl ExecutorSet) {
        let Some(poll) = self.poll(now) else {
            return;
        };
        let verdict = poll.verdict;
        for directive in poll.directives {
            let action = match directive {
                AdaptationDirective::DemoteExecutor {
                    executor,
                    recent_mean,
                } => {
                    if set.active().len() <= self.min_active || !set.demote(executor) {
                        continue;
                    }
                    AdaptationAction::NodeDemoted {
                        node: executor,
                        recent_mean_time: recent_mean,
                    }
                }
                AdaptationDirective::Recalibrate => {
                    match set.recalibrate(now) {
                        Recalibration::Decline => continue,
                        Recalibration::Resample => self.pending_rebase = true,
                        Recalibration::Rebase(expected) if !expected.is_empty() => {
                            self.monitor.set_threshold(self.policy.compute(&expected))
                        }
                        Recalibration::Rebase(_) => {}
                    }
                    self.monitor.reset(now);
                    self.recalibrations += 1;
                    AdaptationAction::Recalibrated {
                        new_chosen: set.active(),
                    }
                }
                // Never emitted by an executor-mode poll.
                AdaptationDirective::RemapStage { .. } | AdaptationDirective::Speculate { .. } => {
                    continue
                }
            };
            self.log
                .record(now, action, verdict.threshold, verdict.min_time);
        }
    }

    /// Tail-speculation decision (Time-Warp-flavoured optimistic execution):
    /// the caller reports that every unit has been handed out (nothing
    /// pending) and `in_flight` of `total` units are still running; the
    /// engine answers with [`AdaptationDirective::Speculate`] when idle
    /// workers may duplicate them.
    ///
    /// Fires only when adaptation is on, speculation is enabled
    /// (`speculate_tail_fraction > 0`), at least one unit is in flight, and
    /// the in-flight count is within the configured tail fraction of the
    /// job (`in_flight ≤ max(1, ⌈fraction × total⌉)`) — duplicating earlier
    /// than the tail would burn capacity the pending queue still wants.
    /// Like every directive this is a *request*: the caller picks concrete
    /// units (each at most once), launches duplicates on workers that would
    /// otherwise go idle, and reports launches/wins back via
    /// [`AdaptationEngine::note_speculated`] /
    /// [`AdaptationEngine::note_speculation_won`].
    pub fn maybe_speculate(&self, in_flight: usize, total: usize) -> Option<AdaptationDirective> {
        if !self.adaptive || self.speculate_tail_fraction <= 0.0 || in_flight == 0 {
            return None;
        }
        let allowance = ((self.speculate_tail_fraction * total as f64).ceil() as usize).max(1);
        (in_flight <= allowance).then_some(AdaptationDirective::Speculate { in_flight })
    }

    /// Record that the caller launched a speculative duplicate of `unit` on
    /// idle worker `on`.
    pub fn note_speculated(&mut self, now: SimTime, unit: usize, on: NodeId) {
        self.log.record(
            now,
            AdaptationAction::UnitSpeculated { unit, on },
            self.monitor.threshold(),
            0.0,
        );
    }

    /// Record that the speculative duplicate of `unit` on worker `on` won
    /// the race (its result arrived first; the straggler's copy will be
    /// discarded on arrival).
    pub fn note_speculation_won(&mut self, now: SimTime, unit: usize, on: NodeId) {
        self.log.record(
            now,
            AdaptationAction::SpeculationWon { unit, on },
            self.monitor.threshold(),
            0.0,
        );
    }

    /// Record that the caller admitted an executor to the pool while
    /// execution was already running (dynamic membership).  The engine takes
    /// no position on the newcomer's speed yet — the caller ranks it through
    /// a calibration prefix and feeds the observations back via
    /// [`AdaptationEngine::observe`], after which the ordinary monitoring
    /// loop (including demotion) covers it like any founding member.
    pub fn note_node_joined(&mut self, now: SimTime, node: NodeId) {
        self.log.record(
            now,
            AdaptationAction::NodeJoined { node },
            self.monitor.threshold(),
            0.0,
        );
    }

    /// Record that the caller observed an executor loss (revocation, worker
    /// death) and requeued its in-flight work.
    pub fn note_node_lost(&mut self, now: SimTime, node: NodeId, requeued_tasks: usize) {
        self.log.record(
            now,
            AdaptationAction::NodeLost {
                node,
                requeued_tasks,
            },
            self.monitor.threshold(),
            0.0,
        );
    }

    // --------------------------- stage mode ---------------------------

    /// Stage-side report: one item took `service_s` seconds at `stage`.
    ///
    /// Returns a [`AdaptationDirective::RemapStage`] when the stage's
    /// recent-service window is full, its mean exceeds *Zₛ*, adaptation is
    /// enabled, budget remains, and the action-spacing gate allows it.
    pub fn observe_stage(
        &mut self,
        now: SimTime,
        stage: usize,
        service_s: f64,
    ) -> Option<AdaptationDirective> {
        let cap = self.stage_window_cap;
        let adaptive = self.adaptive;
        let budget_left = self.can_recalibrate();
        let window = self.stage_windows.get_mut(stage)?;
        window.push_back(service_s);
        if window.len() > cap {
            window.pop_front();
        }
        if !adaptive || !budget_left || window.len() < cap {
            return None;
        }
        if self.stage_action_interval_s > 0.0
            && (now - self.last_stage_action).as_secs() < self.stage_action_interval_s
        {
            return None;
        }
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        if mean > self.stage_thresholds[stage] {
            Some(AdaptationDirective::RemapStage {
                stage,
                recent_mean: mean,
            })
        } else {
            None
        }
    }

    /// Record that the caller moved a stage to a different executor.
    pub(crate) fn note_stage_remapped(
        &mut self,
        now: SimTime,
        stage: usize,
        from: NodeId,
        to: NodeId,
        trigger_value: f64,
    ) {
        let threshold = self.stage_threshold(stage);
        self.log.record(
            now,
            AdaptationAction::StageRemapped { stage, from, to },
            threshold,
            trigger_value,
        );
        self.last_stage_action = now;
    }

    /// Record that the caller replicated a stage across more executors (the
    /// shared-memory realisation of a stage remap).
    pub fn note_stage_replicated(
        &mut self,
        now: SimTime,
        stage: usize,
        replicas: usize,
        trigger_value: f64,
    ) {
        let threshold = self.stage_threshold(stage);
        self.log.record(
            now,
            AdaptationAction::StageReplicated { stage, replicas },
            threshold,
            trigger_value,
        );
        self.last_stage_action = now;
    }

    /// Record that the caller **live-migrated** a stage: checkpointed its
    /// `checkpointed_items` queued items and re-homed it from worker `from`
    /// to worker `to`, the old worker stopping (the Cactus-Worm realisation
    /// of a stage remap, chosen over replication when
    /// `ExecutionConfig::migrate_stages` is set).
    pub fn note_stage_migrated(
        &mut self,
        now: SimTime,
        stage: usize,
        from: NodeId,
        to: NodeId,
        checkpointed_items: usize,
        trigger_value: f64,
    ) {
        let threshold = self.stage_threshold(stage);
        self.log.record(
            now,
            AdaptationAction::StageMigrated {
                stage,
                from,
                to,
                checkpointed_items,
            },
            threshold,
            trigger_value,
        );
        self.last_stage_action = now;
    }

    /// Record the pipeline-style whole-mapping recalibration that drives
    /// stage remaps.
    pub(crate) fn note_stages_recalibrated(
        &mut self,
        now: SimTime,
        new_chosen: Vec<NodeId>,
        trigger_value: f64,
    ) {
        self.log.record(
            now,
            AdaptationAction::Recalibrated { new_chosen },
            0.0,
            trigger_value,
        );
        self.last_stage_action = now;
    }

    /// Replace every stage threshold (after a remap recomputed them).
    pub(crate) fn set_stage_thresholds(&mut self, thresholds: Vec<f64>) {
        self.stage_thresholds = thresholds;
    }

    /// Forget all recent stage services (after a remap: times from the old
    /// mapping must not condemn the new one).
    pub(crate) fn clear_stage_windows(&mut self) {
        for w in &mut self.stage_windows {
            w.clear();
        }
    }

    // ----------------------------- results -----------------------------

    /// The audit log so far.
    pub fn log(&self) -> &AdaptationLog {
        &self.log
    }

    /// Consume the engine, yielding the audit log.
    pub fn into_log(self) -> AdaptationLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionConfig;

    fn exec(interval: f64) -> ExecutionConfig {
        ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 2.0 },
            monitor_interval_s: interval,
            ..ExecutionConfig::default()
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn healthy_pool_yields_no_directives() {
        let mut e = AdaptationEngine::for_executors(&exec(1.0), &[1.0, 1.2], SimTime::ZERO);
        assert!((e.monitor.threshold() - 2.0).abs() < 1e-12);
        e.observe(NodeId(0), 1.1);
        e.observe(NodeId(1), 1.5);
        let poll = e.poll(t(1.0)).unwrap();
        assert!(poll.directives.is_empty());
        assert!(!poll.verdict.recalibrate);
        assert_eq!(e.evaluations(), 1);
    }

    #[test]
    fn rank_snapshot_reads_the_live_window_without_clearing_it() {
        let mut e = AdaptationEngine::for_executors(&exec(1.0), &[1.0, 1.2], SimTime::ZERO);
        assert!(e.rank_snapshot().is_empty());
        e.observe(NodeId(0), 1.0);
        e.observe(NodeId(0), 3.0);
        e.observe(NodeId(1), 0.5);
        let ranks = e.rank_snapshot();
        assert_eq!(ranks, vec![(NodeId(0), 2.0), (NodeId(1), 0.5)]);
        // Non-destructive: the interval evaluation still fires on the same
        // observations afterwards.
        let poll = e.poll(t(1.0)).unwrap();
        assert_eq!(poll.verdict.per_node_mean, ranks);
        assert!(e.rank_snapshot().is_empty(), "poll consumed the window");
    }

    /// A fixed executor set whose whole-pool breach answers `recalibration`.
    struct Pool {
        active: Vec<NodeId>,
        recalibration: Recalibration,
    }

    impl Pool {
        fn of(nodes: &[usize], recalibration: Recalibration) -> Self {
            Pool {
                active: nodes.iter().copied().map(NodeId).collect(),
                recalibration,
            }
        }
    }

    impl ExecutorSet for Pool {
        fn active(&self) -> Vec<NodeId> {
            self.active.clone()
        }

        fn demote(&mut self, executor: NodeId) -> bool {
            let before = self.active.len();
            self.active.retain(|&n| n != executor);
            self.active.len() < before
        }

        fn recalibrate(&mut self, _now: SimTime) -> Recalibration {
            self.recalibration.clone()
        }
    }

    #[test]
    fn pool_degradation_emits_recalibrate_within_budget() {
        let mut e = AdaptationEngine::for_executors(&exec(1.0), &[1.0], SimTime::ZERO);
        e.observe(NodeId(0), 5.0);
        e.observe(NodeId(1), 6.0);
        let poll = e.clone().poll(t(1.0)).unwrap();
        assert!(poll.directives.contains(&AdaptationDirective::Recalibrate));
        // Steering applies the recalibration: Z is re-based and the action
        // logged.
        e.steer(
            t(1.0),
            &mut Pool::of(&[0, 1], Recalibration::Rebase(vec![5.0, 6.0])),
        );
        assert!((e.monitor.threshold() - 10.0).abs() < 1e-12);
        assert_eq!(e.recalibrations(), 1);
        assert_eq!(e.log().recalibrations(), 1);
        // The new Z covers the degraded times: the next interval is quiet.
        e.observe(NodeId(0), 5.0);
        let poll = e.poll(t(2.0)).unwrap();
        assert!(poll.directives.is_empty());
    }

    #[test]
    fn exhausted_budget_suppresses_the_recalibrate_directive() {
        let mut cfg = exec(1.0);
        cfg.max_recalibrations = 0;
        let mut e = AdaptationEngine::for_executors(&cfg, &[1.0], SimTime::ZERO);
        e.observe(NodeId(0), 50.0);
        let poll = e.poll(t(1.0)).unwrap();
        assert!(
            poll.verdict.recalibrate,
            "the verdict still reports the breach"
        );
        assert!(
            !poll.directives.contains(&AdaptationDirective::Recalibrate),
            "but no directive is emitted without budget"
        );
    }

    #[test]
    fn pathological_executor_emits_demote_before_recalibrate() {
        let mut e = AdaptationEngine::for_executors(&exec(1.0), &[1.0], SimTime::ZERO);
        e.observe(NodeId(0), 1.1);
        e.observe(NodeId(7), 60.0); // > demote_factor (3) × Z (2)
        let poll = e.clone().poll(t(1.0)).unwrap();
        match &poll.directives[..] {
            [AdaptationDirective::DemoteExecutor {
                executor,
                recent_mean,
            }] => {
                assert_eq!(*executor, NodeId(7));
                assert!((recent_mean - 60.0).abs() < 1e-12);
            }
            other => panic!("unexpected directives {other:?}"),
        }
        e.steer(t(1.0), &mut Pool::of(&[0, 5, 7], Recalibration::Resample));
        assert_eq!(e.log().demotions(), 1);
    }

    #[test]
    fn disabled_adaptation_never_polls() {
        let mut cfg = exec(1.0);
        cfg.adaptive = false;
        let mut e = AdaptationEngine::for_executors(&cfg, &[1.0], SimTime::ZERO);
        e.observe(NodeId(0), 100.0);
        assert!(e.poll(t(10.0)).is_none());
        assert_eq!(e.evaluations(), 0);
    }

    #[test]
    fn resample_rebases_z_from_the_next_fresh_interval() {
        let mut e = AdaptationEngine::for_executors(&exec(1.0), &[1.0], SimTime::ZERO);
        e.observe(NodeId(0), 9.0);
        let poll = e.clone().poll(t(1.0)).unwrap();
        assert!(poll.directives.contains(&AdaptationDirective::Recalibrate));
        e.steer(t(1.0), &mut Pool::of(&[0], Recalibration::Resample));
        assert_eq!(e.log().recalibrations(), 1);
        // The next interval's fresh observations are the recalibration
        // sample: they re-base Z instead of producing a verdict.
        e.observe(NodeId(0), 8.0);
        assert!(e.poll(t(2.0)).is_none());
        assert!(
            (e.monitor.threshold() - 16.0).abs() < 1e-12,
            "Z = 2 x resampled best"
        );
        // Steady degraded times are now within Z: no further recalibration.
        e.observe(NodeId(0), 8.0);
        let poll = e.poll(t(3.0)).unwrap();
        assert!(poll.directives.is_empty());
        assert_eq!(e.recalibrations(), 1);
    }

    #[test]
    fn stage_mode_emits_remap_when_the_window_fills_hot() {
        let mut cfg = exec(1.0);
        cfg.monitor_window = 3;
        let mut e = AdaptationEngine::for_stages(&cfg, vec![0.5, 2.0]);
        // Stage 0 healthy, stage 1 needs a full hot window first.
        assert!(e.observe_stage(t(0.1), 0, 0.1).is_none());
        assert!(e.observe_stage(t(0.2), 1, 5.0).is_none());
        assert!(e.observe_stage(t(0.3), 1, 5.0).is_none());
        match e.observe_stage(t(0.4), 1, 5.0) {
            Some(AdaptationDirective::RemapStage { stage, recent_mean }) => {
                assert_eq!(stage, 1);
                assert!((recent_mean - 5.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.try_consume_recalibration());
        e.note_stage_remapped(t(0.4), 1, NodeId(2), NodeId(5), 5.0);
        e.note_stages_recalibrated(t(0.4), vec![NodeId(5)], 5.0);
        e.clear_stage_windows();
        e.set_stage_thresholds(vec![0.5, 10.0]);
        assert_eq!(e.log().stage_remaps(), 1);
        assert_eq!(e.log().recalibrations(), 1);
        // Cleared windows + relaxed threshold: no immediate re-trigger.
        assert!(e.observe_stage(t(0.5), 1, 5.0).is_none());
        assert!(e.observe_stage(t(0.6), 1, 5.0).is_none());
        assert!(e.observe_stage(t(0.7), 1, 5.0).is_none());
    }

    #[test]
    fn stage_action_interval_spaces_wall_clock_actions() {
        let mut cfg = exec(1.0);
        cfg.monitor_window = 1;
        let mut e = AdaptationEngine::for_stages(&cfg, vec![0.1]).with_stage_action_interval(10.0);
        // Breaches inside the first interval are suppressed — like the farm
        // monitor, the gate spaces actions one full interval apart, so
        // wall-clock start-up jitter cannot trigger an instant action.
        assert!(e.observe_stage(t(0.5), 0, 9.0).is_none());
        assert!(e.observe_stage(t(10.5), 0, 9.0).is_some());
        e.note_stage_replicated(t(10.5), 0, 2, 9.0);
        assert_eq!(e.log().stage_replications(), 1);
        // An immediate follow-up breach is suppressed again until the next
        // interval elapses.
        assert!(e.observe_stage(t(11.0), 0, 9.0).is_none());
        assert!(e.observe_stage(t(20.6), 0, 9.0).is_some());
    }

    #[test]
    fn wall_clock_reports_monotone_simtime() {
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert!(a.as_secs() >= 0.0);
    }

    #[test]
    fn wall_clock_reads_a_caller_taken_instant() {
        let before = Instant::now();
        let clock = WallClock::start();
        let later = Instant::now() + std::time::Duration::from_millis(250);
        assert_eq!(clock.at(before), SimTime::ZERO, "before the start is zero");
        let at = clock.at(later).as_secs();
        assert!((0.25..0.5).contains(&at), "{at}");
    }

    #[test]
    fn speculation_fires_only_inside_the_configured_tail() {
        let mut cfg = exec(1.0);
        cfg.speculate_tail_fraction = 0.25;
        let e = AdaptationEngine::for_executors(&cfg, &[1.0], SimTime::ZERO);
        // 100 units, fraction 0.25 → allowance 25 in flight.
        assert!(e.maybe_speculate(26, 100).is_none(), "still mid-job");
        assert_eq!(
            e.maybe_speculate(25, 100),
            Some(AdaptationDirective::Speculate { in_flight: 25 })
        );
        assert_eq!(
            e.maybe_speculate(1, 100),
            Some(AdaptationDirective::Speculate { in_flight: 1 })
        );
        assert!(e.maybe_speculate(0, 100).is_none(), "nothing to duplicate");
        // Tiny jobs: the allowance never rounds below one unit.
        let mut tiny = exec(1.0);
        tiny.speculate_tail_fraction = 0.01;
        let e = AdaptationEngine::for_executors(&tiny, &[1.0], SimTime::ZERO);
        assert!(e.maybe_speculate(1, 3).is_some());
    }

    #[test]
    fn speculation_respects_the_master_switches() {
        // Disabled by default (fraction 0).
        let e = AdaptationEngine::for_executors(&exec(1.0), &[1.0], SimTime::ZERO);
        assert!(e.maybe_speculate(1, 100).is_none());
        // Disabled when Algorithm 2 is off, whatever the fraction says.
        let mut cfg = exec(1.0);
        cfg.speculate_tail_fraction = 1.0;
        cfg.adaptive = false;
        let e = AdaptationEngine::for_executors(&cfg, &[1.0], SimTime::ZERO);
        assert!(e.maybe_speculate(1, 100).is_none());
    }

    #[test]
    fn speculation_launches_and_wins_are_logged() {
        let mut cfg = exec(1.0);
        cfg.speculate_tail_fraction = 0.5;
        let mut e = AdaptationEngine::for_executors(&cfg, &[1.0], SimTime::ZERO);
        e.note_speculated(t(1.0), 7, NodeId(2));
        e.note_speculation_won(t(1.1), 7, NodeId(2));
        assert_eq!(e.log().speculations(), 1);
        assert_eq!(e.log().speculation_wins(), 1);
    }

    #[test]
    fn stage_migration_is_logged_and_spaces_like_other_stage_actions() {
        let mut cfg = exec(1.0);
        cfg.monitor_window = 1;
        let mut e = AdaptationEngine::for_stages(&cfg, vec![0.1]).with_stage_action_interval(10.0);
        assert!(e.observe_stage(t(10.5), 0, 9.0).is_some());
        e.note_stage_migrated(t(10.5), 0, NodeId(0), NodeId(4), 6, 9.0);
        assert_eq!(e.log().stage_migrations(), 1);
        match &e.log().events()[0].action {
            AdaptationAction::StageMigrated {
                stage,
                from,
                to,
                checkpointed_items,
            } => {
                assert_eq!(
                    (*stage, *from, *to, *checkpointed_items),
                    (0, NodeId(0), NodeId(4), 6)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // The migration consumed the action slot: the next breach waits.
        assert!(e.observe_stage(t(11.0), 0, 9.0).is_none());
    }

    #[test]
    fn a_zero_work_unit_is_skipped_when_the_job_has_work() {
        let mut e = AdaptationEngine::for_executors(&exec(1.0), &[1.0], SimTime::ZERO);
        e.observe_unit(NodeId(0), 0.0, 0.5, t(0.5));
        assert!(e.rank_snapshot().is_empty(), "no signal per work unit");
        e.observe_unit(NodeId(0), 4.0, 2.0, t(0.6));
        assert_eq!(e.rank_snapshot(), vec![(NodeId(0), 0.5)]);
    }

    #[test]
    fn an_all_zero_work_job_is_monitored_in_raw_seconds() {
        let mut e =
            AdaptationEngine::for_executors(&exec(1.0), &[1.0], SimTime::ZERO).with_units(false, 0);
        e.observe_unit(NodeId(1), 0.0, 0.25, t(0.5));
        assert_eq!(e.rank_snapshot(), vec![(NodeId(1), 0.25)]);
    }

    #[test]
    fn the_calibration_prefix_arms_on_its_last_observation() {
        let mut e =
            AdaptationEngine::for_executors(&exec(1.0), &[], SimTime::ZERO).with_units(true, 3);
        e.observe_unit(NodeId(0), 2.0, 2.0, t(0.1));
        e.observe_unit(NodeId(1), 0.0, 9.0, t(0.2)); // skipped: not a sample
        e.observe_unit(NodeId(1), 1.0, 3.0, t(0.3));
        assert_eq!(e.armed_at(), None);
        assert!(
            e.monitor.threshold().is_infinite(),
            "nothing can fire before Z"
        );
        e.observe_unit(NodeId(0), 1.0, 1.5, t(0.4));
        assert_eq!(e.armed_at(), Some(t(0.4)));
        assert!((e.sample_best() - 1.0).abs() < 1e-12);
        assert!(
            (e.monitor.threshold() - 2.0).abs() < 1e-12,
            "Z = 2 x best sample"
        );
        // The sample never reached the monitor; the next unit does.
        assert!(e.rank_snapshot().is_empty());
        e.observe_unit(NodeId(1), 1.0, 1.25, t(0.5));
        assert_eq!(e.rank_snapshot(), vec![(NodeId(1), 1.25)]);
        // The monitor interval restarted at the arming observation.
        assert!(!e.due(t(1.3)));
        assert!(e.due(t(1.5)));
    }
}
