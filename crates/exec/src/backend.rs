//! The shared-memory [`Backend`]: composable skeletons on real threads.
//!
//! [`ThreadBackend`] adapts [`ThreadFarm`] and [`ThreadPipeline`] to the
//! `grasp-core` [`Backend`] trait so the *same* [`Skeleton`] expression that
//! drives the simulated grid runs on the local machine:
//!
//! * farm-shaped expressions (including farm-of-pipelines, via the shared
//!   lowering of [`Skeleton::lower_to_farm`]) become a [`ThreadFarm`] whose
//!   tasks execute a calibrated spin kernel proportional to each unit's
//!   declared work;
//! * pipeline-shaped expressions become a [`ThreadPipeline`], with farmed
//!   stages realised as genuinely replicated stage workers
//!   ([`ThreadPipeline::stage_replicated`]).
//!
//! Because both backends lower compositions through the same rules, their
//! outcomes agree structurally — same unit ids, same per-child counts — even
//! though one clock is virtual and the other is wall time.  That is what
//! makes backend-parity tests and experiment portability possible.
//!
//! **Adaptation** runs through the same backend-neutral
//! [`grasp_core::engine::AdaptationEngine`] the simulated grid uses
//! (Algorithms 1–2): farm workers report wall-clock seconds-per-work-unit
//! observations, the engine compares them against the calibrated threshold
//! *Z* every monitor interval, and steers the pool through the farm's
//! [`crate::farm::WorkerGate`] — a pathological worker is demoted (it stops
//! pulling chunks), and a whole-pool breach triggers a fresh
//! re-calibration sample that re-bases *Z*
//! ([`grasp_core::engine::AdaptationEngine::steer`]).  Pipelines
//! run the stage-mode loop: a breached stage activates a standby replica
//! ([`ThreadPipeline::with_adaptation`]).  Observations are also plumbed
//! into a [`gridmon::MonitorRegistry`] so the same forecasters that smooth
//! simulated load smooth wall-clock load (reported per worker in
//! [`OutcomeDetail::ThreadFarm`]).

use crate::farm::{RankTable, SpeculationPolicy, ThreadFarm, UnitObserver, UnitTiming, WorkerGate};
use crate::padded::CachePadded;
use crate::pipeline::ThreadPipeline;
use grasp_core::adaptation::AdaptationLog;
use grasp_core::config::{BackendConfig, ExecutionConfig, FaultInjection};
use grasp_core::engine::{AdaptationEngine, WallClock};
use grasp_core::error::GraspError;
use grasp_core::skeleton::{
    Backend, OutcomeDetail, ResilienceReport, Skeleton, SkeletonOutcome, UnitSpan,
};
use grasp_core::{GraspConfig, StageSpec};
use gridmon::{MonitorRegistry, NodeObservation};
use gridsim::NodeId;
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spin for approximately `iters` iterations of optimisation-resistant
/// integer work — the real computational kernel synthesised from a unit's
/// abstract work declaration (also the spin loop the crate's tests use, so
/// the kernel lives in exactly one place).  Public so the process-isolated
/// backend's workers burn the *same* kernel per declared work unit, keeping
/// thread/process comparisons like-for-like.
pub fn spin(iters: u64) -> u64 {
    let mut acc = 0x9E3779B97F4A7C15u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
    }
    black_box(acc)
}

/// The real-thread execution backend for skeleton expressions.
///
/// Job-level parameters come from the [`GraspConfig`] handed to
/// `Grasp::run`: the farm scheduling policy (`config.scheduler`) and the
/// calibration sample count (`config.calibration.samples_per_node`, unless
/// overridden with [`ThreadBackend::with_config`]).  The grid-monitoring knobs
/// — threshold *Z* policy, `monitor_interval_s`, `demote_factor`,
/// `max_recalibrations`, `min_active_nodes`, the `adaptive` master switch —
/// drive the **same** Algorithm-2 loop as on the simulated grid, via the
/// shared [`AdaptationEngine`] on wall-clock observations: a breach demotes
/// the slow worker or re-bases *Z* from a fresh re-calibration sample, on
/// top of the continuous demand-driven weighted chunking.  The interval is
/// interpreted in wall seconds, so short test runs under the default 5 s
/// interval never reach an evaluation — adaptation engages on runs long
/// enough for the signal to beat scheduler noise.  Calibration is the
/// engine's Algorithm 1 here too: with `samples_per_node == 0` there is no
/// calibrated baseline, hence no *Z*, hence no threshold-driven adaptation.
#[derive(Debug, Clone)]
pub struct ThreadBackend {
    workers: usize,
    /// Explicit override of the config's calibration sample count.
    calibration_samples: Option<usize>,
    /// Spin iterations executed per declared work unit.
    spin_per_work_unit: u64,
    /// Bounded attempts per unit before the run fails.
    max_task_attempts: usize,
    /// Panics one farm worker may absorb before retiring from the pool.
    worker_panic_budget: usize,
    /// Fault injection: the first `inject_panics` unit executions of each run
    /// panic (the shared-memory churn analogue of node revocation).
    inject_panics: usize,
    /// Slowdown injection: after `after_units` executions, spin `factor`×
    /// more per unit, pool-wide or on one worker (the wall-clock analogue
    /// of gridsim's external-load spike).
    slowdown: Option<SlowdownInjection>,
}

/// The thread realisation of a [`FaultInjection`] slowdown.
#[derive(Debug, Clone, Copy)]
struct SlowdownInjection {
    /// Unit executions (across the pool) before the slowdown sets in.
    after_units: usize,
    /// Spin multiplier once active.
    factor: f64,
    /// Restrict the slowdown to one worker id (`None` = whole pool).
    worker: Option<usize>,
}

impl Default for ThreadBackend {
    fn default() -> Self {
        ThreadBackend::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
        )
    }
}

impl ThreadBackend {
    /// A backend with `workers` farm threads and a small default kernel
    /// scale; scheduling policy and calibration sample count come from the
    /// job's [`GraspConfig`] unless overridden.
    pub fn new(workers: usize) -> Self {
        ThreadBackend {
            workers: workers.max(1),
            calibration_samples: None,
            spin_per_work_unit: 500,
            max_task_attempts: 3,
            worker_panic_budget: 3,
            inject_panics: 0,
            slowdown: None,
        }
    }

    /// Apply a shared [`BackendConfig`]: the one builder every backend
    /// understands.  Unset fields keep this backend's defaults.  The
    /// `heartbeat` and `worker_bin` knobs have no thread analogue — workers
    /// share the master's address space and fate, so there is no wire to
    /// time out on and no separate binary to spawn — and are ignored.  The
    /// plan's [`FaultInjection`] is applied as by
    /// `ThreadBackend::with_fault_injection`.
    pub fn with_config(mut self, cfg: BackendConfig) -> Self {
        if let Some(samples) = cfg.calibration_samples {
            self.calibration_samples = Some(samples);
        }
        if let Some(iters) = cfg.spin_per_work_unit {
            self.spin_per_work_unit = iters.max(1);
        }
        if let Some(attempts) = cfg.max_task_attempts {
            self.max_task_attempts = attempts.max(1);
        }
        if let Some(budget) = cfg.worker_panic_budget {
            self.worker_panic_budget = budget;
        }
        self.with_fault_injection(cfg.faults)
    }

    /// Apply a typed [`FaultInjection`] plan, replacing any previously
    /// configured injection outright (the plan is the complete description
    /// of the run's faults).  Threads realise `panics` as unit executions
    /// that panic before doing work (the shared-memory analogue of node
    /// revocation) and `slowdown` as a spin multiplier; `kill` and
    /// `join_spawn` have no thread analogue — there is no separate process
    /// to kill and no wire for late joiners — and are ignored.
    pub(crate) fn with_fault_injection(mut self, faults: FaultInjection) -> Self {
        self.inject_panics = faults.panics;
        self.slowdown = faults.slowdown.map(|s| SlowdownInjection {
            after_units: s.after_units,
            factor: s.factor.max(1.0),
            worker: s.worker,
        });
        self
    }

    fn iters_for(&self, work: f64) -> u64 {
        (work.max(0.0) * self.spin_per_work_unit as f64).round() as u64
    }
}

/// The wall-clock driver of the shared [`AdaptationEngine`] for farm runs:
/// workers report each completed unit through [`ThreadAdaptation::report`],
/// which hands the engine its calibration prefix (Algorithm 1, arming *Z*),
/// then feeds the engine and the gridmon forecasters per-interval means and
/// lets the engine steer the pool through the [`WorkerGate`].
struct ThreadAdaptation {
    engine: Mutex<AdaptationEngine>,
    clock: WallClock,
    gate: Arc<WorkerGate>,
    /// Published per-worker calibration ranks: refreshed from the engine's
    /// live window on every monitor flush, read lock-free by the farm's
    /// work-stealing dispatch (owner chunk weighting, victim selection).
    ranks: Arc<RankTable>,
    /// gridmon plumbing: per-worker wall observations → forecasters.
    registry: Mutex<MonitorRegistry>,
    /// Whether the job declares any work: the engine's observation rule
    /// ([`AdaptationEngine::unit_time`]), applied here without its lock.
    job_has_work: bool,
    /// Set once the engine's calibration prefix armed it.
    armed: AtomicBool,
    /// Per-worker running observation totals, each on its own cache line
    /// and written only by its worker, so recording an observation takes
    /// no lock and no shared write.  The engine and registry locks are
    /// taken once per monitor interval, by whichever worker wins the
    /// `next_due_micros` race.
    totals: Vec<CachePadded<ObsTotals>>,
    /// Every worker's totals as of the previous flush (touched only while
    /// flushing): the difference is exactly the interval's observations.
    flushed: Mutex<Vec<(f64, u64)>>,
    /// Wall microseconds (on `clock`) when the next evaluation is due —
    /// the lock-free gate each worker checks against its cached copy.
    next_due_micros: AtomicU64,
    interval_micros: u64,
    workers: usize,
}

impl ThreadAdaptation {
    fn new(exec: &ExecutionConfig, workers: usize, calib_units: usize, job_has_work: bool) -> Self {
        ThreadAdaptation {
            // Armed with an empty reference sample: Z stays infinite until
            // the calibration prefix completes, so nothing can fire early.
            engine: Mutex::new(
                AdaptationEngine::for_executors(exec, &[], gridsim::SimTime::ZERO)
                    .with_units(job_has_work, calib_units),
            ),
            clock: WallClock::start(),
            gate: Arc::new(WorkerGate::new(workers)),
            ranks: Arc::new(RankTable::new(workers)),
            registry: Mutex::new(MonitorRegistry::new(NodeId(0), 64)),
            job_has_work,
            armed: AtomicBool::new(false),
            totals: (0..workers).map(|_| CachePadded::default()).collect(),
            flushed: Mutex::new(vec![(0.0, 0); workers]),
            next_due_micros: AtomicU64::new(u64::MAX),
            interval_micros: (exec.monitor_interval_s * 1e6).max(1.0) as u64,
            workers,
        }
    }

    /// Worker-side report of one completed unit: `work` declared units ran
    /// on worker `wid` for the span `timing` the farm measured.
    ///
    /// Hot path: worker-local state only — `local`'s cached arming flag
    /// and due time, and the worker's own padded totals (plain stores, no
    /// lock, no read-modify-write); the stamp that ends the unit's timing
    /// is also its observation time, so the report reads no clock.  Once
    /// per monitor interval a single worker flushes every worker's totals
    /// into the engine (the monitor evaluates per-interval per-worker
    /// *means*, so accumulating the interval's observations into one mean
    /// per worker is the same table *T* the verdict would have computed)
    /// and lets it steer.
    fn report(&self, local: &mut ObsLocal, wid: usize, work: f64, timing: &UnitTiming) {
        let elapsed_s = timing.elapsed().as_secs_f64();
        let now = self.clock.at(timing.finished);
        if !local.armed {
            if !self.armed.load(Ordering::Acquire) {
                // Algorithm 1: the engine takes the calibration prefix
                // itself; completing it derives Z and starts the monitor
                // interval.
                let mut engine = self.engine.lock();
                if !self.armed.load(Ordering::Acquire) {
                    engine.observe_unit(NodeId(wid), work, elapsed_s, now);
                    if let Some(armed_at) = engine.armed_at() {
                        self.next_due_micros.store(
                            Self::micros(armed_at) + self.interval_micros,
                            Ordering::Relaxed,
                        );
                        self.armed.store(true, Ordering::Release);
                    }
                    return;
                }
            }
            local.armed = true;
        }
        let Some(t_norm) = AdaptationEngine::unit_time(self.job_has_work, work, elapsed_s) else {
            return;
        };
        self.totals[wid].add(t_norm);
        // Lock-free due gate, checked against this worker's cached copy
        // first: the shared word only moves forward, so the cache is a
        // lower bound and the shared word is read once per interval.  The
        // compare-exchange elects exactly one flusher per interval.
        let now_micros = Self::micros(now);
        if now_micros < local.due_micros {
            return;
        }
        let due = self.next_due_micros.load(Ordering::Relaxed);
        if now_micros < due {
            local.due_micros = due;
            return;
        }
        if self
            .next_due_micros
            .compare_exchange(
                due,
                now_micros + self.interval_micros,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        let mut engine = self.engine.lock();
        // Flush every worker's interval mean into the engine and the
        // gridmon forecasters (the slowdown relative to the calibrated
        // baseline becomes the load estimate).
        let baseline = engine.sample_best();
        let mut registry = self.registry.lock();
        let mut flushed = self.flushed.lock();
        for (w, (totals, last)) in self.totals.iter().zip(flushed.iter_mut()).enumerate() {
            let (sum, count) = totals.read();
            let (interval_sum, interval_count) = (sum - last.0, count - last.1);
            *last = (sum, count);
            if interval_count > 0 {
                let mean = interval_sum / interval_count as f64;
                engine.observe(NodeId(w), mean);
                registry.record(NodeObservation::from_wall_times(
                    NodeId(w),
                    now,
                    baseline,
                    mean,
                ));
            }
        }
        drop(flushed);
        drop(registry);
        // Publish the refreshed calibration ranks (the engine's live
        // per-node means) before the evaluation clears the window, so the
        // stealing dispatcher steers by this interval's observations.
        for (node, mean) in engine.rank_snapshot() {
            self.ranks.set(node.index(), mean);
        }
        // The gate is the pool: a demoted worker stops pulling, and a
        // whole-pool breach takes a fresh re-calibration sample.
        engine.steer(now, &mut &*self.gate);
    }

    /// Microseconds of a clock stamp (saturating; the run is far shorter
    /// than the ~584-millennium overflow horizon).
    fn micros(t: gridsim::SimTime) -> u64 {
        (t.as_secs() * 1e6) as u64
    }

    /// Per-worker external-load forecast (see
    /// [`OutcomeDetail::ThreadFarm`]'s `load_per_worker`).
    fn load_per_worker(&self) -> Vec<f64> {
        let registry = self.registry.lock();
        (0..self.workers)
            // A load is a fraction by definition; the forecast is clamped
            // accordingly (predictors may overshoot slightly on trends).
            .map(|w| {
                registry
                    .forecast_cpu_load(NodeId(w))
                    .unwrap_or(0.0)
                    .clamp(0.0, 1.0)
            })
            .collect()
    }

    fn into_log(self) -> AdaptationLog {
        self.engine.into_inner().into_log()
    }
}

/// The farm asks the engine before duplicating a straggler, and reports
/// launches/wins back so the run's [`AdaptationLog`] records them — the
/// speculation decision routed through the same engine as demotion and
/// recalibration.
impl SpeculationPolicy for ThreadAdaptation {
    fn allow(&self, in_flight: usize, total: usize) -> bool {
        self.engine.lock().maybe_speculate(in_flight, total)
    }

    fn note_launched(&self, unit: usize, worker: usize) {
        let now = self.clock.now();
        self.engine
            .lock()
            .note_speculated(now, unit, NodeId(worker));
    }

    fn note_win(&self, unit: usize, worker: usize) {
        let now = self.clock.now();
        self.engine
            .lock()
            .note_speculation_won(now, unit, NodeId(worker));
    }
}

/// One farm worker's running observation totals: the cumulative sum of its
/// normalised times and their count.  Written only by that worker, read by
/// whichever worker flushes, as a sequence lock: the sequence word is odd
/// while a write is in progress, and a reader retries until it reads the
/// same even word before and after the two totals — so it never sees a sum
/// without its count.
#[derive(Debug, Default)]
struct ObsTotals {
    seq: AtomicU64,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl ObsTotals {
    /// Add one observation.  Owner only (single writer): loads and stores
    /// on the owner's own cache line, no read-modify-write.
    fn add(&self, t: f64) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) + t;
        self.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
        let count = self.count.load(Ordering::Relaxed);
        self.count.store(count + 1, Ordering::Relaxed);
        self.seq.store(seq + 2, Ordering::Release);
    }

    /// A consistent `(sum, count)` snapshot, from any thread.
    fn read(&self) -> (f64, u64) {
        loop {
            let seq = self.seq.load(Ordering::Acquire);
            let sum = self.sum_bits.load(Ordering::Relaxed);
            let count = self.count.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if seq % 2 == 0 && self.seq.load(Ordering::Relaxed) == seq {
                return (f64::from_bits(sum), count);
            }
            // The owner is mid-write: a few instructions, unless it was
            // preempted there.
            std::thread::yield_now();
        }
    }
}

/// One farm worker's cached view of the adaptation driver's shared gates.
/// Both only ever move one way (armed stays armed, the due time only
/// advances), so a stale copy is safe: it just sends the worker to the
/// shared word, once per interval.
#[derive(Debug, Default)]
struct ObsLocal {
    armed: bool,
    due_micros: u64,
}

/// The thread backend's per-unit accounting, on the farm's own timing of
/// each unit: the engine observation for every successful execution and,
/// for the recorded one only, the worker's declared-work credit and — when
/// the skeleton has composition spans to report — its completion stamp.
struct FarmAccounting<'a> {
    units: &'a [(usize, f64)],
    adaptation: Option<&'a ThreadAdaptation>,
    run_start: Instant,
    stamp_completions: bool,
}

/// One farm worker's share of [`FarmAccounting`], owned by its thread.
#[derive(Debug, Default)]
struct WorkerAccount {
    /// Declared work of the units this worker recorded, in micro-work-units.
    work_micros: u64,
    /// `(unit id, seconds since the run started)` of the units this worker
    /// recorded; filled only when completions are stamped.
    completions: Vec<(usize, f64)>,
    obs: ObsLocal,
}

impl UnitObserver for FarmAccounting<'_> {
    type Local = WorkerAccount;

    fn unit_done(
        &self,
        account: &mut WorkerAccount,
        worker: usize,
        index: usize,
        timing: UnitTiming,
        recorded: bool,
    ) {
        let (id, work) = self.units[index];
        // Every execution is real work on its worker, the losing copy of a
        // speculated unit included: the engine sees them all.
        if let Some(driver) = self.adaptation {
            driver.report(&mut account.obs, worker, work, &timing);
        }
        // Work credit and completion only for the recorded copy: a
        // superseded straggler must not be charged to its worker.
        if recorded {
            account.work_micros += (work * 1e6) as u64;
            if self.stamp_completions {
                let done = timing.finished.saturating_duration_since(self.run_start);
                account.completions.push((id, done.as_secs_f64()));
            }
        }
    }
}

/// A skeleton bound to the thread backend, ready to execute.
#[derive(Debug, Clone)]
pub struct ThreadCompiled {
    plan: ThreadPlan,
    kind: grasp_core::SkeletonKind,
}

#[derive(Debug, Clone)]
enum ThreadPlan {
    /// Flat unit list (global id, declared work) plus the composition spans.
    Farm {
        units: Vec<(usize, f64)>,
        spans: Vec<UnitSpan>,
    },
    /// Raw stages with their replica counts and the stream length.
    Pipeline {
        stages: Vec<StageSpec>,
        replicas: Vec<usize>,
        items: usize,
    },
}

impl Backend for ThreadBackend {
    type Compiled = ThreadCompiled;

    fn name(&self) -> &'static str {
        "threads"
    }

    fn compile(
        &self,
        config: &GraspConfig,
        skeleton: &Skeleton,
    ) -> Result<Self::Compiled, GraspError> {
        config.validate()?;
        skeleton.validate()?;
        let plan = match skeleton.pipeline_plan() {
            Some((stages, replicas, items)) => ThreadPlan::Pipeline {
                stages,
                replicas,
                items,
            },
            None => {
                let (tasks, spans) = skeleton.lower_to_farm();
                ThreadPlan::Farm {
                    units: tasks.iter().map(|t| (t.id, t.work)).collect(),
                    spans,
                }
            }
        };
        Ok(ThreadCompiled {
            plan,
            kind: skeleton.kind(),
        })
    }

    fn execute(
        &self,
        config: &GraspConfig,
        compiled: &Self::Compiled,
    ) -> Result<SkeletonOutcome, GraspError> {
        let policy = config.scheduler;
        // Fault-injection budget for this run: the first `inject_panics`
        // unit executions panic before doing any work.
        let injector = Arc::new(AtomicUsize::new(self.inject_panics));
        let maybe_inject = move |injector: &AtomicUsize| {
            if injector
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_ok()
            {
                panic!("injected worker fault (churn analogue)");
            }
        };
        match &compiled.plan {
            ThreadPlan::Farm { units, spans } => {
                let samples = self
                    .calibration_samples
                    .unwrap_or(config.calibration.samples_per_node);
                // The shared Algorithm-2 loop: the first `workers × samples`
                // completed units are the calibration sample (they execute
                // inside the job, exactly as on the grid); without a
                // calibration sample there is no Z, hence no engine.
                let adaptation = (config.execution.adaptive && samples > 0).then(|| {
                    Arc::new(ThreadAdaptation::new(
                        &config.execution,
                        self.workers,
                        self.workers * samples,
                        units.iter().any(|&(_, w)| w > 0.0),
                    ))
                });
                let mut farm = ThreadFarm::new(self.workers)
                    .with_policy(policy)
                    .with_calibration_samples(samples)
                    .with_max_task_attempts(self.max_task_attempts)
                    .with_worker_panic_budget(self.worker_panic_budget);
                if let Some(driver) = &adaptation {
                    farm = farm
                        .with_gate(Arc::clone(&driver.gate))
                        .with_rank_table(Arc::clone(&driver.ranks));
                    // Tail speculation routes through the engine: idle
                    // workers consult `maybe_speculate` before duplicating
                    // an in-flight straggler.
                    if config.execution.speculate_tail_fraction > 0.0 {
                        farm =
                            farm.with_speculation(Arc::clone(driver) as Arc<dyn SpeculationPolicy>);
                    }
                }
                // Per-unit accounting on the farm's own timing of each unit
                // (worker-local, see `FarmAccounting`).  Declared work per
                // worker is reported so experiments can judge schedule
                // balance on any hardware (see `OutcomeDetail::ThreadFarm`);
                // completion stamps only feed the composition spans, so a
                // flat farm takes none.
                let accounting = FarmAccounting {
                    units,
                    adaptation: adaptation.as_deref(),
                    run_start: Instant::now(),
                    stamp_completions: !spans.is_empty(),
                };
                let executed_units = AtomicUsize::new(0);
                let (mut unit_ids, stats, accounts) =
                    farm.try_run_observed(units, &accounting, |wid, &(id, work)| {
                        if self.inject_panics > 0 {
                            maybe_inject(&injector);
                        }
                        let mut iters = self.iters_for(work);
                        if let Some(slow) = &self.slowdown {
                            let n = executed_units.fetch_add(1, Ordering::Relaxed);
                            if n >= slow.after_units && slow.worker.map_or(true, |w| w == wid) {
                                iters = (iters as f64 * slow.factor).round() as u64;
                            }
                        }
                        spin(iters);
                        id
                    })?;
                let work_per_worker: Vec<f64> = accounts
                    .iter()
                    .map(|a| a.work_micros as f64 / 1e6)
                    .collect();
                // The farm holds the only other handle on the driver (its
                // speculation policy); dropping it lets the driver unwrap
                // so the engine's log can be consumed.
                drop(farm);
                let (load_per_worker, adaptation_log) = match adaptation {
                    Some(driver) => {
                        let load = driver.load_per_worker();
                        let driver = Arc::try_unwrap(driver)
                            .ok()
                            .expect("the dropped farm held the last other driver handle");
                        (load, driver.into_log())
                    }
                    None => (vec![0.0; self.workers], AdaptationLog::new()),
                };
                let makespan_s = stats.total.as_secs_f64();
                // Sparse id → wall-clock completion table: leaf farms keep
                // their original (possibly arbitrary) ids, so no dense
                // max-id-sized buffer.  Spans share it via the same helper
                // the simulated backend uses.
                let completions: std::collections::BTreeMap<usize, f64> = accounts
                    .iter()
                    .flat_map(|a| a.completions.iter().copied())
                    .collect();
                unit_ids.sort_unstable();
                Ok(SkeletonOutcome {
                    kind: compiled.kind,
                    completed: unit_ids.len(),
                    unit_ids,
                    makespan_s,
                    calibration_s: stats.calibration.as_secs_f64(),
                    adaptation_log,
                    resilience: ResilienceReport {
                        // Each caught panic hands the task back to the pool…
                        requeued_tasks: stats.panics,
                        // …and each retried task eventually completed again.
                        retried_tasks: stats.retried,
                        migrated_stages: 0,
                        nodes_lost: stats.workers_lost,
                        speculated_units: stats.speculated_units,
                        speculation_wins: stats.speculation_wins,
                    },
                    children: spans.iter().map(|s| s.outcome_from(&completions)).collect(),
                    detail: OutcomeDetail::ThreadFarm {
                        workers: stats.workers,
                        tasks_per_worker: stats.tasks_per_worker.clone(),
                        work_per_worker,
                        load_per_worker,
                        steals_attempted: stats.steals_attempted,
                        steals_completed: stats.steals_completed,
                        units_stolen: stats.units_stolen,
                    },
                })
            }
            ThreadPlan::Pipeline {
                stages,
                replicas,
                items,
            } => {
                let mut pipeline: ThreadPipeline<usize> = ThreadPipeline::new()
                    .with_max_task_attempts(self.max_task_attempts)
                    // The shared stage-mode loop: probe-calibrated Zₛ per
                    // stage, breach → standby replica (a no-op when the
                    // config disables adaptation).
                    .with_adaptation(config.execution);
                if config.execution.migrate_stages {
                    // Stream items are indices: the checkpoint codec is one
                    // u64 through the wire payload format, and a breach
                    // re-homes the stage instead of replicating it.
                    pipeline = pipeline.with_migration(
                        |x, w| w.put_u64(*x as u64),
                        |r| r.take_u64().map(|v| v as usize),
                    );
                }
                for (stage, &r) in stages.iter().zip(replicas) {
                    let iters = self.iters_for(stage.work_per_item);
                    let injector = Arc::clone(&injector);
                    let f = move |x: usize| {
                        maybe_inject(&injector);
                        spin(iters);
                        x
                    };
                    pipeline = if r > 1 {
                        pipeline.stage_replicated(f, r)
                    } else {
                        pipeline.stage(f)
                    };
                }
                let (out, stats) = pipeline.try_run((0..*items).collect())?;
                let mut unit_ids = out;
                unit_ids.sort_unstable();
                Ok(SkeletonOutcome {
                    kind: compiled.kind,
                    completed: unit_ids.len(),
                    unit_ids,
                    makespan_s: stats.total.as_secs_f64(),
                    calibration_s: 0.0,
                    adaptation_log: stats.adaptation.clone(),
                    resilience: ResilienceReport {
                        requeued_tasks: 0,
                        retried_tasks: stats.retried,
                        migrated_stages: stats.adaptation.stage_migrations(),
                        nodes_lost: 0,
                        speculated_units: 0,
                        speculation_wins: 0,
                    },
                    children: Vec::new(),
                    detail: OutcomeDetail::ThreadPipeline {
                        bottleneck_stage: stats.bottleneck_stage,
                        replicas_per_stage: stats.replicas_per_stage.clone(),
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::{Grasp, SkeletonKind, TaskSpec};

    fn fast_backend() -> ThreadBackend {
        ThreadBackend::new(3).with_config(BackendConfig::new().spin_per_work_unit(1))
    }

    fn lane(items: usize) -> Skeleton {
        Skeleton::pipeline(StageSpec::balanced(3, 4.0, 1024), items)
    }

    #[test]
    fn farm_skeleton_completes_every_unit_exactly_once() {
        let skeleton = Skeleton::farm(TaskSpec::uniform(50, 2.0, 0, 0));
        let report = Grasp::new(GraspConfig::default())
            .run(&fast_backend(), &skeleton)
            .unwrap();
        assert_eq!(report.outcome.completed, 50);
        assert_eq!(report.outcome.unit_ids, (0..50).collect::<Vec<_>>());
        assert!(report.outcome.conserves_units_of(&skeleton));
        assert!(matches!(
            report.outcome.detail,
            OutcomeDetail::ThreadFarm { workers: 3, .. }
        ));
    }

    #[test]
    fn nested_farm_of_pipelines_runs_on_threads() {
        let skeleton = Skeleton::farm_of(vec![
            lane(8),
            Skeleton::farm(TaskSpec::uniform(5, 1.0, 0, 0)),
            lane(8),
        ]);
        let report = Grasp::new(GraspConfig::default())
            .run(&fast_backend(), &skeleton)
            .unwrap();
        assert_eq!(report.outcome.kind, SkeletonKind::FarmOfPipelines);
        assert_eq!(report.outcome.completed, 21);
        assert!(report.outcome.conserves_units_of(&skeleton));
        assert_eq!(report.outcome.children.len(), 3);
        assert_eq!(report.outcome.children[1].completed, 5);
        // Child makespans are each child's own last completion, bounded by
        // the whole run — not a copy of the parent's.
        for c in &report.outcome.children {
            assert!(c.makespan_s > 0.0);
            assert!(c.makespan_s <= report.outcome.makespan_s);
        }
    }

    #[test]
    fn job_config_drives_policy_and_calibration_unless_overridden() {
        let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
        // Config with calibration disabled: the backend must honour it.
        let mut cfg = GraspConfig::default();
        cfg.calibration.samples_per_node = 0;
        cfg.scheduler = grasp_core::SchedulePolicy::SelfScheduling;
        let report = Grasp::new(cfg)
            .run(
                &ThreadBackend::new(2).with_config(BackendConfig::new().spin_per_work_unit(1)),
                &skeleton,
            )
            .unwrap();
        assert_eq!(report.outcome.calibration_s, 0.0);
        assert_eq!(report.outcome.completed, 30);
        // An explicit backend override wins over the config.
        let report = Grasp::new(cfg)
            .run(
                &ThreadBackend::new(2).with_config(
                    BackendConfig::new()
                        .spin_per_work_unit(1)
                        .calibration_samples(2),
                ),
                &skeleton,
            )
            .unwrap();
        assert!(report.outcome.calibration_s >= 0.0);
        assert_eq!(report.outcome.completed, 30);
    }

    #[test]
    fn pipeline_of_farms_replicates_the_farmed_stage() {
        use grasp_core::FarmedStage;
        let skeleton = Skeleton::pipeline_of(
            vec![
                FarmedStage::plain(StageSpec::new(0, 1.0, 0, 0)),
                FarmedStage::farmed(StageSpec::new(1, 8.0, 0, 0), 3),
            ],
            30,
        );
        let report = Grasp::new(GraspConfig::default())
            .run(&fast_backend(), &skeleton)
            .unwrap();
        assert_eq!(report.outcome.kind, SkeletonKind::PipelineOfFarms);
        assert_eq!(report.outcome.completed, 30);
        match &report.outcome.detail {
            OutcomeDetail::ThreadPipeline {
                replicas_per_stage, ..
            } => assert_eq!(replicas_per_stage, &vec![1, 3]),
            other => panic!("unexpected detail {other:?}"),
        }
    }

    #[test]
    fn invalid_expressions_are_rejected_at_compile_time() {
        let backend = fast_backend();
        let cfg = GraspConfig::default();
        assert!(backend.compile(&cfg, &Skeleton::farm(vec![])).is_err());
        assert!(backend
            .compile(
                &cfg,
                &Skeleton::farm_of(vec![Skeleton::pipeline(vec![], 4)])
            )
            .is_err());
    }

    #[test]
    fn default_backend_uses_available_parallelism() {
        assert!(ThreadBackend::default().workers >= 1);
    }

    #[test]
    fn injected_farm_panics_are_survived_and_reported() {
        let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
        let backend = fast_backend().with_fault_injection(FaultInjection::none().panics(2));
        let report = Grasp::new(GraspConfig::default())
            .run(&backend, &skeleton)
            .expect("injected panics must not fail the run");
        assert_eq!(report.outcome.completed, 40);
        assert!(report.outcome.conserves_units_of(&skeleton));
        assert!(report.outcome.resilience.retried_tasks >= 1);
        assert!(report.outcome.resilience.requeued_tasks >= 1);
        assert!(!report.outcome.resilience.is_clean());
    }

    #[test]
    fn injected_pipeline_panics_are_survived_and_reported() {
        let skeleton = lane(12);
        let backend = fast_backend()
            .with_config(BackendConfig::new().max_task_attempts(4))
            .with_fault_injection(FaultInjection::none().panics(1));
        let report = Grasp::new(GraspConfig::default())
            .run(&backend, &skeleton)
            .expect("injected stage panic must not fail the run");
        assert_eq!(report.outcome.completed, 12);
        assert!(report.outcome.conserves_units_of(&skeleton));
        assert!(report.outcome.resilience.retried_tasks >= 1);
    }

    #[test]
    fn short_runs_and_disabled_adaptation_keep_the_log_empty() {
        // Under the default 5 s wall monitor interval a sub-second run never
        // reaches an evaluation, so the engine is inert noise-wise…
        let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
        let report = Grasp::new(GraspConfig::default())
            .run(&fast_backend(), &skeleton)
            .unwrap();
        assert!(report.outcome.adaptation_log.is_empty());
        assert_eq!(report.outcome.adaptations(), 0);
        match &report.outcome.detail {
            OutcomeDetail::ThreadFarm {
                load_per_worker, ..
            } => assert_eq!(load_per_worker.len(), 3),
            other => panic!("unexpected detail {other:?}"),
        }
        // …and the master switch disables it outright.
        let mut cfg = GraspConfig::default();
        cfg.execution.adaptive = false;
        cfg.execution.monitor_interval_s = 1e-4;
        let report = Grasp::new(cfg).run(&fast_backend(), &skeleton).unwrap();
        assert!(report.outcome.adaptation_log.is_empty());
    }

    #[test]
    fn pool_wide_slowdown_triggers_a_recalibration_sample() {
        // The wall-clock acceptance path of the shared engine: every worker
        // slows 40x mid-run (the thread analogue of a whole-pool load
        // spike), so `min T > Z` must fire and re-base Z from a fresh
        // sample — visible as a `Recalibrated` entry in the outcome's
        // adaptation log, exactly as on the simulated grid.
        let skeleton = Skeleton::farm(TaskSpec::uniform(260, 4.0, 0, 0));
        let backend = ThreadBackend::new(3).with_config(
            BackendConfig::new()
                .spin_per_work_unit(2_000)
                .faults(FaultInjection::none().slowdown(20, 40.0)),
        );
        let mut cfg = GraspConfig::default();
        cfg.execution.monitor_interval_s = 2e-3; // wall seconds
        let report = Grasp::new(cfg)
            .run(&backend, &skeleton)
            .expect("slowdown must not fail the run");
        assert_eq!(report.outcome.completed, 260);
        assert!(report.outcome.conserves_units_of(&skeleton));
        assert!(
            report.outcome.adaptation_log.recalibrations() >= 1,
            "the pool-wide breach must recalibrate: {}",
            report.outcome.adaptation_log.summary()
        );
        assert_eq!(
            report.outcome.adaptations(),
            report.outcome.adaptation_log.len()
        );
    }

    #[test]
    fn exhausted_retries_surface_as_worker_failed() {
        // More injected faults than `units × (attempts − 1)` can absorb: some
        // unit must fail every attempt, and the error must be typed, not a
        // process abort.
        let skeleton = Skeleton::farm(TaskSpec::uniform(4, 1.0, 0, 0));
        let backend = ThreadBackend::new(2).with_config(
            BackendConfig::new()
                .spin_per_work_unit(1)
                .max_task_attempts(2)
                .faults(FaultInjection::none().panics(1000)),
        );
        let err = Grasp::new(GraspConfig::default())
            .run(&backend, &skeleton)
            .expect_err("saturated fault injection must fail the run");
        assert!(matches!(err, GraspError::WorkerFailed { .. }), "{err}");
    }
}
