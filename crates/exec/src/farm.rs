//! A real-thread task farm.
//!
//! The farm mirrors the GRASP life-cycle on shared memory:
//!
//! 1. **Calibration** — every worker thread executes a small probe sample of
//!    the real tasks; the observed per-task times establish each worker's
//!    relative speed (on an otherwise idle machine they are equal, but when
//!    the machine is shared they are not) and the initial chunk size.
//! 2. **Execution** — remaining tasks are dispensed demand-driven in chunks
//!    decided by the configured [`SchedulePolicy`]; each worker keeps its
//!    results tagged with their input index, and the run merges them so
//!    output order always matches input order.
//!
//! Execution is **fault-isolated**: a panic inside the user closure is caught
//! with `catch_unwind` (the shared-memory analogue of a grid node being
//! revoked mid-chunk), the failed task is requeued for a surviving worker,
//! and a worker that keeps panicking past its health budget retires from the
//! pool.  Retries are bounded per task; a task that fails every attempt turns
//! the run into a typed [`GraspError::WorkerFailed`] instead of aborting the
//! process.
//!
//! The worker loop is the only task dispatch loop in this crate, and it
//! runs on two thread lifetimes: [`ThreadFarm`] spawns scoped threads for
//! one run, and [`crate::pool::WorkerPool`] runs the same loop on resident
//! threads, one round at a time.  A run's shared state (`FarmRun`) borrows
//! neither the items nor the closure, so both work without unsafe code,
//! with `parking_lot` mutexes and atomics only.
//!
//! **The per-unit path** — everything between two units of one chunk —
//! touches worker-local state, one shared atomic and the clock twice:
//!
//! * the clock is read just before and just after the task closure, and that
//!   one [`UnitTiming`] pair feeds the worker's running mean, the
//!   [`UnitObserver`] (the thread backend derives its engine observation and
//!   completion stamp from it) and nothing else;
//! * first-result-wins is settled by a `swap` on the unit's claim flag (one
//!   `AtomicBool` per unit, the only shared write), and the winner pushes
//!   `(index, result)` onto a `Vec` its own thread owns — the vectors are
//!   merged into input order once, after every worker has stopped;
//! * per-worker state that peers do read — the running timing sums behind
//!   the adaptive weighted chunking, the steal deques — sits in
//!   cache-line-padded slots, so a worker's writes never invalidate a
//!   peer's cache line.
//!
//! Fresh chunks come off a lock-free cursor (or, when stealing, the
//! worker's own deque).  The queue lock is taken only for retries,
//! reclaimed ranges and faults, the speculation policy's only per
//! speculation — neither per unit.

use crate::deque::{StealDeque, MAX_RANGE};
use crate::padded::CachePadded;
use grasp_core::engine::ExecutorSet;
use grasp_core::error::GraspError;
use grasp_core::SchedulePolicy;
use gridsim::NodeId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock-free shared view of the adaptation engine's per-worker calibration
/// ranks (mean per-unit execution times, seconds; lower = faster).
///
/// The adaptation layer publishes its latest rank snapshot here on every
/// monitor flush; the farm's work-stealing mode reads it on the dispatch
/// hot path — owner chunk sizes are weighted by `pool mean / my mean`, and
/// thieves pick the *slowest*-ranked victim.  Entries are `f64` bits in
/// atomics (`NaN` = no observation yet), so both sides stay lock-free.
#[derive(Debug)]
pub(crate) struct RankTable {
    means: Vec<AtomicU64>,
}

impl RankTable {
    /// A table for `workers` workers, all initially unranked.
    pub(crate) fn new(workers: usize) -> Self {
        RankTable {
            means: (0..workers)
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
        }
    }

    /// Publish `worker`'s latest mean time (seconds).  Out-of-range ids and
    /// non-positive / non-finite values are ignored.
    pub(crate) fn set(&self, worker: usize, mean_s: f64) {
        if mean_s.is_finite() && mean_s > 0.0 {
            if let Some(m) = self.means.get(worker) {
                m.store(mean_s.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// `worker`'s latest published mean, `None` before its first rank.
    pub(crate) fn get(&self, worker: usize) -> Option<f64> {
        self.means
            .get(worker)
            .map(|m| f64::from_bits(m.load(Ordering::Relaxed)))
            .filter(|v| v.is_finite() && *v > 0.0)
    }
}

/// Shared per-worker demotion flags: the adaptation layer (the backend
/// driving the shared `AdaptationEngine`) sets them, the farm's pull loop
/// honours them.
///
/// Demotion is the wall-clock realisation of Algorithm 2's "drop the slow
/// node from the chosen set": a demoted worker finishes what it already
/// claimed and then stops pulling new work, so the demand-driven queue
/// naturally routes the remaining tasks to the healthy workers.  The same
/// progress guards as panic retirement apply — a worker never stops while
/// task retries are pending, and the last active worker never stops.  A
/// worker demoted before a run starts sits the run out, unless every
/// worker is demoted.
#[derive(Debug, Default)]
pub(crate) struct WorkerGate {
    demoted: Vec<AtomicBool>,
    /// Workers the farm retired after exhausting their panic budget, so the
    /// adaptation layer's pool floor counts every worker that is no longer
    /// pulling, not just the ones it demoted itself.
    retired: Vec<AtomicBool>,
}

impl WorkerGate {
    /// A gate for `workers` workers, all initially active.
    pub(crate) fn new(workers: usize) -> Self {
        WorkerGate {
            demoted: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            retired: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Flag `worker` as demoted.  Returns `true` when the flag was newly
    /// set (false for out-of-range ids and repeat demotions).
    pub(crate) fn demote(&self, worker: usize) -> bool {
        self.demoted
            .get(worker)
            .map(|f| !f.swap(true, Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Clear `worker`'s demotion flag.  Returns `true` when it was set.
    pub(crate) fn reinstate(&self, worker: usize) -> bool {
        self.demoted
            .get(worker)
            .map(|f| f.swap(false, Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Whether `worker` has been demoted.
    pub(crate) fn is_demoted(&self, worker: usize) -> bool {
        self.demoted
            .get(worker)
            .map(|f| f.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Farm-side report: `worker` retired after exhausting its panic budget.
    pub(crate) fn mark_retired(&self, worker: usize) {
        if let Some(f) = self.retired.get(worker) {
            f.store(true, Ordering::Relaxed);
        }
    }

    /// Whether `worker` is no longer pulling for any reason — demoted by
    /// the adaptation layer or retired by the farm after panics.
    pub(crate) fn is_inactive(&self, worker: usize) -> bool {
        self.is_demoted(worker)
            || self
                .retired
                .get(worker)
                .map(|f| f.load(Ordering::Relaxed))
                .unwrap_or(false)
    }

    /// Number of demoted workers.
    pub(crate) fn demoted_count(&self) -> usize {
        self.demoted
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }
}

/// The thread surface's executor set: the workers still pulling.  A
/// retirement racing the engine's floor check can undershoot the floor by
/// one; the hard liveness guarantee is the farm's last-active-worker rule.
impl ExecutorSet for &WorkerGate {
    fn active(&self) -> Vec<NodeId> {
        (0..self.demoted.len())
            .filter(|&w| !self.is_inactive(w))
            .map(NodeId)
            .collect()
    }

    fn demote(&mut self, executor: NodeId) -> bool {
        WorkerGate::demote(self, executor.index())
    }
}

/// Per-run statistics reported by [`ThreadFarm::run`] and by every
/// [`crate::pool::WorkerPool`] round.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmStats {
    /// Number of worker threads used.
    pub(crate) workers: usize,
    /// Tasks completed per worker.
    pub tasks_per_worker: Vec<usize>,
    /// Mean per-task execution time per worker (seconds), as measured during
    /// the run (calibration probes included).
    pub(crate) mean_task_time_per_worker: Vec<f64>,
    /// Wall-clock duration of the calibration pass.
    pub(crate) calibration: Duration,
    /// Wall-clock duration of the whole run.
    pub total: Duration,
    /// Chunk size chosen after calibration (for fixed/guided policies this is
    /// the first chunk actually dispensed).
    pub(crate) initial_chunk: usize,
    /// Worker panics caught and isolated during the run.
    pub(crate) panics: usize,
    /// Tasks that were re-executed after a panicked attempt and completed.
    pub(crate) retried: usize,
    /// Workers retired after exhausting their panic budget.
    pub(crate) workers_lost: usize,
    /// Workers that stopped pulling after an external demotion through the
    /// [`WorkerGate`] (Algorithm 2's "drop the slow node", not a fault).
    pub(crate) workers_demoted: usize,
    /// Steal attempts made by idle workers (work-stealing policy only; a
    /// chosen victim whose deque drained first counts as attempted).
    pub steals_attempted: usize,
    /// Steal attempts that removed a non-empty range from a victim's deque.
    pub steals_completed: usize,
    /// Total task units moved between deques by completed steals.
    pub units_stolen: usize,
    /// In-flight units speculatively duplicated on idle workers near the
    /// tail (each unit at most once; demand-driven policies only).
    pub(crate) speculated_units: usize,
    /// Speculative duplicates that delivered the winning (first) result.
    pub(crate) speculation_wins: usize,
}

impl FarmStats {
    /// Ratio between the busiest and least busy worker's task counts
    /// (1.0 = perfectly balanced, as when nobody ran anything; higher = more
    /// imbalance; infinite when some worker ran nothing and another did).
    pub fn imbalance(&self) -> f64 {
        let max = self.tasks_per_worker.iter().copied().max().unwrap_or(0);
        let min = self.tasks_per_worker.iter().copied().min().unwrap_or(0);
        match (min, max) {
            (_, 0) => 1.0,
            (0, _) => f64::INFINITY,
            _ => max as f64 / min as f64,
        }
    }
}

/// Per-worker running statistics of recorded units.  Written only by the
/// owning worker — plain loads and stores, no read-modify-write — and read
/// lock-free by peers at chunk boundaries, to derive the pool-mean weight
/// and pick steal victims.  Each sits on its own cache line.
#[derive(Debug, Default)]
struct WorkerStat {
    /// Sum of observed task times in nanoseconds.
    sum_ns: AtomicU64,
    /// Number of timed (recorded) task executions.
    count: AtomicUsize,
}

impl WorkerStat {
    /// Owner only: add one recorded execution of duration `dt`.
    fn record(&self, dt: Duration) {
        let ns = dt.as_nanos().min(u64::MAX as u128) as u64;
        let sum = self.sum_ns.load(Ordering::Relaxed);
        self.sum_ns.store(sum.saturating_add(ns), Ordering::Relaxed);
        let count = self.count.load(Ordering::Relaxed);
        self.count.store(count + 1, Ordering::Relaxed);
    }

    /// Mean task time in seconds, `None` before the first completion.
    fn mean_s(&self) -> Option<f64> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            None
        } else {
            Some(self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9 / count as f64)
        }
    }
}

/// The dispensing state behind the slow path: the retry queue fed by
/// caught panics, the first permanently failed task (if any), and — in
/// work-stealing mode — ranges drained from demoted or retired workers'
/// deques awaiting re-circulation.
struct Queue {
    retries: VecDeque<(usize, usize)>,
    failed: Option<usize>,
    reclaimed: VecDeque<(usize, usize)>,
}

/// Decides whether an idle worker may duplicate an in-flight unit near the
/// tail, and receives the launch/win reports.
///
/// The farm consults the policy only once every fresh unit has been handed
/// out (`pending == 0`): `allow` is asked with the current in-flight count,
/// and an affirmative answer lets the idle worker duplicate **one** not-yet-
/// speculated in-flight unit (first result to land wins; the loser is
/// discarded on arrival).  The adaptation layer implements this by routing
/// the question through
/// [`grasp_core::engine::AdaptationEngine::maybe_speculate`], so speculation
/// is audited like every other adaptation.
pub(crate) trait SpeculationPolicy: Send + Sync {
    /// May one more speculative duplicate launch, with `in_flight` of
    /// `total` units still running and nothing left pending?
    fn allow(&self, in_flight: usize, total: usize) -> bool;
    /// A duplicate of unit `unit` was launched on worker `worker`.
    fn note_launched(&self, unit: usize, worker: usize);
    /// The duplicate of `unit` on `worker` delivered the winning result.
    fn note_win(&self, unit: usize, worker: usize);
}

/// The two clock stamps the farm takes around one successful execution of
/// the task closure — the only clock reads on the per-unit path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitTiming {
    /// Just before the closure was called.
    pub(crate) started: Instant,
    /// Just after it returned.
    pub(crate) finished: Instant,
}

impl UnitTiming {
    /// Wall time the closure took.
    pub(crate) fn elapsed(&self) -> Duration {
        self.finished.saturating_duration_since(self.started)
    }
}

/// Per-unit accounting with worker-local state, driven by the farm's own
/// [`UnitTiming`] of every unit (see [`ThreadFarm::try_run_observed`]).
///
/// Each worker thread owns one [`UnitObserver::Local`] for the whole run,
/// starting from its `Default`, so [`UnitObserver::unit_done`] can
/// accumulate without any lock or shared write; the farm hands every
/// worker's state back when the run ends.
pub(crate) trait UnitObserver: Sync {
    /// One worker's state, owned by that worker's thread during the run.
    type Local: Default + Send;

    /// Worker `worker` ran unit `index` to completion.  `recorded` is true
    /// for the execution whose result the farm kept and false for the
    /// losing copy of a speculated unit, whose result is discarded — so
    /// accounting that must count each unit exactly once checks it, and
    /// accounting of the work a worker did (its timing) need not.
    fn unit_done(
        &self,
        local: &mut Self::Local,
        worker: usize,
        index: usize,
        timing: UnitTiming,
        recorded: bool,
    );
}

/// No accounting: what [`ThreadFarm::try_run_indexed`] runs with.
impl UnitObserver for () {
    type Local = ();

    fn unit_done(&self, _: &mut (), _: usize, _: usize, _: UnitTiming, _: bool) {}
}

/// What [`ThreadFarm::try_run_observed`] returns: the results in input
/// order, the run statistics, and each worker's observer state.
pub(crate) type ObservedRun<R, L> = (Vec<R>, FarmStats, Vec<L>);

/// What one worker owns during a run and hands back when it stops.
pub(crate) struct WorkerLocal<R, L> {
    /// `(index, result)` of every unit this worker recorded.
    results: Vec<(usize, R)>,
    /// Units this worker recorded on a retry (after a panicked attempt).
    retried: Vec<usize>,
    /// The observer's state for this worker.
    observed: L,
    /// Panics this worker has caught.
    panics: usize,
}

/// Merge the workers' `(index, result)` records into input order.  Every
/// index in `0..n` must appear exactly once — the claim flags guarantee it;
/// the first missing index is the error.  A worker's records are already
/// ascending unless it ran retries, stolen ranges or speculative
/// duplicates, so the sort is skipped on the common path, and the merge
/// stays on one worker's records for as long as they continue the sequence
/// (a whole chunk), looking for the next owner only at chunk boundaries.
fn merge_in_input_order<R>(mut runs: Vec<Vec<(usize, R)>>, n: usize) -> Result<Vec<R>, usize> {
    for run in &mut runs {
        if !run.windows(2).all(|w| w[0].0 < w[1].0) {
            run.sort_unstable_by_key(|&(index, _)| index);
        }
    }
    let mut runs: Vec<_> = runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    let next_index = |run: &mut std::iter::Peekable<std::vec::IntoIter<(usize, R)>>| {
        run.peek().map(|&(index, _)| index)
    };
    let mut output = Vec::with_capacity(n);
    let mut current = 0;
    for index in 0..n {
        if runs.get_mut(current).and_then(next_index) != Some(index) {
            current = runs
                .iter_mut()
                .position(|run| next_index(run) == Some(index))
                .ok_or(index)?;
        }
        let (_, result) = runs[current]
            .next()
            .expect("the run's next index was just peeked");
        output.push(result);
    }
    Ok(output)
}

/// A shared-memory task farm.
#[derive(Clone)]
pub struct ThreadFarm {
    workers: usize,
    policy: SchedulePolicy,
    calibration_samples: usize,
    max_task_attempts: usize,
    worker_panic_budget: usize,
    gate: Option<Arc<WorkerGate>>,
    ranks: Option<Arc<RankTable>>,
    speculation: Option<Arc<dyn SpeculationPolicy>>,
}

impl std::fmt::Debug for ThreadFarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadFarm")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("calibration_samples", &self.calibration_samples)
            .field("max_task_attempts", &self.max_task_attempts)
            .field("worker_panic_budget", &self.worker_panic_budget)
            .field("gate", &self.gate)
            .field("ranks", &self.ranks)
            .field(
                "speculation",
                &self.speculation.as_ref().map(|_| "<policy>"),
            )
            .finish()
    }
}

impl Default for ThreadFarm {
    fn default() -> Self {
        ThreadFarm::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
        )
    }
}

impl ThreadFarm {
    /// A farm with `workers` threads and the default (adaptive) policy.
    pub fn new(workers: usize) -> Self {
        ThreadFarm {
            workers: workers.max(1),
            policy: SchedulePolicy::Guided { min_chunk: 1 },
            calibration_samples: 2,
            max_task_attempts: 3,
            worker_panic_budget: 3,
            gate: None,
            ranks: None,
            speculation: None,
        }
    }

    /// Attach a [`SpeculationPolicy`]: near the tail, idle workers duplicate
    /// in-flight units instead of exiting (demand-driven policies only; the
    /// work-stealing mode already rebalances its tail by stealing).
    pub(crate) fn with_speculation(mut self, policy: Arc<dyn SpeculationPolicy>) -> Self {
        self.speculation = Some(policy);
        self
    }

    /// Attach a [`WorkerGate`] whose demotion flags the pull loop honours
    /// (see the gate's docs for the progress guards).  The caller keeps its
    /// own handle and flips flags while the run is in flight.
    pub(crate) fn with_gate(mut self, gate: Arc<WorkerGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Override the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a shared [`RankTable`] published by the adaptation layer.  The
    /// work-stealing mode prefers these engine calibration ranks over the
    /// farm-local running means for both owner chunk weighting and victim
    /// selection; other policies ignore the table.
    pub(crate) fn with_rank_table(mut self, ranks: Arc<RankTable>) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Override how many probe tasks each worker executes during calibration
    /// (0 disables the calibration pass).
    pub(crate) fn with_calibration_samples(mut self, samples: usize) -> Self {
        self.calibration_samples = samples;
        self
    }

    /// Override how many times one task may be attempted before the run is
    /// declared failed (clamped to ≥ 1; the default is 3).
    pub(crate) fn with_max_task_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = attempts.max(1);
        self
    }

    /// Override how many panics a single worker may absorb before it retires
    /// from the pool (the last active worker never retires, so progress is
    /// preserved as long as some attempt can succeed).
    pub(crate) fn with_worker_panic_budget(mut self, budget: usize) -> Self {
        self.worker_panic_budget = budget;
        self
    }

    /// Execute `worker` over every item, returning the results in input
    /// order together with run statistics.
    ///
    /// Panics (with the [`GraspError`] message) if a task fails on every
    /// allowed attempt; use [`ThreadFarm::try_run`] for the fallible path.
    pub fn run<T, R, F>(&self, items: &[T], worker: F) -> (Vec<R>, FarmStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_run(items, worker)
            .unwrap_or_else(|e| panic!("ThreadFarm::run failed: {e}"))
    }

    /// Execute `worker` over every item, returning the results in input
    /// order together with run statistics, or a typed error when a task
    /// exhausts its retry budget.
    pub fn try_run<T, R, F>(
        &self,
        items: &[T],
        worker: F,
    ) -> Result<(Vec<R>, FarmStats), GraspError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_run_indexed(items, |_, item| worker(item))
    }

    /// [`ThreadFarm::try_run`] with the executing worker's index (0-based,
    /// `< self.workers()`) passed to the closure — for callers that keep
    /// per-worker accounting without a shared lock on the task hot path.
    pub(crate) fn try_run_indexed<T, R, F>(
        &self,
        items: &[T],
        worker: F,
    ) -> Result<(Vec<R>, FarmStats), GraspError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_run_observed(items, &(), worker)
            .map(|(results, stats, _)| (results, stats))
    }

    /// [`ThreadFarm::try_run_indexed`] with per-unit accounting: after every
    /// successful execution, `observer` gets the farm's own [`UnitTiming`]
    /// of it and the executing worker's [`UnitObserver::Local`].  Returns
    /// every worker's observer state (indexed by worker) with the results.
    pub(crate) fn try_run_observed<T, R, F, O>(
        &self,
        items: &[T],
        observer: &O,
        worker: F,
    ) -> Result<ObservedRun<R, O::Local>, GraspError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        O: UnitObserver,
    {
        let run = FarmRun::new(self.clone(), items.len());
        let locals = if items.is_empty() {
            Vec::new()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers)
                    .map(|wid| {
                        let (run, worker) = (&run, &worker);
                        scope.spawn(move || run.work(wid, items, worker, observer))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        run.finish(locals).map(|(observed_run, _)| observed_run)
    }
}

/// The run's event counters, reported in [`FarmStats`].
#[derive(Default)]
struct Counters {
    /// Nanoseconds of the slowest worker's calibration pass.
    calibration_ns: AtomicU64,
    initial_chunk: AtomicUsize,
    workers_lost: AtomicUsize,
    workers_demoted: AtomicUsize,
    steals_attempted: AtomicUsize,
    steals_completed: AtomicUsize,
    units_stolen: AtomicUsize,
    speculated_units: AtomicUsize,
    speculation_wins: AtomicUsize,
}

/// Everything the workers of one farm run share.
///
/// It borrows neither the items nor the task closure — [`FarmRun::work`]
/// takes both per call — so the same run can be driven by scoped threads
/// ([`ThreadFarm::try_run_observed`]) or by resident ones
/// ([`crate::pool::WorkerPool`], which holds it in an `Arc`): one worker
/// loop, two thread lifetimes.
pub(crate) struct FarmRun {
    farm: ThreadFarm,
    n: usize,
    started: Instant,
    /// First result wins: one claim flag per unit, swapped by every
    /// successful execution — only the one that flips it records.
    claimed: Vec<AtomicBool>,
    /// The next fresh unit (demand-driven mode), claimed lock-free.
    cursor: AtomicUsize,
    queue: Mutex<Queue>,
    stats: Vec<CachePadded<WorkerStat>>,
    /// Work-stealing mode: one deque per worker; `None` = demand-driven.
    deques: Option<Vec<CachePadded<StealDeque>>>,
    /// One flag per unit so each in-flight unit is duplicated at most once
    /// (allocated only when a speculation policy is attached).
    speculated: Vec<AtomicBool>,
    /// Workers demoted before the run started, which take no part in it.
    sits_out: Vec<bool>,
    /// Workers still pulling; the last one never leaves.  In work-stealing
    /// mode a worker that runs out of work leaves the count as well (see
    /// `Worker::steal`).
    active_workers: AtomicUsize,
    /// Lock-free mirrors of the queue's state, so the fast path (claim
    /// fresh units, execute) touches no lock at all.
    /// Both pending counters are bumped *before* the backing store they
    /// mirror is filled, so an idle worker's termination scan can never
    /// miss in-flight work (see `Worker::steal`).
    retries_pending: AtomicUsize,
    reclaimed_pending: AtomicUsize,
    failed: AtomicBool,
    counters: Counters,
}

impl FarmRun {
    /// The shared state of a run of `farm` over `n` units.
    pub(crate) fn new(farm: ThreadFarm, n: usize) -> Self {
        let workers = farm.workers;
        // A worker demoted before the run starts sits it out — counted as
        // demoted, outside the active count, seeded no deque — unless every
        // worker is demoted, in which case none does.
        let mut sits_out: Vec<bool> = (0..workers)
            .map(|w| farm.gate.as_ref().is_some_and(|g| g.is_demoted(w)))
            .collect();
        if sits_out.iter().all(|&s| s) {
            sits_out.fill(false);
        }
        let seeded: Vec<usize> = (0..workers).filter(|&w| !sits_out[w]).collect();
        let counters = Counters::default();
        counters
            .workers_demoted
            .store(workers - seeded.len(), Ordering::Relaxed);
        // Work-stealing mode: seed one deque per worker from a one-shot
        // partition of the task range over the workers taking part.  Ranges
        // beyond the packed 32-bit bound — far past any supported workload —
        // fall back to the demand-driven queue.
        let deques = (matches!(farm.policy, SchedulePolicy::WorkStealing { .. }) && n <= MAX_RANGE)
            .then(|| {
                let mut deques: Vec<_> = (0..workers)
                    .map(|_| CachePadded(StealDeque::empty()))
                    .collect();
                for (k, &w) in seeded.iter().enumerate() {
                    let m = seeded.len();
                    deques[w] = CachePadded(StealDeque::new(k * n / m, (k + 1) * n / m));
                }
                deques
            });
        let flags = |len: usize| (0..len).map(|_| AtomicBool::new(false)).collect();
        FarmRun {
            n,
            started: Instant::now(),
            claimed: flags(n),
            cursor: AtomicUsize::new(0),
            queue: Mutex::new(Queue {
                retries: VecDeque::new(),
                failed: None,
                reclaimed: VecDeque::new(),
            }),
            stats: (0..workers).map(|_| CachePadded::default()).collect(),
            deques,
            speculated: flags(if farm.speculation.is_some() { n } else { 0 }),
            active_workers: AtomicUsize::new(seeded.len()),
            sits_out,
            retries_pending: AtomicUsize::new(0),
            reclaimed_pending: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            counters,
            farm,
        }
    }

    /// Worker `wid`'s whole part in the run — calibrate, then execute until
    /// the work runs out, the run fails, or the worker retires or is
    /// demoted — returning what it owns.
    pub(crate) fn work<T, R, F, O>(
        &self,
        wid: usize,
        items: &[T],
        f: &F,
        observer: &O,
    ) -> WorkerLocal<R, O::Local>
    where
        F: Fn(usize, &T) -> R,
        O: UnitObserver,
    {
        let mut worker = Worker {
            run: self,
            wid,
            items,
            f,
            observer,
            local: WorkerLocal {
                results: Vec::with_capacity(self.n / self.farm.workers + 1),
                retried: Vec::new(),
                observed: O::Local::default(),
                panics: 0,
            },
        };
        if !self.sits_out[wid] && worker.calibrate() {
            worker.execute();
        }
        worker.local
    }

    /// Collect the workers' hand-ins (one per worker that ran; none when
    /// the run had no units) into the results in input order, the run
    /// statistics, every worker's observer state, and the ascending input
    /// indices of the units that completed only on a retry.
    pub(crate) fn finish<R, L: Default>(
        &self,
        locals: Vec<WorkerLocal<R, L>>,
    ) -> Result<(ObservedRun<R, L>, Vec<usize>), GraspError> {
        let attempts = self.farm.max_task_attempts;
        let failed = |task| GraspError::WorkerFailed { task, attempts };
        if let Some(task) = self.queue.lock().failed {
            return Err(failed(task));
        }
        let mut runs = Vec::with_capacity(locals.len());
        let mut observed = Vec::with_capacity(self.farm.workers);
        let mut retried = Vec::new();
        let mut panics = 0;
        for local in locals {
            runs.push(local.results);
            observed.push(local.observed);
            retried.extend(local.retried);
            panics += local.panics;
        }
        observed.resize_with(self.farm.workers, L::default);
        retried.sort_unstable();
        // Defensive: no recorded failure but a unit was never recorded —
        // report it as a worker failure rather than panicking.
        let results = merge_in_input_order(runs, self.n).map_err(failed)?;
        let c = &self.counters;
        let stats = FarmStats {
            workers: self.farm.workers,
            tasks_per_worker: self
                .stats
                .iter()
                .map(|s| s.count.load(Ordering::Relaxed))
                .collect(),
            mean_task_time_per_worker: self
                .stats
                .iter()
                .map(|s| s.mean_s().unwrap_or(0.0))
                .collect(),
            calibration: Duration::from_nanos(c.calibration_ns.load(Ordering::Relaxed)),
            total: self.started.elapsed(),
            initial_chunk: c.initial_chunk.load(Ordering::Relaxed),
            panics,
            retried: retried.len(),
            workers_lost: c.workers_lost.load(Ordering::Relaxed),
            workers_demoted: c.workers_demoted.load(Ordering::Relaxed),
            steals_attempted: c.steals_attempted.load(Ordering::Relaxed),
            steals_completed: c.steals_completed.load(Ordering::Relaxed),
            units_stolen: c.units_stolen.load(Ordering::Relaxed),
            speculated_units: c.speculated_units.load(Ordering::Relaxed),
            speculation_wins: c.speculation_wins.load(Ordering::Relaxed),
        };
        Ok(((results, stats, observed), retried))
    }

    /// Chunk weight of worker `wid`: the pool's mean task time over its
    /// own (1 for policies that ignore weights, without reading the peers'
    /// stats).  Work stealing prefers the engine's published ranks; every
    /// mode falls back to the farm-local running means.  No locks.
    fn weight(&self, wid: usize) -> f64 {
        if !self.farm.policy.is_adaptive() {
            return 1.0;
        }
        let workers = self.farm.workers;
        self.deques
            .as_ref()
            .and(self.farm.ranks.as_deref())
            .and_then(|ranks| pool_weight(wid, workers, |v| ranks.get(v)))
            .or_else(|| pool_weight(wid, workers, |v| self.stats[v].mean_s()))
            .unwrap_or(1.0)
    }

    /// Whether panic retries or reclaimed ranges await a taker.
    fn work_pending(&self) -> bool {
        self.retries_pending.load(Ordering::SeqCst) > 0
            || self.reclaimed_pending.load(Ordering::SeqCst) > 0
    }

    /// Claim the next `size(remaining)` fresh units off the cursor.
    fn claim(&self, size: impl Fn(usize) -> usize) -> Option<Range<usize>> {
        let mut end = 0;
        let start = self
            .cursor
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |start| {
                (start < self.n).then(|| {
                    end = start + size(self.n - start);
                    end
                })
            })
            .ok()?;
        Some(start..end)
    }

    /// The oldest queued retry, as `(unit range, attempt)`.
    fn pop_retry(&self, q: &mut Queue) -> Option<(Range<usize>, usize)> {
        let (index, attempt) = q.retries.pop_front()?;
        self.retries_pending.fetch_sub(1, Ordering::SeqCst);
        Some((index..index + 1, attempt))
    }

    /// Leave the active count, unless this is the last worker still in it,
    /// which must soldier on to preserve progress.
    fn leave_active(&self) -> bool {
        self.active_workers
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
                (a > 1).then(|| a - 1)
            })
            .is_ok()
    }

    /// The steal victim for `wid`: the slowest-ranked peer with at least two
    /// tasks exposed (the lone last task always stays with its owner); with
    /// no ranks yet, the longest deque stands in.
    fn victim(&self, wid: usize, deques: &[CachePadded<StealDeque>]) -> Option<usize> {
        let mut victim: Option<(Option<f64>, usize, usize)> = None;
        for (v, deque) in deques.iter().enumerate() {
            let len = deque.len();
            if v == wid || len < 2 {
                continue;
            }
            let mean = self
                .farm
                .ranks
                .as_ref()
                .and_then(|t| t.get(v))
                .or_else(|| self.stats[v].mean_s());
            if victim.map_or(true, |(best_mean, best_len, _)| {
                (mean, len) > (best_mean, best_len)
            }) {
                victim = Some((mean, len, v));
            }
        }
        victim.map(|(_, _, v)| v)
    }
}

/// `pool mean / mean(wid)` over the workers `mean` knows; `None` until
/// `wid` itself has a positive mean.
fn pool_weight(wid: usize, workers: usize, mean: impl Fn(usize) -> Option<f64>) -> Option<f64> {
    let mine = mean(wid).filter(|&m| m > 0.0)?;
    let (sum, k) = (0..workers)
        .filter_map(&mean)
        .fold((0.0, 0usize), |(sum, k), m| (sum + m, k + 1));
    Some(sum / k as f64 / mine)
}

/// One worker's view of a run: the shared state, the items and closure it
/// runs, and everything it owns until it hands `local` back.
struct Worker<'a, T, R, F, O: UnitObserver> {
    run: &'a FarmRun,
    wid: usize,
    items: &'a [T],
    f: &'a F,
    observer: &'a O,
    local: WorkerLocal<R, O::Local>,
}

impl<T, R, F, O> Worker<'_, T, R, F, O>
where
    F: Fn(usize, &T) -> R,
    O: UnitObserver,
{
    /// Execute one attempt of unit `index`, isolating panics; `speculative`
    /// marks a tail duplicate of a unit another worker may still be
    /// running.  The clock is read just around the closure, and that one
    /// pair feeds this worker's running mean and the observer.  Returns
    /// `false` when the whole run must stop (task failed permanently).
    fn exec(&mut self, index: usize, attempt: usize, speculative: bool) -> bool {
        let (run, wid, f, items) = (self.run, self.wid, self.f, self.items);
        let item = &items[index];
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| f(wid, item))) {
            Ok(out) => {
                let timing = UnitTiming {
                    started,
                    finished: Instant::now(),
                };
                // First result wins: under speculation the other copy may
                // already have claimed the unit, in which case this one is
                // the cancelled loser — observed (its timing is real work),
                // but neither recorded nor counted, so each unit is counted
                // by exactly one worker.  The flag publishes no data (each
                // result stays with its worker until the hand-in), so the
                // swap needs atomicity only.
                let recorded = !run.claimed[index].swap(true, Ordering::Relaxed);
                let local = &mut self.local;
                self.observer
                    .unit_done(&mut local.observed, wid, index, timing, recorded);
                if recorded {
                    local.results.push((index, out));
                    run.stats[wid].record(timing.elapsed());
                    if attempt > 0 {
                        local.retried.push(index);
                    }
                    if speculative {
                        run.counters
                            .speculation_wins
                            .fetch_add(1, Ordering::Relaxed);
                        if let Some(spec) = &run.farm.speculation {
                            spec.note_win(index, wid);
                        }
                    }
                }
                true
            }
            // A panicked duplicate is simply dropped: the primary still owns
            // the unit, so the ordinary retry path decides its fate.  And a
            // unit whose duplicate already won needs no retry: the losing
            // copy's panic is swallowed.
            Err(_) if speculative || run.claimed[index].load(Ordering::Relaxed) => true,
            Err(_) => {
                self.local.panics += 1;
                let mut q = run.queue.lock();
                if attempt + 1 >= run.farm.max_task_attempts {
                    q.failed.get_or_insert(index);
                    run.failed.store(true, Ordering::SeqCst);
                    false
                } else {
                    // Counter before queue entry: a peer's termination scan
                    // must see the retry pending before it could see it
                    // queued.
                    run.retries_pending.fetch_add(1, Ordering::SeqCst);
                    q.retries.push_back((index, attempt + 1));
                    true
                }
            }
        }
    }

    /// Run every unit of a claimed range at `attempt`, then retire if past
    /// the panic budget.  The range is finished even by a worker over its
    /// budget: its units are claimed, so retiring mid-range would strand
    /// them.  Returns `false` when this worker stops (the run failed or it
    /// retired).
    fn run_units(&mut self, units: Range<usize>, attempt: usize) -> bool {
        for index in units {
            if !self.exec(index, attempt, false) {
                return false;
            }
        }
        // Never while retries are pending (this may be the only worker still
        // looping, and a requeued task must not be stranded) and never as
        // the last worker still pulling (see `leave`).
        let run = self.run;
        if self.local.panics > run.farm.worker_panic_budget
            && run.queue.lock().retries.is_empty()
            && self.leave()
        {
            run.counters.workers_lost.fetch_add(1, Ordering::Relaxed);
            // Tell the gate (when present) so the adaptation layer's pool
            // floor counts this worker as inactive.
            if let Some(g) = &run.farm.gate {
                g.mark_retired(self.wid);
            }
            return false;
        }
        true
    }

    /// Leave the active count (refused for the last worker in it) and, in
    /// work-stealing mode, drain this worker's deque back into circulation,
    /// so `conserves_units_of` holds even when a worker leaves
    /// mid-partition.  The pending counter is raised BEFORE the count is
    /// left and before the drain: a peer that later sees this deque empty is
    /// thereby guaranteed to also see the counter, and so is a peer that
    /// leaves the count after us (see `Worker::steal`) — drained work always
    /// has a live taker.
    fn leave(&self) -> bool {
        let run = self.run;
        let Some(deques) = &run.deques else {
            return run.leave_active();
        };
        run.reclaimed_pending.fetch_add(1, Ordering::SeqCst);
        if !run.leave_active() {
            run.reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        match deques[self.wid].drain_all() {
            Some(range) => run.queue.lock().reclaimed.push_back(range),
            None => {
                run.reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
            }
        }
        true
    }

    /// Whether this worker stops on an external demotion (Algorithm 2's
    /// "drop the slow node", flagged through the [`WorkerGate`]), under the
    /// progress guards of panic retirement: never while retries are
    /// pending, never as the last active worker.  Its completed work
    /// stands; the rest is rerouted.
    fn leaves_on_demotion(&self) -> bool {
        let run = self.run;
        let leaves = run
            .farm
            .gate
            .as_ref()
            .is_some_and(|g| g.is_demoted(self.wid))
            && run.queue.lock().retries.is_empty()
            && self.leave();
        if leaves {
            run.counters.workers_demoted.fetch_add(1, Ordering::Relaxed);
        }
        leaves
    }

    /// Calibration: up to `calibration_samples` probe units, one at a time —
    /// from this worker's own deque bottom in work-stealing mode, off the
    /// cursor otherwise.  The slowest worker's pass is the run's
    /// calibration time.  Returns `false` when this worker stops.
    fn calibrate(&mut self) -> bool {
        let run = self.run;
        let samples = run.farm.calibration_samples;
        if samples == 0 {
            return true;
        }
        let started = Instant::now();
        let mut going = true;
        for _ in 0..samples {
            if run.failed.load(Ordering::SeqCst) {
                break;
            }
            let probe = match &run.deques {
                Some(deques) => deques[self.wid]
                    .take_bottom(1)
                    .map(|(index, _)| index..index + 1),
                None => run.claim(|_| 1),
            };
            let Some(units) = probe else { break };
            going = self.run_units(units, 0);
            if !going {
                break;
            }
        }
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        run.counters.calibration_ns.fetch_max(ns, Ordering::Relaxed);
        going
    }

    /// Execution, until the work runs out, the run fails, or this worker
    /// leaves.  Each turn takes the slow path first — panic retries, then
    /// ranges reclaimed from departed workers (work stealing only), under
    /// the queue lock and only while one is pending — then the lock-free
    /// fast path: the next policy-sized chunk off the shared cursor, or a
    /// rank-weighted bite off this worker's own deque bottom.  With both
    /// dry, a demand-driven worker speculates on the tail or exits, and a
    /// stealing one steals or exits.
    fn execute(&mut self) {
        let run = self.run;
        let (wid, workers, policy) = (self.wid, run.farm.workers, run.farm.policy);
        while !run.failed.load(Ordering::SeqCst) && !self.leaves_on_demotion() {
            if run.work_pending() {
                let slow = {
                    let mut q = run.queue.lock();
                    if q.failed.is_some() {
                        return;
                    }
                    // A reclaimed range goes out one owner-sized bite at a
                    // time; the rest goes back for the others.
                    run.pop_retry(&mut q).or_else(|| {
                        let (start, count) = q.reclaimed.pop_front()?;
                        let bite = policy.owner_chunk(count, workers, 1.0).clamp(1, count);
                        if bite < count {
                            q.reclaimed.push_back((start + bite, count - bite));
                        } else {
                            run.reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
                        }
                        Some((start..start + bite, 0))
                    })
                };
                if let Some((units, attempt)) = slow {
                    if !self.run_units(units, attempt) {
                        return;
                    }
                    continue;
                }
            }
            let weight = run.weight(wid);
            let fresh = match &run.deques {
                None => {
                    run.claim(|left| policy.next_chunk_with_total(left, run.n, workers, weight))
                }
                Some(deques) => {
                    let mine = &deques[wid];
                    mine.take_bottom(policy.owner_chunk(mine.len(), workers, weight))
                        .map(|(start, count)| start..start + count)
                }
            };
            let going = match (fresh, &run.deques) {
                (Some(units), _) => {
                    // Only the run's first chunk sets it; reading first
                    // keeps every later chunk from taking the line.
                    let c = &run.counters.initial_chunk;
                    if c.load(Ordering::Relaxed) == 0 {
                        let _ = c.compare_exchange(
                            0,
                            units.len(),
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    }
                    self.run_units(units, 0)
                }
                (None, None) => self.try_speculate(),
                (None, Some(deques)) => self.steal(deques),
            };
            if !going {
                return;
            }
        }
    }

    /// Tail speculation (demand-driven modes): duplicate one in-flight unit
    /// on this otherwise idle worker.  Returns `true` when a duplicate ran
    /// (or lost its claim race), so the caller rescans.
    fn try_speculate(&mut self) -> bool {
        let run = self.run;
        let Some(spec) = &run.farm.speculation else {
            return false;
        };
        // In-flight = dispatched units nobody has claimed a result for yet
        // (includes panicked units awaiting retry — their re-execution is
        // exactly what a duplicate races).  The flag scan is racy by design:
        // a unit completing mid-scan only makes the in-flight count stale by
        // one, and the speculated flag still guards uniqueness.
        let dispatched = run.cursor.load(Ordering::Relaxed);
        let mut in_flight = 0usize;
        let mut candidate = None;
        for index in 0..dispatched {
            if !run.claimed[index].load(Ordering::Relaxed) {
                in_flight += 1;
                if candidate.is_none() && !run.speculated[index].load(Ordering::Relaxed) {
                    candidate = Some(index);
                }
            }
        }
        let Some(index) = candidate else {
            return false;
        };
        if !spec.allow(in_flight, run.n) {
            return false;
        }
        if run.speculated[index]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return true; // lost the claim race — rescan
        }
        run.counters
            .speculated_units
            .fetch_add(1, Ordering::Relaxed);
        spec.note_launched(index, self.wid);
        self.exec(index, 0, true)
    }

    /// Work stealing's tail, with this worker's own deque dry: steal the top
    /// half of a victim's deque, or exit once nothing is stealable or
    /// pending.  Returns `false` when this worker stops.
    fn steal(&mut self, deques: &[CachePadded<StealDeque>]) -> bool {
        let run = self.run;
        let Some(v) = run.victim(self.wid, deques) else {
            // Nothing local, nothing stealable: done once no retries or
            // reclaimed ranges are pending either.  Both counters are raised
            // before their backing store drains/fills, so this unlocked scan
            // cannot strand in-flight work; a task that panics later is
            // requeued and finished by the panicking worker itself, which
            // cannot leave while its retry is queued.
            //
            // A lone last task stays with its owner, who may still retire or
            // be demoted and drain it.  So leave the active count first, then
            // look once more: a peer that leaves after us raised its pending
            // counter before it left (see `leave`), so either it saw us still
            // counted and we see its counter now, or it saw us gone — and,
            // were it the last, stayed.
            if deques[self.wid].is_empty() && !run.work_pending() {
                run.active_workers.fetch_sub(1, Ordering::SeqCst);
                if !run.work_pending() {
                    return false;
                }
                run.active_workers.fetch_add(1, Ordering::SeqCst);
            }
            std::hint::spin_loop();
            return true;
        };
        run.counters
            .steals_attempted
            .fetch_add(1, Ordering::Relaxed);
        // A lost race (the victim drained its own deque first) just rescans.
        let Some((start, count)) = deques[v].steal_top_half() else {
            return true;
        };
        run.counters
            .steals_completed
            .fetch_add(1, Ordering::Relaxed);
        run.counters
            .units_stolen
            .fetch_add(count, Ordering::Relaxed);
        self.run_units(start..start + count, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::spin as spin_work;
    use crate::pool::WorkerPool;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_preserve_input_order() {
        let farm = ThreadFarm::new(4);
        let items: Vec<u64> = (0..200).collect();
        let (out, stats) = farm.run(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 200);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.workers_lost, 0);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let farm = ThreadFarm::new(2);
        let (out, stats) = farm.run(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 0);
    }

    #[test]
    fn single_worker_still_completes() {
        let farm = ThreadFarm::new(1).with_policy(SchedulePolicy::SelfScheduling);
        let items: Vec<u64> = (0..50).collect();
        let (out, stats) = farm.run(&items, |&x| x + 1);
        assert_eq!(out.len(), 50);
        assert_eq!(stats.tasks_per_worker, vec![50]);
        assert_eq!(stats.imbalance(), 50.0_f64.max(1.0) / 50.0);
    }

    #[test]
    fn imbalance_is_infinite_when_only_some_workers_ran_anything() {
        let (_, mut stats) = ThreadFarm::new(2).run(&[] as &[u32], |&x| x);
        assert_eq!(stats.imbalance(), 1.0, "nobody ran anything: balanced");
        for (counts, expected) in [
            (vec![1, 0], f64::INFINITY),
            (vec![12, 0], f64::INFINITY),
            (vec![6, 3], 2.0),
            (vec![4, 4], 1.0),
        ] {
            stats.tasks_per_worker = counts;
            assert_eq!(stats.imbalance(), expected, "{:?}", stats.tasks_per_worker);
        }
    }

    #[test]
    fn every_policy_completes_the_workload() {
        let items: Vec<u64> = (0..300).collect();
        for policy in [
            SchedulePolicy::StaticBlock,
            SchedulePolicy::SelfScheduling,
            SchedulePolicy::FixedChunk { chunk: 7 },
            SchedulePolicy::Guided { min_chunk: 2 },
            SchedulePolicy::Factoring { factor: 0.5 },
            SchedulePolicy::AdaptiveWeighted { min_chunk: 1 },
            SchedulePolicy::WorkStealing { min_chunk: 1 },
        ] {
            let farm = ThreadFarm::new(3).with_policy(policy);
            let (out, _) = farm.run(&items, |&x| spin_work(x % 64) ^ x);
            assert_eq!(out.len(), 300, "{policy:?}");
        }
    }

    #[test]
    fn work_stealing_completes_and_preserves_order() {
        let farm = ThreadFarm::new(4).with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 });
        let items: Vec<u64> = (0..500).collect();
        let (out, stats) = farm.run(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 500);
        assert!(stats.steals_completed <= stats.steals_attempted);
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn stealing_rebalances_an_asymmetric_farm() {
        // Worker 0 is ~50× slower per task: under one-shot partitioning it
        // would hold a quarter of the range hostage, so thieves must visibly
        // move units out of its deque.
        let farm = ThreadFarm::new(4)
            .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
            .with_calibration_samples(1);
        let items: Vec<u64> = (0..400).collect();
        let (out, stats) = farm.run(&items, |&x| {
            let w = if x < 100 { 60_000 } else { 1_200 };
            spin_work(w) ^ x
        });
        assert_eq!(out.len(), 400);
        assert!(
            stats.steals_completed >= 1,
            "no steals on an asymmetric farm: {stats:?}"
        );
        assert!(stats.units_stolen >= 1);
        // The slow range's owner must have been relieved of part of its seed
        // partition (100 tasks) by the fast workers.
        assert!(
            stats.tasks_per_worker.iter().sum::<usize>() == 400,
            "conservation: {:?}",
            stats.tasks_per_worker
        );
    }

    #[test]
    fn demoted_stealing_worker_drains_its_deque_back_into_circulation() {
        let gate = Arc::new(WorkerGate::new(4));
        gate.demote(0);
        let farm = ThreadFarm::new(4)
            .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
            .with_calibration_samples(1)
            .with_gate(Arc::clone(&gate));
        let items: Vec<u64> = (0..200).collect();
        let (out, stats) = farm.run(&items, |&x| x + 1);
        assert_eq!(out.len(), 200, "demotion drain must not lose work");
        assert_eq!(stats.workers_demoted, 1);
        assert_eq!(stats.workers_lost, 0);
        // The demoted worker executed at most its calibration probe; its
        // seed partition (50 tasks) was drained or stolen, not stranded.
        assert!(
            stats.tasks_per_worker[0] <= 1,
            "demoted worker kept pulling: {:?}",
            stats.tasks_per_worker
        );
    }

    #[test]
    fn panicking_stealing_worker_retires_and_its_deque_is_reclaimed() {
        // Worker-targeted transient faults: whoever executes the poisoned
        // indices panics, and when a worker exhausts its budget and retires
        // with seed tasks still in its deque, the drain must put them back
        // into circulation.
        let transient_faults = AtomicUsize::new(5);
        let farm = ThreadFarm::new(4)
            .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
            .with_worker_panic_budget(1)
            .with_max_task_attempts(10);
        let items: Vec<u64> = (0..200).collect();
        let (out, stats) = farm
            .try_run(&items, |&x| {
                if x % 4 == 0
                    && transient_faults
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected fault burst");
                }
                spin_work(x % 32) ^ x
            })
            .expect("fault burst must be survivable under stealing");
        assert_eq!(out.len(), 200);
        assert_eq!(stats.panics, 5);
        assert!(stats.retried >= 1);
        assert!(stats.workers_lost < 4);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 200);
    }

    /// Sets its flag when the thread whose thread-local holds it exits.
    struct OnThreadExit(Arc<AtomicBool>);

    impl Drop for OnThreadExit {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_GUARD: RefCell<Option<OnThreadExit>> = const { RefCell::new(None) };
    }

    fn wait_for(flag: &AtomicBool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !flag.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_stealing_worker_that_retires_after_its_peers_left_strands_nothing() {
        // The interleaving that used to lose a unit, forced step by step:
        // worker 1 runs out of work and exits while worker 0 still owns a
        // lone, unstealable task; only then does worker 0 panic past its
        // budget.  Worker 0 is now the last worker pulling and must not
        // retire — retiring drains that task into the reclaimed queue with
        // nobody left to take it (`WorkerFailed` for the stranded unit).
        let w0_started = AtomicBool::new(false);
        let w1_exited = Arc::new(AtomicBool::new(false));
        let fault_left = AtomicBool::new(true);
        let farm = ThreadFarm::new(2)
            .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
            .with_calibration_samples(0)
            .with_worker_panic_budget(0)
            .with_max_task_attempts(3);
        // Worker 0 is seeded [0, 2) and bites one task at a time, so its
        // first unit leaves one task behind; worker 1 is seeded [2, 4).
        let items: Vec<u64> = (0..4).collect();
        let (out, stats) = farm
            .try_run_indexed(&items, |wid, &x| {
                if wid == 0 && !w0_started.swap(true, Ordering::SeqCst) {
                    wait_for(&w1_exited, "worker 1 to exit");
                    if fault_left.swap(false, Ordering::SeqCst) {
                        panic!("fault after the peer left");
                    }
                }
                if wid == 1 {
                    // Hold worker 1 until worker 0's bite has left its deque
                    // a lone task, so there is nothing to steal.
                    wait_for(&w0_started, "worker 0's first unit");
                    EXIT_GUARD.with(|g| {
                        g.borrow_mut()
                            .get_or_insert_with(|| OnThreadExit(Arc::clone(&w1_exited)));
                    });
                }
                x
            })
            .expect("the last worker pulling must not retire and strand its task");
        assert_eq!(out, items);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.workers_lost, 0);
        assert_eq!(stats.tasks_per_worker, vec![2, 2]);
    }

    #[test]
    fn work_stealing_persistent_panic_still_yields_a_typed_error() {
        let farm = ThreadFarm::new(3)
            .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
            .with_max_task_attempts(2);
        let items: Vec<u64> = (0..60).collect();
        let err = farm
            .try_run(&items, |&x| {
                if x == 31 {
                    panic!("permanently broken task");
                }
                x
            })
            .expect_err("a task failing every attempt must error");
        match err {
            GraspError::WorkerFailed { task, attempts } => {
                assert_eq!(task, 31);
                assert_eq!(attempts, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Test policy: always allow, count the reports.
    struct AlwaysSpeculate {
        launched: AtomicUsize,
        wins: AtomicUsize,
    }

    impl AlwaysSpeculate {
        fn new() -> Arc<Self> {
            Arc::new(AlwaysSpeculate {
                launched: AtomicUsize::new(0),
                wins: AtomicUsize::new(0),
            })
        }
    }

    impl SpeculationPolicy for AlwaysSpeculate {
        fn allow(&self, _in_flight: usize, _total: usize) -> bool {
            true
        }
        fn note_launched(&self, _unit: usize, _worker: usize) {
            self.launched.fetch_add(1, Ordering::Relaxed);
        }
        fn note_win(&self, _unit: usize, _worker: usize) {
            self.wins.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn idle_worker_duplicates_the_tail_straggler_and_first_result_wins() {
        // Whoever executes item 2 first sleeps; the duplicate (or the
        // straggler, if the duplicate lost the start race) returns at once.
        // Either way the run must finish long before the sleeper wakes only
        // if the duplicate's result is accepted.
        let policy = AlwaysSpeculate::new();
        let farm = ThreadFarm::new(2)
            .with_policy(SchedulePolicy::SelfScheduling)
            .with_calibration_samples(0)
            .with_speculation(Arc::clone(&policy) as Arc<dyn SpeculationPolicy>);
        let slow_exec_taken = AtomicUsize::new(0);
        let items: Vec<u64> = vec![10, 20, 30];
        let (out, stats) = farm.run(&items, |&x| {
            if x == 30 && slow_exec_taken.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(200));
            }
            x * 2
        });
        assert_eq!(out, vec![20, 40, 60]);
        // Exactly one worker recorded each unit, duplicates included.
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 3);
        assert!(
            stats.speculated_units >= 1,
            "the idle worker never speculated: {stats:?}"
        );
        assert!(stats.speculation_wins <= stats.speculated_units);
        assert_eq!(
            policy.launched.load(Ordering::Relaxed),
            stats.speculated_units,
            "every launch must be reported to the policy"
        );
        assert_eq!(policy.wins.load(Ordering::Relaxed), stats.speculation_wins);
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn speculation_under_panics_still_counts_every_unit_exactly_once() {
        // Transient panics + a slow straggler + always-on speculation: the
        // result set and the per-worker task accounting must both stay
        // exact (no unit double-counted by a winner and its loser).
        let policy = AlwaysSpeculate::new();
        let farm = ThreadFarm::new(3)
            .with_policy(SchedulePolicy::SelfScheduling)
            .with_calibration_samples(0)
            .with_max_task_attempts(10)
            .with_speculation(Arc::clone(&policy) as Arc<dyn SpeculationPolicy>);
        let transient_faults = AtomicUsize::new(4);
        let slow_exec_taken = AtomicUsize::new(0);
        let items: Vec<u64> = (0..24).collect();
        let (out, stats) = farm
            .try_run(&items, |&x| {
                if x % 6 == 0
                    && transient_faults
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected transient fault");
                }
                if x == 23 && slow_exec_taken.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                x + 1
            })
            .expect("speculation must not break fault recovery");
        assert_eq!(out, (1..=24).collect::<Vec<u64>>());
        assert_eq!(
            stats.tasks_per_worker.iter().sum::<usize>(),
            24,
            "winner/loser races double- or under-counted units: {stats:?}"
        );
        assert_eq!(
            policy.launched.load(Ordering::Relaxed),
            stats.speculated_units
        );
    }

    /// Test observer: how often each unit was recorded, and per worker.
    struct RecordCounter {
        recorded: Vec<AtomicUsize>,
    }

    impl UnitObserver for RecordCounter {
        type Local = usize;

        fn unit_done(
            &self,
            local: &mut usize,
            _worker: usize,
            index: usize,
            timing: UnitTiming,
            recorded: bool,
        ) {
            assert!(timing.finished >= timing.started);
            if recorded {
                self.recorded[index].fetch_add(1, Ordering::Relaxed);
                *local += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random panic schedules × {Guided, WorkStealing} × 1–4 workers ×
        /// speculation on/off: with more attempts per unit than faults
        /// injected into it, the run succeeds, its results come back in
        /// input order, and every unit is recorded exactly once — by the
        /// observer's count, by `tasks_per_worker`, and per worker.
        ///
        /// `resident` runs the same case as three rounds in a row on one
        /// `WorkerPool` (`run_stealing` when `stealing`, else `run`), each
        /// with the same injected panics, taking a random worker out of
        /// rotation between rounds: it must complete nothing while out.
        #[test]
        fn farm_records_every_unit_once_in_input_order(
            workers in 1usize..5,
            stealing in any::<bool>(),
            speculate in any::<bool>(),
            resident in any::<bool>(),
            n in 1usize..150,
            faults in prop::collection::vec(0usize..8, 150),
            panic_budget in 0usize..4,
            calibration in 0usize..3,
            rotate in 0usize..4,
        ) {
            // Up to two faults per unit (a quarter of the units get any).
            const MAX_FAULTS: usize = 2;
            let schedule: Vec<usize> = faults[..n]
                .iter()
                .map(|&f| f.saturating_sub(8 - 1 - MAX_FAULTS))
                .collect();
            let injected: usize = schedule.iter().sum();
            let fault_left: Arc<Vec<AtomicUsize>> =
                Arc::new(schedule.iter().map(|&f| AtomicUsize::new(f)).collect());
            let task = {
                let fault_left = Arc::clone(&fault_left);
                move |x: u64| {
                    let f = &fault_left[x as usize];
                    if f.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1)).is_ok() {
                        panic!("injected fault");
                    }
                    spin_work(x % 7 * 40) ^ x
                }
            };
            let items: Vec<u64> = (0..n as u64).collect();
            let expected: Vec<u64> = items.iter().map(|&x| spin_work(x % 7 * 40) ^ x).collect();
            let failed = |e: GraspError| TestCaseError::fail(format!("{e} with {injected} faults injected"));
            if resident {
                let pool = WorkerPool::start(workers, {
                    let task = task.clone();
                    move |_, &x: &u64| task(x)
                });
                let mut out_of_rotation = None;
                for round in 0..3 {
                    for (f, &k) in fault_left.iter().zip(&schedule) {
                        f.store(k, Ordering::Relaxed);
                    }
                    let lease = pool.lease();
                    let out = if stealing {
                        lease.run_stealing(items.clone(), MAX_FAULTS + 1)
                    } else {
                        lease.run(items.clone(), MAX_FAULTS + 1)
                    }
                    .map_err(failed)?;
                    drop(lease);
                    prop_assert_eq!(&out.results, &expected);
                    prop_assert_eq!(out.stats.tasks_per_worker.iter().sum::<usize>(), n);
                    if let Some(w) = out_of_rotation.take() {
                        prop_assert_eq!(out.stats.tasks_per_worker[w], 0, "worker {} was out", w);
                        pool.set_active(w, true);
                    }
                    prop_assert!(out.stats.panics <= injected);
                    let w = (rotate + round) % workers;
                    if pool.set_active(w, false) {
                        out_of_rotation = Some(w);
                    }
                }
                return Ok(());
            }
            let policy = if stealing {
                SchedulePolicy::WorkStealing { min_chunk: 1 }
            } else {
                SchedulePolicy::Guided { min_chunk: 1 }
            };
            let mut farm = ThreadFarm::new(workers)
                .with_policy(policy)
                .with_calibration_samples(calibration)
                .with_worker_panic_budget(panic_budget)
                .with_max_task_attempts(MAX_FAULTS + 1);
            if speculate {
                farm = farm.with_speculation(AlwaysSpeculate::new() as Arc<dyn SpeculationPolicy>);
            }
            let counter = RecordCounter {
                recorded: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            };
            let (out, stats, per_worker) = farm
                .try_run_observed(&items, &counter, |_, &x| task(x))
                .map_err(failed)?;
            prop_assert_eq!(out, expected);
            for (index, c) in counter.recorded.iter().enumerate() {
                prop_assert_eq!(c.load(Ordering::Relaxed), 1, "unit {} recorded", index);
            }
            prop_assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), n);
            prop_assert_eq!(&per_worker, &stats.tasks_per_worker);
            prop_assert!(stats.panics <= injected);
            prop_assert!(stats.workers_lost < workers);
        }
    }

    #[test]
    fn without_a_policy_the_farm_never_speculates() {
        let farm = ThreadFarm::new(4).with_policy(SchedulePolicy::SelfScheduling);
        let items: Vec<u64> = (0..50).collect();
        let (_, stats) = farm.run(&items, |&x| spin_work(x % 16) ^ x);
        assert_eq!(stats.speculated_units, 0);
        assert_eq!(stats.speculation_wins, 0);
    }

    #[test]
    fn rank_table_publishes_and_filters() {
        let t = RankTable::new(3);
        assert_eq!(t.means.len(), 3);
        assert_eq!(t.get(0), None, "unranked until first set");
        t.set(0, 2.5e-3);
        t.set(1, f64::NAN);
        t.set(2, -1.0);
        t.set(9, 1.0);
        assert_eq!(t.get(0), Some(2.5e-3));
        assert_eq!(t.get(1), None, "non-finite ranks are ignored");
        assert_eq!(t.get(2), None, "non-positive ranks are ignored");
        assert_eq!(t.get(9), None);
    }

    #[test]
    fn rank_table_steers_victim_selection_toward_the_slow_worker() {
        // Publish ranks marking worker 0 as the slowest before the run: the
        // thieves should relieve it even though the farm-local stats start
        // empty.
        let ranks = Arc::new(RankTable::new(4));
        ranks.set(0, 50e-3);
        for w in 1..4 {
            ranks.set(w, 1e-3);
        }
        let farm = ThreadFarm::new(4)
            .with_policy(SchedulePolicy::WorkStealing { min_chunk: 1 })
            .with_calibration_samples(0)
            .with_rank_table(Arc::clone(&ranks));
        let items: Vec<u64> = (0..400).collect();
        let (out, stats) = farm.run(&items, |&x| {
            let w = if x < 100 { 50_000 } else { 1_000 };
            spin_work(w) ^ x
        });
        assert_eq!(out.len(), 400);
        assert!(
            stats.steals_completed >= 1,
            "ranked slow worker was never relieved: {stats:?}"
        );
    }

    #[test]
    fn calibration_can_be_disabled() {
        let farm = ThreadFarm::new(2).with_calibration_samples(0);
        let items: Vec<u64> = (0..20).collect();
        let (out, stats) = farm.run(&items, |&x| x);
        assert_eq!(out.len(), 20);
        assert_eq!(stats.calibration, Duration::ZERO);
    }

    #[test]
    fn irregular_work_is_shared_among_workers() {
        // Irregular per-item cost: demand-driven scheduling should keep every
        // worker busy (no worker should end up with almost nothing).  Items
        // are heavy enough that the workload outlives thread start-up.
        let farm = ThreadFarm::new(4).with_policy(SchedulePolicy::SelfScheduling);
        let items: Vec<u64> = (0..200).map(|i| (i % 37) * 20_000 + 5_000).collect();
        let (out, stats) = farm.run(&items, |&x| spin_work(x));
        assert_eq!(out.len(), 200);
        assert!(stats.tasks_per_worker.iter().all(|&c| c > 0));
        assert!(stats.mean_task_time_per_worker.iter().all(|&t| t >= 0.0));
        assert!(stats.total >= stats.calibration);
    }

    #[test]
    fn transient_panic_is_retried_and_the_run_completes() {
        // One task panics on its first attempt only (a transient fault): the
        // farm must catch the panic, requeue the task, and finish with every
        // slot filled and the retry reported.
        let fail_once = AtomicUsize::new(1);
        let farm = ThreadFarm::new(3);
        let items: Vec<u64> = (0..120).collect();
        let (out, stats) = farm
            .try_run(&items, |&x| {
                if x == 60
                    && fail_once
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected transient fault");
                }
                x * 2
            })
            .expect("transient fault must be survivable");
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 120);
    }

    #[test]
    fn persistent_panic_yields_a_typed_error() {
        let farm = ThreadFarm::new(2).with_max_task_attempts(2);
        let items: Vec<u64> = (0..40).collect();
        let err = farm
            .try_run(&items, |&x| {
                if x == 7 {
                    panic!("permanently broken task");
                }
                x
            })
            .expect_err("a task failing every attempt must error");
        match err {
            GraspError::WorkerFailed { task, attempts } => {
                assert_eq!(task, 7);
                assert_eq!(attempts, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn panicking_worker_retires_but_the_pool_survives() {
        // Every task on the "poisoned" range panics once per attempt until
        // the counter drains; the pool must absorb more panics than one
        // worker's budget, retire nobody fatally needed, and still finish.
        let transient_faults = AtomicUsize::new(6);
        let farm = ThreadFarm::new(4)
            .with_worker_panic_budget(1)
            .with_max_task_attempts(10);
        let items: Vec<u64> = (0..200).collect();
        let (out, stats) = farm
            .try_run(&items, |&x| {
                if x % 3 == 0
                    && transient_faults
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected fault burst");
                }
                spin_work(x % 32) ^ x
            })
            .expect("fault burst must be survivable");
        assert_eq!(out.len(), 200);
        assert_eq!(stats.panics, 6);
        assert!(stats.retried >= 1);
        // Whatever retired, the results are complete and exactly-once.
        assert!(stats.workers_lost < 4);
    }

    #[test]
    fn default_uses_available_parallelism() {
        let farm = ThreadFarm::default();
        assert!(farm.workers >= 1);
    }

    #[test]
    fn demoted_worker_stops_pulling_but_the_job_completes() {
        let gate = Arc::new(WorkerGate::new(4));
        assert!(gate.demote(0), "first demotion sets the flag");
        assert!(!gate.demote(0), "repeat demotions are idempotent");
        assert!(gate.is_demoted(0));
        assert_eq!(gate.demoted_count(), 1);
        let farm = ThreadFarm::new(4)
            .with_policy(SchedulePolicy::SelfScheduling)
            .with_calibration_samples(1)
            .with_gate(Arc::clone(&gate));
        let items: Vec<u64> = (0..200).collect();
        let (out, stats) = farm.run(&items, |&x| x + 1);
        assert_eq!(out.len(), 200, "demotion must not lose work");
        assert_eq!(stats.workers_demoted, 1);
        assert_eq!(stats.workers_lost, 0, "demotion is not a fault");
        // The demoted worker executed at most its calibration probe.
        assert!(
            stats.tasks_per_worker[0] <= 1,
            "demoted worker kept pulling: {:?}",
            stats.tasks_per_worker
        );
    }

    #[test]
    fn last_active_worker_ignores_demotion() {
        let gate = Arc::new(WorkerGate::new(1));
        gate.demote(0);
        let farm = ThreadFarm::new(1)
            .with_calibration_samples(0)
            .with_gate(Arc::clone(&gate));
        let items: Vec<u64> = (0..30).collect();
        let (out, stats) = farm.run(&items, |&x| x * 2);
        assert_eq!(out.len(), 30, "the last worker must soldier on");
        assert_eq!(stats.workers_demoted, 0);
    }
}
