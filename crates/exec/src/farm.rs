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
//! The implementation uses scoped threads, `parking_lot` mutexes and atomics
//! only — no unsafe code, no dependency on a global thread pool.
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
//!   merged into input order once, after the workers have joined;
//! * per-worker state that peers do read — the running timing sums behind
//!   the adaptive weighted chunking, the steal deques — sits in
//!   cache-line-padded slots, so a worker's writes never invalidate a
//!   peer's cache line.
//!
//! Locks (the queue, the speculation policy) are taken per chunk or per
//! fault, never per unit.

use crate::deque::{StealDeque, MAX_RANGE};
use crate::padded::CachePadded;
use grasp_core::error::GraspError;
use grasp_core::SchedulePolicy;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
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
pub struct RankTable {
    means: Vec<AtomicU64>,
}

impl RankTable {
    /// A table for `workers` workers, all initially unranked.
    pub fn new(workers: usize) -> Self {
        RankTable {
            means: (0..workers)
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
        }
    }

    /// Publish `worker`'s latest mean time (seconds).  Out-of-range ids and
    /// non-positive / non-finite values are ignored.
    pub fn set(&self, worker: usize, mean_s: f64) {
        if mean_s.is_finite() && mean_s > 0.0 {
            if let Some(m) = self.means.get(worker) {
                m.store(mean_s.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// `worker`'s latest published mean, `None` before its first rank.
    pub fn get(&self, worker: usize) -> Option<f64> {
        self.means
            .get(worker)
            .map(|m| f64::from_bits(m.load(Ordering::Relaxed)))
            .filter(|v| v.is_finite() && *v > 0.0)
    }

    /// Number of workers the table covers.
    pub fn workers(&self) -> usize {
        self.means.len()
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
/// task retries are pending, and the last active worker never stops.
#[derive(Debug, Default)]
pub struct WorkerGate {
    demoted: Vec<AtomicBool>,
    /// Workers the farm retired after exhausting their panic budget.  The
    /// farm reports these so the adaptation layer's pool-floor arithmetic
    /// (`workers − inactive > min_active`) counts every worker that is no
    /// longer pulling, not just the ones it demoted itself.
    retired: Vec<AtomicBool>,
}

impl WorkerGate {
    /// A gate for `workers` workers, all initially active.
    pub fn new(workers: usize) -> Self {
        WorkerGate {
            demoted: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            retired: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Flag `worker` as demoted.  Returns `true` when the flag was newly
    /// set (false for out-of-range ids and repeat demotions).
    pub fn demote(&self, worker: usize) -> bool {
        self.demoted
            .get(worker)
            .map(|f| !f.swap(true, Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Whether `worker` has been demoted.
    pub fn is_demoted(&self, worker: usize) -> bool {
        self.demoted
            .get(worker)
            .map(|f| f.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Farm-side report: `worker` retired after exhausting its panic budget.
    pub fn mark_retired(&self, worker: usize) {
        if let Some(f) = self.retired.get(worker) {
            f.store(true, Ordering::Relaxed);
        }
    }

    /// Whether `worker` is no longer pulling for any reason — demoted by
    /// the adaptation layer or retired by the farm after panics.
    pub fn is_inactive(&self, worker: usize) -> bool {
        self.is_demoted(worker)
            || self
                .retired
                .get(worker)
                .map(|f| f.load(Ordering::Relaxed))
                .unwrap_or(false)
    }

    /// Number of demoted workers.
    pub fn demoted_count(&self) -> usize {
        self.demoted
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// Number of workers no longer pulling for any reason — demoted by the
    /// adaptation layer or retired by the farm after panics.
    pub fn inactive_count(&self) -> usize {
        self.demoted
            .iter()
            .zip(&self.retired)
            .filter(|(d, r)| d.load(Ordering::Relaxed) || r.load(Ordering::Relaxed))
            .count()
    }
}

/// Per-run statistics reported by [`ThreadFarm::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FarmStats {
    /// Number of worker threads used.
    pub workers: usize,
    /// Tasks completed per worker.
    pub tasks_per_worker: Vec<usize>,
    /// Mean per-task execution time per worker (seconds), as measured during
    /// the run (calibration probes included).
    pub mean_task_time_per_worker: Vec<f64>,
    /// Wall-clock duration of the calibration pass.
    pub calibration: Duration,
    /// Wall-clock duration of the whole run.
    pub total: Duration,
    /// Chunk size chosen after calibration (for fixed/guided policies this is
    /// the first chunk actually dispensed).
    pub initial_chunk: usize,
    /// Worker panics caught and isolated during the run.
    pub panics: usize,
    /// Tasks that were re-executed after a panicked attempt and completed.
    pub retried: usize,
    /// Workers retired after exhausting their panic budget.
    pub workers_lost: usize,
    /// Workers that stopped pulling after an external demotion through the
    /// [`WorkerGate`] (Algorithm 2's "drop the slow node", not a fault).
    pub workers_demoted: usize,
    /// Steal attempts made by idle workers (work-stealing policy only; a
    /// chosen victim whose deque drained first counts as attempted).
    pub steals_attempted: usize,
    /// Steal attempts that removed a non-empty range from a victim's deque.
    pub steals_completed: usize,
    /// Total task units moved between deques by completed steals.
    pub units_stolen: usize,
    /// In-flight units speculatively duplicated on idle workers near the
    /// tail (each unit at most once; demand-driven policies only).
    pub speculated_units: usize,
    /// Speculative duplicates that delivered the winning (first) result.
    pub speculation_wins: usize,
}

impl FarmStats {
    /// Ratio between the busiest and least busy worker's task counts
    /// (1.0 = perfectly balanced; higher = more imbalance).
    pub fn imbalance(&self) -> f64 {
        let max = self.tasks_per_worker.iter().copied().max().unwrap_or(0) as f64;
        let min = self.tasks_per_worker.iter().copied().min().unwrap_or(0) as f64;
        if min <= 0.0 {
            max.max(1.0)
        } else {
            max / min
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

/// One unit of work pulled from the shared queue.
enum Job {
    /// A fresh contiguous chunk `[start, start + count)`.
    Chunk { start: usize, count: usize },
    /// A single requeued task on its `attempt`-th retry.
    Retry { index: usize, attempt: usize },
}

/// The shared dispensing state: a cursor over fresh tasks, the retry queue
/// fed by caught panics, the first permanently failed task (if any), and —
/// in work-stealing mode — ranges drained from demoted or retired workers'
/// deques awaiting re-circulation.
struct Queue {
    next: usize,
    total: usize,
    retries: std::collections::VecDeque<(usize, usize)>,
    failed: Option<usize>,
    reclaimed: std::collections::VecDeque<(usize, usize)>,
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
pub trait SpeculationPolicy: Send + Sync {
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
pub struct UnitTiming {
    /// Just before the closure was called.
    pub started: Instant,
    /// Just after it returned.
    pub finished: Instant,
}

impl UnitTiming {
    /// Wall time the closure took.
    pub fn elapsed(&self) -> Duration {
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
pub trait UnitObserver: Sync {
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
pub type ObservedRun<R, L> = (Vec<R>, FarmStats, Vec<L>);

/// What one worker thread owns during a run and hands back when it exits.
struct WorkerLocal<R, L> {
    /// `(index, result)` of every unit this worker recorded.
    results: RefCell<Vec<(usize, R)>>,
    /// The observer's state for this worker.
    observed: RefCell<L>,
    /// Panics this worker has caught.
    panics: Cell<usize>,
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
    pub fn with_speculation(mut self, policy: Arc<dyn SpeculationPolicy>) -> Self {
        self.speculation = Some(policy);
        self
    }

    /// Attach a [`WorkerGate`] whose demotion flags the pull loop honours
    /// (see the gate's docs for the progress guards).  The caller keeps its
    /// own handle and flips flags while the run is in flight.
    pub fn with_gate(mut self, gate: Arc<WorkerGate>) -> Self {
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
    pub fn with_rank_table(mut self, ranks: Arc<RankTable>) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Override how many probe tasks each worker executes during calibration
    /// (0 disables the calibration pass).
    pub fn with_calibration_samples(mut self, samples: usize) -> Self {
        self.calibration_samples = samples;
        self
    }

    /// Override how many times one task may be attempted before the run is
    /// declared failed (clamped to ≥ 1; the default is 3).
    pub fn with_max_task_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = attempts.max(1);
        self
    }

    /// Override how many panics a single worker may absorb before it retires
    /// from the pool (the last active worker never retires, so progress is
    /// preserved as long as some attempt can succeed).
    pub fn with_worker_panic_budget(mut self, budget: usize) -> Self {
        self.worker_panic_budget = budget;
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
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
    pub fn try_run_indexed<T, R, F>(
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
    pub fn try_run_observed<T, R, F, O>(
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
        let n = items.len();
        let started = Instant::now();

        if n == 0 {
            return Ok((
                Vec::new(),
                FarmStats {
                    workers: self.workers,
                    tasks_per_worker: vec![0; self.workers],
                    mean_task_time_per_worker: vec![0.0; self.workers],
                    calibration: Duration::ZERO,
                    total: started.elapsed(),
                    initial_chunk: 0,
                    panics: 0,
                    retried: 0,
                    workers_lost: 0,
                    workers_demoted: 0,
                    steals_attempted: 0,
                    steals_completed: 0,
                    units_stolen: 0,
                    speculated_units: 0,
                    speculation_wins: 0,
                },
                (0..self.workers).map(|_| O::Local::default()).collect(),
            ));
        }

        // First result wins: one claim flag per unit, swapped by every
        // successful execution — only the one that flips it records.
        let claimed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let queue = Mutex::new(Queue {
            next: 0,
            total: n,
            retries: std::collections::VecDeque::new(),
            failed: None,
            reclaimed: std::collections::VecDeque::new(),
        });
        let stats: Vec<CachePadded<WorkerStat>> =
            (0..self.workers).map(|_| CachePadded::default()).collect();
        let retried_total = AtomicUsize::new(0);
        let workers_lost = AtomicUsize::new(0);
        let workers_demoted = AtomicUsize::new(0);
        // Workers still pulling; the last one never retires.  In
        // work-stealing mode a worker that runs out of work leaves the count
        // as well (see the steal loop's exit arm).
        let active_workers = AtomicUsize::new(self.workers);
        let calibration_done = Mutex::new(Duration::ZERO);
        let initial_chunk = AtomicUsize::new(0);
        // Lock-free mirrors of the queue's slow-path state, so the stealing
        // owner fast path (pop own deque, execute) touches no lock at all.
        // Both pending counters are bumped *before* the backing store they
        // mirror is filled, so an idle worker's termination scan can never
        // miss in-flight work (see the steal loop's exit arm).
        let retries_pending = AtomicUsize::new(0);
        let reclaimed_pending = AtomicUsize::new(0);
        let failed_flag = AtomicBool::new(false);
        let steals_attempted = AtomicUsize::new(0);
        let steals_completed = AtomicUsize::new(0);
        let units_stolen = AtomicUsize::new(0);
        let speculated_units = AtomicUsize::new(0);
        let speculation_wins = AtomicUsize::new(0);
        // One flag per unit so each in-flight unit is duplicated at most
        // once (allocated only when a speculation policy is attached).
        let speculated_flags: Vec<AtomicBool> = if self.speculation.is_some() {
            (0..n).map(|_| AtomicBool::new(false)).collect()
        } else {
            Vec::new()
        };

        let calib_samples = self.calibration_samples;
        let policy = self.policy;
        let workers = self.workers;
        let max_attempts = self.max_task_attempts;
        let panic_budget = self.worker_panic_budget;
        let gate = self.gate.as_deref();
        let ranks = self.ranks.as_deref();
        let speculation = self.speculation.as_deref();

        // Work-stealing mode: seed one deque per worker from a one-shot
        // partition of the task range.  (Ranges beyond the packed 32-bit
        // bound — far past any supported workload — fall back to the
        // demand-driven queue.)
        let steal_deques: Option<Vec<CachePadded<StealDeque>>> =
            if matches!(policy, SchedulePolicy::WorkStealing { .. }) && n <= MAX_RANGE {
                Some(
                    (0..workers)
                        .map(|w| {
                            CachePadded(StealDeque::new(w * n / workers, (w + 1) * n / workers))
                        })
                        .collect(),
                )
            } else {
                None
            };

        let outputs: Vec<WorkerLocal<R, O::Local>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for wid in 0..workers {
                let queue = &queue;
                let claimed = &claimed;
                let stats = &stats;
                let retried_total = &retried_total;
                let workers_lost = &workers_lost;
                let workers_demoted = &workers_demoted;
                let active_workers = &active_workers;
                let calibration_done = &calibration_done;
                let initial_chunk = &initial_chunk;
                let retries_pending = &retries_pending;
                let reclaimed_pending = &reclaimed_pending;
                let failed_flag = &failed_flag;
                let steals_attempted = &steals_attempted;
                let steals_completed = &steals_completed;
                let units_stolen = &units_stolen;
                let speculated_units = &speculated_units;
                let speculation_wins = &speculation_wins;
                let speculated_flags = &speculated_flags;
                let steal_deques = steal_deques.as_deref();
                let worker_fn = &worker;
                handles.push(scope.spawn(move || {
                    // Everything this worker writes per unit, apart from
                    // the unit's claim flag and its own padded stat.
                    let local = WorkerLocal {
                        results: RefCell::new(Vec::with_capacity(n / workers + 1)),
                        observed: RefCell::default(),
                        panics: Cell::new(0),
                    };
                    // Execute one attempt of unit `index`, isolating
                    // panics; `speculative` marks a tail duplicate of a
                    // unit another worker may still be running.  The
                    // clock is read just around the closure, and that
                    // one pair feeds this worker's running mean and the
                    // observer.  Returns `false` when the whole run must
                    // stop (task failed permanently).
                    let exec_task = |index: usize, attempt: usize, speculative: bool| -> bool {
                        let started = Instant::now();
                        match catch_unwind(AssertUnwindSafe(|| worker_fn(wid, &items[index]))) {
                            Ok(out) => {
                                let timing = UnitTiming {
                                    started,
                                    finished: Instant::now(),
                                };
                                // First result wins: under speculation
                                // the other copy may already have
                                // claimed the unit, in which case this
                                // one is the cancelled loser — observed
                                // (its timing is real work), but neither
                                // recorded nor counted, so each unit is
                                // counted by exactly one worker.  The
                                // flag publishes no data (each result
                                // stays with its worker until the join),
                                // so the swap needs atomicity only.
                                let recorded = !claimed[index].swap(true, Ordering::Relaxed);
                                observer.unit_done(
                                    &mut local.observed.borrow_mut(),
                                    wid,
                                    index,
                                    timing,
                                    recorded,
                                );
                                if recorded {
                                    local.results.borrow_mut().push((index, out));
                                    stats[wid].record(timing.elapsed());
                                    if attempt > 0 {
                                        retried_total.fetch_add(1, Ordering::Relaxed);
                                    }
                                    if speculative {
                                        speculation_wins.fetch_add(1, Ordering::Relaxed);
                                        if let Some(spec) = speculation {
                                            spec.note_win(index, wid);
                                        }
                                    }
                                }
                                true
                            }
                            // A panicked duplicate is simply dropped: the
                            // primary still owns the unit, so the ordinary
                            // retry path decides its fate.  And a unit
                            // whose duplicate already won needs no retry:
                            // the losing copy's panic is swallowed.
                            Err(_) if speculative || claimed[index].load(Ordering::Relaxed) => true,
                            Err(_) => {
                                local.panics.set(local.panics.get() + 1);
                                let mut q = queue.lock();
                                if attempt + 1 >= max_attempts {
                                    q.failed.get_or_insert(index);
                                    failed_flag.store(true, Ordering::SeqCst);
                                    false
                                } else {
                                    // Counter before queue entry: a peer's
                                    // termination scan must see the retry
                                    // pending before it could see it queued.
                                    retries_pending.fetch_add(1, Ordering::SeqCst);
                                    q.retries.push_back((index, attempt + 1));
                                    true
                                }
                            }
                        }
                    };
                    // Tail speculation (demand-driven modes): duplicate
                    // one in-flight unit on this otherwise-idle worker.
                    // Returns `true` when a duplicate ran (the caller
                    // keeps looping: retries may have appeared, more tail
                    // may remain).
                    let try_speculate = || -> bool {
                        let Some(spec) = speculation else {
                            return false;
                        };
                        // In-flight = dispatched units nobody has claimed
                        // a result for yet (includes panicked units
                        // awaiting retry — their re-execution is exactly
                        // what a duplicate races).  The flag scan is racy
                        // by design: a unit completing mid-scan only makes
                        // the in-flight count stale by one, and the
                        // speculated flag still guards uniqueness.
                        let dispatched = queue.lock().next;
                        let mut in_flight = 0usize;
                        let mut candidate = None;
                        for idx in 0..dispatched {
                            if !claimed[idx].load(Ordering::Relaxed) {
                                in_flight += 1;
                                if candidate.is_none()
                                    && !speculated_flags[idx].load(Ordering::Relaxed)
                                {
                                    candidate = Some(idx);
                                }
                            }
                        }
                        let Some(index) = candidate else {
                            return false;
                        };
                        if !spec.allow(in_flight, n) {
                            return false;
                        }
                        if speculated_flags[index]
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_err()
                        {
                            return true; // lost the claim race — rescan
                        }
                        speculated_units.fetch_add(1, Ordering::Relaxed);
                        spec.note_launched(index, wid);
                        exec_task(index, 0, true)
                    };
                    // A worker past its panic budget retires — never while
                    // retries are pending (it may be the only worker still
                    // looping, and a requeued task must not be stranded)
                    // and never as the last worker still pulling (see
                    // `leave_active`).
                    let over_budget =
                        || local.panics.get() > panic_budget && queue.lock().retries.is_empty();
                    // Leave the active count, unless this is the last
                    // worker still in it, which must soldier on to
                    // preserve progress.
                    let leave_active = || {
                        active_workers
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
                                (a > 1).then(|| a - 1)
                            })
                            .is_ok()
                    };
                    let retire = |retired: &mut bool| {
                        workers_lost.fetch_add(1, Ordering::Relaxed);
                        // Tell the gate (when present) so the adaptation
                        // layer's pool floor counts this worker as inactive.
                        if let Some(g) = gate {
                            g.mark_retired(wid);
                        }
                        *retired = true;
                    };
                    let mut retired = false;

                    // ============ work-stealing mode ============
                    //
                    // Each worker owns deques[wid], seeded with its slice of
                    // the one-shot range partition.  The owner fast path —
                    // rank-weighted pop from its own bottom — takes no lock
                    // and allocates nothing; the queue lock is only touched
                    // on the slow paths (retries, reclaimed ranges, faults).
                    if let Some(deques) = steal_deques {
                        let my_deque = &deques[wid];
                        // Leave the active count and drain our own deque
                        // back into circulation (demotion and retirement,
                        // so `conserves_units_of` holds even when a worker
                        // leaves mid-partition); refused, draining
                        // nothing, for the last worker in the count.  The
                        // pending counter is raised BEFORE the count is
                        // left and before the drain: a peer that later sees
                        // this deque empty is thereby guaranteed to also
                        // see the counter, and so is a peer that leaves the
                        // count after us (see the exit arm) — drained work
                        // always has a live taker.
                        let leave_and_drain = || -> bool {
                            reclaimed_pending.fetch_add(1, Ordering::SeqCst);
                            if !leave_active() {
                                reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
                                return false;
                            }
                            match my_deque.drain_all() {
                                Some(range) => queue.lock().reclaimed.push_back(range),
                                None => {
                                    reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
                                }
                            }
                            true
                        };
                        // Rank weight: prefer the engine's published
                        // calibration ranks, fall back to the farm-local
                        // running means.  Either way: no locks.
                        let rank_weight = || {
                            let from_engine = ranks.and_then(|t| {
                                let my = t.get(wid)?;
                                let mut sum = 0.0;
                                let mut k = 0usize;
                                for v in 0..workers {
                                    if let Some(m) = t.get(v) {
                                        sum += m;
                                        k += 1;
                                    }
                                }
                                (k > 0).then(|| sum / k as f64 / my)
                            });
                            from_engine.unwrap_or_else(|| {
                                let my_mean = stats[wid].mean_s().unwrap_or(0.0);
                                let mut sum = 0.0;
                                let mut k = 0usize;
                                for s in stats.iter() {
                                    if let Some(m) = s.mean_s() {
                                        sum += m;
                                        k += 1;
                                    }
                                }
                                if my_mean > 0.0 && k > 0 {
                                    (sum / k as f64) / my_mean
                                } else {
                                    1.0
                                }
                            })
                        };

                        // Calibration: probe tasks come from our own bottom.
                        let calib_start = Instant::now();
                        for _ in 0..calib_samples {
                            if failed_flag.load(Ordering::SeqCst) {
                                break;
                            }
                            let Some((idx, _)) = my_deque.take_bottom(1) else {
                                break;
                            };
                            if !exec_task(idx, 0, false) {
                                break;
                            }
                            if over_budget() && leave_and_drain() {
                                retire(&mut retired);
                                break;
                            }
                        }
                        if calib_samples > 0 {
                            let elapsed = calib_start.elapsed();
                            let mut cd = calibration_done.lock();
                            if elapsed > *cd {
                                *cd = elapsed;
                            }
                        }

                        enum Slow {
                            Retry { index: usize, attempt: usize },
                            Range { start: usize, count: usize },
                            Nothing,
                        }
                        'steal: while !retired {
                            if failed_flag.load(Ordering::SeqCst) {
                                break;
                            }
                            // External demotion: drain our deque back into
                            // circulation first, under the same progress
                            // guards as the demand-driven loop.
                            if gate.map(|g| g.is_demoted(wid)).unwrap_or(false)
                                && queue.lock().retries.is_empty()
                                && leave_and_drain()
                            {
                                workers_demoted.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            // Slow path first: panic retries, then ranges
                            // reclaimed from departed workers.
                            if retries_pending.load(Ordering::SeqCst) > 0
                                || reclaimed_pending.load(Ordering::SeqCst) > 0
                            {
                                let slow = {
                                    let mut q = queue.lock();
                                    if q.failed.is_some() {
                                        break;
                                    }
                                    if let Some((index, attempt)) = q.retries.pop_front() {
                                        retries_pending.fetch_sub(1, Ordering::SeqCst);
                                        Slow::Retry { index, attempt }
                                    } else if let Some((start, count)) = q.reclaimed.pop_front() {
                                        // Take one owner-sized bite; the
                                        // rest goes back for the others.
                                        let bite = policy.owner_chunk(count, workers, 1.0).max(1);
                                        if bite < count {
                                            q.reclaimed.push_back((start + bite, count - bite));
                                        } else {
                                            reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
                                        }
                                        Slow::Range {
                                            start,
                                            count: bite.min(count),
                                        }
                                    } else {
                                        Slow::Nothing
                                    }
                                };
                                match slow {
                                    Slow::Retry { index, attempt } => {
                                        if !exec_task(index, attempt, false) {
                                            break;
                                        }
                                        if over_budget() && leave_and_drain() {
                                            retire(&mut retired);
                                        }
                                        continue;
                                    }
                                    Slow::Range { start, count } => {
                                        for idx in start..start + count {
                                            if !exec_task(idx, 0, false) {
                                                break 'steal;
                                            }
                                        }
                                        if over_budget() && leave_and_drain() {
                                            retire(&mut retired);
                                        }
                                        continue;
                                    }
                                    Slow::Nothing => {}
                                }
                            }
                            // Owner fast path: rank-weighted pop from our
                            // own bottom.  Lock-free and allocation-free.
                            let want = policy.owner_chunk(my_deque.len(), workers, rank_weight());
                            if want > 0 {
                                if let Some((start, count)) = my_deque.take_bottom(want) {
                                    let _ = initial_chunk.compare_exchange(
                                        0,
                                        count,
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    );
                                    for idx in start..start + count {
                                        if !exec_task(idx, 0, false) {
                                            break 'steal;
                                        }
                                    }
                                    if over_budget() && leave_and_drain() {
                                        retire(&mut retired);
                                    }
                                    continue;
                                }
                            }
                            // Steal phase: pick the slowest-ranked victim
                            // with at least two tasks exposed (the lone last
                            // task always stays with its owner); with no
                            // ranks yet, the longest deque stands in.
                            let mut victim: Option<(usize, usize, Option<f64>)> = None;
                            for v in 0..workers {
                                if v == wid {
                                    continue;
                                }
                                let len = deques[v].len();
                                if len < 2 {
                                    continue;
                                }
                                let mean =
                                    ranks.and_then(|t| t.get(v)).or_else(|| stats[v].mean_s());
                                let better = match &victim {
                                    None => true,
                                    Some((_, best_len, best_mean)) => match (mean, best_mean) {
                                        (Some(m), Some(b)) => {
                                            m > *b || (m == *b && len > *best_len)
                                        }
                                        (Some(_), None) => true,
                                        (None, Some(_)) => false,
                                        (None, None) => len > *best_len,
                                    },
                                };
                                if better {
                                    victim = Some((v, len, mean));
                                }
                            }
                            match victim {
                                Some((v, _, _)) => {
                                    steals_attempted.fetch_add(1, Ordering::Relaxed);
                                    if let Some((start, count)) = deques[v].steal_top_half() {
                                        steals_completed.fetch_add(1, Ordering::Relaxed);
                                        units_stolen.fetch_add(count, Ordering::Relaxed);
                                        for idx in start..start + count {
                                            if !exec_task(idx, 0, false) {
                                                break 'steal;
                                            }
                                        }
                                        if over_budget() && leave_and_drain() {
                                            retire(&mut retired);
                                        }
                                    }
                                    // A lost race (the victim drained its own
                                    // deque first) just rescans.
                                }
                                None => {
                                    // Nothing local, nothing stealable: done
                                    // once no retries or reclaimed ranges are
                                    // pending either.  Both counters are
                                    // raised before their backing store
                                    // drains/fills, so this unlocked scan
                                    // cannot strand in-flight work; a task
                                    // that panics later is requeued and
                                    // finished by the panicking worker
                                    // itself, which cannot retire while its
                                    // retry is queued.
                                    //
                                    // A lone last task stays with its owner,
                                    // who may still retire or be demoted and
                                    // drain it.  So leave the active count
                                    // first, then look once more: a peer
                                    // that leaves after us raised its
                                    // pending counter before it left (see
                                    // `leave_and_drain`), so either it saw
                                    // us still counted and we see its
                                    // counter now, or it saw us gone —
                                    // and, were it the last, stayed.
                                    if my_deque.is_empty()
                                        && retries_pending.load(Ordering::SeqCst) == 0
                                        && reclaimed_pending.load(Ordering::SeqCst) == 0
                                    {
                                        active_workers.fetch_sub(1, Ordering::SeqCst);
                                        if retries_pending.load(Ordering::SeqCst) == 0
                                            && reclaimed_pending.load(Ordering::SeqCst) == 0
                                        {
                                            break;
                                        }
                                        active_workers.fetch_add(1, Ordering::SeqCst);
                                    }
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        return local;
                    }

                    // ----------------- calibration pass -----------------
                    let calib_start = Instant::now();
                    for _ in 0..calib_samples {
                        let idx = {
                            let mut q = queue.lock();
                            if q.failed.is_some() || q.next >= q.total {
                                break;
                            }
                            let i = q.next;
                            q.next += 1;
                            i
                        };
                        if !exec_task(idx, 0, false) {
                            break;
                        }
                        if over_budget() && leave_active() {
                            retire(&mut retired);
                            break;
                        }
                    }
                    if calib_samples > 0 {
                        let elapsed = calib_start.elapsed();
                        let mut cd = calibration_done.lock();
                        if elapsed > *cd {
                            *cd = elapsed;
                        }
                    }

                    // ----------------- execution pass -----------------
                    'pull: while !retired {
                        // An externally demoted worker (Algorithm 2's "drop
                        // the slow node", flagged through the WorkerGate)
                        // stops pulling under the same progress guards as
                        // panic retirement: never while retries are pending,
                        // never as the last active worker.  Its completed
                        // work stands; the queue reroutes the rest.
                        if gate.map(|g| g.is_demoted(wid)).unwrap_or(false)
                            && queue.lock().retries.is_empty()
                            && leave_active()
                        {
                            workers_demoted.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        // Weight = pool mean time / this worker's mean time,
                        // derived from the padded running sums (no locks).
                        let my_mean = stats[wid].mean_s().unwrap_or(0.0);
                        let pool_mean = {
                            let mut sum = 0.0;
                            let mut k = 0usize;
                            for s in stats.iter() {
                                if let Some(m) = s.mean_s() {
                                    sum += m;
                                    k += 1;
                                }
                            }
                            if k == 0 {
                                0.0
                            } else {
                                sum / k as f64
                            }
                        };
                        let weight = if my_mean > 0.0 && pool_mean > 0.0 {
                            pool_mean / my_mean
                        } else {
                            1.0
                        };
                        let job = {
                            let mut q = queue.lock();
                            if q.failed.is_some() {
                                break;
                            }
                            if let Some((index, attempt)) = q.retries.pop_front() {
                                retries_pending.fetch_sub(1, Ordering::SeqCst);
                                Some(Job::Retry { index, attempt })
                            } else {
                                let remaining = q.total - q.next;
                                if remaining == 0 {
                                    None
                                } else {
                                    let c =
                                        policy.next_chunk_with_total(remaining, n, workers, weight);
                                    let start = q.next;
                                    q.next += c;
                                    Some(Job::Chunk { start, count: c })
                                }
                            }
                        };
                        let Some(job) = job else {
                            // The tail: every fresh unit is claimed and no
                            // retry is queued.  Instead of going idle, a
                            // worker with a speculation policy duplicates an
                            // in-flight unit and rescans (retries may have
                            // appeared meanwhile); with none, it exits as
                            // before.
                            if try_speculate() {
                                continue;
                            }
                            break;
                        };
                        match job {
                            Job::Retry { index, attempt } => {
                                if !exec_task(index, attempt, false) {
                                    break;
                                }
                                if over_budget() && leave_active() {
                                    retire(&mut retired);
                                }
                            }
                            Job::Chunk { start, count } => {
                                let _ = initial_chunk.compare_exchange(
                                    0,
                                    count,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                );
                                // The chunk is finished even by a worker over
                                // its panic budget: its tasks are claimed, so
                                // retiring mid-chunk would strand them.
                                for idx in start..start + count {
                                    if !exec_task(idx, 0, false) {
                                        break 'pull;
                                    }
                                }
                                if over_budget() && leave_active() {
                                    retire(&mut retired);
                                }
                            }
                        }
                    }
                    local
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        let queue = queue.into_inner();
        if let Some(task) = queue.failed {
            return Err(GraspError::WorkerFailed {
                task,
                attempts: max_attempts,
            });
        }
        let mut runs = Vec::with_capacity(workers);
        let mut locals = Vec::with_capacity(workers);
        let mut panics = 0;
        for out in outputs {
            runs.push(out.results.into_inner());
            locals.push(out.observed.into_inner());
            panics += out.panics.get();
        }
        // Defensive: no recorded failure but a unit was never recorded —
        // report it as a worker failure rather than panicking.
        let output = merge_in_input_order(runs, n).map_err(|task| GraspError::WorkerFailed {
            task,
            attempts: max_attempts,
        })?;
        let stats = FarmStats {
            workers: self.workers,
            tasks_per_worker: stats
                .iter()
                .map(|s| s.count.load(Ordering::Relaxed))
                .collect(),
            mean_task_time_per_worker: stats.iter().map(|s| s.mean_s().unwrap_or(0.0)).collect(),
            calibration: *calibration_done.lock(),
            total: started.elapsed(),
            initial_chunk: initial_chunk.load(Ordering::Relaxed),
            panics,
            retried: retried_total.load(Ordering::Relaxed),
            workers_lost: workers_lost.load(Ordering::Relaxed),
            workers_demoted: workers_demoted.load(Ordering::Relaxed),
            steals_attempted: steals_attempted.load(Ordering::Relaxed),
            steals_completed: steals_completed.load(Ordering::Relaxed),
            units_stolen: units_stolen.load(Ordering::Relaxed),
            speculated_units: speculated_units.load(Ordering::Relaxed),
            speculation_wins: speculation_wins.load(Ordering::Relaxed),
        };
        Ok((output, stats, locals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::spin as spin_work;
    use proptest::prelude::*;
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
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random panic schedules × {Guided, WorkStealing} × 1–4 workers ×
        /// speculation on/off: with more attempts per unit than faults
        /// injected into it, the run succeeds, its results come back in
        /// input order, and every unit is recorded exactly once — by the
        /// observer's count, by `tasks_per_worker`, and per worker.
        #[test]
        fn farm_records_every_unit_once_in_input_order(
            workers in 1usize..5,
            stealing in any::<bool>(),
            speculate in any::<bool>(),
            n in 1usize..150,
            faults in prop::collection::vec(0usize..8, 150),
            panic_budget in 0usize..4,
            calibration in 0usize..3,
        ) {
            // Up to two faults per unit (a quarter of the units get any).
            const MAX_FAULTS: usize = 2;
            let fault_left: Vec<AtomicUsize> = faults[..n]
                .iter()
                .map(|&f| AtomicUsize::new(f.saturating_sub(8 - 1 - MAX_FAULTS)))
                .collect();
            let injected: usize = fault_left.iter().map(|f| f.load(Ordering::Relaxed)).sum();
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
            let items: Vec<u64> = (0..n as u64).collect();
            let run = farm.try_run_observed(&items, &counter, |_, &x| {
                let f = &fault_left[x as usize];
                if f.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1)).is_ok() {
                    panic!("injected fault");
                }
                spin_work(x % 7 * 40) ^ x
            });
            let (out, stats, per_worker) = match run {
                Ok(run) => run,
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "{e} with {injected} faults injected"
                    )))
                }
            };
            prop_assert_eq!(out, items.iter().map(|&x| spin_work(x % 7 * 40) ^ x).collect::<Vec<_>>());
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
        assert_eq!(t.workers(), 3);
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
        assert!(farm.workers() >= 1);
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
