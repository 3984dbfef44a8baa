//! A resident worker pool, leased per dispatch round.
//!
//! [`crate::farm::ThreadFarm`] owns its workers for exactly one run: every
//! `Grasp::run` spawns a fresh scoped pool, pays the thread start-up cost,
//! and tears everything down at the end.  That is the right shape for a
//! one-shot job, and the wrong shape for a *service* that executes many
//! small jobs back to back — there the pool must outlive any single job.
//!
//! [`WorkerPool`] provides that residency: `workers` threads are spawned
//! once and then serve an arbitrary number of **dispatch rounds**.  A round
//! is obtained by taking a [`PoolLease`] (exclusive — one round at a time,
//! mirroring the one-master discipline of the other backends) and calling
//! [`PoolLease::run`] with a task list.  Workers pull tasks demand-driven
//! off a shared cursor, exactly like the farm's chunk loop, and the lease
//! returns when every task has completed.
//!
//! Fault isolation follows the farm's rules at round granularity: a handler
//! panic is caught, the task is retried on the next attempt pass (panicked
//! tasks of one pass become the task list of the next), and a task that
//! fails every bounded attempt surfaces as [`GraspError::WorkerFailed`].
//! Workers can be taken out of rotation with [`WorkerPool::set_active`]
//! (the demotion hook for an adaptation engine driving the pool); the last
//! active worker can never be deactivated, so a leased round always drains.

use crate::deque::{StealDeque, MAX_RANGE};
use crate::padded::CachePadded;
use grasp_core::error::GraspError;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Work-stealing state of one round (present only for stealing rounds):
/// per-worker deques over the pass's task positions, plus the reclaimed
/// ranges of workers that left rotation mid-pass.
struct StealState {
    deques: Vec<CachePadded<StealDeque>>,
    /// Ranges drained from deactivated workers' deques, awaiting pickup.
    reclaimed: Mutex<Vec<(usize, usize)>>,
    /// Raised *before* a deque drains into `reclaimed`, so an idle worker's
    /// termination scan (which reads the deques first) can never miss an
    /// in-flight drain and strand its tasks.
    reclaimed_pending: AtomicUsize,
    steals_attempted: AtomicUsize,
    steals_completed: AtomicUsize,
    units_stolen: AtomicUsize,
}

/// One in-flight dispatch round: the shared cursor the workers pull from
/// and the harvest they hand in when they finish.
struct Round<T, R> {
    /// `(original index, task)` pairs for this attempt pass.
    tasks: Vec<(usize, T)>,
    cursor: AtomicUsize,
    /// Work-stealing dispatch state; `None` = shared-cursor demand-driven.
    steal: Option<StealState>,
    /// What the workers that finished the pass handed in; the lease waits
    /// until every worker has.
    harvest: Mutex<Harvest<R>>,
    finished_cv: Condvar,
}

/// The pass's deliveries, merged from each worker's own records when it
/// finishes — one lock per worker per pass, none per unit.
struct Harvest<R> {
    /// Workers that have finished the pass.
    finished: usize,
    /// Delivered results, `(original index, result)`.
    results: Vec<(usize, R)>,
    /// Original indices whose handler panicked in this pass.
    panicked: Vec<usize>,
    /// Units completed per worker in this pass.
    per_worker: Vec<usize>,
}

/// The per-unit handler a pool runs: `(worker index, task) -> result`.
type Handler<T, R> = Box<dyn Fn(usize, &T) -> R + Send + Sync>;

/// The versioned current round: sleeping workers detect a new one by the
/// counter; `None` between rounds.
type RoundState<T, R> = Mutex<(u64, Option<Arc<Round<T, R>>>)>;

/// State shared between the pool handle and its resident threads.
struct Shared<T, R> {
    handler: Handler<T, R>,
    state: RoundState<T, R>,
    wake: Condvar,
    /// Per-worker rotation flags (`false` = demoted: stops pulling).
    active: Vec<AtomicBool>,
    shutdown: AtomicBool,
    rounds: AtomicU64,
}

/// A resident pool of `workers` threads executing demand-driven dispatch
/// rounds (see the module docs).  Dropping the pool shuts the threads down.
pub struct WorkerPool<T: Send + Sync + 'static, R: Send + 'static> {
    shared: Arc<Shared<T, R>>,
    lease_gate: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

/// Exclusive access to the pool for dispatch rounds; obtained from
/// [`WorkerPool::lease`] and released on drop.
pub struct PoolLease<'p, T: Send + Sync + 'static, R: Send + 'static> {
    pool: &'p WorkerPool<T, R>,
    _guard: MutexGuard<'p, ()>,
}

/// What one completed dispatch round delivered.
#[derive(Debug)]
pub struct RoundOutcome<R> {
    /// One result per submitted task, in submission order.
    pub results: Vec<R>,
    /// Handler panics absorbed across all attempt passes.
    pub panics: usize,
    /// Tasks that completed only after at least one failed attempt.
    pub retried: usize,
    /// Execution attempts per task, in submission order (1 = completed
    /// cleanly on the first pull).
    pub attempts: Vec<usize>,
    /// Tasks completed per worker (successful attempts only).
    pub completed_per_worker: Vec<usize>,
    /// Steal attempts across all passes (stealing rounds only; zero under
    /// shared-cursor dispatch).
    pub steals_attempted: usize,
    /// Steal attempts that moved a non-empty range between deques.
    pub steals_completed: usize,
    /// Task units moved between workers by completed steals.
    pub units_stolen: usize,
}

impl<T: Send + Sync + 'static, R: Send + 'static> WorkerPool<T, R> {
    /// Spawn `workers` resident threads executing `handler(worker, &task)`
    /// for every task of every future round.
    pub fn start<F>(workers: usize, handler: F) -> Self
    where
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            handler: Box::new(handler),
            state: Mutex::new((0, None)),
            wake: Condvar::new(),
            active: (0..workers).map(|_| AtomicBool::new(true)).collect(),
            shutdown: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("grasp-pool-{wid}"))
                    .spawn(move || worker_loop(wid, shared))
                    .expect("spawning a pool worker thread failed")
            })
            .collect();
        WorkerPool {
            shared,
            lease_gate: Mutex::new(()),
            handles,
        }
    }

    /// Number of resident worker threads (fixed for the pool's lifetime).
    pub fn workers(&self) -> usize {
        self.shared.active.len()
    }

    /// Workers currently in rotation.
    pub fn active_workers(&self) -> usize {
        self.shared
            .active
            .iter()
            .filter(|a| a.load(Ordering::Relaxed))
            .count()
    }

    /// Whether `worker` is currently in rotation.
    pub fn is_active(&self, worker: usize) -> bool {
        self.shared
            .active
            .get(worker)
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Put `worker` in or out of rotation; returns whether the flag changed.
    /// Deactivating is refused when it would leave no active worker (a
    /// leased round must always be able to drain).
    pub fn set_active(&self, worker: usize, active: bool) -> bool {
        let Some(flag) = self.shared.active.get(worker) else {
            return false;
        };
        if !active && self.active_workers() <= 1 && flag.load(Ordering::Relaxed) {
            return false;
        }
        flag.swap(active, Ordering::Relaxed) != active
    }

    /// Dispatch rounds completed so far (attempt passes count once).
    pub fn rounds(&self) -> u64 {
        self.shared.rounds.load(Ordering::Relaxed)
    }

    /// Take the pool for a sequence of dispatch rounds; blocks while
    /// another lease is alive.
    pub fn lease(&self) -> PoolLease<'_, T, R> {
        PoolLease {
            pool: self,
            _guard: self.lease_gate.lock(),
        }
    }
}

impl<T: Send + Sync + 'static, R: Send + 'static> Drop for WorkerPool<T, R> {
    fn drop(&mut self) {
        // Raise the flag under the lock the workers re-check it under: a
        // worker that has just read `false` still holds that lock until it
        // parks, so the store waits for it to park and the notification
        // below cannot be lost.
        {
            let _state = self.shared.state.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<T: Send + Sync + 'static, R: Send + 'static> PoolLease<'_, T, R> {
    /// Execute `tasks` on the resident pool, retrying panicked tasks up to
    /// `max_attempts` times each, and return the collected results in
    /// submission order.
    ///
    /// Errors with [`GraspError::WorkerFailed`] when one task panicked on
    /// every attempt.
    pub fn run(&self, tasks: Vec<T>, max_attempts: usize) -> Result<RoundOutcome<R>, GraspError>
    where
        T: Clone,
    {
        self.run_with(tasks, max_attempts, false)
    }

    /// [`PoolLease::run`] with work-stealing dispatch: each pass seeds one
    /// deque per worker from a one-shot partition of the task positions,
    /// workers pop from their own bottom, and an idle worker steals the top
    /// half of the longest deque.  A worker taken out of rotation
    /// mid-pass drains its deque back into circulation, so a round always
    /// conserves its tasks.
    pub fn run_stealing(
        &self,
        tasks: Vec<T>,
        max_attempts: usize,
    ) -> Result<RoundOutcome<R>, GraspError>
    where
        T: Clone,
    {
        self.run_with(tasks, max_attempts, true)
    }

    fn run_with(
        &self,
        tasks: Vec<T>,
        max_attempts: usize,
        steal: bool,
    ) -> Result<RoundOutcome<R>, GraspError>
    where
        T: Clone,
    {
        let shared = &self.pool.shared;
        let workers = self.pool.workers();
        let n = tasks.len();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut per_worker = vec![0usize; workers];
        let mut attempts_per_task = vec![0usize; n];
        let mut panics = 0usize;
        let mut retried = 0usize;
        let mut steals_attempted = 0usize;
        let mut steals_completed = 0usize;
        let mut units_stolen = 0usize;
        let max_attempts = max_attempts.max(1);
        let mut pass: Vec<(usize, T)> = tasks.into_iter().enumerate().collect();
        let mut attempt = 0usize;
        while !pass.is_empty() {
            attempt += 1;
            let pass_len = pass.len();
            let round = Arc::new(Round {
                tasks: pass,
                cursor: AtomicUsize::new(0),
                steal: (steal && pass_len <= MAX_RANGE).then(|| StealState {
                    deques: (0..workers)
                        .map(|w| {
                            CachePadded(StealDeque::new(
                                w * pass_len / workers,
                                (w + 1) * pass_len / workers,
                            ))
                        })
                        .collect(),
                    reclaimed: Mutex::new(Vec::new()),
                    reclaimed_pending: AtomicUsize::new(0),
                    steals_attempted: AtomicUsize::new(0),
                    steals_completed: AtomicUsize::new(0),
                    units_stolen: AtomicUsize::new(0),
                }),
                harvest: Mutex::new(Harvest {
                    finished: 0,
                    results: Vec::with_capacity(pass_len),
                    panicked: Vec::new(),
                    per_worker: vec![0; workers],
                }),
                finished_cv: Condvar::new(),
            });
            {
                let mut state = shared.state.lock();
                state.0 += 1;
                state.1 = Some(Arc::clone(&round));
            }
            shared.wake.notify_all();
            let mut harvest = round.harvest.lock();
            while harvest.finished < workers {
                round.finished_cv.wait(&mut harvest);
            }
            shared.state.lock().1 = None;
            // Harvest the pass: delivered results fill their slots, panicked
            // tasks form the next pass.
            for (idx, _) in &round.tasks {
                attempts_per_task[*idx] += 1;
            }
            for (idx, r) in harvest.results.drain(..) {
                if attempt > 1 {
                    retried += 1;
                }
                slots[idx] = Some(r);
            }
            for (total, c) in per_worker.iter_mut().zip(&harvest.per_worker) {
                *total += c;
            }
            if let Some(st) = &round.steal {
                steals_attempted += st.steals_attempted.load(Ordering::Relaxed);
                steals_completed += st.steals_completed.load(Ordering::Relaxed);
                units_stolen += st.units_stolen.load(Ordering::Relaxed);
            }
            let failed = std::mem::take(&mut harvest.panicked);
            drop(harvest);
            panics += failed.len();
            if let Some(&task) = failed.first() {
                if attempt >= max_attempts {
                    return Err(GraspError::WorkerFailed {
                        task,
                        attempts: attempt,
                    });
                }
            }
            // Clone only the panicked payloads for the retry pass (workers
            // may still hold their reference to the round briefly, so the
            // task vector cannot be moved out of the Arc).
            pass = round
                .tasks
                .iter()
                .filter(|(idx, _)| failed.contains(idx))
                .cloned()
                .collect();
        }
        shared.rounds.fetch_add(1, Ordering::Relaxed);
        let results = slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.ok_or(GraspError::TaskLost { task: i }))
            .collect::<Result<Vec<R>, GraspError>>()?;
        Ok(RoundOutcome {
            results,
            panics,
            retried,
            attempts: attempts_per_task,
            completed_per_worker: per_worker,
            steals_attempted,
            steals_completed,
            units_stolen,
        })
    }
}

/// The resident thread body: sleep until a new round is published, drain
/// the shared cursor (skipping pulls while demoted), report in, repeat.
fn worker_loop<T: Send + Sync, R: Send>(wid: usize, shared: Arc<Shared<T, R>>) {
    let mut seen = 0u64;
    loop {
        let round = {
            let mut state = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if state.0 != seen {
                    if let Some(r) = &state.1 {
                        seen = state.0;
                        break Arc::clone(r);
                    }
                    // A harvested round: remember we saw its version.
                    seen = state.0;
                }
                shared.wake.wait(&mut state);
            }
        };
        // This worker's own records of the pass, handed in once at the end.
        let mut results: Vec<(usize, R)> = Vec::new();
        let mut panicked: Vec<usize> = Vec::new();
        let mut exec = |i: usize| {
            let (idx, task) = &round.tasks[i];
            match catch_unwind(AssertUnwindSafe(|| (shared.handler)(wid, task))) {
                Ok(r) => results.push((*idx, r)),
                Err(_) => panicked.push(*idx),
            }
        };
        if let Some(st) = &round.steal {
            loop {
                if !shared.active[wid].load(Ordering::Relaxed) {
                    // Raise the pending flag *before* draining so an idle
                    // peer's termination scan (deques first, then the flag)
                    // can never miss the in-flight hand-back.
                    st.reclaimed_pending.fetch_add(1, Ordering::SeqCst);
                    match st.deques[wid].drain_all() {
                        Some((start, count)) => st.reclaimed.lock().push((start, count)),
                        None => {
                            st.reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    break;
                }
                // Ranges handed back by deactivated workers come first.
                let range = st.reclaimed.lock().pop();
                if let Some((start, count)) = range {
                    st.reclaimed_pending.fetch_sub(1, Ordering::SeqCst);
                    for i in start..start + count {
                        exec(i);
                    }
                    continue;
                }
                // Own-bottom fast path.
                let len = st.deques[wid].len();
                if len > 0 {
                    if let Some((start, count)) = st.deques[wid].take_bottom((len / 4).max(1)) {
                        for i in start..start + count {
                            exec(i);
                        }
                        continue;
                    }
                }
                // Steal the top half of the longest other deque.
                let victim = (0..st.deques.len())
                    .filter(|&v| v != wid)
                    .map(|v| (st.deques[v].len(), v))
                    .max();
                if let Some((vlen, v)) = victim {
                    if vlen >= 2 {
                        st.steals_attempted.fetch_add(1, Ordering::Relaxed);
                        if let Some((start, count)) = st.deques[v].steal_top_half() {
                            st.steals_completed.fetch_add(1, Ordering::Relaxed);
                            st.units_stolen.fetch_add(count, Ordering::Relaxed);
                            for i in start..start + count {
                                exec(i);
                            }
                        }
                        continue;
                    }
                }
                // Termination: every deque is completely empty (a demoted
                // owner drains even a lone last task, so `len <= 1` is not
                // enough) and no drained range awaits pickup.  The deques
                // are read *before* the flag: a drain that empties one was
                // preceded by its flag raise, so seeing the drained deque
                // guarantees seeing the flag.
                if st.deques.iter().all(|d| d.is_empty())
                    && st.reclaimed_pending.load(Ordering::SeqCst) == 0
                {
                    break;
                }
                std::thread::yield_now();
            }
        } else {
            loop {
                if !shared.active[wid].load(Ordering::Relaxed) {
                    break;
                }
                let i = round.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= round.tasks.len() {
                    break;
                }
                exec(i);
            }
        }
        let mut harvest = round.harvest.lock();
        harvest.per_worker[wid] += results.len();
        harvest.results.append(&mut results);
        harvest.panicked.append(&mut panicked);
        harvest.finished += 1;
        round.finished_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn rounds_reuse_the_resident_threads() {
        let ids: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
        let seen = Arc::clone(&ids);
        let pool: WorkerPool<u64, u64> = WorkerPool::start(3, move |_w, &t| {
            seen.lock().insert(std::thread::current().id());
            t * 2
        });
        for _ in 0..4 {
            let out = pool.lease().run((0..50).collect(), 3).unwrap();
            assert_eq!(out.results, (0..50).map(|t| t * 2).collect::<Vec<_>>());
            assert_eq!(out.panics, 0);
            assert_eq!(out.completed_per_worker.iter().sum::<usize>(), 50);
        }
        assert_eq!(pool.rounds(), 4);
        assert!(
            ids.lock().len() <= 3,
            "four rounds must run on the same three resident threads"
        );
    }

    #[test]
    fn panicked_tasks_are_retried_and_accounted() {
        let first = AtomicBool::new(true);
        let pool: WorkerPool<usize, usize> = WorkerPool::start(2, move |_w, &t| {
            if t == 7 && first.swap(false, Ordering::SeqCst) {
                panic!("injected");
            }
            t
        });
        let out = pool.lease().run((0..20).collect(), 3).unwrap();
        assert_eq!(out.results, (0..20).collect::<Vec<_>>());
        assert_eq!(out.panics, 1);
        assert_eq!(out.retried, 1);
        assert_eq!(out.attempts[7], 2);
        assert!(out
            .attempts
            .iter()
            .enumerate()
            .all(|(t, &a)| a == 1 || t == 7));
    }

    #[test]
    fn exhausted_attempts_surface_as_worker_failed() {
        let pool: WorkerPool<usize, usize> = WorkerPool::start(2, |_w, &t| {
            if t == 3 {
                panic!("always");
            }
            t
        });
        let err = pool.lease().run((0..8).collect(), 2).unwrap_err();
        assert!(
            matches!(
                err,
                GraspError::WorkerFailed {
                    task: 3,
                    attempts: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn demoted_workers_stop_pulling_and_the_last_one_is_protected() {
        let pool: WorkerPool<usize, usize> = WorkerPool::start(3, |w, &t| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            let _ = t;
            w
        });
        assert!(pool.set_active(1, false));
        assert!(pool.set_active(2, false));
        assert!(!pool.set_active(0, false), "the last active worker stays");
        assert_eq!(pool.active_workers(), 1);
        let out = pool.lease().run((0..12).collect(), 3).unwrap();
        assert_eq!(out.results.len(), 12);
        assert_eq!(out.completed_per_worker[1], 0);
        assert_eq!(out.completed_per_worker[2], 0);
        assert_eq!(out.completed_per_worker[0], 12);
        assert!(pool.set_active(1, true));
        assert_eq!(pool.active_workers(), 2);
    }

    #[test]
    fn empty_rounds_complete_immediately() {
        let pool: WorkerPool<usize, usize> = WorkerPool::start(2, |_w, &t| t);
        let out = pool.lease().run(Vec::new(), 3).unwrap();
        assert!(out.results.is_empty());
    }

    #[test]
    fn stealing_rounds_complete_and_conserve_the_tasks() {
        let pool: WorkerPool<u64, u64> = WorkerPool::start(4, |_w, &t| t * 2);
        for _ in 0..3 {
            let out = pool.lease().run_stealing((0..200).collect(), 3).unwrap();
            assert_eq!(out.results, (0..200).map(|t| t * 2).collect::<Vec<_>>());
            assert_eq!(out.completed_per_worker.iter().sum::<usize>(), 200);
        }
    }

    #[test]
    fn idle_workers_steal_from_a_loaded_deque() {
        // Tasks in the first quarter (worker 0's seeded range) are far
        // heavier, so the other workers drain their own deques and must
        // steal to keep busy.
        let pool: WorkerPool<usize, usize> = WorkerPool::start(4, |_w, &t| {
            let spin = if t < 100 { 200_000u64 } else { 200 };
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ acc.rotate_left(7));
            }
            std::hint::black_box(acc);
            t
        });
        let out = pool.lease().run_stealing((0..400).collect(), 3).unwrap();
        assert_eq!(out.results, (0..400).collect::<Vec<_>>());
        assert!(out.steals_attempted >= out.steals_completed);
        assert!(
            out.steals_completed >= 1,
            "no steals on an asymmetric round"
        );
        assert!(out.units_stolen >= 1);
    }

    #[test]
    fn deactivated_worker_hands_its_deque_back_into_circulation() {
        let pool: WorkerPool<usize, usize> = WorkerPool::start(4, |_w, &t| {
            std::thread::sleep(std::time::Duration::from_micros(20));
            t
        });
        assert!(pool.set_active(3, false));
        let out = pool.lease().run_stealing((0..120).collect(), 3).unwrap();
        assert_eq!(out.results, (0..120).collect::<Vec<_>>());
        assert_eq!(out.completed_per_worker[3], 0, "demoted worker pulled");
        assert_eq!(out.completed_per_worker.iter().sum::<usize>(), 120);
    }

    #[test]
    fn stealing_rounds_retry_panicked_tasks_across_passes() {
        let first = AtomicBool::new(true);
        let pool: WorkerPool<usize, usize> = WorkerPool::start(3, move |_w, &t| {
            if t == 11 && first.swap(false, Ordering::SeqCst) {
                panic!("injected");
            }
            t
        });
        let out = pool.lease().run_stealing((0..60).collect(), 3).unwrap();
        assert_eq!(out.results, (0..60).collect::<Vec<_>>());
        assert_eq!(out.panics, 1);
        assert_eq!(out.retried, 1);
        assert_eq!(out.attempts[11], 2);
    }

    #[test]
    fn demand_rounds_report_zero_steal_counters() {
        let pool: WorkerPool<usize, usize> = WorkerPool::start(3, |_w, &t| t);
        let out = pool.lease().run((0..30).collect(), 3).unwrap();
        assert_eq!(out.steals_attempted, 0);
        assert_eq!(out.steals_completed, 0);
        assert_eq!(out.units_stolen, 0);
    }
}
