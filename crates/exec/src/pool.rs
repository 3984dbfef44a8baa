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
//! [`PoolLease::run`] or [`PoolLease::run_stealing`] with a task list.
//!
//! A round is a farm run on resident threads: the lease publishes the
//! run's shared state, every resident thread runs the farm's own worker
//! loop on it and hands in its records, and the lease finishes the run
//! exactly as [`crate::farm::ThreadFarm`] does — results in submission
//! order, a handler panic caught and the task requeued on the farm's retry
//! queue, and a task that fails every bounded attempt surfacing as
//! [`GraspError::WorkerFailed`].  Rounds take no calibration probes and
//! never retire a resident thread after panics.  Workers can be taken out
//! of rotation with [`WorkerPool::set_active`] (the demotion hook for an
//! adaptation engine driving the pool, honoured through the farm's
//! [`WorkerGate`]); the last active worker can never be deactivated, so a
//! leased round always drains.

use crate::farm::{FarmRun, FarmStats, ThreadFarm, WorkerGate, WorkerLocal};
use grasp_core::error::GraspError;
use grasp_core::SchedulePolicy;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Calibration probes per worker in a round: none — a service calibrates
/// from its own measurements across rounds.
const CALIBRATION_SAMPLES: usize = 0;

/// Panics a resident worker may absorb in a round before it retires: no
/// limit, since a retired resident thread would be lost to later rounds.
const PANIC_BUDGET: usize = usize::MAX;

/// The per-unit handler a pool runs: `(worker index, task) -> result`.
type Handler<T, R> = Box<dyn Fn(usize, &T) -> R + Send + Sync>;

/// One published round: the farm run, the tasks it runs, and what the
/// resident workers hand in when they stop.
struct Round<T, R> {
    run: FarmRun,
    tasks: Vec<T>,
    handed_in: Mutex<Vec<WorkerLocal<R, ()>>>,
    all_in: Condvar,
}

/// The versioned current round: sleeping workers detect a new one by the
/// counter; `None` between rounds.
type RoundState<T, R> = Mutex<(u64, Option<Arc<Round<T, R>>>)>;

/// State shared between the pool handle and its resident threads.
struct Shared<T, R> {
    handler: Handler<T, R>,
    state: RoundState<T, R>,
    wake: Condvar,
    /// Rotation: a demoted worker stops pulling.
    gate: Arc<WorkerGate>,
    shutdown: AtomicBool,
}

/// A resident pool of `workers` threads executing dispatch rounds (see
/// the module docs).  Dropping the pool shuts the threads down.
pub struct WorkerPool<T: Send + Sync + 'static, R: Send + 'static> {
    shared: Arc<Shared<T, R>>,
    workers: usize,
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
    /// The round's farm statistics: panics absorbed, retries, tasks
    /// completed per worker, steal counters.
    pub stats: FarmStats,
    /// Submission indices of the tasks that completed only after a
    /// panicked attempt, ascending.
    pub retried_tasks: Vec<usize>,
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
            gate: Arc::new(WorkerGate::new(workers)),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("grasp-pool-{wid}"))
                    .spawn(move || resident(wid, shared))
                    .expect("spawning a pool worker thread failed")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            lease_gate: Mutex::new(()),
            handles,
        }
    }

    /// Number of resident worker threads (fixed for the pool's lifetime).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers currently in rotation.
    pub(crate) fn active_workers(&self) -> usize {
        self.workers - self.shared.gate.demoted_count()
    }

    /// Whether `worker` is currently in rotation.
    pub fn is_active(&self, worker: usize) -> bool {
        worker < self.workers && !self.shared.gate.is_demoted(worker)
    }

    /// Put `worker` in or out of rotation; returns whether the flag changed.
    /// Deactivating is refused when it would leave no active worker (a
    /// leased round must always be able to drain).
    pub fn set_active(&self, worker: usize, active: bool) -> bool {
        let gate = &self.shared.gate;
        if active {
            gate.reinstate(worker)
        } else {
            self.active_workers() > 1 && gate.demote(worker)
        }
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
    /// Execute `tasks` on the resident pool, one task per pull
    /// ([`SchedulePolicy::SelfScheduling`]), attempting each at most
    /// `max_attempts` times, and return the results in submission order.
    ///
    /// Errors with [`GraspError::WorkerFailed`] when one task panicked on
    /// every attempt.
    pub fn run(&self, tasks: Vec<T>, max_attempts: usize) -> Result<RoundOutcome<R>, GraspError> {
        self.run_with(tasks, max_attempts, SchedulePolicy::SelfScheduling)
    }

    /// [`PoolLease::run`] with the farm's work-stealing dispatch: one deque
    /// per worker in rotation, seeded from a one-shot partition of the
    /// tasks; idle workers steal from the slowest peer.
    pub fn run_stealing(
        &self,
        tasks: Vec<T>,
        max_attempts: usize,
    ) -> Result<RoundOutcome<R>, GraspError> {
        self.run_with(
            tasks,
            max_attempts,
            SchedulePolicy::WorkStealing { min_chunk: 1 },
        )
    }

    fn run_with(
        &self,
        tasks: Vec<T>,
        max_attempts: usize,
        policy: SchedulePolicy,
    ) -> Result<RoundOutcome<R>, GraspError> {
        let (shared, workers) = (&self.pool.shared, self.pool.workers);
        let farm = ThreadFarm::new(workers)
            .with_policy(policy)
            .with_calibration_samples(CALIBRATION_SAMPLES)
            .with_max_task_attempts(max_attempts)
            .with_worker_panic_budget(PANIC_BUDGET)
            .with_gate(Arc::clone(&shared.gate));
        let round = Arc::new(Round {
            run: FarmRun::new(farm, tasks.len()),
            tasks,
            handed_in: Mutex::new(Vec::with_capacity(workers)),
            all_in: Condvar::new(),
        });
        if !round.tasks.is_empty() {
            {
                let mut state = shared.state.lock();
                state.0 += 1;
                state.1 = Some(Arc::clone(&round));
            }
            shared.wake.notify_all();
            let mut handed_in = round.handed_in.lock();
            while handed_in.len() < workers {
                round.all_in.wait(&mut handed_in);
            }
            shared.state.lock().1 = None;
        }
        let locals = std::mem::take(&mut *round.handed_in.lock());
        let ((results, stats, _), retried_tasks) = round.run.finish(locals)?;
        Ok(RoundOutcome {
            results,
            stats,
            retried_tasks,
        })
    }
}

/// The resident thread body: sleep until a new round is published, run
/// the farm's worker loop on it, hand in this worker's records, repeat.
fn resident<T: Send + Sync, R: Send>(wid: usize, shared: Arc<Shared<T, R>>) {
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
                    // A finished round: remember we saw its version.
                    seen = state.0;
                }
                shared.wake.wait(&mut state);
            }
        };
        let local = round.run.work(wid, &round.tasks, &shared.handler, &());
        round.handed_in.lock().push(local);
        round.all_in.notify_all();
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
            assert_eq!(out.stats.panics, 0);
            assert_eq!(out.stats.tasks_per_worker.iter().sum::<usize>(), 50);
        }
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
        assert_eq!(out.stats.panics, 1);
        assert_eq!(out.stats.retried, 1);
        assert_eq!(out.retried_tasks, vec![7], "only task 7 needed a retry");
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
        assert_eq!(out.stats.tasks_per_worker, vec![12, 0, 0]);
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
            assert_eq!(out.stats.tasks_per_worker.iter().sum::<usize>(), 200);
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
        assert!(out.stats.steals_attempted >= out.stats.steals_completed);
        assert!(
            out.stats.steals_completed >= 1,
            "no steals on an asymmetric round"
        );
        assert!(out.stats.units_stolen >= 1);
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
        assert_eq!(out.stats.tasks_per_worker[3], 0, "demoted worker pulled");
        assert_eq!(out.stats.tasks_per_worker.iter().sum::<usize>(), 120);
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
        assert_eq!(out.stats.panics, 1);
        assert_eq!(out.stats.retried, 1);
        assert_eq!(out.retried_tasks, vec![11], "only task 11 needed a retry");
    }

    #[test]
    fn a_panicking_round_leaves_no_state_on_the_resident_threads() {
        // Round 1: the first execution of every task on worker 1 panics
        // (and is retried) — past any finite panic budget.  Round 2 must
        // still find worker 1 pulling: neither retirement nor the gate's
        // retired flag may outlive the round.
        let first_round = Arc::new(AtomicBool::new(true));
        let panicked: Vec<AtomicBool> = (0..20).map(|_| AtomicBool::new(false)).collect();
        let pool: WorkerPool<usize, usize> = WorkerPool::start(2, {
            let first_round = Arc::clone(&first_round);
            move |w, &t: &usize| {
                if !first_round.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                } else if w == 1 && !panicked[t].swap(true, Ordering::SeqCst) {
                    panic!("injected");
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                t
            }
        });
        let out = pool.lease().run((0..20).collect(), 3).unwrap();
        assert_eq!(out.results, (0..20).collect::<Vec<_>>());
        assert_eq!(out.stats.workers_lost, 0);
        assert_eq!(out.stats.retried, out.stats.panics);
        first_round.store(false, Ordering::SeqCst);
        let out = pool.lease().run((0..20).collect(), 3).unwrap();
        assert_eq!(out.results, (0..20).collect::<Vec<_>>());
        assert!(
            out.stats.tasks_per_worker[1] >= 1,
            "worker 1 sat out round 2: {:?}",
            out.stats.tasks_per_worker
        );
    }

    #[test]
    fn demand_rounds_report_zero_steal_counters() {
        let pool: WorkerPool<usize, usize> = WorkerPool::start(3, |_w, &t| t);
        let out = pool.lease().run((0..30).collect(), 3).unwrap();
        assert_eq!(out.stats.steals_attempted, 0);
        assert_eq!(out.stats.steals_completed, 0);
        assert_eq!(out.stats.units_stolen, 0);
    }
}
