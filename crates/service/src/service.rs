//! The resident multi-job service (see the crate docs for the model).

use crate::admission::AdmissionQueue;
use crate::cache::{ProfileCache, ProfileCacheStats};
use crate::job::{JobHandle, JobId, JobSpec};
use grasp_core::engine::{ExecutorSet, Recalibration};
use grasp_core::prelude::{
    AdaptationEngine, AdaptationLog, GraspConfig, GraspError, OutcomeDetail, ResilienceReport,
    SchedulePolicy, Skeleton, SkeletonOutcome, WallClock,
};
use grasp_core::skeleton::UnitSpan;
use grasp_exec::{spin, WorkerPool};
use gridsim::{NodeId, SimTime};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Static configuration of a [`GraspService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Resident pool worker threads.
    pub(crate) workers: usize,
    /// Admission backlog bound: submissions beyond this many waiting jobs
    /// are refused with [`GraspError::Rejected`].
    pub backlog_capacity: usize,
    /// Most jobs batched into one shared dispatch round.
    pub(crate) batch_max_jobs: usize,
    /// Spin-kernel iterations per declared work unit (the service's unit
    /// cost scale, like `BackendConfig::spin_per_work_unit` on the backends).
    pub spin_per_work_unit: u64,
    /// Bounded attempts per unit before the round fails
    /// ([`GraspError::WorkerFailed`]).
    pub(crate) max_task_attempts: usize,
    /// The GRASP configuration: its `execution` section parameterises the
    /// shared [`AdaptationEngine`] (threshold policy, monitor interval,
    /// demotion factor, minimum active workers).
    pub(crate) grasp: GraspConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            backlog_capacity: 64,
            batch_max_jobs: 4,
            spin_per_work_unit: 500,
            max_task_attempts: 3,
            grasp: GraspConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Default configuration over `workers` pool threads.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }
}

/// Cumulative service accounting, observable while jobs run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Jobs admitted (excludes rejected submissions).
    pub(crate) jobs_submitted: u64,
    /// Jobs whose outcome has been delivered.
    pub jobs_completed: u64,
    /// Shared dispatch rounds executed.
    pub rounds: u64,
    /// Pool workers demoted by the engine so far.
    pub(crate) demotions: u64,
    /// Engine-flagged drift recalibrations so far.
    pub(crate) recalibrations: u64,
    /// Calibration-profile cache accounting.
    pub profile: ProfileCacheStats,
    /// Jobs currently waiting for admission to a round.
    pub(crate) backlog: usize,
}

/// One unit of pool work: `(job slot in round, per-job unit id, work)`.
#[derive(Debug, Clone)]
struct UnitTask {
    slot: usize,
    unit: usize,
    work: f64,
    kind_idx: usize,
}

/// What the pool handler reports back per executed unit.
#[derive(Debug)]
struct UnitResult {
    slot: usize,
    unit: usize,
    work: f64,
    worker: usize,
    elapsed_s: f64,
    done_s: f64,
}

/// An admitted submission waiting for (or riding) a dispatch round.
struct Admitted {
    id: JobId,
    skeleton: Skeleton,
    spec: JobSpec,
    tx: mpsc::Sender<Result<SkeletonOutcome, GraspError>>,
}

struct Inner {
    queue: Mutex<AdmissionQueue<Admitted>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    rounds: AtomicU64,
    demotions: AtomicU64,
    recalibrations: AtomicU64,
    cache: Mutex<ProfileCache>,
    /// Test/ops knob: extra seconds per work unit injected into a worker's
    /// handler (simulates external load so adaptation paths can be driven
    /// deterministically, like the thread backend's slowdown injection).
    slowdown: Mutex<HashMap<usize, f64>>,
}

/// A long-lived, multi-job GRASP service over a resident worker pool.
///
/// `submit` admits skeleton jobs into a bounded fair-share queue; a
/// dispatcher thread drains them in batches, lowers every skeleton through
/// [`Skeleton::lower_to_farm`] into one shared dispatch round, executes the
/// round on the resident [`WorkerPool`], and resolves each job's
/// [`JobHandle`] with a normal [`SkeletonOutcome`].  One shared
/// [`AdaptationEngine`] monitors the pool across *all* jobs: calibration
/// profiles are cached per `(worker, payload-kind)` and reused until the
/// engine flags drift.
pub struct GraspService {
    inner: Arc<Inner>,
    dispatcher: Option<JoinHandle<()>>,
}

impl GraspService {
    /// Start the service: spawns the resident pool and its dispatcher.
    pub fn start(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(AdmissionQueue::new(config.backlog_capacity)),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            recalibrations: AtomicU64::new(0),
            cache: Mutex::new(ProfileCache::new()),
            slowdown: Mutex::new(HashMap::new()),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("grasp-service-dispatch".to_string())
                .spawn(move || dispatcher_loop(inner, config))
                .expect("spawning the service dispatcher failed")
        };
        GraspService {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submit a skeleton job.  Returns the job's handle, or
    /// [`GraspError::Rejected`] when the admission backlog is full (the job
    /// was never queued).
    pub fn submit(&self, skeleton: Skeleton, spec: JobSpec) -> Result<JobHandle, GraspError> {
        skeleton.validate()?;
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(GraspError::WorkerUnavailable {
                detail: "the service is shutting down".to_string(),
            });
        }
        let id = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed) + 1);
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.inner.queue.lock();
            queue
                .push(
                    spec.priority,
                    &spec.tenant.clone(),
                    Admitted {
                        id,
                        skeleton,
                        spec,
                        tx,
                    },
                )
                .map_err(|(backlog, capacity)| GraspError::Rejected { backlog, capacity })?;
        }
        self.inner.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.queue_cv.notify_all();
        Ok(JobHandle { id, rx })
    }

    /// Current cumulative accounting.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            jobs_submitted: self.inner.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.inner.jobs_completed.load(Ordering::Relaxed),
            rounds: self.inner.rounds.load(Ordering::Relaxed),
            demotions: self.inner.demotions.load(Ordering::Relaxed),
            recalibrations: self.inner.recalibrations.load(Ordering::Relaxed),
            profile: self.inner.cache.lock().stats(),
            backlog: self.inner.queue.lock().len(),
        }
    }

    /// Inject `extra_secs_per_unit` of artificial per-work-unit delay into
    /// `worker`'s handler (0 removes the injection) — the service analogue
    /// of the thread backend's slowdown injection, used to drive the
    /// adaptation paths deterministically in tests.
    pub fn inject_worker_slowdown(&self, worker: usize, extra_secs_per_unit: f64) {
        let mut map = self.inner.slowdown.lock();
        if extra_secs_per_unit <= 0.0 {
            map.remove(&worker);
        } else {
            map.insert(worker, extra_secs_per_unit);
        }
    }

    /// Stop accepting work and wait for the dispatcher to exit.  Jobs still
    /// waiting in the backlog resolve to [`GraspError::WorkerUnavailable`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Raise the flag under the lock the dispatcher re-checks it under:
        // a dispatcher that has just read `false` holds that lock until it
        // parks, so the store waits for it to park and the notification
        // below cannot be lost.
        {
            let _queue = self.inner.queue.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.queue_cv.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GraspService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One job's slice of a dispatch round.
struct JobRun {
    adm: Admitted,
    spans: Vec<UnitSpan>,
    units: usize,
    completions: BTreeMap<usize, f64>,
    per_worker: Vec<usize>,
    retried: usize,
    log: AdaptationLog,
}

fn dispatcher_loop(inner: Arc<Inner>, config: ServiceConfig) {
    let epoch = Instant::now();
    let spin_per_unit = config.spin_per_work_unit.max(1);
    let pool: WorkerPool<UnitTask, UnitResult> = {
        let inner = Arc::clone(&inner);
        WorkerPool::start(config.workers, move |worker, task: &UnitTask| {
            let started = Instant::now();
            let extra = inner.slowdown.lock().get(&worker).copied().unwrap_or(0.0);
            spin((task.work * spin_per_unit as f64).max(1.0) as u64);
            if extra > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(
                    extra * task.work.max(0.1),
                ));
            }
            UnitResult {
                slot: task.slot,
                unit: task.unit,
                work: task.work,
                worker,
                elapsed_s: started.elapsed().as_secs_f64(),
                done_s: epoch.elapsed().as_secs_f64(),
            }
        })
    };
    let clock = WallClock::start();
    // Armed with an empty reference sample (Z = ∞): the first round's
    // calibration — cached or measured — sets the real threshold.
    let mut engine = AdaptationEngine::for_executors(&config.grasp.execution, &[], clock.now());
    let mut calibrated = false;
    loop {
        let batch: Vec<Admitted> = {
            let mut queue = inner.queue.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let batch = queue.pop_batch(config.batch_max_jobs.max(1));
                if !batch.is_empty() {
                    break batch;
                }
                inner.queue_cv.wait(&mut queue);
            }
        };
        run_round(
            &inner,
            &config,
            &pool,
            &clock,
            &epoch,
            &mut engine,
            &mut calibrated,
            batch,
        );
    }
}

/// The service's executor set for [`AdaptationEngine::steer`]: the resident
/// pool's rotation.  Demotions are counted in the service stats; a
/// whole-pool breach also invalidates every cached calibration profile, so
/// the next round measures afresh.
struct PoolSet<'a> {
    inner: &'a Inner,
    pool: &'a WorkerPool<UnitTask, UnitResult>,
    calibrated: &'a mut bool,
}

impl ExecutorSet for PoolSet<'_> {
    fn active(&self) -> Vec<NodeId> {
        (0..self.pool.workers())
            .filter(|&w| self.pool.is_active(w))
            .map(NodeId)
            .collect()
    }

    fn demote(&mut self, executor: NodeId) -> bool {
        let demoted = self.pool.set_active(executor.index(), false);
        if demoted {
            self.inner.demotions.fetch_add(1, Ordering::Relaxed);
        }
        demoted
    }

    fn recalibrate(&mut self, _now: SimTime) -> Recalibration {
        self.inner.cache.lock().invalidate_all();
        *self.calibrated = false;
        self.inner.recalibrations.fetch_add(1, Ordering::Relaxed);
        Recalibration::Resample
    }
}

/// Execute one shared dispatch round: lower every admitted skeleton, run
/// the flat unit list on the resident pool, drive the shared engine, and
/// resolve every job handle.
#[allow(clippy::too_many_arguments)]
fn run_round(
    inner: &Inner,
    config: &ServiceConfig,
    pool: &WorkerPool<UnitTask, UnitResult>,
    clock: &WallClock,
    epoch: &Instant,
    engine: &mut AdaptationEngine,
    calibrated: &mut bool,
    batch: Vec<Admitted>,
) {
    let workers = pool.workers();
    let batched_jobs = batch.len();
    let round_start_s = epoch.elapsed().as_secs_f64();
    // Lower every job to its flat unit list; unit ids live in the job's own
    // namespace (the pool task carries the job slot alongside).
    let mut kinds: Vec<String> = Vec::new();
    let mut jobs: Vec<JobRun> = Vec::new();
    let mut unit_tasks: Vec<UnitTask> = Vec::new();
    for adm in batch {
        let kind_idx = match kinds.iter().position(|k| *k == adm.spec.payload_kind) {
            Some(i) => i,
            None => {
                kinds.push(adm.spec.payload_kind.clone());
                kinds.len() - 1
            }
        };
        let (tasks, spans) = adm.skeleton.lower_to_farm();
        let slot = jobs.len();
        for t in &tasks {
            unit_tasks.push(UnitTask {
                slot,
                unit: t.id,
                work: t.work,
                kind_idx,
            });
        }
        jobs.push(JobRun {
            adm,
            spans,
            units: tasks.len(),
            completions: BTreeMap::new(),
            per_worker: vec![0; workers],
            retried: 0,
            log: AdaptationLog::new(),
        });
    }
    // Calibration, Algorithm 1 as a service: serve the round's reference
    // sample from the cross-job profile cache when every (active worker,
    // payload kind) pair is present; otherwise the round's own units are
    // the calibration sample (measured below).
    let active: Vec<usize> = (0..workers).filter(|&w| pool.is_active(w)).collect();
    let mut profile_hits = 0usize;
    let mut profile_misses = 0usize;
    let mut reference: Vec<f64> = Vec::new();
    let mut full_coverage = true;
    {
        let mut cache = inner.cache.lock();
        for kind in &kinds {
            for &w in &active {
                match cache.lookup(w, kind) {
                    Some(secs_per_unit) => {
                        profile_hits += 1;
                        reference.push(secs_per_unit);
                    }
                    None => {
                        profile_misses += 1;
                        full_coverage = false;
                    }
                }
            }
        }
    }
    if !*calibrated && full_coverage && !reference.is_empty() {
        engine.calibrate(&reference, clock.now());
        *calibrated = true;
    }
    // The dispatch round proper.  A work-stealing scheduler in the GRASP
    // config selects deque dispatch on the resident pool; every other
    // policy keeps the shared demand cursor.
    let stealing = matches!(config.grasp.scheduler, SchedulePolicy::WorkStealing { .. });
    let lease = pool.lease();
    let dispatched = if stealing {
        lease.run_stealing(unit_tasks.clone(), config.max_task_attempts)
    } else {
        lease.run(unit_tasks.clone(), config.max_task_attempts)
    };
    drop(lease);
    let round = match dispatched {
        Ok(r) => r,
        Err(e) => {
            for job in jobs {
                let _ = job.adm.tx.send(Err(e.clone()));
            }
            return;
        }
    };
    // Harvest per-unit results into per-job accounting and feed the shared
    // engine each unit.  Its Z spans jobs in seconds per work unit, so it
    // skips zero-work units whatever the round's jobs declare.
    let now = clock.now();
    let mut measured: HashMap<(usize, usize), (f64, f64)> = HashMap::new();
    for &i in &round.retried_tasks {
        jobs[round.results[i].slot].retried += 1;
    }
    for (i, r) in round.results.iter().enumerate() {
        let job = &mut jobs[r.slot];
        job.completions
            .insert(r.unit, (r.done_s - round_start_s).max(0.0));
        job.per_worker[r.worker] += 1;
        engine.observe_unit(NodeId(r.worker), r.work, r.elapsed_s, now);
        let kind_idx = unit_tasks[i].kind_idx;
        let slot = measured.entry((r.worker, kind_idx)).or_insert((0.0, 0.0));
        slot.0 += r.elapsed_s;
        slot.1 += r.work;
    }
    // Refresh the profile cache with what this round measured, and complete
    // a measured calibration if the cache could not serve one.  Demand-driven
    // dispatch may leave a fast round entirely on one worker; active workers
    // that executed nothing of a kind inherit the round mean as a
    // provisional profile (corrected the next time they actually measure),
    // so one round of a kind always yields full coverage.
    {
        let mut cache = inner.cache.lock();
        for ((worker, kind_idx), (secs, work)) in &measured {
            if *work > 0.0 {
                cache.insert(*worker, &kinds[*kind_idx], secs / work);
            }
        }
        for (kind_idx, kind) in kinds.iter().enumerate() {
            let samples: Vec<f64> = active
                .iter()
                .filter_map(|&w| measured.get(&(w, kind_idx)))
                .filter(|(_, work)| *work > 0.0)
                .map(|(secs, work)| secs / work)
                .collect();
            if samples.is_empty() {
                continue;
            }
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            for &w in &active {
                if cache.peek(w, kind).is_none() {
                    cache.insert(w, kind, mean);
                }
            }
        }
    }
    if !*calibrated {
        let times: Vec<f64> = active
            .iter()
            .filter_map(|&w| {
                let (secs, work) = (0..kinds.len())
                    .filter_map(|k| measured.get(&(w, k)))
                    .fold((0.0, 0.0), |(s, u), (ms, mu)| (s + ms, u + mu));
                (work > 0.0).then_some(secs / work)
            })
            .collect();
        if !times.is_empty() {
            engine.calibrate(&times, now);
            *calibrated = true;
        }
    }
    // Algorithm 2: one monitoring evaluation per round at most, steering
    // the resident pool.
    let log_mark = engine.log().len();
    engine.steer(
        now,
        &mut PoolSet {
            inner,
            pool,
            calibrated,
        },
    );
    // Any adaptation taken during this round belongs to every job that rode
    // it: copy the engine's new audit events into each job's own log.
    let new_events = engine.log().events()[log_mark..].to_vec();
    for job in &mut jobs {
        for e in &new_events {
            job.log
                .record(e.time, e.action.clone(), e.threshold, e.trigger_value);
        }
    }
    // Count the round before resolving handles, so a waiter that observes
    // its outcome also observes the round that produced it in `stats()`.
    inner.rounds.fetch_add(1, Ordering::Relaxed);
    // Resolve every handle with a normal per-job outcome.
    for job in jobs {
        let JobRun {
            adm,
            spans,
            units,
            completions,
            per_worker,
            retried,
            log,
        } = job;
        let unit_ids: Vec<usize> = completions.keys().copied().collect();
        let makespan_s = completions.values().fold(0.0, |a: f64, &b| a.max(b));
        let children = spans.iter().map(|s| s.outcome_from(&completions)).collect();
        debug_assert_eq!(unit_ids.len(), units);
        let outcome = SkeletonOutcome {
            kind: adm.skeleton.kind(),
            completed: unit_ids.len(),
            unit_ids,
            makespan_s,
            // Calibration rides on the round's own executed units (or the
            // cache); there is no separate probe phase to bill.
            calibration_s: 0.0,
            adaptation_log: log,
            resilience: ResilienceReport {
                requeued_tasks: retried,
                retried_tasks: retried,
                migrated_stages: 0,
                nodes_lost: 0,
                speculated_units: 0,
                speculation_wins: 0,
            },
            children,
            detail: OutcomeDetail::Service {
                job: adm.id.0,
                batched_jobs,
                profile_hits,
                profile_misses,
                workers,
                tasks_per_worker: per_worker,
                steals_attempted: round.stats.steals_attempted,
                steals_completed: round.stats.steals_completed,
                units_stolen: round.stats.units_stolen,
            },
        };
        let _ = adm.tx.send(Ok(outcome));
        inner.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::prelude::Skeleton;
    use grasp_core::TaskSpec;

    fn farm(units: usize, work: f64) -> Skeleton {
        Skeleton::farm((0..units).map(|i| TaskSpec::new(i, work, 0, 0)).collect())
    }

    fn quick_config(workers: usize) -> ServiceConfig {
        let mut cfg = ServiceConfig::with_workers(workers);
        cfg.spin_per_work_unit = 50;
        cfg
    }

    #[test]
    fn a_job_resolves_to_a_conserving_outcome() {
        let service = GraspService::start(quick_config(3));
        let skeleton = farm(24, 1.0);
        let handle = service
            .submit(skeleton.clone(), JobSpec::default())
            .unwrap();
        let outcome = handle.wait().unwrap();
        assert!(outcome.conserves_units_of(&skeleton));
        match &outcome.detail {
            OutcomeDetail::Service {
                job,
                workers,
                tasks_per_worker,
                ..
            } => {
                assert_eq!(*job, 1);
                assert_eq!(*workers, 3);
                assert_eq!(tasks_per_worker.iter().sum::<usize>(), 24);
            }
            other => panic!("expected service detail, got {other:?}"),
        }
    }

    #[test]
    fn calibration_profiles_are_reused_across_jobs() {
        let service = GraspService::start(quick_config(2));
        let first = service
            .submit(farm(8, 1.0), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        let second = service
            .submit(farm(8, 1.0), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        let (h1, m1) = match first.detail {
            OutcomeDetail::Service {
                profile_hits,
                profile_misses,
                ..
            } => (profile_hits, profile_misses),
            _ => unreachable!(),
        };
        let (h2, m2) = match second.detail {
            OutcomeDetail::Service {
                profile_hits,
                profile_misses,
                ..
            } => (profile_hits, profile_misses),
            _ => unreachable!(),
        };
        assert_eq!(m1, 2, "cold cache: every (worker, kind) pair measured");
        assert_eq!(h1, 0);
        assert_eq!(h2, 2, "warm cache: the second job reuses both profiles");
        assert_eq!(m2, 0);
        assert!(service.stats().profile.hits >= 2);
    }

    #[test]
    fn jobs_queued_behind_a_slow_round_share_the_next_dispatch_round() {
        let service = GraspService::start(quick_config(2));
        // Make the first job's round slow enough that the two jobs submitted
        // behind it are both waiting when the dispatcher pops the next batch.
        service.inject_worker_slowdown(0, 0.05);
        service.inject_worker_slowdown(1, 0.05);
        let blocker = service.submit(farm(4, 1.0), JobSpec::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        service.inject_worker_slowdown(0, 0.0);
        service.inject_worker_slowdown(1, 0.0);
        let b = service.submit(farm(3, 1.0), JobSpec::default()).unwrap();
        let c = service.submit(farm(3, 1.0), JobSpec::default()).unwrap();
        blocker.wait().unwrap();
        for handle in [b, c] {
            let outcome = handle.wait().unwrap();
            match &outcome.detail {
                OutcomeDetail::Service { batched_jobs, .. } => assert_eq!(
                    *batched_jobs, 2,
                    "both queued jobs must share one dispatch round"
                ),
                other => panic!("expected service detail, got {other:?}"),
            }
        }
        assert_eq!(service.stats().rounds, 2, "three jobs, two rounds");
    }

    #[test]
    fn a_work_stealing_service_conserves_units_and_reports_counters() {
        let mut cfg = quick_config(3);
        cfg.grasp.scheduler = SchedulePolicy::WorkStealing { min_chunk: 1 };
        let service = GraspService::start(cfg);
        let skeleton = farm(60, 1.0);
        let outcome = service
            .submit(skeleton.clone(), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.conserves_units_of(&skeleton));
        match &outcome.detail {
            OutcomeDetail::Service {
                tasks_per_worker,
                steals_attempted,
                steals_completed,
                units_stolen,
                ..
            } => {
                assert_eq!(tasks_per_worker.iter().sum::<usize>(), 60);
                assert!(steals_attempted >= steals_completed);
                assert!(units_stolen >= steals_completed);
            }
            other => panic!("expected service detail, got {other:?}"),
        }
    }

    #[test]
    fn different_payload_kinds_do_not_share_profiles() {
        let service = GraspService::start(quick_config(2));
        service
            .submit(farm(4, 1.0), JobSpec::default().with_payload_kind("a"))
            .unwrap()
            .wait()
            .unwrap();
        let other = service
            .submit(farm(4, 1.0), JobSpec::default().with_payload_kind("b"))
            .unwrap()
            .wait()
            .unwrap();
        match other.detail {
            OutcomeDetail::Service { profile_misses, .. } => {
                assert_eq!(profile_misses, 2, "kind b starts cold");
            }
            _ => unreachable!(),
        }
    }

    /// Configuration tight enough that the engine evaluates every few
    /// rounds in a fast test.
    fn adaptive_config(workers: usize) -> ServiceConfig {
        let mut cfg = quick_config(workers);
        cfg.grasp.execution.monitor_interval_s = 0.02;
        cfg.grasp.execution.min_active_nodes = 1;
        cfg.batch_max_jobs = 2;
        cfg
    }

    /// Keep submitting small jobs until `done(stats)` holds or the budget
    /// runs out; returns the final stats.
    fn drive_until(service: &GraspService, done: impl Fn(&ServiceStats) -> bool) -> ServiceStats {
        for _ in 0..400 {
            let stats = service.stats();
            if done(&stats) {
                return stats;
            }
            let _ = service
                .submit(farm(6, 1.0), JobSpec::default())
                .and_then(JobHandle::wait);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        service.stats()
    }

    #[test]
    fn a_pathological_worker_is_demoted_out_of_rotation() {
        let service = GraspService::start(adaptive_config(3));
        // Warm up: calibrate at healthy speed.
        service
            .submit(farm(12, 1.0), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        // One worker degrades far past demote_factor × Z.
        service.inject_worker_slowdown(2, 0.005);
        let stats = drive_until(&service, |s| s.demotions >= 1);
        assert!(
            stats.demotions >= 1,
            "the engine never demoted the slowed worker: {stats:?}"
        );
    }

    #[test]
    fn pool_wide_drift_invalidates_the_profile_cache() {
        let service = GraspService::start(adaptive_config(2));
        service
            .submit(farm(12, 1.0), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(service.stats().profile.invalidations, 0);
        // Every worker degrades: min T > Z, so the engine flags drift.
        service.inject_worker_slowdown(0, 0.004);
        service.inject_worker_slowdown(1, 0.004);
        let stats = drive_until(&service, |s| s.recalibrations >= 1);
        assert!(
            stats.recalibrations >= 1,
            "the engine never flagged pool-wide drift: {stats:?}"
        );
        assert!(
            stats.profile.invalidations >= 1,
            "a drift recalibration must clear the profile cache: {stats:?}"
        );
        // The service recovers: post-drift jobs still complete and the
        // cache re-fills from fresh measurements.
        service.inject_worker_slowdown(0, 0.0);
        service.inject_worker_slowdown(1, 0.0);
        let outcome = service
            .submit(farm(8, 1.0), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.completed, 8);
        assert!(service.stats().profile.entries >= 1);
    }

    #[test]
    fn zero_work_jobs_leave_a_healthy_pool_alone() {
        let service = GraspService::start(adaptive_config(2));
        service
            .submit(farm(12, 1.0), JobSpec::default())
            .unwrap()
            .wait()
            .unwrap();
        // A zero-work unit has no time per work unit: it must not reach a
        // monitor whose Z is in seconds per work unit.
        for _ in 0..60 {
            service
                .submit(farm(6, 0.0), JobSpec::default())
                .unwrap()
                .wait()
                .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = service.stats();
        assert_eq!(stats.demotions, 0, "{stats:?}");
        assert_eq!(stats.recalibrations, 0, "{stats:?}");
        assert_eq!(stats.profile.invalidations, 0, "{stats:?}");
    }

    #[test]
    fn shutdown_resolves_waiting_handles_with_worker_unavailable() {
        // Fill the queue with the dispatcher unable to keep up forever:
        // shut down immediately and verify queued-but-undispatched jobs
        // resolve to an error rather than hanging.
        let service = GraspService::start(quick_config(2));
        let handle = service.submit(farm(4, 1.0), JobSpec::default()).unwrap();
        // The job may complete before shutdown wins the race — both ends of
        // the race are valid outcomes, hanging is not.
        drop(service);
        match handle.wait() {
            Ok(outcome) => assert_eq!(outcome.completed, 4),
            Err(GraspError::WorkerUnavailable { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
