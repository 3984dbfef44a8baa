//! The workloads: how each is set up from its generated inputs, what
//! one repetition does through the public run surface, and how every
//! output is checked.
//!
//! A *job* is one `Grasp::run` or one `submit` → `wait`.  A job's latency
//! is timed around the call alone; its verification (`conserves_units_of`,
//! digests, determinism) runs right after, outside the latency but inside
//! the traced `job` span, whose self time is therefore the benchmark's own
//! checking cost.

use crate::gen::{Inputs, JobShape};
use crate::trace::{SpanId, Tracer};
use crate::{Workload, WORKERS};
use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::prelude::{
    Backend, Grasp, GraspConfig, GraspError, OutcomeDetail, SchedulePolicy, SimBackend, Skeleton,
    SkeletonOutcome, StageSpec, TaskSpec,
};
use grasp_exec::ThreadBackend;
use grasp_net::NetBackend;
use grasp_proc::{ProcBackend, Transport};
use grasp_service::{GraspService, JobHandle, JobSpec, ServiceConfig, ServiceStats};
use grasp_workloads::matmul::MatMulJob;
use gridsim::{
    FaultEvent, FaultKind, FaultPlan, Grid, GridBuilder, LinkSpec, NodeId, SimTime, TopologyBuilder,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Slow-down injected on worker 0 of `thread-skew`: after its first 64
/// units it spins 8× longer per unit (an asymmetric-cores analogue).
pub const SKEW_SLOW_FACTOR: f64 = 8.0;
const SKEW_SLOW_AFTER_UNITS: usize = 64;

/// Trace lane of the first job in flight (lane 0 is the generator's own
/// spans).
const JOB_LANE: u32 = 1;

/// Per-layer numbers read from the outcomes of one repetition.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one repetition did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds from the first job's start to the last job's return.
    pub wall_s: f64,
    /// Units of jobs that passed verification.
    pub units: u64,
    /// Jobs attempted.
    pub jobs: u64,
    /// Jobs that errored, were rejected, or failed verification.
    pub failed: u64,
    pub latencies_us: Vec<f64>,
    /// Filled only on traced repetitions.
    pub counts: Counts,
}

/// One pre-built mat-mul job of `proc-jobs`.
pub struct MatJob {
    skeleton: Skeleton,
    payloads: Vec<(usize, u32, Vec<u8>)>,
    /// `band_task(i).digest()` for every band, computed locally in set-up.
    digests: Vec<u64>,
}

/// A workload bound to its inputs and ready to repeat.
pub enum Prepared {
    Thread {
        backend: ThreadBackend,
        config: GraspConfig,
        skeleton: Skeleton,
    },
    Proc {
        backend: ProcBackend,
        skeleton: Skeleton,
    },
    Net {
        backend: NetBackend,
        skeleton: Skeleton,
    },
    ProcJobs {
        jobs: Vec<MatJob>,
        count: usize,
    },
    Service {
        /// `None` once [`Prepared::shutdown_service`] has taken it.
        service: Option<GraspService>,
        jobs: Vec<(Skeleton, &'static str)>,
        /// Jobs the generator keeps in flight: it submits until this many
        /// are outstanding, then blocks on the oldest.
        outstanding: usize,
    },
    Sim {
        grid: Grid,
        skeleton: Skeleton,
        /// Bit pattern of the first repetition's virtual makespan; every
        /// later repetition must reproduce it exactly.
        makespan_bits: Option<u64>,
    },
}

fn spin_farm(work: &[f64]) -> Skeleton {
    Skeleton::farm(
        work.iter()
            .enumerate()
            .map(|(id, w)| TaskSpec::new(id, *w, 0, 0))
            .collect(),
    )
}

fn spin_config(iters_per_work_unit: u64) -> BackendConfig {
    BackendConfig::new().spin_per_work_unit(iters_per_work_unit)
}

fn service_skeleton(shape: JobShape, units: usize) -> (Skeleton, &'static str) {
    let farm = |n: usize| Skeleton::farm(TaskSpec::uniform(n, 1.0, 0, 0));
    match shape {
        JobShape::Farm => (farm(units), "farm"),
        JobShape::Pipeline => {
            let stages = (0..2).map(|id| StageSpec::new(id, 0.5, 0, 0)).collect();
            (Skeleton::pipeline(stages, units), "pipeline")
        }
        JobShape::FarmOfFarms => (
            Skeleton::farm_of(vec![farm(units / 2), farm(units - units / 2)]),
            "farm-of",
        ),
    }
}

fn build_grid(node_speeds: &[f64], outages: &[crate::gen::Outage]) -> Grid {
    let mut topo = TopologyBuilder::new();
    let site = topo.add_site("cluster", LinkSpec::lan());
    for (i, speed) in node_speeds.iter().enumerate() {
        topo.add_node(site, format!("node-{i:04}"), *speed);
    }
    let mut events = Vec::with_capacity(outages.len() * 2);
    for o in outages {
        events.push(FaultEvent {
            node: NodeId(o.node),
            time: SimTime::new(o.start_s),
            kind: FaultKind::Revoke,
        });
        if let Some(end_s) = o.end_s {
            events.push(FaultEvent {
                node: NodeId(o.node),
                time: SimTime::new(end_s),
                kind: FaultKind::Recover,
            });
        }
    }
    GridBuilder::new(topo.build())
        .faults(FaultPlan::from_events(events))
        .quantum(0.25)
        .build()
}

impl Prepared {
    /// Bind `workload` to its generated inputs.  Spans for the set-up steps
    /// that belong to a layer (`grid_build`, `service.start`) are recorded
    /// when a tracer is given.
    pub fn new(workload: Workload, inputs: &Inputs, tracer: Option<&mut Tracer>) -> Prepared {
        match (workload, inputs) {
            (
                Workload::ThreadFine | Workload::ThreadSkew,
                Inputs::SpinFarm {
                    work,
                    iters_per_work_unit,
                },
            ) => {
                let mut config = GraspConfig::default();
                let mut backend_config = spin_config(*iters_per_work_unit);
                if workload == Workload::ThreadSkew {
                    config.scheduler = SchedulePolicy::WorkStealing { min_chunk: 1 };
                    config.execution.speculate_tail_fraction = 0.05;
                    config.execution.monitor_interval_s = 0.05;
                    backend_config = backend_config.faults(FaultInjection::none().worker_slowdown(
                        0,
                        SKEW_SLOW_AFTER_UNITS,
                        SKEW_SLOW_FACTOR,
                    ));
                }
                Prepared::Thread {
                    backend: ThreadBackend::new(WORKERS).with_config(backend_config),
                    config,
                    skeleton: spin_farm(work),
                }
            }
            (
                Workload::ProcStream | Workload::ProcShm,
                Inputs::SpinFarm {
                    work,
                    iters_per_work_unit,
                },
            ) => {
                let transport = if workload == Workload::ProcShm {
                    Transport::Shm
                } else {
                    Transport::Pipes
                };
                Prepared::Proc {
                    backend: ProcBackend::new(WORKERS)
                        .with_transport(transport)
                        .with_config(spin_config(*iters_per_work_unit)),
                    skeleton: spin_farm(work),
                }
            }
            (
                Workload::NetStream,
                Inputs::SpinFarm {
                    work,
                    iters_per_work_unit,
                },
            ) => Prepared::Net {
                backend: NetBackend::new(WORKERS).with_config(spin_config(*iters_per_work_unit)),
                skeleton: spin_farm(work),
            },
            (
                Workload::ProcJobs,
                Inputs::MatMulJobs {
                    jobs,
                    n,
                    block_rows,
                    seeds,
                },
            ) => Prepared::ProcJobs {
                jobs: seeds
                    .iter()
                    .map(|seed| {
                        let job = MatMulJob {
                            n: *n,
                            block_rows: *block_rows,
                            seed: *seed,
                        };
                        MatJob {
                            skeleton: Skeleton::farm(job.as_tasks(1e6)),
                            payloads: job.wire_payloads(),
                            digests: (0..job.task_count())
                                .map(|i| job.band_task(i).digest())
                                .collect(),
                        }
                    })
                    .collect(),
                count: *jobs,
            },
            (
                Workload::ServiceMix | Workload::ServiceSerial,
                Inputs::ServiceMix {
                    jobs,
                    iters_per_work_unit,
                },
            ) => {
                let mut config = ServiceConfig::with_workers(WORKERS);
                config.spin_per_work_unit = *iters_per_work_unit;
                let started = Instant::now();
                let service = GraspService::start(config);
                if let Some(t) = tracer {
                    t.record("service.start", started, Instant::now());
                }
                Prepared::Service {
                    service: Some(service),
                    jobs: jobs
                        .iter()
                        .map(|(shape, units)| service_skeleton(*shape, *units))
                        .collect(),
                    outstanding: if workload == Workload::ServiceMix {
                        4
                    } else {
                        1
                    },
                }
            }
            (
                Workload::SimScale,
                Inputs::SimGrid {
                    node_speeds,
                    outages,
                    units,
                    work_per_unit,
                    bytes_per_unit,
                },
            ) => {
                let started = Instant::now();
                let grid = build_grid(node_speeds, outages);
                if let Some(t) = tracer {
                    t.record("grid_build", started, Instant::now());
                }
                Prepared::Sim {
                    grid,
                    skeleton: Skeleton::farm(TaskSpec::uniform(
                        *units,
                        *work_per_unit,
                        *bytes_per_unit,
                        *bytes_per_unit,
                    )),
                    makespan_bits: None,
                }
            }
            (workload, inputs) => unreachable!(
                "gen::generate({}) produced mismatched inputs {inputs:?}",
                workload.name()
            ),
        }
    }

    /// One repetition.  With a tracer, every job is wrapped in `job` →
    /// `compile`, `execute` (or `submit`, `wait`) spans and the outcome's
    /// per-layer counts are collected.
    pub fn rep(&mut self, mut tracer: Option<&mut Tracer>) -> Rep {
        match self {
            Prepared::Thread {
                backend,
                config,
                skeleton,
            } => single_job(config, backend, skeleton, &mut tracer, |outcome, counts| {
                thread_counts(outcome, counts);
                true
            }),
            Prepared::Proc { backend, skeleton } => single_job(
                &GraspConfig::default(),
                backend,
                skeleton,
                &mut tracer,
                |outcome, counts| {
                    wire_counts(outcome, counts);
                    true
                },
            ),
            Prepared::Net { backend, skeleton } => single_job(
                &GraspConfig::default(),
                backend,
                skeleton,
                &mut tracer,
                |outcome, counts| {
                    wire_counts(outcome, counts);
                    true
                },
            ),
            Prepared::Sim {
                grid,
                skeleton,
                makespan_bits,
            } => single_job(
                &GraspConfig::default(),
                &SimBackend::new(grid),
                skeleton,
                &mut tracer,
                |outcome, counts| {
                    counts.insert("gridsim.virtual_makespan_s", outcome.makespan_s);
                    counts.insert("gridsim.nodes_lost", outcome.resilience.nodes_lost as f64);
                    counts.insert("gridsim.requeued", outcome.resilience.requeued_tasks as f64);
                    let bits = outcome.makespan_s.to_bits();
                    let repeats = *makespan_bits.get_or_insert(bits) == bits;
                    if !repeats {
                        eprintln!(
                            "sim-scale: virtual makespan {} does not repeat bit-exactly",
                            outcome.makespan_s
                        );
                    }
                    repeats
                },
            ),
            Prepared::ProcJobs { jobs, count } => proc_jobs_rep(jobs, *count, &mut tracer),
            Prepared::Service {
                service,
                jobs,
                outstanding,
            } => service_rep(
                service.as_ref().expect("the service is up until shutdown"),
                jobs,
                *outstanding,
                &mut tracer,
            ),
        }
    }

    /// Stop the resident service (a no-op for every other workload) and
    /// return how long the call took.  Called only after the metrics have
    /// been written: `GraspService::stop` / `WorkerPool::drop` can lose
    /// their wake-up and park forever (ROADMAP item 1), and a hang here must
    /// cost the run its tear-down, not its results.
    pub fn shutdown_service(&mut self) -> Option<f64> {
        match self {
            Prepared::Service { service, .. } => service.take().map(|s| {
                let t0 = Instant::now();
                s.shutdown();
                t0.elapsed().as_secs_f64()
            }),
            _ => None,
        }
    }
}

/// Run one job through `Grasp::run` — or, traced, through the same
/// `compile` then `execute` calls `Grasp::run` makes, each under a span.
/// Returns the outcome, the latency of the call in seconds, and the open
/// `job` span (closed by the caller once the outcome is verified).
fn run_job<B: Backend>(
    config: &GraspConfig,
    backend: &B,
    skeleton: &Skeleton,
    tracer: &mut Option<&mut Tracer>,
    job_id: u64,
    counts: &mut Counts,
) -> (Result<SkeletonOutcome, GraspError>, f64, Option<SpanId>) {
    let Some(t) = tracer.as_deref_mut() else {
        let t0 = Instant::now();
        let outcome = Grasp::new(*config)
            .run(backend, skeleton)
            .map(|report| report.outcome);
        return (outcome, t0.elapsed().as_secs_f64(), None);
    };
    let job = t.begin("job", None, job_id, JOB_LANE);
    let t0 = Instant::now();
    let compile = t.begin("compile", Some(job), job_id, JOB_LANE);
    let compiled = backend.compile(config, skeleton);
    t.end(compile);
    let outcome = compiled.and_then(|compiled| {
        let execute = t.begin("execute", Some(job), job_id, JOB_LANE);
        let e0 = Instant::now();
        let outcome = backend.execute(config, &compiled);
        *counts.entry("execute_s").or_insert(0.0) += e0.elapsed().as_secs_f64();
        t.end(execute);
        outcome
    });
    let latency_s = t0.elapsed().as_secs_f64();
    (outcome, latency_s, Some(job))
}

/// Open a span, if the run is traced.
fn begin_span(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    job_id: u64,
    lane: u32,
) -> Option<SpanId> {
    tracer
        .as_deref_mut()
        .map(|t| t.begin(name, parent, job_id, lane))
}

/// Close a span, if the run is traced.
fn end_span(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
        t.end(span);
    }
}

/// Counts every backend reports the same way.
fn common_counts(outcome: &SkeletonOutcome, counts: &mut Counts) {
    let mut add = |name, v: f64| *counts.entry(name).or_insert(0.0) += v;
    add("core.calibration_s", outcome.calibration_s);
    add("makespan_s", outcome.makespan_s);
    add("core.adaptations", outcome.adaptations() as f64);
    add("core.demotions", outcome.adaptation_log.demotions() as f64);
    add(
        "core.recalibrations",
        outcome.adaptation_log.recalibrations() as f64,
    );
    add(
        "core.requeued_units",
        outcome.resilience.requeued_tasks as f64,
    );
    add(
        "core.speculated_units",
        outcome.resilience.speculated_units as f64,
    );
    add(
        "speculation_wins",
        outcome.resilience.speculation_wins as f64,
    );
}

/// max ÷ mean of a per-worker tally (1 = perfectly even).
fn imbalance(per_worker: &[usize]) -> f64 {
    let total: usize = per_worker.iter().sum();
    let max = per_worker.iter().copied().max().unwrap_or(0);
    if total == 0 {
        0.0
    } else {
        max as f64 * per_worker.len() as f64 / total as f64
    }
}

fn thread_counts(outcome: &SkeletonOutcome, counts: &mut Counts) {
    if let OutcomeDetail::ThreadFarm {
        tasks_per_worker,
        work_per_worker,
        steals_attempted,
        steals_completed,
        units_stolen,
        ..
    } = &outcome.detail
    {
        counts.insert("exec.imbalance", imbalance(tasks_per_worker));
        counts.insert("exec.steals_attempted", *steals_attempted as f64);
        counts.insert("exec.steals_completed", *steals_completed as f64);
        counts.insert("exec.units_stolen", *units_stolen as f64);
        let total: f64 = work_per_worker.iter().sum();
        let slow = work_per_worker.first().copied().unwrap_or(0.0);
        counts.insert("exec.slow_worker_work_share", slow / total.max(1e-12));
        counts.insert("work_slow", slow);
    }
}

fn wire_counts(outcome: &SkeletonOutcome, counts: &mut Counts) {
    let (imbalance_of, tasks_per_worker, sent, received, write_s, encode_s, copied) =
        match &outcome.detail {
            OutcomeDetail::ProcFarm {
                tasks_per_worker,
                bytes_sent,
                bytes_received,
                wire_write_s,
                wire_encode_s,
                bytes_copied,
                ..
            } => (
                "proc.imbalance",
                tasks_per_worker,
                bytes_sent,
                bytes_received,
                wire_write_s,
                wire_encode_s,
                bytes_copied,
            ),
            OutcomeDetail::NetFarm {
                tasks_per_worker,
                rejected_joins,
                bytes_sent,
                bytes_received,
                wire_write_s,
                wire_encode_s,
                bytes_copied,
                members,
                ..
            } => {
                counts.insert("net.rejected_joins", *rejected_joins as f64);
                counts.insert(
                    "net.calibration_probes",
                    members.iter().map(|m| m.calibration_probes).sum::<usize>() as f64,
                );
                (
                    "net.imbalance",
                    tasks_per_worker,
                    bytes_sent,
                    bytes_received,
                    wire_write_s,
                    wire_encode_s,
                    bytes_copied,
                )
            }
            _ => return,
        };
    let mut add = |name, v: f64| *counts.entry(name).or_insert(0.0) += v;
    add("core.wire_encode_s", *encode_s);
    add("core.wire_write_s", *write_s);
    add("wire_bytes", (*sent + *received) as f64);
    add("bytes_copied", *copied as f64);
    counts.insert(imbalance_of, imbalance(tasks_per_worker));
}

/// A repetition that is one `Grasp::run`.  `check` adds the workload's own
/// verification (and count extraction) on top of `conserves_units_of`.
fn single_job<B: Backend>(
    config: &GraspConfig,
    backend: &B,
    skeleton: &Skeleton,
    tracer: &mut Option<&mut Tracer>,
    mut check: impl FnMut(&SkeletonOutcome, &mut Counts) -> bool,
) -> Rep {
    let mut rep = Rep {
        jobs: 1,
        ..Rep::default()
    };
    let (outcome, latency_s, spans) =
        run_job(config, backend, skeleton, tracer, 1, &mut rep.counts);
    let ok = match &outcome {
        Ok(outcome) => {
            let conserved = outcome.conserves_units_of(skeleton);
            if !conserved {
                eprintln!("{}: the run did not conserve its units", backend.name());
            }
            if spans.is_some() {
                common_counts(outcome, &mut rep.counts);
            }
            check(outcome, &mut rep.counts) && conserved
        }
        Err(e) => {
            eprintln!("{}: run failed: {e}", backend.name());
            false
        }
    };
    end_span(tracer, spans);
    rep.wall_s = latency_s;
    rep.latencies_us.push(latency_s * 1e6);
    if ok {
        rep.units = skeleton.work_units() as u64;
    } else {
        rep.failed = 1;
    }
    rep
}

/// `proc-jobs`: `count` small jobs back to back, one client, a fresh
/// backend (fresh worker processes) per job, every band digest compared
/// with the locally computed reference.
fn proc_jobs_rep(jobs: &[MatJob], count: usize, tracer: &mut Option<&mut Tracer>) -> Rep {
    let mut rep = Rep::default();
    let config = GraspConfig::default();
    let started = Instant::now();
    for i in 0..count {
        let job = &jobs[i % jobs.len()];
        let t0 = Instant::now();
        let backend = ProcBackend::new(WORKERS).with_payloads(job.payloads.clone());
        let (outcome, _, spans) = run_job(
            &config,
            &backend,
            &job.skeleton,
            tracer,
            i as u64 + 1,
            &mut rep.counts,
        );
        // The latency a caller sees includes building the backend.
        let latency_s = t0.elapsed().as_secs_f64();
        rep.wall_s = started.elapsed().as_secs_f64();
        let ok = match &outcome {
            Ok(outcome) => {
                if spans.is_some() {
                    common_counts(outcome, &mut rep.counts);
                    wire_counts(outcome, &mut rep.counts);
                }
                let digests_match = matches!(
                    &outcome.detail,
                    OutcomeDetail::ProcFarm { unit_digests, .. }
                        if unit_digests.len() == job.digests.len()
                            && unit_digests
                                .iter()
                                .all(|(unit, digest)| job.digests.get(*unit) == Some(digest))
                );
                if !digests_match {
                    eprintln!("proc-jobs: job {i} returned wrong band digests");
                }
                digests_match && outcome.conserves_units_of(&job.skeleton)
            }
            Err(e) => {
                eprintln!("proc-jobs: job {i} failed: {e}");
                false
            }
        };
        end_span(tracer, spans);
        rep.jobs += 1;
        rep.latencies_us.push(latency_s * 1e6);
        if ok {
            rep.units += job.skeleton.work_units() as u64;
        } else {
            rep.failed += 1;
        }
    }
    rep
}

/// `service-mix` and `service-serial`: a closed loop — callers block in
/// `JobHandle::wait` — of one generator thread holding `outstanding` jobs in
/// flight and waiting on the oldest.  With four, the admission queue holds
/// several jobs and the dispatcher's shared rounds happen; with one, every
/// round is one job.  A job's latency runs from its `submit` call to the
/// return of its `wait`; its `wait` span opens when `submit` returns.  A
/// refused submission is a failed operation.
fn service_rep(
    service: &GraspService,
    jobs: &[(Skeleton, &'static str)],
    outstanding: usize,
    tracer: &mut Option<&mut Tracer>,
) -> Rep {
    struct InFlight {
        index: usize,
        handle: Result<JobHandle, GraspError>,
        submitted: Instant,
        job: Option<SpanId>,
        wait: Option<SpanId>,
    }
    let mut rep = Rep::default();
    let before = service.stats();
    // `submit` consumes its skeleton; clone them all before the clock runs.
    let batch: Vec<Skeleton> = jobs.iter().map(|(s, _)| s.clone()).collect();
    let mut batch = batch.into_iter().enumerate();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(outstanding);
    let started = Instant::now();
    loop {
        while in_flight.len() < outstanding {
            let Some((index, skeleton)) = batch.next() else {
                break;
            };
            let spec = JobSpec::default().with_payload_kind(jobs[index].1);
            let job_id = index as u64 + 1;
            // Jobs in flight together never share a lane: job i has returned
            // before job i + outstanding is submitted.
            let lane = JOB_LANE + (index % outstanding) as u32;
            let job = begin_span(tracer, "job", None, job_id, lane);
            let submitted = Instant::now();
            let submit = begin_span(tracer, "submit", job, job_id, lane);
            let handle = service.submit(skeleton, spec);
            end_span(tracer, submit);
            let wait = begin_span(tracer, "wait", job, job_id, lane);
            in_flight.push_back(InFlight {
                index,
                handle,
                submitted,
                job,
                wait,
            });
        }
        let Some(oldest) = in_flight.pop_front() else {
            break;
        };
        let outcome = oldest.handle.and_then(JobHandle::wait);
        end_span(tracer, oldest.wait);
        let returned = Instant::now();
        rep.wall_s = returned.duration_since(started).as_secs_f64();
        rep.latencies_us
            .push(returned.duration_since(oldest.submitted).as_secs_f64() * 1e6);
        rep.jobs += 1;
        let reference = &jobs[oldest.index].0;
        match &outcome {
            Ok(outcome) if outcome.conserves_units_of(reference) => {
                rep.units += reference.work_units() as u64;
                if oldest.job.is_some() {
                    common_counts(outcome, &mut rep.counts);
                }
            }
            Ok(_) => {
                eprintln!(
                    "service-mix: job {} did not conserve its units",
                    oldest.index
                );
                rep.failed += 1;
            }
            Err(e) => {
                eprintln!("service-mix: job {} failed: {e}", oldest.index);
                rep.failed += 1;
                if matches!(e, GraspError::Rejected { .. }) {
                    *rep.counts.entry("service.rejected").or_insert(0.0) += 1.0;
                }
            }
        }
        end_span(tracer, oldest.job);
    }
    if tracer.is_some() {
        service_counts(&before, &service.stats(), &mut rep);
    }
    rep
}

fn service_counts(before: &ServiceStats, after: &ServiceStats, rep: &mut Rep) {
    let rounds = (after.rounds - before.rounds) as f64;
    let hits = (after.profile.hits - before.profile.hits) as f64;
    let misses = (after.profile.misses - before.profile.misses) as f64;
    let completed = (rep.jobs - rep.failed) as f64;
    rep.counts.insert("service.rounds", rounds);
    rep.counts
        .insert("service.jobs_per_round", completed / rounds.max(1.0));
    rep.counts
        .insert("service.profile_hit_ratio", hits / (hits + misses).max(1.0));
    rep.counts.entry("service.rejected").or_insert(0.0);
}
