//! Out-of-process-of-the-run probes: tight loops over one layer's public
//! functions, with the workload's own inputs where the function takes any.
//! They run after the timed repetitions of a traced run and say what one
//! operation of a layer costs when nothing else is going on — the number a
//! span around a whole run cannot give.

use crate::gen::Inputs;
use crate::stats::median;
use crate::workloads::Counts;
use crate::{Workload, WORKERS};
use grasp_core::config::{BackendConfig, ExecutionConfig};
use grasp_core::engine::AdaptationEngine;
use grasp_core::prelude::{
    Backend, Grasp, GraspConfig, GraspError, SchedulePolicy, Skeleton, TaskSpec,
};
use grasp_core::shm::{self, ShmRing};
use grasp_core::transport::{
    stream_connection, tcp_connect, Acceptor, FrameSink, FrameSource, TcpAcceptor,
};
use grasp_core::wire::{FrameView, WireMsg, PAYLOAD_MATMUL, PAYLOAD_SPIN};
use grasp_exec::{spin, StealDeque, ThreadFarm, WorkerPool};
use grasp_net::NetBackend;
use grasp_proc::{ProcBackend, Transport};
use grasp_service::{AdmissionQueue, JobPriority, ProfileCache};
use grasp_workloads::matmul::MatMulJob;
use gridmon::{AdaptiveForecaster, Forecaster};
use gridsim::{NodeId, SimTime};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Ping-pongs per round-trip probe (the median is reported).
const RTT_PINGS: usize = 2_000;

/// Nanoseconds per call of `op`, over `calls` calls.
fn ns_per_call(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Nanoseconds per iteration of the spin kernel: the machine's speed today,
/// in the unit all work is stated in.  The minimum of several short bursts
/// a millisecond apart, so that neither a preempted burst nor one that
/// shared its core with a winding-down thread of the last run counts.
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 1_000_000;
    (0..15)
        .map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let t0 = Instant::now();
            black_box(spin(black_box(ITERS)));
            t0.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The Task and Done frames this workload puts on the wire.
fn frames_of(inputs: &Inputs) -> (WireMsg, WireMsg) {
    let task = match inputs {
        Inputs::MatMulJobs {
            n,
            block_rows,
            seeds,
            ..
        } => WireMsg::Task {
            unit_id: 3,
            work: 1.0,
            kind: PAYLOAD_MATMUL,
            payload: MatMulJob {
                n: *n,
                block_rows: *block_rows,
                seed: seeds[0],
            }
            .band_task(3)
            .encode(),
        },
        _ => WireMsg::Task {
            unit_id: 3,
            work: 1.0,
            kind: PAYLOAD_SPIN,
            payload: Vec::new(),
        },
    };
    let done = WireMsg::Done {
        unit_id: 3,
        elapsed_s: 2.5e-5,
        digest: 0x1234_5678_9abc_def0,
    };
    (task, done)
}

fn wire_probes(inputs: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let (task, done) = frames_of(inputs);
    let mut buf = Vec::new();
    out.insert(
        "core.wire_encode_ns",
        ns_per_call(400_000, |i| {
            if i % 2 == 0 { &task } else { &done }.encode_into(&mut buf);
            black_box(&buf);
        }),
    );
    let frames = [task.encode(), done.encode()];
    out.insert(
        "core.wire_decode_ns",
        ns_per_call(400_000, |i| {
            let view = FrameView::decode_slice(black_box(&frames[i % 2]));
            black_box(view.is_ok());
        }),
    );
    Ok(())
}

/// Median microseconds of one Task → Done round trip between two threads
/// over the given pair of connection ends.
fn rtt_us(
    inputs: &Inputs,
    near: (Box<dyn FrameSink>, Box<dyn FrameSource>),
    far: (Box<dyn FrameSink>, Box<dyn FrameSource>),
) -> Result<f64, GraspError> {
    let (task, done) = frames_of(inputs);
    let (mut near_sink, mut near_source) = near;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), GraspError> {
            let (mut sink, mut source) = far;
            // A Shutdown frame (or the peer's close) ends the echo.
            while let Some(WireMsg::Task { .. }) = source.recv()? {
                sink.send(&done)?;
            }
            Ok(())
        });
        let mut samples = Vec::with_capacity(RTT_PINGS);
        let mut result = Ok(());
        for _ in 0..RTT_PINGS {
            let t0 = Instant::now();
            result = near_sink
                .send(&task)
                .and_then(|_| near_source.recv())
                .map(|_| ());
            if result.is_err() {
                break;
            }
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        let _ = near_sink.send(&WireMsg::Shutdown);
        drop(near_sink);
        echo.join().expect("the echo thread does not panic")?;
        result.map(|()| median(&samples))
    })
}

fn stream_rtt_probe(inputs: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let io = |e: std::io::Error| GraspError::WorkerUnavailable {
        detail: format!("unix socket pair: {e}"),
    };
    let (a, b) = UnixStream::pair().map_err(io)?;
    let near = stream_connection("near", a.try_clone().map_err(io)?, a).split();
    let far = stream_connection("far", b.try_clone().map_err(io)?, b).split();
    out.insert("core.stream_rtt_us", rtt_us(inputs, near, far)?);
    Ok(())
}

fn shm_rtt_probe(inputs: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let path = shm::ring_path("rtt-probe");
    let me = u64::from(std::process::id());
    let result = ShmRing::create(&path, shm::DEFAULT_RING_CAPACITY).and_then(|master| {
        let worker = ShmRing::attach(&path)?;
        let (near_sink, near_source) = master.into_halves(me);
        let (far_sink, far_source) = worker.into_halves(me);
        rtt_us(
            inputs,
            (Box::new(near_sink), Box::new(near_source)),
            (Box::new(far_sink), Box::new(far_source)),
        )
    });
    ShmRing::cleanup(&path);
    out.insert("core.shm_rtt_us", result?);
    Ok(())
}

fn tcp_rtt_probe(inputs: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
    let far = tcp_connect(acceptor.local_addr())?;
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    let near = loop {
        if let Some(conn) = acceptor.poll_accept()? {
            break conn;
        }
        if Instant::now() > deadline {
            return Err(GraspError::WorkerUnavailable {
                detail: "loopback TCP connection was never accepted".into(),
            });
        }
        std::thread::yield_now();
    };
    out.insert(
        "core.tcp_rtt_us",
        rtt_us(inputs, near.split(), far.split())?,
    );
    Ok(())
}

fn engine_probes(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let exec = ExecutionConfig::default();
    let mut engine = AdaptationEngine::for_executors(&exec, &[1e-6; WORKERS], SimTime::ZERO);
    out.insert(
        "core.engine_observe_ns",
        ns_per_call(1_000_000, |i| {
            engine.observe(NodeId(i % WORKERS), black_box(1e-6))
        }),
    );
    // Every call lands one interval later, so each one is due and evaluates.
    let mut engine = AdaptationEngine::for_executors(&exec, &[1e-6; WORKERS], SimTime::ZERO);
    out.insert(
        "core.engine_poll_ns",
        ns_per_call(100_000, |i| {
            for w in 0..WORKERS {
                engine.observe(NodeId(w), 1e-6);
            }
            let now = SimTime::new((i + 1) as f64 * exec.monitor_interval_s * 1.01);
            if engine.due(now) {
                black_box(engine.poll(now));
            }
        }),
    );
    Ok(())
}

/// A full Guided drain of this workload's unit count, over and over.
fn scheduler_probe(inputs: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let units = match inputs {
        Inputs::SpinFarm { work, .. } => work.len(),
        Inputs::SimGrid { units, .. } => *units,
        _ => 10_000,
    };
    let policy = SchedulePolicy::Guided { min_chunk: 1 };
    let mut remaining = units;
    out.insert(
        "core.scheduler_chunk_ns",
        ns_per_call(1_000_000, |_| {
            if remaining == 0 {
                remaining = units;
            }
            remaining -= policy.next_chunk_with_total(black_box(remaining), units, WORKERS, 1.0);
        }),
    );
    Ok(())
}

fn farm_dispatch_probe(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let items: Vec<u64> = (0..200_000).collect();
    let farm = ThreadFarm::new(WORKERS);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let (results, _) = farm.try_run(&items, |x| *x)?;
        best = best.min(t0.elapsed().as_nanos() as f64 / items.len() as f64);
        black_box(results);
    }
    out.insert("exec.farm_dispatch_ns", best);
    Ok(())
}

fn deque_probes(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    const RANGE: usize = 1 << 30;
    let mut deque = StealDeque::new(0, RANGE);
    out.insert(
        "exec.deque_take_ns",
        ns_per_call(2_000_000, |_| {
            if black_box(deque.take_bottom(1)).is_none() {
                deque = StealDeque::new(0, RANGE);
            }
        }),
    );
    // Each steal halves the range, so a fresh deque serves ~30 steals.
    let mut deque = StealDeque::new(0, RANGE);
    out.insert(
        "exec.deque_steal_ns",
        ns_per_call(2_000_000, |_| {
            if black_box(deque.steal_top_half()).is_none() {
                deque = StealDeque::new(0, RANGE);
            }
        }),
    );
    Ok(())
}

fn pool_round_probe(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let pool: WorkerPool<u64, u64> = WorkerPool::start(WORKERS, |_, task| *task);
    let lease = pool.lease();
    let mut samples = Vec::with_capacity(2_000);
    for i in 0..2_000u64 {
        let t0 = Instant::now();
        black_box(lease.run(vec![i, i + 1], 1)?);
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.insert("exec.pool_round_us", median(&samples));
    Ok(())
}

/// Wall milliseconds of the smallest legal job — one near-zero unit per
/// worker — on a process-spawning backend: its fixed per-job cost (spawn,
/// handshake, calibration, reap).  The minimum over `runs`.
fn smallest_job_ms<B: Backend>(backend: &B, runs: usize) -> Result<f64, GraspError> {
    let skeleton = Skeleton::farm(TaskSpec::uniform(WORKERS, 1.0, 0, 0));
    let grasp = Grasp::new(GraspConfig::default());
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        grasp.run(backend, &skeleton)?;
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(best)
}

fn proc_job_probe(transport: Transport, out: &mut Counts) -> Result<(), GraspError> {
    let backend = ProcBackend::new(WORKERS)
        .with_transport(transport)
        .with_config(BackendConfig::new().spin_per_work_unit(1));
    out.insert("proc.spawn_handshake_ms", smallest_job_ms(&backend, 20)?);
    Ok(())
}

fn proc_pipes_job_probe(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    proc_job_probe(Transport::Pipes, out)
}

fn proc_shm_job_probe(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    proc_job_probe(Transport::Shm, out)
}

fn net_job_probe(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let backend = NetBackend::new(WORKERS).with_config(BackendConfig::new().spin_per_work_unit(1));
    out.insert("net.join_handshake_ms", smallest_job_ms(&backend, 10)?);
    Ok(())
}

fn service_probes(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let mut queue: AdmissionQueue<u64> = AdmissionQueue::new(64);
    out.insert(
        "service.admission_ns",
        ns_per_call(1_000_000, |i| {
            let _ = queue.push(JobPriority::Normal, "default", i as u64);
            black_box(queue.pop());
        }),
    );
    let mut cache = ProfileCache::new();
    for w in 0..WORKERS {
        cache.insert(w, "farm", 1e-6);
    }
    out.insert(
        "service.cache_lookup_ns",
        ns_per_call(1_000_000, |i| {
            black_box(cache.lookup(i % WORKERS, "farm"));
        }),
    );
    Ok(())
}

fn matmul_probe(inputs: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    if let Inputs::MatMulJobs {
        n,
        block_rows,
        seeds,
        ..
    } = inputs
    {
        let mut samples = Vec::new();
        for seed in seeds {
            let job = MatMulJob {
                n: *n,
                block_rows: *block_rows,
                seed: *seed,
            };
            for band in 0..job.task_count() {
                let t0 = Instant::now();
                black_box(job.band_task(band).execute());
                samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        out.insert("workloads.matmul_band_us", median(&samples));
    }
    Ok(())
}

fn grid_probes(_: &Inputs, out: &mut Counts) -> Result<(), GraspError> {
    let mut forecaster = AdaptiveForecaster::standard();
    out.insert(
        "gridmon.forecast_ns",
        ns_per_call(200_000, |i| {
            forecaster.observe(0.3 + 0.1 * ((i % 17) as f64 / 17.0));
            black_box(forecaster.predict());
        }),
    );
    // The calibration sort, at this workload's pool size.
    let values: Vec<f64> = (0..1_024)
        .map(|i| ((i * 7_919) % 1_024) as f64 * 1e-6)
        .collect();
    out.insert(
        "gridstats.rank_ns",
        ns_per_call(2_000, |_| {
            black_box(gridstats::dense_ranks(black_box(&values)));
        }),
    );
    Ok(())
}

type Probe = fn(&Inputs, &mut Counts) -> Result<(), GraspError>;

/// Run the probes of the layers `workload` exercises.  A probe that cannot
/// run (no worker binary, no loopback) reports its error and stays at 0.
pub fn run(workload: Workload, inputs: &Inputs) -> Counts {
    let probes: &[Probe] = match workload {
        Workload::ThreadFine => &[farm_dispatch_probe, scheduler_probe],
        Workload::ThreadSkew => &[deque_probes, scheduler_probe],
        Workload::ProcStream => &[wire_probes, stream_rtt_probe, proc_pipes_job_probe],
        Workload::ProcShm => &[wire_probes, shm_rtt_probe, proc_shm_job_probe],
        Workload::ProcJobs => &[
            wire_probes,
            stream_rtt_probe,
            proc_pipes_job_probe,
            matmul_probe,
        ],
        Workload::NetStream => &[wire_probes, tcp_rtt_probe, net_job_probe],
        Workload::ServiceMix | Workload::ServiceSerial => &[pool_round_probe, service_probes],
        Workload::SimScale => &[grid_probes, scheduler_probe],
    };
    let mut out = Counts::new();
    for probe in probes.iter().chain(&[engine_probes as Probe]) {
        if let Err(e) = probe(inputs, &mut out) {
            eprintln!("{}: a probe failed: {e}", workload.name());
        }
    }
    out.insert("workloads.spin_ns_per_iter", spin_ns_per_iter());
    out
}
