//! Acceptance tests of the socket backend and its dynamic membership: the
//! deterministic loopback fault harness (deaths mid-task and mid-frame,
//! mid-run joins, graceful leaves, handshake rejection) plus a real-TCP
//! hard-kill run and three-way backend parity.
//!
//! These tests live in the workspace root on purpose: the root package owns
//! the `grasp-net-worker` binary, so Cargo builds it before these tests run
//! and hands us its exact path through `CARGO_BIN_EXE_grasp-net-worker`.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_core::transport::Acceptor;
use grasp_repro::grasp_exec::ThreadBackend;
use grasp_repro::grasp_net::worker::{run_connection, WorkerOptions};
use grasp_repro::grasp_net::{FaultScript, FrameFault, LoopbackNet, NetBackend};
use grasp_repro::grasp_proc::ProcBackend;
use grasp_repro::grasp_workloads::matmul::MatMulJob;
use std::collections::BTreeSet;
use std::thread::JoinHandle;
use std::time::Duration;

/// The worker binary Cargo built for this test run.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_grasp-net-worker")
}

/// A loopback backend with heartbeats off: liveness is then EOF-only and
/// every connection's frame sequence is deterministic, so fault scripts can
/// address exact frames.
fn loopback_backend(acceptor: Box<dyn Acceptor>, wait_for: usize) -> NetBackend {
    NetBackend::over(acceptor, wait_for).with_config(
        BackendConfig::new()
            .heartbeat(0.0, 1.0)
            .spin_per_work_unit(10),
    )
}

/// Spawn a loopback worker thread serving the standard protocol.
fn spawn_worker(net: &LoopbackNet, opts: WorkerOptions) -> JoinHandle<i32> {
    spawn_faulty_worker(net, opts, FaultScript::clean(), FaultScript::clean())
}

/// Spawn a loopback worker whose connection carries scripted faults.
fn spawn_faulty_worker(
    net: &LoopbackNet,
    opts: WorkerOptions,
    to_master: FaultScript,
    to_worker: FaultScript,
) -> JoinHandle<i32> {
    let conn = net
        .connect_faulty(to_master, to_worker)
        .expect("loopback connect");
    std::thread::spawn(move || run_connection(conn, opts))
}

/// A script that holds the worker's outbound frame `frame` for `ms`
/// milliseconds: with heartbeats off, frame 0 is the Join and frame `k` the
/// k-th Done, so a test can order its workers without relying on the
/// scheduler.
fn held_at(frame: usize, ms: u64) -> FaultScript {
    FaultScript::clean().with(frame, FrameFault::Delay(Duration::from_millis(ms)))
}

#[test]
fn a_loopback_farm_completes_and_reports_its_membership() {
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_worker(&net, WorkerOptions::default()))
        .collect();
    let skeleton = Skeleton::farm(TaskSpec::uniform(24, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("loopback net run failed");
    assert_eq!(report.outcome.completed, 24);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(report.outcome.resilience.is_clean());
    match &report.outcome.detail {
        OutcomeDetail::NetFarm {
            workers,
            tasks_per_worker,
            rejected_joins,
            bytes_sent,
            bytes_received,
            members,
            ..
        } => {
            assert_eq!(*workers, 2);
            assert_eq!(tasks_per_worker.iter().sum::<usize>(), 24);
            assert_eq!(*rejected_joins, 0);
            assert!(*bytes_sent > 0 && *bytes_received > 0);
            for m in members {
                assert!(!m.joined_mid_run, "founding members join before dispatch");
                assert_eq!(m.calibration_probes, 0);
                assert!(m.left.is_none(), "still a member at job completion");
            }
        }
        other => panic!("unexpected detail {other:?}"),
    }
    for w in workers {
        assert_eq!(w.join().unwrap(), 0, "workers exit cleanly on Shutdown");
    }
}

#[test]
fn a_worker_joining_mid_run_calibrates_before_real_units() {
    // The headline of dynamic membership: a third worker connects while two
    // founders are already executing.  It is parked until the scripted join
    // point, admitted mid-run, ranked by a calibration prefix of probe
    // units, and only then trusted with real units.
    //
    // The ordering is scripted, not left to the scheduler.  Worker outbound
    // frames (heartbeats off): 0 = Join, then one Done per task.  The
    // joiner's Join is delayed so the other two are the founders; each
    // founder's 2nd Done is delayed so the joiner registers (and is parked)
    // before the join point of 4 results; each founder's 3rd Done — the
    // first frame past the join point — is delayed long enough for the
    // joiner to finish its probes and take real units before the founders
    // can drain the rest of the job.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2)
        .with_hold_joins_until(4)
        .with_join_calibration_units(3);
    let founder = || held_at(2, 300).with(3, FrameFault::Delay(Duration::from_millis(500)));
    let workers: Vec<_> = [founder(), founder(), held_at(0, 100)]
        .into_iter()
        .map(|script| {
            spawn_faulty_worker(&net, WorkerOptions::default(), script, FaultScript::clean())
        })
        .collect();
    let skeleton = Skeleton::farm(TaskSpec::uniform(60, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("mid-run join run failed");
    assert_eq!(report.outcome.completed, 60);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(report.outcome.resilience.is_clean());
    assert_eq!(
        report.outcome.adaptation_log.node_joins(),
        1,
        "the mid-run admission is on the audit trail"
    );
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            assert_eq!(members.len(), 3);
            let founders = members.iter().filter(|m| !m.joined_mid_run).count();
            assert_eq!(founders, 2);
            let joiner = members
                .iter()
                .find(|m| m.joined_mid_run)
                .expect("one member joined mid-run");
            assert_eq!(
                joiner.calibration_probes, 3,
                "the newcomer completed its full calibration prefix"
            );
            assert!(
                joiner.units_completed > 0,
                "after calibrating, the newcomer served real units"
            );
            assert!(joiner.joined_s >= 0.0);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    for w in workers {
        assert_eq!(w.join().unwrap(), 0);
    }
}

#[test]
fn a_worker_dying_between_frames_with_units_in_flight_is_a_requeued_death() {
    // Worker outbound frames with heartbeats off: 0 = Join, then one Done
    // per served task.  Killing the link *before* frame 3 (the third Done)
    // is a crash between writes: the master sees a clean EOF while the
    // worker still owes its outstanding window.  The healthy worker's 2nd
    // Done is held so the job cannot finish before the victim gets there.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let healthy = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(2, 300),
        FaultScript::clean(),
    );
    let victim = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().with(3, FrameFault::CloseBefore),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a mid-run death must not fail the run");
    assert_eq!(report.outcome.completed, 30);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert_eq!(report.outcome.resilience.nodes_lost, 1);
    assert!(
        report.outcome.resilience.requeued_tasks >= 1,
        "the swallowed Done and the rest of the window must be requeued: {:?}",
        report.outcome.resilience
    );
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            let dead: Vec<_> = members
                .iter()
                .filter(|m| m.left == Some(NetDeparture::Death))
                .collect();
            assert_eq!(dead.len(), 1, "exactly one member died");
            assert!(dead[0].units_completed >= 2);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(healthy.join().unwrap(), 0);
    let _ = victim.join();
}

#[test]
fn a_worker_dying_mid_frame_is_a_typed_truncation_and_a_requeued_death() {
    // Same death point, but the crash lands mid-write: the master's decoder
    // sees a torn frame (a typed wire error, never a panic), the reader
    // reports the link closed, and the death path requeues as usual.  The
    // healthy worker's 2nd Done is held as above.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let healthy = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(2, 300),
        FaultScript::clean(),
    );
    let victim = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().with(2, FrameFault::TruncateAt(9)),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a torn frame must not fail the run");
    assert_eq!(report.outcome.completed, 30);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert_eq!(report.outcome.resilience.nodes_lost, 1);
    assert!(report.outcome.resilience.requeued_tasks >= 1);
    assert_eq!(healthy.join().unwrap(), 0);
    let _ = victim.join();
}

#[test]
fn a_graceful_goodbye_drains_the_window_and_loses_nothing() {
    // A worker announces Goodbye after two tasks.  The master stops handing
    // it new units, lets its outstanding window drain, and releases it with
    // Shutdown: no loss, no requeue, membership recorded as graceful.  The
    // stayer's 2nd Done is held so the job cannot finish before the
    // leaver's Goodbye and drain.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let stayer = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(2, 300),
        FaultScript::clean(),
    );
    let leaver = spawn_worker(
        &net,
        WorkerOptions {
            leave_after: Some(2),
            ..WorkerOptions::default()
        },
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(30, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a graceful leave must not fail the run");
    assert_eq!(report.outcome.completed, 30);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.is_clean(),
        "a graceful leave is not a fault: {:?}",
        report.outcome.resilience
    );
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            let graceful: Vec<_> = members
                .iter()
                .filter(|m| m.left == Some(NetDeparture::Graceful))
                .collect();
            assert_eq!(graceful.len(), 1, "exactly one member left gracefully");
            assert!(
                graceful[0].units_completed >= 2,
                "the leaver finished what was on its wire"
            );
            assert!(
                members.iter().any(|m| m.left.is_none()),
                "the stayer carried the job to completion"
            );
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(stayer.join().unwrap(), 0);
    assert_eq!(leaver.join().unwrap(), 0, "the leaver was released cleanly");
}

#[test]
fn handshake_rejects_wrong_versions_and_missing_capabilities() {
    // The conforming worker's first Done is held so the job cannot finish
    // before both refusals are counted.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 1);
    let good = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(1, 300),
        FaultScript::clean(),
    );
    let wrong_version = spawn_worker(
        &net,
        WorkerOptions {
            wire_version: 9999,
            ..WorkerOptions::default()
        },
    );
    let no_caps = spawn_worker(
        &net,
        WorkerOptions {
            capabilities: 0,
            ..WorkerOptions::default()
        },
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(12, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("rejections must not fail the run");
    assert_eq!(report.outcome.completed, 12);
    match &report.outcome.detail {
        OutcomeDetail::NetFarm {
            workers,
            rejected_joins,
            ..
        } => {
            assert_eq!(*workers, 1, "only the conforming worker was admitted");
            assert_eq!(*rejected_joins, 2);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(good.join().unwrap(), 0);
    assert_eq!(
        wrong_version.join().unwrap(),
        0,
        "rejection is not an error"
    );
    assert_eq!(no_caps.join().unwrap(), 0);
}

#[test]
fn duplicated_and_delayed_frames_do_not_double_count_units() {
    // A retransmit gone wrong (the same Done delivered twice) and a
    // congested link (a delayed Done) must both be absorbed: first
    // completion wins, every unit exactly once.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let w1 = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        FaultScript::clean().with(2, FrameFault::Duplicate),
        FaultScript::clean(),
    );
    let w2 = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(1, 30),
        FaultScript::clean(),
    );
    let skeleton = Skeleton::farm(TaskSpec::uniform(20, 1.0, 0, 0));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("benign frame faults must not fail the run");
    assert_eq!(report.outcome.completed, 20);
    assert!(report.outcome.conserves_units_of(&skeleton));
    let ids: BTreeSet<usize> = report.outcome.unit_ids.iter().copied().collect();
    assert_eq!(
        ids.len(),
        20,
        "every unit exactly once despite the duplicate"
    );
    assert_eq!(w1.join().unwrap(), 0);
    assert_eq!(w2.join().unwrap(), 0);
}

#[test]
fn the_socket_master_speculates_a_delayed_straggler_and_discards_the_loser() {
    // Two founders, four units, windows of two: each founder holds two units
    // from the start.  The slow founder's first Done is held on its link
    // for 300 ms.  The fast founder drains its own pair, idles at the tail
    // and duplicates the slow founder's units; its first duplicate wins.
    // Its second duplicate's Done (its outbound frame 4) is held for 900
    // ms, so the slow founder's delayed Done arrives mid-run as a loser and
    // must be discarded, and the slow founder's next Done completes the job.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 2);
    let slow = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(1, 300),
        FaultScript::clean(),
    );
    let fast = spawn_faulty_worker(
        &net,
        WorkerOptions::default(),
        held_at(4, 900),
        FaultScript::clean(),
    );
    let n = 4;
    let skeleton = Skeleton::farm(TaskSpec::uniform(n, 1.0, 0, 0));
    let mut cfg = GraspConfig::default();
    cfg.execution.speculate_tail_fraction = 1.0;
    let report = Grasp::new(cfg)
        .run(&backend, &skeleton)
        .expect("a speculated run must not fail");
    let outcome = &report.outcome;
    assert_eq!(outcome.completed, n);
    assert!(outcome.conserves_units_of(&skeleton));
    let r = &outcome.resilience;
    assert!(r.speculated_units >= 1, "no duplicate launched: {r:?}");
    assert!(r.speculation_wins >= 1, "no duplicate won: {r:?}");
    assert!(r.speculation_wins <= r.speculated_units);
    match &outcome.detail {
        OutcomeDetail::NetFarm {
            tasks_per_worker,
            unit_digests,
            ..
        } => {
            assert_eq!(
                tasks_per_worker.iter().sum::<usize>(),
                n,
                "the delayed loser's result was credited: {tasks_per_worker:?}"
            );
            assert_eq!(unit_digests.len(), n);
        }
        other => panic!("unexpected detail {other:?}"),
    }
    assert_eq!(slow.join().unwrap(), 0);
    assert_eq!(fast.join().unwrap(), 0);
}

#[test]
fn a_sigkilled_tcp_worker_mid_task_conserves_units() {
    // The acceptance check over real sockets: spawn three TCP workers on
    // localhost, SIGKILL one mid-task, and require the run to finish with
    // conservation intact and the loss on the ResilienceReport.
    let skeleton = Skeleton::farm(TaskSpec::uniform(40, 2.0, 0, 0));
    let backend = NetBackend::new(3)
        .with_config(
            BackendConfig::new()
                .worker_bin(worker_bin())
                .spin_per_work_unit(2_000_000),
        )
        .with_fault_injection(FaultInjection::none().kill(1, 2));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a hard-killed TCP worker must not fail the run");
    assert_eq!(report.outcome.completed, 40);
    assert!(report.outcome.conserves_units_of(&skeleton));
    assert!(
        report.outcome.resilience.nodes_lost >= 1,
        "the kill must be accounted: {:?}",
        report.outcome.resilience
    );
    assert!(report.outcome.resilience.requeued_tasks >= 1);
    match &report.outcome.detail {
        OutcomeDetail::NetFarm { members, .. } => {
            assert!(members.iter().any(|m| m.left == Some(NetDeparture::Death)));
            assert_eq!(members.iter().map(|m| m.units_completed).sum::<usize>(), 40);
        }
        other => panic!("unexpected detail {other:?}"),
    }
}

#[test]
fn thread_proc_and_net_backends_agree_on_a_fixed_seed_matmul_farm() {
    // Three-way parity: the same fixed-seed job lowered through the same
    // rules must cover the same unit-id set exactly once on threads, on
    // worker processes, and on socket workers.
    let job = MatMulJob {
        n: 96,
        block_rows: 16,
        seed: 11,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let grasp = Grasp::new(GraspConfig::default());

    let threads = grasp
        .run(
            &ThreadBackend::new(3).with_config(BackendConfig::new().spin_per_work_unit(10)),
            &skeleton,
        )
        .expect("thread backend run failed");
    let procs = grasp
        .run(
            &ProcBackend::new(3).with_config(
                BackendConfig::new()
                    .worker_bin(env!("CARGO_BIN_EXE_grasp-proc-worker"))
                    .spin_per_work_unit(10),
            ),
            &skeleton,
        )
        .expect("proc backend run failed");
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 3);
    let workers: Vec<_> = (0..3)
        .map(|_| spawn_worker(&net, WorkerOptions::default()))
        .collect();
    let nets = grasp
        .run(&backend, &skeleton)
        .expect("net backend run failed");
    for w in workers {
        assert_eq!(w.join().unwrap(), 0);
    }

    let t_ids: BTreeSet<usize> = threads.outcome.unit_ids.iter().copied().collect();
    let p_ids: BTreeSet<usize> = procs.outcome.unit_ids.iter().copied().collect();
    let n_ids: BTreeSet<usize> = nets.outcome.unit_ids.iter().copied().collect();
    assert_eq!(t_ids, p_ids, "thread and proc cover the same unit set");
    assert_eq!(p_ids, n_ids, "proc and net cover the same unit set");
    assert_eq!(nets.outcome.unit_ids.len(), n_ids.len(), "no unit twice");
    assert_eq!(nets.outcome.kind, threads.outcome.kind);
    assert!(nets.outcome.conserves_units_of(&skeleton));
}

#[test]
fn the_membership_substrate_outlives_a_job() {
    // The acceptor (the Join/Welcome membership endpoint) is recycled at
    // each run's orderly shutdown, so one harness backend serves many
    // consecutive jobs: fresh workers join the same endpoint for job 2.
    let (net, acceptor) = LoopbackNet::new();
    let backend = loopback_backend(Box::new(acceptor), 1);
    let skeleton = Skeleton::farm(TaskSpec::uniform(6, 1.0, 0, 0));
    let grasp = Grasp::new(GraspConfig::default());
    for job in 0..2 {
        let w = spawn_worker(&net, WorkerOptions::default());
        let report = grasp
            .run(&backend, &skeleton)
            .unwrap_or_else(|e| panic!("loopback run {job} failed: {e}"));
        assert_eq!(w.join().unwrap(), 0);
        assert_eq!(report.outcome.completed, 6, "job {job}");
        assert!(report.outcome.conserves_units_of(&skeleton), "job {job}");
    }
}
