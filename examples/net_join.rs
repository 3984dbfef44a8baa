//! Dynamic membership on the socket backend, over real localhost TCP.
//!
//! The paper's premise is that a computational grid is never static: nodes
//! appear and disappear underneath a running computation.  This example runs
//! it end to end — a master binds a TCP listener on 127.0.0.1, two workers
//! register through the Join/Welcome handshake and start the job, and once
//! a quarter of the units are done a **third worker joins mid-run**: it is
//! admitted, ranked by a calibration prefix of probe units (receiving real
//! units only afterwards), and then carries part of the remaining load.
//!
//! Run with: `cargo build --release && cargo run --release --example net_join`
//! (the build step produces the `grasp-net-worker` binary the backend
//! spawns and points at its listener).

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_net::NetBackend;
use grasp_repro::grasp_workloads::matmul::MatMulJob;

fn main() {
    let job = MatMulJob {
        n: 512,
        block_rows: 16,
        seed: 9,
    };
    let skeleton = Skeleton::farm(job.as_tasks(1e6));
    let join_after = job.task_count() / 4;
    println!(
        "net_join: {} matmul bands (n={}) on 2 TCP workers; a third worker \
         joins after {} results and must calibrate before serving",
        job.task_count(),
        job.n,
        join_after
    );

    let backend = NetBackend::new(2)
        .with_payloads(job.wire_payloads())
        .with_fault_injection(FaultInjection::none().join_spawn(join_after, 1));
    let report = Grasp::new(GraspConfig::default())
        .run(&backend, &skeleton)
        .expect("a worker joining mid-run must not fail the run");

    let outcome = &report.outcome;
    assert_eq!(outcome.completed, job.task_count());
    assert!(
        outcome.conserves_units_of(&skeleton),
        "no band lost or duplicated across the membership change"
    );
    assert!(
        outcome.adaptation_log.node_joins() >= 1,
        "the mid-run admission must be on the audit trail"
    );
    match &outcome.detail {
        OutcomeDetail::NetFarm {
            members,
            tasks_per_worker,
            bytes_sent,
            bytes_received,
            unit_digests,
            ..
        } => {
            let joiner = members
                .iter()
                .find(|m| m.joined_mid_run)
                .expect("the third worker joined mid-run");
            assert!(
                joiner.calibration_probes > 0,
                "a mid-run joiner is ranked by a calibration prefix first"
            );
            for &(unit, digest) in unit_digests {
                assert_eq!(
                    digest,
                    job.band_task(unit).digest(),
                    "band {unit} computed over TCP must match the local kernel"
                );
            }
            println!(
                "net_join: done — {} units, {:?} per worker; late joiner ran \
                 {} calibration probes then {} real units; {}B out / {}B in",
                outcome.completed,
                tasks_per_worker,
                joiner.calibration_probes,
                joiner.units_completed,
                bytes_sent,
                bytes_received
            );
        }
        other => panic!("unexpected detail {other:?}"),
    }
}
