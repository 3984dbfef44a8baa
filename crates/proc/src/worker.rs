//! The worker side of the process-isolated backend.
//!
//! A worker is a freshly exec'd OS process that speaks the
//! [`grasp_core::wire`] protocol over its standard streams: `stdin` carries
//! master → worker frames, `stdout` carries worker → master frames, and
//! `stderr` is left for human-readable diagnostics.  The lifecycle is
//!
//! 1. send [`WireMsg::Hello`];
//! 2. receive [`WireMsg::Init`] (heartbeat cadence, spin scale);
//! 3. loop: execute [`WireMsg::Task`] frames, answering each with
//!    [`WireMsg::Done`] (or [`WireMsg::Failed`] when the payload cannot be
//!    executed — the worker itself survives a bad payload);
//! 4. exit on [`WireMsg::Shutdown`] or a clean `stdin` EOF (the master
//!    closing a demoted worker's channel *is* the shutdown signal).
//!
//! Steps 3–4 are [`serve`], which the socket backend's worker runs too
//! after its own `Join` / `Welcome` prologue.  A dedicated heartbeat thread
//! keeps writing [`WireMsg::Heartbeat`] frames at the configured cadence
//! even while the main thread is deep in a long computation, so the
//! master's liveness timeout only ever fires for processes that are
//! genuinely gone (hard-killed, wedged, or unreachable).

use grasp_core::error::GraspError;
use grasp_core::shm::ShmRing;
use grasp_core::transport::{stream_connection, FrameSink, FrameSource};
use grasp_core::wire::{FrameView, WireMsg, PAYLOAD_IMAGING, PAYLOAD_MATMUL, PAYLOAD_SPIN};
use grasp_workloads::imaging::ImagingFrameTask;
use grasp_workloads::matmul::MatMulBandTask;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Execute one task payload, returning the result digest.
///
/// * [`PAYLOAD_SPIN`] burns the same calibrated spin kernel the thread
///   backend uses, scaled by the unit's declared work (digest 0);
/// * [`PAYLOAD_MATMUL`] / [`PAYLOAD_IMAGING`] decode and run the real
///   `grasp-workloads` kernels, digesting the computed result.
///
/// Unknown kinds and malformed payloads are typed errors — the caller
/// reports them as [`WireMsg::Failed`] and keeps serving.
pub(crate) fn execute_payload(
    kind: u32,
    payload: &[u8],
    work: f64,
    spin_per_work_unit: u64,
) -> Result<u64, GraspError> {
    match kind {
        PAYLOAD_SPIN => {
            let iters = (work.max(0.0) * spin_per_work_unit as f64).round() as u64;
            grasp_exec::spin(iters);
            Ok(0)
        }
        PAYLOAD_MATMUL => Ok(MatMulBandTask::decode(payload)?.digest()),
        PAYLOAD_IMAGING => Ok(ImagingFrameTask::decode(payload)?.digest()),
        other => Err(GraspError::WireProtocol {
            detail: format!("unknown task payload kind {other}"),
        }),
    }
}

/// Run the worker protocol over this process's standard streams until the
/// master shuts it down; returns the process exit code.
///
/// This is the body of the `grasp-proc-worker` binary (absent `--shm`),
/// kept in the library so any binary can embed a worker mode (the "re-exec
/// the current binary" deployment style) by calling it from `main`.
pub fn run_stdio() -> i32 {
    let (sink, source) =
        stream_connection("stdio".to_string(), std::io::stdout(), std::io::stdin()).split();
    run_transport(sink, source)
}

/// Run the worker protocol over the shared-memory ring at `path` (created
/// by a master using [`crate::Transport::Shm`]); returns the process exit
/// code.
pub fn run_shm(path: &str) -> i32 {
    let (sink, source) = match ShmRing::attach(path) {
        Ok(ring) => ring.into_halves(0),
        Err(e) => {
            eprintln!("grasp-proc-worker: {e}");
            return 2;
        }
    };
    run_transport(Box::new(sink), Box::new(source))
}

/// The process worker's protocol over any transport: the `Hello` / `Init`
/// prologue, then [`serve`].
pub(crate) fn run_transport(mut sink: Box<dyn FrameSink>, mut source: Box<dyn FrameSource>) -> i32 {
    let hello = WireMsg::Hello {
        pid: u64::from(std::process::id()),
    };
    if let Err(e) = sink.send(&hello) {
        eprintln!("grasp-proc-worker: {e}");
        return 2;
    }
    // The master speaks Init first; anything else is a protocol breach.
    match source.recv() {
        Ok(Some(WireMsg::Init {
            heartbeat_interval_s,
            spin_per_work_unit,
        })) => serve(sink, source, heartbeat_interval_s, spin_per_work_unit, None),
        Ok(Some(other)) => {
            eprintln!("grasp-proc-worker: expected Init, got {other:?}");
            2
        }
        Ok(None) => 0, // master vanished before configuring us
        Err(e) => {
            eprintln!("grasp-proc-worker: {e}");
            2
        }
    }
}

/// The serve loop every frame worker runs once configured: execute
/// [`WireMsg::Task`] frames, answering each with [`WireMsg::Done`] (or
/// [`WireMsg::Failed`]), until [`WireMsg::Shutdown`] or a clean EOF.
/// Returns the process exit code (0 = clean, 2 = protocol breach).
///
/// With `heartbeat_interval_s > 0` a side thread writes
/// [`WireMsg::Heartbeat`] frames at that cadence even while the main thread
/// is deep in a long computation; it stops when this function returns.
/// With `leave_after = Some(n)` the worker announces [`WireMsg::Goodbye`]
/// after serving `n` tasks, keeps serving what is already on its wire, and
/// exits when the master's drain releases it.
///
/// Task frames are taken off the wire as borrowed [`FrameView`]s: the
/// payload bytes are executed straight out of the source's reused read
/// buffer, so a worker's steady state does not allocate per task beyond
/// what the kernel itself needs.
pub fn serve(
    sink: Box<dyn FrameSink>,
    mut source: Box<dyn FrameSource>,
    heartbeat_interval_s: f64,
    spin_per_work_unit: u64,
    leave_after: Option<usize>,
) -> i32 {
    let sink = Arc::new(Mutex::new(sink));
    let send = |msg: &WireMsg| {
        let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.send(msg).is_ok()
    };
    // Make sure the heartbeat thread winds down on every exit path.
    struct StopOnExit(Arc<AtomicBool>);
    impl Drop for StopOnExit {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let _stop_guard = StopOnExit(Arc::clone(&stop));
    if heartbeat_interval_s > 0.0 {
        let out = Arc::clone(&sink);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs_f64(heartbeat_interval_s));
                let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
                if stop.load(Ordering::Relaxed) || out.send(&WireMsg::Heartbeat).is_err() {
                    break;
                }
            }
        });
    }
    let mut served = 0usize;
    loop {
        let reply = match source.recv_view() {
            Ok(Some(FrameView::Task {
                unit_id,
                work,
                kind,
                payload,
            })) => {
                let t0 = Instant::now();
                match execute_payload(kind, payload, work, spin_per_work_unit) {
                    Ok(digest) => WireMsg::Done {
                        unit_id,
                        elapsed_s: t0.elapsed().as_secs_f64(),
                        digest,
                    },
                    Err(e) => WireMsg::Failed {
                        unit_id,
                        detail: e.to_string(),
                    },
                }
            }
            Ok(Some(FrameView::Shutdown)) | Ok(None) => return 0,
            Ok(Some(other)) => {
                eprintln!("grasp worker: unexpected frame {other:?}");
                return 2;
            }
            Err(e) => {
                eprintln!("grasp worker: {e}");
                return 2;
            }
        };
        if !send(&reply) {
            return 0; // master gone; nothing left to serve
        }
        served += 1;
        if leave_after.map(|n| n.max(1)) == Some(served) {
            let goodbye = WireMsg::Goodbye {
                reason: format!("leaving voluntarily after {served} tasks"),
            };
            if !send(&goodbye) {
                return 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::wire::fnv1a_64;
    use grasp_workloads::imaging::ImagePipeline;
    use grasp_workloads::matmul::MatMulJob;

    #[test]
    fn spin_payloads_execute_with_zero_digest() {
        assert_eq!(execute_payload(PAYLOAD_SPIN, &[], 2.0, 10).unwrap(), 0);
        assert_eq!(execute_payload(PAYLOAD_SPIN, &[], -1.0, 10).unwrap(), 0);
    }

    #[test]
    fn real_payloads_execute_to_the_reference_digest() {
        let job = MatMulJob::small();
        let task = job.band_task(1);
        let digest = execute_payload(PAYLOAD_MATMUL, &task.encode(), 1.0, 1).unwrap();
        assert_eq!(digest, task.digest());

        let p = ImagePipeline::small();
        let task = ImagingFrameTask {
            pipeline: p,
            frame: 0,
        };
        let digest = execute_payload(PAYLOAD_IMAGING, &task.encode(), 1.0, 1).unwrap();
        assert_eq!(digest, task.digest());
        assert_ne!(digest, fnv1a_64(b""), "a real frame hashes non-trivially");
    }

    #[test]
    fn bad_payloads_are_typed_errors_not_panics() {
        assert!(execute_payload(PAYLOAD_MATMUL, &[1, 2, 3], 1.0, 1).is_err());
        assert!(execute_payload(PAYLOAD_IMAGING, &[], 1.0, 1).is_err());
        assert!(execute_payload(999, &[], 1.0, 1).is_err());
    }
}
