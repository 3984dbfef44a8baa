//! The worker side of the socket backend.
//!
//! A network worker is the process backend's pipe worker — the same
//! [`grasp_proc::worker::serve`] loop over the same frame protocol — but its
//! membership is *negotiated* rather than implied by a spawn:
//!
//! 1. connect to the master's endpoint and send [`WireMsg::Join`] (pid,
//!    wire version, capability mask);
//! 2. receive [`WireMsg::Welcome`] (assigned worker id, heartbeat cadence,
//!    spin scale) — or [`WireMsg::Shutdown`] / EOF when the master rejects
//!    the registration;
//! 3. serve [`WireMsg::Task`] frames (the master may lead with calibration
//!    probes before real units when the worker joined mid-run);
//! 4. optionally announce [`WireMsg::Goodbye`] to leave gracefully: the
//!    master stops handing it new units, the worker finishes what is on its
//!    wire, and the master's [`WireMsg::Shutdown`] releases it;
//! 5. exit on [`WireMsg::Shutdown`] or a clean EOF.

use grasp_core::transport::{tcp_connect, FramedConnection};
use grasp_core::wire::{WireMsg, CAP_ALL, WIRE_VERSION};
use grasp_proc::worker::serve;
use std::time::Duration;

/// How a worker presents itself and when (if ever) it leaves voluntarily.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Capability bitmask advertised in the Join frame ([`CAP_ALL`] for the
    /// stock worker; tests narrow it to exercise rejection).
    pub capabilities: u32,
    /// Wire version claimed in the Join frame (the real [`WIRE_VERSION`];
    /// tests bend it to exercise rejection).
    pub wire_version: u32,
    /// Leave gracefully after this many served tasks: the worker sends
    /// [`WireMsg::Goodbye`], keeps serving the tasks already on its wire,
    /// and exits when the master's drain completes.
    pub leave_after: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            capabilities: CAP_ALL,
            wire_version: WIRE_VERSION as u32,
            leave_after: None,
        }
    }
}

/// Run the worker protocol over an established connection until the master
/// releases it; returns the process exit code (0 = clean, 2 = protocol
/// breach).  Transport-agnostic: the TCP binary and the loopback tests both
/// land here.  After the `Join` / `Welcome` prologue it is the process
/// worker's [`serve`] loop.
pub fn run_connection(conn: FramedConnection, opts: WorkerOptions) -> i32 {
    let (mut sink, mut source) = conn.split();
    let join = WireMsg::Join {
        pid: u64::from(std::process::id()),
        wire_version: opts.wire_version,
        capabilities: opts.capabilities,
    };
    if sink.send(&join).is_err() {
        eprintln!("grasp-net-worker: could not reach the master");
        return 2;
    }
    match source.recv() {
        Ok(Some(WireMsg::Welcome {
            heartbeat_interval_s,
            spin_per_work_unit,
            ..
        })) => serve(
            sink,
            source,
            heartbeat_interval_s,
            spin_per_work_unit,
            opts.leave_after,
        ),
        // A rejection (version/capability mismatch) is answered with
        // Shutdown or a plain close: not this worker's error.
        Ok(Some(WireMsg::Shutdown)) | Ok(None) => 0,
        Ok(Some(other)) => {
            eprintln!("grasp-net-worker: expected Welcome, got {other:?}");
            2
        }
        Err(e) => {
            eprintln!("grasp-net-worker: {e}");
            2
        }
    }
}

/// Connect to a master at `addr` (retrying briefly while it binds) and run
/// the worker protocol; the body of the `grasp-net-worker` binary.
pub fn run_tcp(addr: &str, opts: WorkerOptions) -> i32 {
    let mut last_err = None;
    for _ in 0..50 {
        match tcp_connect(addr) {
            Ok(conn) => return run_connection(conn, opts),
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    eprintln!(
        "grasp-net-worker: master at {addr} unreachable: {}",
        last_err.map(|e| e.to_string()).unwrap_or_default()
    );
    2
}
