//! # grasp-net — socket execution backend with dynamic pool membership
//!
//! The process backend put workers behind a real serialization boundary;
//! this crate puts them behind a real *network* boundary and, more
//! importantly, makes the pool **dynamic** — the closest this reproduction
//! gets to the paper's computational grid, where nodes come and go
//! underneath a running computation:
//!
//! * the master ([`NetBackend`]) listens on a socket; workers **connect**
//!   and pass a registration handshake (a [`grasp_core::wire::WireMsg::Join`]
//!   carrying pid, wire version and a capability mask, answered by
//!   `Welcome` — or refused with `Shutdown`);
//! * a worker may **join mid-run**: it first executes a calibration prefix
//!   of probe units that feeds the shared
//!   [`grasp_core::engine::AdaptationEngine`], so the newcomer is ranked
//!   (and, if slow, demoted) before it receives real units;
//! * a worker may **leave gracefully** (`Goodbye`, drain, release) or by
//!   **dying** (EOF / heartbeat timeout → requeue + [`grasp_core::ResilienceReport`]);
//!   either way unit conservation holds;
//! * everything runs over the [`grasp_core::transport`] traits, so the
//!   same master drives TCP sockets in production and the deterministic
//!   in-memory [`loopback`] network — with scripted per-frame faults — in
//!   tests.
//!
//! ## The worker binary
//!
//! TCP workers are the `grasp-net-worker` binary of the workspace root
//! (`cargo build` produces it); it connects to the endpoint given as its
//! first argument.  The backend resolves the binary through, in order: an
//! explicit [`grasp_core::config::BackendConfig::worker_bin`] path (applied
//! via [`NetBackend::with_config`]), the [`WORKER_BIN_ENV`] environment
//! variable, and a search next to the current executable
//! ([`find_worker_bin`]).
//!
//! ```no_run
//! use grasp_core::{Grasp, GraspConfig, Skeleton, TaskSpec};
//! use grasp_net::NetBackend;
//!
//! let skeleton = Skeleton::farm(TaskSpec::uniform(64, 4.0, 1024, 1024));
//! let report = Grasp::new(GraspConfig::default())
//!     .run(&NetBackend::new(4), &skeleton)
//!     .expect("worker binary built and localhost reachable");
//! assert_eq!(report.outcome.completed, 64);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod loopback;
pub mod worker;

pub use backend::NetBackend;
pub use loopback::{FaultScript, FrameFault, LoopbackNet};

use std::path::PathBuf;

/// Environment variable overriding where the `grasp-net-worker` binary
/// lives (useful when embedding the backend in a foreign build system).
pub const WORKER_BIN_ENV: &str = "GRASP_NET_WORKER_BIN";

/// The file name of the worker binary.
pub const WORKER_BIN_NAME: &str = "grasp-net-worker";

/// Locate the `grasp-net-worker` binary (see
/// [`grasp_proc::locate_worker_bin`]).
pub fn find_worker_bin() -> Option<PathBuf> {
    grasp_proc::locate_worker_bin(WORKER_BIN_ENV, WORKER_BIN_NAME)
}
