//! # grasp-proc — process-isolated execution backend for GRASP skeletons
//!
//! The paper's environment is a *computational grid*: workers are remote OS
//! instances that receive serialized tasks over links, can disappear without
//! unwinding anything, and are observed only through monitoring messages.
//! The shared-memory `ThreadBackend` cannot faithfully exercise any of that
//! — a panicking thread still unwinds through `catch_unwind` in the same
//! address space, and nothing ever has to be serialized.
//!
//! [`ProcBackend`] closes the gap on a single machine:
//!
//! * every worker is a **separate OS process** (the `grasp-proc-worker`
//!   binary) connected to the master by pipes;
//! * tasks and results cross the boundary as versioned, checksummed frames
//!   ([`grasp_core::wire`]) — the serialization cost is real and reported
//!   ([`grasp_core::OutcomeDetail::ProcFarm`]);
//! * workers send per-unit wall observations upstream and the master drives
//!   the backend-neutral [`grasp_core::engine::AdaptationEngine`] in
//!   executor mode, so calibrate → monitor → threshold-*Z* → demote/resample
//!   works unchanged — *demotion closes the worker's channel*;
//! * a hard-killed worker (`kill -9`) is detected by pipe EOF or by its
//!   heartbeats going silent, and its in-flight units are requeued exactly
//!   like the simulated grid's revocation path, so unit conservation and
//!   the [`grasp_core::ResilienceReport`] hold.
//!
//! The master is a pure core behind one threaded driver,
//! [`master::FrameMaster`], which the socket backend (`grasp-net`) drives
//! too; the worker's serve loop is [`worker::serve`], likewise shared.
//!
//! ## The worker binary
//!
//! Workers are a re-exec of [`worker::run_stdio`] packaged as the
//! `grasp-proc-worker` binary of the workspace root (`cargo build` produces
//! it next to every other artefact).  The backend resolves it through, in
//! order: an explicit [`grasp_core::config::BackendConfig::worker_bin`] path
//! (applied via [`ProcBackend::with_config`]), the `WORKER_BIN_ENV`
//! environment variable, and a search next to the current executable
//! ([`find_worker_bin`]).
//!
//! ```no_run
//! use grasp_core::{Grasp, GraspConfig, Skeleton, TaskSpec};
//! use grasp_proc::ProcBackend;
//!
//! let skeleton = Skeleton::farm(TaskSpec::uniform(64, 4.0, 1024, 1024));
//! let report = Grasp::new(GraspConfig::default())
//!     .run(&ProcBackend::new(4), &skeleton)
//!     .expect("worker binary built and healthy");
//! assert_eq!(report.outcome.completed, 64);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod backend;
pub mod master;
pub mod worker;

pub use backend::{ProcBackend, Transport};

use std::path::PathBuf;

/// Environment variable overriding where the `grasp-proc-worker` binary
/// lives (useful when embedding the backend in a foreign build system).
pub(crate) const WORKER_BIN_ENV: &str = "GRASP_PROC_WORKER_BIN";

/// The file name of the worker binary.
pub const WORKER_BIN_NAME: &str = "grasp-proc-worker";

/// Locate the `grasp-proc-worker` binary (see [`locate_worker_bin`]).
pub fn find_worker_bin() -> Option<PathBuf> {
    locate_worker_bin(WORKER_BIN_ENV, WORKER_BIN_NAME)
}

/// Locate the worker binary called `name`: the `env` override first, then
/// a walk from the current executable's directory upwards (covering
/// `target/<profile>/deps` test binaries, `target/<profile>/examples`, and
/// plain `target/<profile>` binaries).  `None` means the worker has not
/// been built yet — run `cargo build` (the workspace builds it by default)
/// or set the environment override.
pub fn locate_worker_bin(env: &str, name: &str) -> Option<PathBuf> {
    if let Ok(p) = std::env::var(env) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..4 {
        let cand = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        if cand.is_file() {
            return Some(cand);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}
