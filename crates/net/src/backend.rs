//! The socket [`Backend`]: skeletons on a dynamically-membered worker pool.
//!
//! Where the process backend *spawns* its pool, the network master only
//! ever *accepts* it: workers connect to an endpoint, register with a
//! `Join` (pid, wire version, capability mask), and are admitted — or
//! refused — by the handshake.  That one inversion makes membership
//! dynamic: dispatch begins once the first `wait_for` workers registered
//! (or the join timeout fails the run); later registrations are mid-run
//! joiners, ranked by a calibration prefix before they get real units.
//! Tests can park joiners until a scripted number of results
//! ([`NetBackend::with_hold_joins_until`]), and TCP mode can spawn extra
//! workers mid-run (the `join_spawn` fault).  A worker leaves gracefully
//! (`Goodbye`, drain, `Shutdown`: nothing requeued) or by dying (EOF, torn
//! frame or heartbeat timeout: its window is requeued to the survivors).
//!
//! This module only sets the [`JoinPolicy`] and reports the run as
//! [`OutcomeDetail::NetFarm`]; the [`FrameMaster`] accepts, handshakes and
//! does the rest.  Pointing it at a [`TcpAcceptor`] gives the production
//! deployment; pointing it at the in-memory loopback acceptor gives the
//! deterministic fault-injection tests — same code, byte-identical frames.
//! At each run's orderly end the acceptor is handed back, so the
//! membership endpoint outlives the job.

use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::error::GraspError;
use grasp_core::skeleton::{Backend, OutcomeDetail, Skeleton, SkeletonOutcome};
use grasp_core::transport::{Acceptor, TcpAcceptor};
use grasp_core::wire::{payload_capability, CAP_SPIN};
use grasp_core::GraspConfig;
use grasp_proc::master::{FrameJob, FrameMaster, FrameSettings, JoinPolicy};
use std::path::PathBuf;
use std::sync::Mutex;

/// Listener bind address in TCP mode (port 0 = OS-assigned).
const BIND_ADDR: &str = "127.0.0.1:0";

/// Master-clock seconds to wait for the first `wait_for` registrations
/// before the run fails.
const JOIN_TIMEOUT_S: f64 = 30.0;

/// The socket execution backend with dynamic pool membership.
///
/// Two construction modes share all the machinery:
///
/// * [`NetBackend::new`] — production shape: bind a TCP listener on
///   127.0.0.1 (OS-assigned port), spawn `workers` local `grasp-net-worker`
///   processes pointed at it, and optionally spawn late joiners mid-run
///   (the [`FaultInjection`] `join_spawn` plan);
/// * [`NetBackend::over`] — harness shape: run the same master over an
///   externally supplied [`Acceptor`] (the loopback test network), spawning
///   nothing; the test owns the workers.
pub struct NetBackend {
    /// When dispatch begins and how the pool grows (`join_spawn`: TCP mode).
    policy: JoinPolicy,
    /// Local worker processes to spawn at launch (TCP mode only).
    spawn_workers: usize,
    /// Externally supplied acceptor (harness mode); taken by each execute
    /// and put back at orderly shutdown, so consecutive jobs share one
    /// membership endpoint.
    acceptor: Mutex<Option<Box<dyn Acceptor>>>,
    /// Probe units a mid-run joiner must complete before real units
    /// (`None` → the calibration sample count).
    join_calibration_units: Option<usize>,
    frame: FrameSettings,
}

impl std::fmt::Debug for NetBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetBackend")
            .field("wait_for", &self.policy.wait_for)
            .field("spawn_workers", &self.spawn_workers)
            .finish_non_exhaustive()
    }
}

impl NetBackend {
    fn base(wait_for: usize) -> Self {
        NetBackend {
            policy: JoinPolicy {
                wait_for: wait_for.max(1),
                join_timeout_s: JOIN_TIMEOUT_S,
                ..JoinPolicy::default()
            },
            spawn_workers: 0,
            acceptor: Mutex::new(None),
            join_calibration_units: None,
            frame: FrameSettings::default(),
        }
    }

    /// TCP mode: bind a listener, spawn `workers` local worker processes
    /// pointed at it, and start dispatching once all of them registered.
    pub fn new(workers: usize) -> Self {
        let mut b = NetBackend::base(workers);
        b.spawn_workers = b.policy.wait_for;
        b
    }

    /// Harness mode: run the master over an external [`Acceptor`] (the
    /// loopback network), dispatching once `wait_for` workers registered.
    /// Spawns nothing; the caller owns the worker ends.  The acceptor is
    /// reused across executes (returned at each run's orderly shutdown), so
    /// the membership substrate outlives any single job.
    pub fn over(acceptor: Box<dyn Acceptor>, wait_for: usize) -> Self {
        let b = NetBackend::base(wait_for);
        *b.acceptor.lock().unwrap_or_else(|e| e.into_inner()) = Some(acceptor);
        b
    }

    /// Apply a shared [`BackendConfig`]: the one builder every backend
    /// understands.  Unset fields keep this backend's defaults; a heartbeat
    /// interval of 0 turns worker heartbeats *and* the timeout sweep off
    /// (deaths are then detected by socket EOF / frame errors only, which
    /// keeps loopback frame indices deterministic).  The
    /// `worker_panic_budget` knob has no socket analogue — a worker process
    /// dies with its panic and the requeue path takes over — and is
    /// ignored.  The plan's [`FaultInjection`] is applied as by
    /// [`NetBackend::with_fault_injection`].
    pub fn with_config(mut self, cfg: BackendConfig) -> Self {
        self.frame.configure(&cfg);
        self.with_fault_injection(cfg.faults)
    }

    /// Apply a typed [`FaultInjection`] plan, replacing any previously
    /// configured injection outright.  Sockets realise `kill` as a mid-run
    /// SIGKILL of the member's process (TCP mode) and `join_spawn` as the
    /// dynamic-membership driver (spawn extra workers once `after_results`
    /// units completed); `panics` and `slowdown` have no socket-master
    /// analogue and are ignored.
    pub fn with_fault_injection(mut self, faults: FaultInjection) -> Self {
        self.frame.set_faults(&faults);
        self.policy.join_spawn = faults.join_spawn.map(|j| (j.after_results, j.extra.max(1)));
        self
    }

    /// Override how many probe units a mid-run joiner must complete before
    /// it receives real units (default: the calibration sample count).
    pub fn with_join_calibration_units(mut self, units: usize) -> Self {
        self.join_calibration_units = Some(units);
        self
    }

    /// Park connections beyond the first `wait_for` until `results` units
    /// have completed, then admit them — pins down "joined mid-run" for
    /// deterministic loopback tests (a parked joiner is admitted early if
    /// the pool would otherwise starve).
    pub fn with_hold_joins_until(mut self, results: usize) -> Self {
        self.policy.hold_joins_until = Some(results);
        self
    }

    /// Attach serialized real-kernel payloads, `(unit id, payload kind,
    /// payload bytes)`; units without a payload run the spin kernel.
    pub fn with_payloads(mut self, payloads: Vec<(usize, u32, Vec<u8>)>) -> Self {
        self.frame.add_payloads(payloads);
        self
    }

    /// Whether this backend spawns worker processes of its own.
    fn spawns_workers(&self) -> bool {
        self.spawn_workers > 0 || self.policy.join_spawn.is_some()
    }
}

/// A skeleton bound to the socket backend, ready to execute.
#[derive(Debug, Clone)]
pub struct NetCompiled {
    job: FrameJob,
    /// Resolved worker binary — present only when this run spawns workers.
    worker_bin: Option<PathBuf>,
    /// Capabilities a joiner must advertise to serve this job.
    required_caps: u32,
}

impl Backend for NetBackend {
    type Compiled = NetCompiled;

    fn name(&self) -> &'static str {
        "net"
    }

    fn compile(
        &self,
        config: &GraspConfig,
        skeleton: &Skeleton,
    ) -> Result<Self::Compiled, GraspError> {
        let job = FrameJob::lower(config, skeleton)?;
        let worker_bin = self
            .spawns_workers()
            .then(|| {
                self.frame
                    .worker_bin(crate::WORKER_BIN_ENV, crate::WORKER_BIN_NAME)
            })
            .transpose()?;
        // Every job needs the spin capability (calibration probes are spin
        // units) plus whatever kernels its payloads reference.
        let required_caps = self
            .frame
            .payload_kinds()
            .fold(CAP_SPIN, |caps, kind| caps | payload_capability(kind));
        Ok(NetCompiled {
            job,
            worker_bin,
            required_caps,
        })
    }

    fn execute(
        &self,
        config: &GraspConfig,
        compiled: &Self::Compiled,
    ) -> Result<SkeletonOutcome, GraspError> {
        let external = self
            .acceptor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let was_external = external.is_some();
        let acceptor: Box<dyn Acceptor> = match external {
            Some(a) => a,
            None if self.spawns_workers() => Box::new(TcpAcceptor::bind(BIND_ADDR)?),
            None => {
                return Err(GraspError::WorkerUnavailable {
                    detail: "no acceptor available: a previous execute ended without \
                             returning the harness acceptor (failed run), and the \
                             backend spawns no workers of its own"
                        .to_string(),
                })
            }
        };
        let mut master = FrameMaster::new(
            &self.frame,
            config,
            &compiled.job,
            self.policy.wait_for,
            self.join_calibration_units,
            self.policy,
        );
        master.listen(
            acceptor,
            compiled.required_caps,
            compiled.worker_bin.clone(),
            self.spawn_workers,
        )?;
        let run = master.run()?;
        // The acceptor comes back at the run's orderly end, so the
        // membership substrate outlives the job: the next execute listens
        // on the same endpoint and fresh workers can join the next job.
        if was_external {
            *self.acceptor.lock().unwrap_or_else(|e| e.into_inner()) = run.acceptor;
        }
        let r = run.report;
        Ok(SkeletonOutcome {
            detail: OutcomeDetail::NetFarm {
                workers: r.members.len(),
                tasks_per_worker: r.members.iter().map(|m| m.units_completed).collect(),
                rejected_joins: r.rejected_joins,
                bytes_sent: r.bytes_sent,
                bytes_received: r.bytes_received,
                wire_write_s: r.wire_write_s,
                wire_encode_s: r.wire_encode_s,
                bytes_copied: r.bytes_copied,
                unit_digests: r.unit_digests,
                members: r.members,
            },
            ..run.outcome
        })
    }
}
