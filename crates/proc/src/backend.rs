//! The process-isolated [`Backend`]: skeletons on worker OS processes.
//!
//! [`ProcBackend`] spawns a fixed pool of `grasp-proc-worker` processes,
//! connects each over a pipe pair (or a shared-memory ring pair) and admits
//! it straight into the shared [`FrameMaster`] — no acceptor, no greeter
//! thread: membership is implied by the spawn.  A worker is configured with
//! an `Init` frame and takes units once its `Hello` arrives.
//! Everything after admission — demand windows, the Algorithm-2 adaptation
//! loop, speculation, death detection by EOF and heartbeat timeout, requeue
//! — is the frame master's, shared with the socket backend.
//!
//! Workers observed only through messages, tasks that exist only as bytes,
//! executors that can vanish without unwinding: this is the paper's grid
//! model made concrete on one machine.

use crate::master::{FrameJob, FrameMaster, FrameSettings, JoinPolicy};
use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::error::GraspError;
use grasp_core::shm::{self, ShmRing};
use grasp_core::skeleton::{Backend, OutcomeDetail, Skeleton, SkeletonOutcome};
use grasp_core::transport::{stream_connection, FrameSink, FrameSource};
use grasp_core::GraspConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The process-isolated execution backend for skeleton expressions.
///
/// Every farm-shaped *and* pipeline-shaped expression is lowered through the
/// shared [`Skeleton::lower_to_farm`] rules to a flat unit list, so unit
/// counts and ids agree with the other backends — what makes cross-backend
/// parity tests possible.  Units execute on worker **processes**: by
/// default the declared work drives the same calibrated spin kernel as the
/// thread backend ([`grasp_core::wire::PAYLOAD_SPIN`]); attach serialized
/// real-kernel payloads with [`ProcBackend::with_payloads`] to make workers
/// compute actual mat-mul bands or imaging frames and report result digests.
#[derive(Debug, Clone)]
pub struct ProcBackend {
    workers: usize,
    /// How frames move between master and workers.
    transport: Transport,
    frame: FrameSettings,
}

/// Which same-host transport carries frames between the master and its
/// worker processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Anonymous pipes over the worker's stdin/stdout (the default).
    #[default]
    Pipes,
    /// A shared-memory ring pair on tmpfs ([`grasp_core::shm`]): no pipe
    /// syscall per frame, frames move through `/dev/shm` pages.
    Shm,
}

impl ProcBackend {
    /// A backend with `workers` worker processes and defaults mirroring
    /// [`grasp_exec::ThreadBackend`] where the knobs coincide.
    pub fn new(workers: usize) -> Self {
        ProcBackend {
            workers: workers.max(1),
            transport: Transport::Pipes,
            frame: FrameSettings::default(),
        }
    }

    /// Select the frame transport between master and workers.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Apply a shared [`BackendConfig`]: the one builder every backend
    /// understands.  Unset fields keep this backend's defaults; a heartbeat
    /// interval of 0 turns heartbeats and the timeout sweep off.  The
    /// `worker_panic_budget` knob has no process analogue — a worker
    /// process dies with its panic and the master's requeue path takes
    /// over — and is ignored.  The plan's [`FaultInjection`] is applied as
    /// by [`ProcBackend::with_fault_injection`].
    pub fn with_config(mut self, cfg: BackendConfig) -> Self {
        self.frame.configure(&cfg);
        self.with_fault_injection(cfg.faults)
    }

    /// Apply a typed [`FaultInjection`] plan, replacing any previously
    /// configured injection outright.  Processes realise `kill` as a
    /// mid-run SIGKILL of the worker (no unwinding, no goodbye frame —
    /// exactly what a revoked grid node looks like); `panics`, `slowdown`
    /// and `join_spawn` have no process-master analogue — a worker panic
    /// *is* a death (use `kill`), and membership is fixed at spawn — and
    /// are ignored.
    pub fn with_fault_injection(mut self, faults: FaultInjection) -> Self {
        self.frame.set_faults(&faults);
        self
    }

    /// Attach serialized real-kernel payloads, `(unit id, payload kind,
    /// payload bytes)` — see [`grasp_workloads::matmul::MatMulJob::wire_payloads`]
    /// and [`grasp_workloads::imaging::ImagePipeline::wire_payloads`].
    /// Units without a payload run the spin kernel.
    pub fn with_payloads(mut self, payloads: Vec<(usize, u32, Vec<u8>)>) -> Self {
        self.frame.add_payloads(payloads);
        self
    }

    /// Spawn worker `w` on the configured transport and hand it to `master`.
    fn spawn(&self, w: usize, bin: &Path, master: &mut FrameMaster) -> Result<(), GraspError> {
        let unavailable = |e: std::io::Error| GraspError::WorkerUnavailable {
            detail: format!("could not spawn {}: {e}", bin.display()),
        };
        let (child, sink, source, ring) = match self.transport {
            Transport::Pipes => {
                let mut child = Command::new(bin)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(unavailable)?;
                let stdin = child.stdin.take().expect("stdin was piped");
                let stdout = child.stdout.take().expect("stdout was piped");
                let (sink, source) = stream_connection(format!("pipe:{w}"), stdin, stdout).split();
                (child, sink, source, None)
            }
            Transport::Shm => {
                let path = shm::ring_path(&format!("w{w}"));
                let ring = ShmRing::create(&path, shm::DEFAULT_RING_CAPACITY)?;
                let child = Command::new(bin)
                    .arg("--shm")
                    .arg(&path)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(unavailable)?;
                let (sink, source) = ring.into_halves(u64::from(child.id()));
                (
                    child,
                    Box::new(sink) as Box<dyn FrameSink>,
                    Box::new(source) as Box<dyn FrameSource>,
                    Some(path),
                )
            }
        };
        master.arrive(u64::from(child.id()), sink, source, Some(child), ring)
    }
}

/// A skeleton bound to the process backend, ready to execute.
#[derive(Debug, Clone)]
pub struct ProcCompiled {
    job: FrameJob,
    worker_bin: PathBuf,
}

impl Backend for ProcBackend {
    type Compiled = ProcCompiled;

    fn name(&self) -> &'static str {
        "proc"
    }

    fn compile(
        &self,
        config: &GraspConfig,
        skeleton: &Skeleton,
    ) -> Result<Self::Compiled, GraspError> {
        let job = FrameJob::lower(config, skeleton)?;
        let worker_bin = self
            .frame
            .worker_bin(crate::WORKER_BIN_ENV, crate::WORKER_BIN_NAME)?;
        Ok(ProcCompiled { job, worker_bin })
    }

    fn execute(
        &self,
        config: &GraspConfig,
        compiled: &Self::Compiled,
    ) -> Result<SkeletonOutcome, GraspError> {
        let mut master = FrameMaster::new(
            &self.frame,
            config,
            &compiled.job,
            self.workers,
            None,
            JoinPolicy::default(),
        );
        for w in 0..self.workers {
            self.spawn(w, &compiled.worker_bin, &mut master)?;
        }
        let run = master.run()?;
        let r = run.report;
        Ok(SkeletonOutcome {
            detail: OutcomeDetail::ProcFarm {
                workers: r.members.len(),
                tasks_per_worker: r.members.iter().map(|m| m.units_completed).collect(),
                bytes_sent: r.bytes_sent,
                bytes_received: r.bytes_received,
                wire_write_s: r.wire_write_s,
                wire_encode_s: r.wire_encode_s,
                bytes_copied: r.bytes_copied,
                unit_digests: r.unit_digests,
            },
            ..run.outcome
        })
    }
}
