//! The socket [`Backend`]: skeletons on a dynamically-membered worker pool.
//!
//! Where the process backend *spawns* its pool (membership is implied by
//! fork), the network master only ever *accepts* it: workers connect to an
//! endpoint, introduce themselves with a [`WireMsg::Join`] (pid, wire
//! version, capability mask), and are admitted — or refused — by a
//! registration handshake.  That one inversion is what makes membership
//! dynamic:
//!
//! * **join at any time** — an acceptor thread polls the endpoint and a
//!   greeter thread per connection checks the `Join`, so a peer that stalls
//!   mid-handshake cannot block the others.  Dispatch begins once the
//!   first `wait_for` workers registered (or the join timeout fails the
//!   run); later registrations are mid-run joiners, which the master ranks
//!   with a calibration prefix before trusting them with real units.
//!   Tests can park joiners until a scripted number of results
//!   ([`NetBackend::with_hold_joins_until`]), and TCP mode can spawn extra
//!   workers mid-run (the `join_spawn` fault);
//! * **leave gracefully** — a worker announces [`WireMsg::Goodbye`], stops
//!   receiving new units, finishes the window it already holds, and is
//!   released with a [`WireMsg::Shutdown`]: nothing is requeued, nothing is
//!   lost;
//! * **leave by dying** — a socket EOF, a truncated frame, or a heartbeat
//!   timeout requeues the worker's in-flight units to the survivors, counts
//!   the loss in the [`grasp_core::ResilienceReport`], and tells the engine.
//!
//! The master loop itself is the process backend's: this module only
//! decides how members arrive and reports the run as
//! [`OutcomeDetail::NetFarm`]; the [`FrameMaster`] does the rest — demand
//! windows, the Algorithm-2 calibrate → monitor → demote/resample cycle,
//! bounded per-unit attempts, first-completion-wins dedup, tail
//! speculation, Goodbye drains and deaths.  Pointing it at a
//! [`TcpAcceptor`] gives the production deployment; pointing it at the
//! in-memory loopback acceptor gives the deterministic fault-injection
//! tests — same code, byte-identical frames.  At each run's orderly end the
//! acceptor is handed back, so the membership endpoint outlives the job.

use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::error::GraspError;
use grasp_core::skeleton::{Backend, OutcomeDetail, Skeleton, SkeletonOutcome};
use grasp_core::transport::{Acceptor, TcpAcceptor};
use grasp_core::wire::{payload_capability, WireMsg, CAP_SPIN, WIRE_VERSION};
use grasp_core::GraspConfig;
use grasp_proc::master::{
    Arrival, Event, FrameJob, FrameMaster, FrameReport, FrameSettings, Membership,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The socket execution backend with dynamic pool membership.
///
/// Two construction modes share all the machinery:
///
/// * [`NetBackend::new`] — production shape: bind a TCP listener
///   (127.0.0.1 by default), spawn `workers` local `grasp-net-worker`
///   processes pointed at it, and optionally spawn late joiners mid-run
///   (the [`FaultInjection`] `join_spawn` plan);
/// * [`NetBackend::over`] — harness shape: run the same master over an
///   externally supplied [`Acceptor`] (the loopback test network), spawning
///   nothing; the test owns the workers.
pub struct NetBackend {
    /// Registrations required before dispatch begins.
    wait_for: usize,
    /// Local worker processes to spawn at launch (TCP mode only).
    spawn_workers: usize,
    /// Listener bind address (TCP mode; port 0 = OS-assigned).
    bind_addr: String,
    /// Externally supplied acceptor (harness mode); taken by each execute
    /// and put back at orderly shutdown, so consecutive jobs share one
    /// membership endpoint.
    acceptor: Mutex<Option<Box<dyn Acceptor>>>,
    /// Probe units a mid-run joiner must complete before real units
    /// (`None` → the calibration sample count).
    join_calibration_units: Option<usize>,
    /// Seconds to wait for the first `wait_for` registrations.
    join_timeout_s: f64,
    /// Spawn `.1` extra workers once `.0` units have completed (TCP mode's
    /// dynamic-join driver).
    join_spawn: Option<(usize, usize)>,
    /// Park connections beyond `wait_for` until this many units have
    /// completed — makes "joined mid-run" deterministic in tests.
    hold_joins_until: Option<usize>,
    frame: FrameSettings,
}

impl std::fmt::Debug for NetBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetBackend")
            .field("wait_for", &self.wait_for)
            .field("spawn_workers", &self.spawn_workers)
            .field("bind_addr", &self.bind_addr)
            .finish_non_exhaustive()
    }
}

impl NetBackend {
    fn base(wait_for: usize) -> Self {
        NetBackend {
            wait_for: wait_for.max(1),
            spawn_workers: 0,
            bind_addr: "127.0.0.1:0".to_string(),
            acceptor: Mutex::new(None),
            join_calibration_units: None,
            join_timeout_s: 30.0,
            join_spawn: None,
            hold_joins_until: None,
            frame: FrameSettings::default(),
        }
    }

    /// TCP mode: bind a listener, spawn `workers` local worker processes
    /// pointed at it, and start dispatching once all of them registered.
    pub fn new(workers: usize) -> Self {
        let mut b = NetBackend::base(workers);
        b.spawn_workers = b.wait_for;
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

    /// Bind the listener to an explicit address (TCP mode; default
    /// `127.0.0.1:0`).
    pub fn with_bind_addr(mut self, addr: impl Into<String>) -> Self {
        self.bind_addr = addr.into();
        self
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
        self.join_spawn = faults.join_spawn.map(|j| (j.after_results, j.extra.max(1)));
        self
    }

    /// Override how many probe units a mid-run joiner must complete before
    /// it receives real units (default: the calibration sample count).
    pub fn with_join_calibration_units(mut self, units: usize) -> Self {
        self.join_calibration_units = Some(units);
        self
    }

    /// Override how long the master waits for the first `wait_for`
    /// registrations before failing the run.
    pub fn with_join_timeout(mut self, timeout_s: f64) -> Self {
        self.join_timeout_s = timeout_s.max(1e-3);
        self
    }

    /// Park connections beyond the first `wait_for` until `results` units
    /// have completed, then admit them — pins down "joined mid-run" for
    /// deterministic loopback tests (a parked joiner is admitted early if
    /// the pool would otherwise starve).
    pub fn with_hold_joins_until(mut self, results: usize) -> Self {
        self.hold_joins_until = Some(results);
        self
    }

    /// Attach serialized real-kernel payloads, `(unit id, payload kind,
    /// payload bytes)`; units without a payload run the spin kernel.
    pub fn with_payloads(mut self, payloads: Vec<(usize, u32, Vec<u8>)>) -> Self {
        self.frame.add_payloads(payloads);
        self
    }

    /// Registrations required before dispatch begins.
    pub fn wait_for(&self) -> usize {
        self.wait_for
    }

    /// Whether this backend spawns worker processes of its own.
    fn spawns_workers(&self) -> bool {
        self.spawn_workers > 0 || self.join_spawn.is_some()
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
            None if self.spawns_workers() => Box::new(TcpAcceptor::bind(self.bind_addr.as_str())?),
            None => {
                return Err(GraspError::WorkerUnavailable {
                    detail: "no acceptor available: a previous execute ended without \
                             returning the harness acceptor (failed run), and the \
                             backend spawns no workers of its own"
                        .to_string(),
                })
            }
        };
        // The acceptor comes back through this channel when the run's
        // membership is dropped and stops the acceptor thread, so the
        // membership substrate outlives the job: the next execute listens
        // on the same endpoint and fresh workers can join the next job.
        let (recycle_tx, recycle_rx) = mpsc::channel();
        let master = FrameMaster::new(
            &self.frame,
            config,
            &compiled.job,
            self.wait_for,
            self.join_calibration_units,
        );
        let outcome = Joins::launch(self, compiled, &master, acceptor, recycle_tx)
            .and_then(|mut joins| master.run(&mut joins));
        if was_external && outcome.is_ok() {
            if let Ok(recycled) = recycle_rx.recv_timeout(Duration::from_secs(5)) {
                *self.acceptor.lock().unwrap_or_else(|e| e.into_inner()) = Some(recycled);
            }
        }
        outcome
    }
}

/// The socket backend's membership: registrations arrive from the acceptor
/// and greeter threads; connections beyond the founders may be parked until
/// the scripted join point; extra workers may be spawned mid-run.  Dropping
/// it stops the acceptor thread (which hands the acceptor back), drops the
/// parked connections (EOF at those workers) and reaps spawned processes
/// that never registered.
struct Joins<'a> {
    backend: &'a NetBackend,
    endpoint: String,
    worker_bin: Option<&'a Path>,
    /// Connections held back by `hold_joins_until`, admitted later.
    held: Vec<Arrival>,
    join_spawn: Option<(usize, usize)>,
    /// Spawned processes that have not yet registered (claimed by pid at
    /// admission).
    unclaimed: Vec<Child>,
    stop_accept: Arc<AtomicBool>,
}

impl<'a> Joins<'a> {
    fn launch(
        backend: &'a NetBackend,
        compiled: &'a NetCompiled,
        master: &FrameMaster<'_>,
        acceptor: Box<dyn Acceptor>,
        recycle: mpsc::Sender<Box<dyn Acceptor>>,
    ) -> Result<Self, GraspError> {
        let mut joins = Joins {
            backend,
            endpoint: acceptor.endpoint(),
            worker_bin: compiled.worker_bin.as_deref(),
            held: Vec::new(),
            join_spawn: backend.join_spawn,
            unclaimed: Vec::new(),
            stop_accept: Arc::new(AtomicBool::new(false)),
        };
        spawn_acceptor_thread(
            acceptor,
            master.events(),
            Arc::clone(&joins.stop_accept),
            compiled.required_caps,
            recycle,
        );
        for _ in 0..backend.spawn_workers {
            joins.spawn_worker()?;
        }
        Ok(joins)
    }

    /// Spawn one local worker process pointed at the endpoint; it becomes a
    /// member only once its Join passes the handshake.
    fn spawn_worker(&mut self) -> Result<(), GraspError> {
        let bin = self
            .worker_bin
            .ok_or_else(|| GraspError::WorkerUnavailable {
                detail: "no worker binary resolved (harness-mode backends spawn nothing)"
                    .to_string(),
            })?;
        let child = Command::new(bin)
            .arg(&self.endpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| GraspError::WorkerUnavailable {
                detail: format!("could not spawn {}: {e}", bin.display()),
            })?;
        self.unclaimed.push(child);
        Ok(())
    }

    /// Admit a registration, handing it the spawned process that claimed
    /// its pid (kill injection, cleanup).
    fn admit(&mut self, master: &mut FrameMaster<'_>, mut arrival: Arrival) {
        if let Some(at) = self
            .unclaimed
            .iter()
            .position(|c| u64::from(c.id()) == arrival.pid)
        {
            arrival.child = Some(self.unclaimed.swap_remove(at));
        }
        master.admit(arrival);
    }

    /// Admit everything parked (join point reached, or the pool would
    /// starve without them).
    fn release_held(&mut self, master: &mut FrameMaster<'_>) {
        for arrival in std::mem::take(&mut self.held) {
            self.admit(master, arrival);
        }
    }
}

impl Membership for Joins<'_> {
    fn joined(&mut self, master: &mut FrameMaster<'_>, arrival: Arrival) {
        let hold = self
            .backend
            .hold_joins_until
            .is_some_and(|k| master.admitted() >= self.backend.wait_for && master.completed() < k);
        if hold {
            self.held.push(arrival);
        } else {
            self.admit(master, arrival);
        }
    }

    fn may_start(&mut self, master: &FrameMaster<'_>) -> Result<bool, GraspError> {
        if master.live() >= self.backend.wait_for {
            return Ok(true);
        }
        if master.elapsed_s() > self.backend.join_timeout_s {
            return Err(GraspError::WorkerUnavailable {
                detail: format!(
                    "only {} of {} workers registered at {} within {:.1}s",
                    master.live(),
                    self.backend.wait_for,
                    self.endpoint,
                    self.backend.join_timeout_s
                ),
            });
        }
        Ok(false)
    }

    fn turn(&mut self, master: &mut FrameMaster<'_>) -> Result<(), GraspError> {
        if !master.started() {
            return Ok(());
        }
        if self
            .backend
            .hold_joins_until
            .is_some_and(|k| master.completed() >= k)
        {
            self.release_held(master);
        }
        if let Some((after, extra)) = self.join_spawn {
            if master.completed() >= after {
                self.join_spawn = None;
                for _ in 0..extra {
                    self.spawn_worker()?;
                }
            }
        }
        Ok(())
    }

    fn starved(&mut self, master: &mut FrameMaster<'_>) -> bool {
        if self.held.is_empty() {
            return false;
        }
        self.release_held(master);
        true
    }

    fn detail(&self, r: FrameReport) -> OutcomeDetail {
        OutcomeDetail::NetFarm {
            workers: r.workers,
            tasks_per_worker: r.tasks_per_worker,
            rejected_joins: r.rejected_joins,
            bytes_sent: r.bytes_sent,
            bytes_received: r.bytes_received,
            wire_write_s: r.wire_write_s,
            wire_encode_s: r.wire_encode_s,
            bytes_copied: r.bytes_copied,
            unit_digests: r.unit_digests,
            members: r.members,
        }
    }
}

impl Drop for Joins<'_> {
    fn drop(&mut self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        for mut child in self.unclaimed.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Poll the acceptor until the run ends; each fresh connection gets a
/// greeter thread so a peer that stalls mid-handshake cannot block
/// admission of the others.  When the run stops accepting, the acceptor is
/// handed back through `recycle` so the backend can listen on the same
/// endpoint for the next job (members — the membership substrate — outlive
/// any single run).
fn spawn_acceptor_thread(
    mut acceptor: Box<dyn Acceptor>,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
    required_caps: u32,
    recycle: mpsc::Sender<Box<dyn Acceptor>>,
) {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match acceptor.poll_accept() {
                Ok(Some(conn)) => {
                    let tx = tx.clone();
                    std::thread::spawn(move || greet(conn, required_caps, tx));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let _ = recycle.send(acceptor);
    });
}

/// The registration handshake, connection side: the first frame must be a
/// Join with the master's wire version and the job's required capabilities;
/// anything else is answered with Shutdown and refused.
fn greet(
    conn: grasp_core::transport::FramedConnection,
    required_caps: u32,
    tx: mpsc::Sender<Event>,
) {
    let peer = conn.peer().to_string();
    let (mut sink, mut source) = conn.split();
    let admitted = match source.recv() {
        Ok(Some(WireMsg::Join {
            pid,
            wire_version,
            capabilities,
        })) => (wire_version == WIRE_VERSION as u32
            && capabilities & required_caps == required_caps)
            .then_some(pid),
        _ => None,
    };
    match admitted {
        Some(pid) => {
            let _ = tx.send(Event::Joined(Arrival {
                peer,
                pid,
                sink,
                source,
                child: None,
                ring: None,
                joined: true,
            }));
        }
        None => {
            let _ = sink.send(&WireMsg::Shutdown);
            let _ = tx.send(Event::Rejected);
        }
    }
}
