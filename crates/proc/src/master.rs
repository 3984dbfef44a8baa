//! The one frame master: the paper's calibrate → execute → monitor → adapt
//! cycle (Algorithm 2) for workers that speak [`grasp_core::wire`] frames,
//! whatever carries the frames and however the workers arrive.
//!
//! `MasterCore` (`master/core.rs`) makes every decision and touches
//! nothing: fed `(now, Input)`, it returns `Output`s.  [`FrameMaster`] is
//! the threaded driver that carries them out — one reader and one writer
//! thread per member, an event channel, a wall clock, and a link table
//! owning the frame halves, processes and shared-memory rings — and reports
//! a refused send back as `Input::Undelivered`.  The process backend hands the driver its
//! spawned links ([`FrameMaster::arrive`]); the socket backend lets it
//! accept and handshake them during the run ([`FrameMaster::listen`]).
//! Each maps the returned [`FrameReport`] to its own `OutcomeDetail`.

mod core;

pub use self::core::{FrameReport, JoinPolicy};

use self::core::{Input, MasterCore, Output};

use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::engine::WallClock;
use grasp_core::error::GraspError;
use grasp_core::shm::ShmRing;
use grasp_core::skeleton::{Skeleton, SkeletonOutcome, UnitSpan};
use grasp_core::transport::{
    spawn_frame_writer, Acceptor, FrameSink, FrameSource, FramedConnection, OutMsg, WireCounters,
};
use grasp_core::wire::{WireMsg, WIRE_VERSION};
use grasp_core::{GraspConfig, SkeletonKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// The knobs every frame-speaking backend shares, set through
/// [`BackendConfig`], [`FaultInjection`] and the payload builder.
#[derive(Debug, Clone)]
pub struct FrameSettings {
    /// Explicit worker binary (otherwise the surface's search).
    worker_bin: Option<PathBuf>,
    /// Spin iterations per declared work unit for spin units and probes.
    spin_per_work_unit: u64,
    /// Explicit override of the config's calibration sample count.
    calibration_samples: Option<usize>,
    /// How often workers report liveness; 0 turns heartbeats and the
    /// timeout sweep off (liveness is then EOF-only).
    heartbeat_interval_s: f64,
    /// Silence longer than this declares a worker dead.
    heartbeat_timeout_s: f64,
    /// Bounded dispatches per unit before the run fails.
    max_task_attempts: usize,
    /// SIGKILL member `.0`'s process after it has delivered `.1` results.
    kill_injection: Option<(usize, usize)>,
    /// Real-kernel payloads by unit id (absent units run the spin kernel);
    /// `Arc` so dispatch clones a pointer, not the bytes.
    payloads: HashMap<usize, (u32, Arc<[u8]>)>,
}

impl Default for FrameSettings {
    fn default() -> Self {
        FrameSettings {
            worker_bin: None,
            spin_per_work_unit: 500,
            calibration_samples: None,
            heartbeat_interval_s: 0.25,
            heartbeat_timeout_s: 5.0,
            max_task_attempts: 3,
            kill_injection: None,
            payloads: HashMap::new(),
        }
    }
}

impl FrameSettings {
    /// Apply the fields of a [`BackendConfig`] a frame master understands;
    /// unset fields keep their values.  A heartbeat interval of 0 turns
    /// worker heartbeats and the timeout sweep off; otherwise the timeout
    /// is at least ten intervals.  The fault plan is not applied here
    /// (see [`FrameSettings::set_faults`]).
    pub fn configure(&mut self, cfg: &BackendConfig) {
        if let Some(samples) = cfg.calibration_samples {
            self.calibration_samples = Some(samples);
        }
        if let Some(iters) = cfg.spin_per_work_unit {
            self.spin_per_work_unit = iters.max(1);
        }
        if let Some(attempts) = cfg.max_task_attempts {
            self.max_task_attempts = attempts.max(1);
        }
        if let Some((interval_s, timeout_s)) = cfg.heartbeat {
            self.heartbeat_interval_s = if interval_s > 0.0 {
                interval_s.max(1e-3)
            } else {
                0.0
            };
            self.heartbeat_timeout_s = timeout_s.max(10.0 * self.heartbeat_interval_s).max(1e-3);
        }
        if let Some(path) = &cfg.worker_bin {
            self.worker_bin = Some(path.clone());
        }
    }

    /// Apply a fault plan's `kill` — a mid-run SIGKILL of the member's
    /// process, replacing any earlier one.  Members without a spawned
    /// process are unaffected.
    pub fn set_faults(&mut self, faults: &FaultInjection) {
        self.kill_injection = faults.kill.map(|k| (k.worker, k.after_results));
    }

    /// Attach serialized real-kernel payloads, `(unit id, payload kind,
    /// payload bytes)`; units without a payload run the spin kernel.
    pub fn add_payloads(&mut self, payloads: Vec<(usize, u32, Vec<u8>)>) {
        for (id, kind, bytes) in payloads {
            self.payloads.insert(id, (kind, bytes.into()));
        }
    }

    /// The payload kinds the attached payloads use.
    pub fn payload_kinds(&self) -> impl Iterator<Item = u32> + '_ {
        self.payloads.values().map(|(kind, _)| *kind)
    }

    /// Resolve the worker binary: the configured path (which must exist),
    /// or else [`crate::locate_worker_bin`] for `env` and `name`.
    pub fn worker_bin(&self, env: &str, name: &str) -> Result<PathBuf, GraspError> {
        match &self.worker_bin {
            Some(p) if p.is_file() => Ok(p.clone()),
            Some(p) => Err(GraspError::WorkerUnavailable {
                detail: format!("worker binary {} does not exist", p.display()),
            }),
            None => {
                crate::locate_worker_bin(env, name).ok_or_else(|| GraspError::WorkerUnavailable {
                    detail: format!(
                        "{name} binary not found near the current executable; \
                         run `cargo build` first or set {env}"
                    ),
                })
            }
        }
    }
}

/// A skeleton lowered for a frame master.
///
/// Every farm-shaped *and* pipeline-shaped expression is lowered through
/// the shared [`Skeleton::lower_to_farm`] rules to a flat unit list (a
/// nested pipeline contributes one unit per stream item carrying the whole
/// per-item stage chain), so unit counts and ids agree with the other
/// backends.
#[derive(Debug, Clone)]
pub struct FrameJob {
    /// Flat unit list `(global id, declared work)`.
    units: Vec<(usize, f64)>,
    /// Composition spans for rebuilding per-child outcomes.
    spans: Vec<UnitSpan>,
    kind: SkeletonKind,
}

impl FrameJob {
    /// Validate `config` and `skeleton` and lower the skeleton.
    pub fn lower(config: &GraspConfig, skeleton: &Skeleton) -> Result<Self, GraspError> {
        config.validate()?;
        skeleton.validate()?;
        let (tasks, spans) = skeleton.lower_to_farm();
        Ok(FrameJob {
            units: tasks.iter().map(|t| (t.id, t.work)).collect(),
            spans,
            kind: skeleton.kind(),
        })
    }
}

/// What reader, acceptor and greeter threads forward to the driver loop.
enum Event {
    /// A connection passed the registration handshake: the worker's pid
    /// and its frame halves.
    Joined(u64, Box<dyn FrameSink>, Box<dyn FrameSource>),
    /// A connection was refused at the handshake.
    Rejected,
    /// A frame from member `.0`.
    Msg(usize, WireMsg),
    /// Member `.0`'s link closed.
    Closed(usize),
}

/// One link, driver side: its frame halves until admission, then its
/// writer thread's channel.  Dropping it closes the channel, kills and
/// reaps its process and unlinks its ring, so no error path leaves an
/// orphan behind.
struct Link {
    pid: u64,
    halves: Option<(Box<dyn FrameSink>, Box<dyn FrameSource>)>,
    /// `None` until admitted, and again once closed.
    tx: Option<mpsc::Sender<OutMsg>>,
    child: Option<Child>,
    ring: Option<PathBuf>,
}

impl Link {
    /// Close the channel first (a live worker exits cleanly), then kill
    /// and reap the process and unlink the ring.
    fn reap(&mut self) {
        self.tx = None;
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(path) = self.ring.take() {
            ShmRing::cleanup(path);
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The driver's I/O state: everything the core's outputs act on.
struct Links {
    /// By link index; a link parked by the core stays here unadmitted.
    table: Vec<Link>,
    /// Member slot → link index.
    members: Vec<usize>,
    /// Cloned into every reader, acceptor and greeter thread.
    events: mpsc::Sender<Event>,
    /// Shared with the writer threads, which account every frame's bytes,
    /// encode and write time, and extra payload copies.
    counters: WireCounters,
    /// Shared with the reader-side sources.
    bytes_received: Arc<AtomicU64>,
    /// Refused sends, fed back to the core last-first, so that units it
    /// puts back at the front of its queue keep their dispatch order.
    undelivered: Vec<Input>,
    /// The acceptor thread while the run listens.
    accepting: Option<JoinHandle<Box<dyn Acceptor>>>,
    /// Tells the acceptor thread to stop and hand its acceptor back.
    stop_accepting: Arc<AtomicBool>,
    /// The endpoint spawned workers connect to.
    endpoint: String,
    /// The binary [`Output::Spawn`] starts.
    worker_bin: Option<PathBuf>,
    /// Spawned processes not yet admitted (claimed by pid at admission).
    unclaimed: Vec<Child>,
}

impl Links {
    /// Carry out one output; `true` once the run is finished.
    fn apply(&mut self, output: Output) -> Result<bool, GraspError> {
        match output {
            Output::Admit(link, member) => self.admit(link, member),
            Output::Send(w, msg) => {
                let link = &mut self.table[self.members[w]];
                let refused = match &link.tx {
                    Some(tx) => tx.send(msg).err().map(|e| e.0),
                    None => Some(msg),
                };
                if let Some(msg) = refused {
                    link.tx = None;
                    self.undelivered.push(Input::Undelivered(w, msg));
                }
            }
            Output::Close(w) => self.table[self.members[w]].tx = None,
            Output::Kill(w) => {
                if let Some(child) = &mut self.table[self.members[w]].child {
                    let _ = child.kill();
                }
            }
            Output::Reap(w) => self.table[self.members[w]].reap(),
            Output::Spawn(n) => {
                for _ in 0..n {
                    self.spawn()?;
                }
            }
            Output::Finished => return Ok(true),
        }
        Ok(false)
    }

    /// Start carrying member `w`'s frames over link `link`: a reader thread
    /// feeding the event channel and a writer thread behind its channel.
    /// A registration claims the spawned process that reported its pid
    /// (kill injection, cleanup).
    fn admit(&mut self, link: usize, w: usize) {
        debug_assert_eq!(w, self.members.len(), "member slots are sequential");
        self.members.push(link);
        let l = &mut self.table[link];
        if l.child.is_none() {
            if let Some(at) = self
                .unclaimed
                .iter()
                .position(|c| u64::from(c.id()) == l.pid)
            {
                l.child = Some(self.unclaimed.swap_remove(at));
            }
        }
        let (sink, mut source) = l.halves.take().expect("a link is admitted once");
        source.set_byte_counter(Arc::clone(&self.bytes_received));
        let events = self.events.clone();
        std::thread::spawn(move || {
            while let Ok(Some(msg)) = source.recv() {
                if events.send(Event::Msg(w, msg)).is_err() {
                    return; // master gone
                }
            }
            let _ = events.send(Event::Closed(w));
        });
        l.tx = Some(spawn_frame_writer(sink, self.counters.clone()));
    }

    /// Spawn one worker process pointed at the endpoint; it becomes a
    /// member only once its Join passes the handshake.
    fn spawn(&mut self) -> Result<(), GraspError> {
        let bin = self
            .worker_bin
            .as_ref()
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
}

impl Drop for Links {
    /// Stop accepting (the acceptor thread drops the acceptor) and reap
    /// spawned processes that never registered.
    fn drop(&mut self) {
        self.stop_accepting.store(true, Ordering::SeqCst);
        for mut child in self.unclaimed.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A finished run.
pub struct FrameRun {
    /// The outcome, its `detail` left to the backend (`OutcomeDetail::None`).
    pub outcome: SkeletonOutcome,
    /// The per-run facts the backend builds that detail from.
    pub report: FrameReport,
    /// The acceptor passed to [`FrameMaster::listen`], handed back so the
    /// membership endpoint outlives the job.
    pub acceptor: Option<Box<dyn Acceptor>>,
}

/// The threaded driver of the master core (see the module docs): build
/// it, hand it links ([`FrameMaster::arrive`]) or an acceptor
/// ([`FrameMaster::listen`]), then [`FrameMaster::run`] it.
pub struct FrameMaster<'a> {
    core: MasterCore<'a>,
    links: Links,
    rx: mpsc::Receiver<Event>,
    clock: WallClock,
    /// How long the loop waits for an event before feeding a tick.
    tick: Duration,
}

impl<'a> FrameMaster<'a> {
    /// A master for `job` with no links yet.  The first `founders ×
    /// samples` observations form the calibration sample; a member admitted
    /// after dispatch began owes `join_probes` probe units first (default:
    /// the per-worker sample count).
    pub fn new(
        settings: &'a FrameSettings,
        config: &GraspConfig,
        job: &'a FrameJob,
        founders: usize,
        join_probes: Option<usize>,
        policy: JoinPolicy,
    ) -> Self {
        let (events, rx) = mpsc::channel();
        FrameMaster {
            core: MasterCore::new(settings, config, job, founders, join_probes, policy),
            links: Links {
                table: Vec::new(),
                members: Vec::new(),
                events,
                counters: WireCounters::new(),
                bytes_received: Arc::new(AtomicU64::new(0)),
                undelivered: Vec::new(),
                accepting: None,
                stop_accepting: Arc::new(AtomicBool::new(false)),
                endpoint: String::new(),
                worker_bin: None,
                unclaimed: Vec::new(),
            },
            rx,
            clock: WallClock::start(),
            tick: Duration::from_secs_f64((settings.heartbeat_timeout_s / 8.0).clamp(0.02, 0.25)),
        }
    }

    /// Hand the core a link: worker process `pid`'s frame halves and, when
    /// the backend spawned it, the process and its shared-memory ring.  A
    /// spawned worker is greeted with `Init` and takes units once its
    /// `Hello` arrives; one without a process registered with `Join`.
    pub fn arrive(
        &mut self,
        pid: u64,
        sink: Box<dyn FrameSink>,
        source: Box<dyn FrameSource>,
        child: Option<Child>,
        ring: Option<PathBuf>,
    ) -> Result<(), GraspError> {
        let joined = child.is_none();
        let link = self.links.table.len();
        self.links.table.push(Link {
            pid,
            halves: Some((sink, source)),
            tx: None,
            child,
            ring,
        });
        self.feed(Input::Arrived { link, pid, joined }).map(drop)
    }

    /// Accept links from `acceptor` during the run.  Each must register
    /// with a `Join` of this wire version covering `required_caps`, checked
    /// on its own thread so a peer that stalls cannot block the others.
    /// A `JoinPolicy::join_spawn` starts `worker_bin` pointed at the
    /// acceptor's endpoint; `spawn_now` such workers start at once.
    pub fn listen(
        &mut self,
        mut acceptor: Box<dyn Acceptor>,
        required_caps: u32,
        worker_bin: Option<PathBuf>,
        spawn_now: usize,
    ) -> Result<(), GraspError> {
        self.links.endpoint = acceptor.endpoint();
        self.links.worker_bin = worker_bin;
        let stop = Arc::clone(&self.links.stop_accepting);
        let events = self.links.events.clone();
        let thread = std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match acceptor.poll_accept() {
                    Ok(Some(conn)) => {
                        let events = events.clone();
                        std::thread::spawn(move || greet(conn, required_caps, &events));
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            acceptor
        });
        self.links.accepting = Some(thread);
        for _ in 0..spawn_now {
            self.links.spawn()?;
        }
        Ok(())
    }

    /// Drive the job to completion: feed every event (or a tick when none
    /// comes) to the core and carry out its outputs until it finishes,
    /// then reap every link and assemble the run.
    pub fn run(mut self) -> Result<FrameRun, GraspError> {
        loop {
            // A timeout just feeds a tick (the driver holds a sender, so
            // the channel never disconnects).
            let input = match self.rx.recv_timeout(self.tick) {
                Ok(Event::Joined(pid, sink, source)) => {
                    self.arrive(pid, sink, source, None, None)?;
                    continue;
                }
                Ok(Event::Rejected) => Input::Rejected,
                Ok(Event::Msg(w, msg)) => Input::Frame(w, msg),
                Ok(Event::Closed(w)) => Input::Closed(w),
                Err(_) => Input::Tick,
            };
            if self.feed(input)? {
                break;
            }
        }
        let makespan_s = self.clock.now().as_secs();
        self.links.table.clear(); // drop = close, kill (no-op for clean exits), reap
        self.links.stop_accepting.store(true, Ordering::SeqCst);
        let acceptor = self.links.accepting.take().and_then(|t| t.join().ok());
        let (outcome, mut report) = self.core.into_outcome(makespan_s);
        let counters = &self.links.counters;
        report.bytes_sent = counters.bytes.load(Ordering::Relaxed);
        report.bytes_received = self.links.bytes_received.load(Ordering::Relaxed);
        report.wire_write_s = counters.write_seconds();
        report.wire_encode_s = counters.encode_seconds();
        report.bytes_copied = counters.copied.load(Ordering::Relaxed);
        Ok(FrameRun {
            outcome,
            report,
            acceptor,
        })
    }

    /// Step the core with `input` at the current wall-clock time and carry
    /// out its outputs, feeding refused sends back; `true` once finished.
    fn feed(&mut self, input: Input) -> Result<bool, GraspError> {
        let now = self.clock.now();
        let mut next = Some(input);
        while let Some(input) = next.take().or_else(|| self.links.undelivered.pop()) {
            for output in self.core.step(now, input)? {
                if self.links.apply(output)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

/// The registration handshake, connection side: the first frame must be a
/// Join with the master's wire version and the job's required capabilities;
/// anything else is answered with Shutdown and refused.
fn greet(conn: FramedConnection, required_caps: u32, events: &mpsc::Sender<Event>) {
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
    let _ = match admitted {
        Some(pid) => events.send(Event::Joined(pid, sink, source)),
        None => {
            let _ = sink.send(&WireMsg::Shutdown);
            events.send(Event::Rejected)
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_core_names_no_clock_thread_channel_process_or_transport() {
        let source = include_str!("master/core.rs");
        for name in [
            "Instant",
            "SystemTime",
            "WallClock",
            "mpsc",
            "thread",
            "std::process",
            "Child",
            "std::io",
            "FrameSink",
            "FrameSource",
            "ShmRing",
        ] {
            assert!(
                !source.contains(name),
                "master/core.rs names `{name}`: the core must stay free of I/O"
            );
        }
    }
}
