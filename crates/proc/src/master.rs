//! The one frame master: the paper's calibrate → execute → monitor → adapt
//! cycle (Algorithm 2) for workers that speak [`grasp_core::wire`] frames,
//! whatever carries the frames and however the workers arrive.
//!
//! `MasterCore` (`master/core.rs`) makes every decision and touches
//! nothing: fed `(now, Input)`, it returns `Output`s.  [`FrameMaster`] is
//! the driver that carries them out, in one loop on the calling thread.
//! The loop waits in `poll(2)` ([`PollSet`]) on every member's pipes or
//! socket, the TCP listener and the connections still greeting.  It reads
//! ready bytes into each link's frame buffer and steps the core once per
//! complete frame, and writes the frames the core sends through each
//! link's out-buffer as the peer makes room.  A wait that times out feeds
//! the core a `Tick`, so the heartbeat sweep runs even when every peer is
//! silent.
//!
//! **The loop never blocks on a peer.**  Descriptors are non-blocking
//! ([`FdLink`]).  A peer that stalls mid-frame, or stops reading with a
//! large Task queued, stalls only its own link, and its heartbeat timeout
//! still fires.  A send the link refuses comes back to the core as
//! `Input::Undelivered`; a link whose write failed refuses every later
//! send, and its `Closed` requeues the window.
//!
//! Ends without a descriptor — the shared-memory ring, and the in-memory
//! loopback links and acceptor — are the only reason this module starts
//! threads.  One bridge thread per such source (and one for such an
//! acceptor) blocks on it and posts what it reads to a channel, ringing a
//! [`Doorbell`] in the poll set: the loop is woken, never timed out into.
//! Their sinks are written inline, which blocks on no live peer (see
//! `Links::send`).
//!
//! The process backend hands the driver its spawned links
//! (`FrameMaster::arrive`); the socket backend lets it accept and handshake
//! them during the run ([`FrameMaster::listen`]).  Each maps the returned
//! `FrameReport` to its own `OutcomeDetail`.

mod core;

pub(crate) use self::core::FrameReport;
pub use self::core::JoinPolicy;

use self::core::{Input, MasterCore, Output};

use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::engine::WallClock;
use grasp_core::error::GraspError;
use grasp_core::shm::ShmRing;
use grasp_core::skeleton::{Skeleton, SkeletonOutcome, UnitSpan};
use grasp_core::transport::{
    Acceptor, Doorbell, FdLink, FrameSink, FrameSource, FramedConnection, OutMsg, PollSet, Ringer,
};
use grasp_core::wire::{WireMsg, WIRE_VERSION};
use grasp_core::{GraspConfig, SkeletonKind};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a bridged acceptor waits for a peer before it checks whether
/// the run is over; bounds how long the run's end waits to get the
/// acceptor back.
const ACCEPT_WAIT: Duration = Duration::from_millis(5);

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

/// How a link's frames move.
pub(crate) enum Wire {
    /// Non-blocking descriptors the loop polls: a spawned worker's pipes,
    /// an accepted socket.
    Fd(FdLink),
    /// Frame halves without a descriptor (the shm ring, the loopback
    /// network).  A bridge thread takes the source at greeting or
    /// admission; the sink is written inline until it is closed.
    Bridged {
        sink: Option<Box<dyn FrameSink>>,
        source: Option<Box<dyn FrameSource>>,
    },
    /// Closed both ways: refused at the handshake, or reaped.
    Gone,
}

/// Where a link is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Accepted; its first frame must be a `Join` this run accepts.
    Greeting,
    /// Handed to the core but not (yet) admitted: nothing is read from it.
    Waiting,
    /// Carrying member `.0`'s frames.
    Member(usize),
}

/// One link, driver side.  Dropping it closes both directions, kills and
/// reaps its process and unlinks its ring, so no error path leaves an
/// orphan behind.
struct Link {
    pid: u64,
    stage: Stage,
    wire: Wire,
    child: Option<Child>,
    ring: Option<PathBuf>,
}

impl Link {
    /// Close both directions, kill and reap the process, unlink the ring.
    fn reap(&mut self) {
        self.wire = Wire::Gone;
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(path) = self.ring.take() {
            ShmRing::cleanup(path);
        }
    }

    /// Close the send side: end-of-stream once the queued frames are out.
    fn close(&mut self) {
        match &mut self.wire {
            Wire::Fd(fd) => fd.close(),
            Wire::Bridged { sink, .. } => *sink = None,
            Wire::Gone => {}
        }
    }

    /// Answer a refused handshake with `Shutdown` (best effort), then close.
    fn refuse(&mut self) {
        let shutdown = OutMsg::from(WireMsg::Shutdown);
        match &mut self.wire {
            Wire::Fd(fd) => {
                fd.queue(&shutdown.as_view());
                let _ = fd.flush();
            }
            Wire::Bridged {
                sink: Some(sink), ..
            } => {
                let _ = sink.send(&WireMsg::Shutdown);
            }
            _ => {}
        }
        self.wire = Wire::Gone;
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.reap();
    }
}

/// What bridge threads post to the loop.
enum Bridged {
    /// The fd-less acceptor produced a connection.
    Accepted(FramedConnection),
    /// Link `.0`'s first frame (`None`: it closed or sent garbage first),
    /// with its source handed back for admission.
    Greeted(usize, Option<WireMsg>, Box<dyn FrameSource>),
    /// A frame from link `.0`.
    Frame(usize, WireMsg),
    /// Link `.0`'s source closed (clean EOF or frame error).
    Closed(usize),
}

/// A bridge thread's way into the loop: post, then ring the doorbell.
#[derive(Clone)]
struct Post {
    tx: mpsc::Sender<Bridged>,
    ringer: Ringer,
}

impl Post {
    /// `false` once the loop is gone.
    fn send(&self, event: Bridged) -> bool {
        let sent = self.tx.send(event).is_ok();
        if sent {
            self.ringer.ring();
        }
        sent
    }
}

/// The loop's side of the bridges: the doorbell it polls and the channel
/// behind it.
struct Bridge {
    bell: Doorbell,
    post: Post,
    rx: mpsc::Receiver<Bridged>,
}

/// Read `source` on a thread of its own, posting every frame and then its
/// close.  A greeting bridge posts the first frame and hands the source
/// back, so nothing more is read before admission.
fn spawn_bridge(link: usize, mut source: Box<dyn FrameSource>, post: Post, greeting: bool) {
    std::thread::spawn(move || {
        if greeting {
            let first = source.recv().ok().flatten();
            post.send(Bridged::Greeted(link, first, source));
            return;
        }
        while let Ok(Some(msg)) = source.recv() {
            if !post.send(Bridged::Frame(link, msg)) {
                return; // master gone
            }
        }
        post.send(Bridged::Closed(link));
    });
}

/// How the run takes new connections.
enum Accepting {
    /// A listening socket the loop polls and accepts on itself.
    Polled(Box<dyn Acceptor>),
    /// An fd-less acceptor a bridge thread waits on; it hands the acceptor
    /// back once `.1` is set.
    Bridged(JoinHandle<Box<dyn Acceptor>>, Arc<AtomicBool>),
}

/// What one entry of the poll set stands for.
#[derive(Debug, Clone, Copy)]
enum Ready {
    Bell,
    Listener,
    Read(usize),
    Write(usize),
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The driver's I/O state: everything the core's outputs act on.
struct Links {
    /// By link index; a link parked by the core stays here unadmitted.
    table: Vec<Link>,
    /// Member slot → link index.
    members: Vec<usize>,
    /// Refused sends, fed back to the core last-first, so that units it
    /// puts back at the front of its queue keep their dispatch order.
    undelivered: Vec<Input>,
    /// Admitted descriptor links whose buffers may already hold frames;
    /// read before the next wait.
    rescan: Vec<usize>,
    /// Made with the first fd-less end.
    bridge: Option<Bridge>,
    /// While the run listens.
    accepting: Option<Accepting>,
    /// Capabilities a joining worker must advertise.
    required_caps: u32,
    /// The endpoint spawned workers connect to.
    endpoint: String,
    /// The binary [`Output::Spawn`] starts.
    worker_bin: Option<PathBuf>,
    /// Spawned processes not yet admitted (claimed by pid at admission).
    unclaimed: Vec<Child>,
    /// Reused encode buffer for fd-less sinks.
    frame: Vec<u8>,
    /// Wire accounting: bytes of frames written, bytes read from
    /// descriptors, and nanoseconds spent encoding and writing frames.
    bytes_sent: u64,
    bytes_read: u64,
    encode_ns: u64,
    write_ns: u64,
    /// Shared with fd-less sinks: payload bytes copied beyond the encode.
    copied: Arc<AtomicU64>,
    /// Shared with fd-less sources: bytes they received.
    bridged_received: Arc<AtomicU64>,
}

impl Links {
    /// Carry out one output; `true` once the run is finished.
    fn apply(&mut self, output: Output) -> Result<bool, GraspError> {
        match output {
            Output::Admit(link, member) => self.admit(link, member)?,
            Output::Send(w, msg) => {
                if !self.send(self.members[w], &msg) {
                    self.undelivered.push(Input::Undelivered(w, msg));
                }
            }
            Output::Close(w) => self.table[self.members[w]].close(),
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

    /// Start carrying member `w`'s frames over link `link`: the loop polls
    /// a descriptor link from now on; an fd-less source gets its bridge
    /// thread.  A registration claims the spawned process that reported
    /// its pid (kill injection, cleanup).
    fn admit(&mut self, link: usize, w: usize) -> Result<(), GraspError> {
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
        l.stage = Stage::Member(w);
        let source = match &mut l.wire {
            Wire::Fd(_) => {
                self.rescan.push(link);
                None
            }
            Wire::Bridged { sink, source } => {
                if let Some(sink) = sink {
                    sink.set_copy_counter(Arc::clone(&self.copied));
                }
                source.take()
            }
            Wire::Gone => None,
        };
        if let Some(mut source) = source {
            source.set_byte_counter(Arc::clone(&self.bridged_received));
            spawn_bridge(link, source, self.post()?, false);
        }
        Ok(())
    }

    /// Queue `msg` on link `i`; `false` when its send side is closed (the
    /// caller feeds the refusal back to the core).
    ///
    /// A descriptor link writes what the peer takes now and keeps the rest
    /// for `POLLOUT`.  An fd-less sink is written inline, and blocks on no
    /// live peer: a loopback channel is unbounded, and the shm ring's 1 MiB
    /// holds a member's whole window — at most Init, `OUTSTANDING_PER_WORKER`
    /// = 2 Task frames (speculative duplicates count against the same
    /// window) and Shutdown — while a Task frame stays under about 512 KiB.
    /// (A larger one can wait for the worker to take the frame before it;
    /// one past 1 MiB is refused by the ring.)
    fn send(&mut self, i: usize, msg: &OutMsg) -> bool {
        let t0 = Instant::now();
        match &mut self.table[i].wire {
            Wire::Fd(fd) => {
                if !fd.queue(&msg.as_view()) {
                    return false;
                }
                let t1 = Instant::now();
                // A failed write closes the send side: this frame is lost
                // and later ones are refused, while the receive side
                // settles the peer's fate.
                self.bytes_sent += fd.flush().unwrap_or(0) as u64;
                self.encode_ns += nanos(t1 - t0);
                self.write_ns += nanos(t1.elapsed());
            }
            Wire::Bridged { sink, .. } => {
                let Some(open) = sink else {
                    return false;
                };
                msg.as_view().encode_into(&mut self.frame);
                let t1 = Instant::now();
                match open.send_frame(&self.frame) {
                    Ok(n) => self.bytes_sent += n as u64,
                    Err(_) => *sink = None, // as a failed descriptor write
                }
                self.encode_ns += nanos(t1 - t0);
                self.write_ns += nanos(t1.elapsed());
            }
            Wire::Gone => return false,
        }
        true
    }

    /// Write what link `i` has queued, as far as the peer takes it.
    fn flush(&mut self, i: usize) {
        if let Wire::Fd(fd) = &mut self.table[i].wire {
            let t0 = Instant::now();
            self.bytes_sent += fd.flush().unwrap_or(0) as u64;
            self.write_ns += nanos(t0.elapsed());
        }
    }

    /// The member whose frames link `i` carries, unless it was reaped.
    fn member_of(&self, i: usize) -> Option<usize> {
        let link = &self.table[i];
        match (link.stage, &link.wire) {
            (_, Wire::Gone) => None,
            (Stage::Member(w), _) => Some(w),
            _ => None,
        }
    }

    /// Fill the poll set: the doorbell, the listener, every open receive
    /// side except those waiting for admission, and every link with bytes
    /// queued.  `slots` says what each entry is.
    fn watch(&self, polls: &mut PollSet, slots: &mut Vec<Ready>) {
        if let Some(bridge) = &self.bridge {
            polls.watch(bridge.bell.fd(), true, false);
            slots.push(Ready::Bell);
        }
        if let Some(Accepting::Polled(acceptor)) = &self.accepting {
            if let Some(listener) = acceptor.listener() {
                polls.watch(listener.as_raw_fd(), true, false);
                slots.push(Ready::Listener);
            }
        }
        for (i, link) in self.table.iter().enumerate() {
            let Wire::Fd(fd) = &link.wire else {
                continue;
            };
            if let Some(read) = fd.read_fd().filter(|_| link.stage != Stage::Waiting) {
                polls.watch(read, true, false);
                slots.push(Ready::Read(i));
            }
            if let Some(write) = fd.write_fd() {
                polls.watch(write, false, true);
                slots.push(Ready::Write(i));
            }
        }
    }

    /// Accept every connection waiting on the polled listener; each greets
    /// as a descriptor link.
    fn accept_polled(&mut self) {
        loop {
            let Some(Accepting::Polled(acceptor)) = &self.accepting else {
                return;
            };
            let Some(listener) = acceptor.listener() else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Drained, or a failure the next readiness retries.
                Err(_) => return,
            };
            // Frames are small and latency-sensitive (a heartbeat late by a
            // Nagle delay looks like a dying worker).
            let _ = stream.set_nodelay(true);
            if let Ok(fd) = FdLink::socket(stream) {
                self.table.push(Link {
                    pid: 0,
                    stage: Stage::Greeting,
                    wire: Wire::Fd(fd),
                    child: None,
                    ring: None,
                });
            }
        }
    }

    /// A connection from the fd-less acceptor: a greeting link whose first
    /// frame a bridge thread reads.
    fn accept_bridged(&mut self, conn: FramedConnection) -> Result<(), GraspError> {
        let (sink, source) = conn.split();
        let link = self.table.len();
        self.table.push(Link {
            pid: 0,
            stage: Stage::Greeting,
            wire: Wire::Bridged {
                sink: Some(sink),
                source: None,
            },
            child: None,
            ring: None,
        });
        spawn_bridge(link, source, self.post()?, true);
        Ok(())
    }

    /// A bridge thread's way into the loop (the first one makes the bridge).
    fn post(&mut self) -> Result<Post, GraspError> {
        if let Some(bridge) = &self.bridge {
            return Ok(bridge.post.clone());
        }
        let bell = Doorbell::new()?;
        let (tx, rx) = mpsc::channel();
        let post = Post {
            tx,
            ringer: bell.ringer(),
        };
        self.bridge = Some(Bridge {
            bell,
            post: post.clone(),
            rx,
        });
        Ok(post)
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
    /// Stop a bridged acceptor (its thread drops the acceptor) and reap
    /// spawned processes that never registered.
    fn drop(&mut self) {
        if let Some(Accepting::Bridged(_, stop)) = &self.accepting {
            stop.store(true, Ordering::SeqCst);
        }
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

/// The readiness driver of the master core (see the module docs): build
/// it, hand it links (`FrameMaster::arrive`) or an acceptor
/// ([`FrameMaster::listen`]), then [`FrameMaster::run`] it.
pub struct FrameMaster<'a> {
    core: MasterCore<'a>,
    links: Links,
    clock: WallClock,
    /// How long the loop waits for readiness before feeding a tick.
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
        FrameMaster {
            core: MasterCore::new(settings, config, job, founders, join_probes, policy),
            links: Links {
                table: Vec::new(),
                members: Vec::new(),
                undelivered: Vec::new(),
                rescan: Vec::new(),
                bridge: None,
                accepting: None,
                required_caps: 0,
                endpoint: String::new(),
                worker_bin: None,
                unclaimed: Vec::new(),
                frame: Vec::new(),
                bytes_sent: 0,
                bytes_read: 0,
                encode_ns: 0,
                write_ns: 0,
                copied: Arc::new(AtomicU64::new(0)),
                bridged_received: Arc::new(AtomicU64::new(0)),
            },
            clock: WallClock::start(),
            tick: Duration::from_secs_f64((settings.heartbeat_timeout_s / 8.0).clamp(0.02, 0.25)),
        }
    }

    /// Hand the core a link: worker process `pid`'s wire and, when the
    /// backend spawned it, the process and its shared-memory ring.  A
    /// spawned worker is greeted with `Init` and takes units once its
    /// `Hello` arrives; one without a process registered with `Join`.
    pub(crate) fn arrive(
        &mut self,
        pid: u64,
        wire: Wire,
        child: Option<Child>,
        ring: Option<PathBuf>,
    ) -> Result<(), GraspError> {
        let joined = child.is_none();
        let link = self.links.table.len();
        self.links.table.push(Link {
            pid,
            stage: Stage::Waiting,
            wire,
            child,
            ring,
        });
        self.feed(Input::Arrived { link, pid, joined }).map(drop)
    }

    /// Accept links from `acceptor` during the run.  Each must register
    /// with a `Join` of this wire version covering `required_caps`; a peer
    /// that stalls before it does stalls only its own link.  A
    /// `JoinPolicy::join_spawn` starts `worker_bin` pointed at the
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
        self.links.required_caps = required_caps;
        self.links.accepting = Some(if acceptor.listener().is_some() {
            Accepting::Polled(acceptor)
        } else {
            let post = self.links.post()?;
            let stop = Arc::new(AtomicBool::new(false));
            let stopped = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                while !stopped.load(Ordering::SeqCst) {
                    match acceptor.wait_accept(ACCEPT_WAIT) {
                        Ok(Some(conn)) => {
                            if !post.send(Bridged::Accepted(conn)) {
                                break;
                            }
                        }
                        Ok(None) => {}
                        // An acceptor that fails takes no more peers this run.
                        Err(_) => break,
                    }
                }
                acceptor
            });
            Accepting::Bridged(thread, stop)
        });
        for _ in 0..spawn_now {
            self.links.spawn()?;
        }
        Ok(())
    }

    /// Drive the job to completion (see the module docs), then reap every
    /// link and assemble the run.
    pub fn run(mut self) -> Result<FrameRun, GraspError> {
        let mut polls = PollSet::new();
        let mut slots = Vec::new();
        while !self.round(&mut polls, &mut slots)? {}
        let makespan_s = self.clock.now().as_secs();
        self.links.table.clear(); // drop = close, kill (no-op for clean exits), reap
        let acceptor = match self.links.accepting.take() {
            Some(Accepting::Polled(acceptor)) => Some(acceptor),
            Some(Accepting::Bridged(thread, stop)) => {
                stop.store(true, Ordering::SeqCst);
                thread.join().ok()
            }
            None => None,
        };
        let (outcome, mut report) = self.core.into_outcome(makespan_s);
        let links = &self.links;
        report.bytes_sent = links.bytes_sent;
        report.bytes_received = links.bytes_read + links.bridged_received.load(Ordering::Relaxed);
        report.wire_write_s = links.write_ns as f64 / 1e9;
        report.wire_encode_s = links.encode_ns as f64 / 1e9;
        report.bytes_copied = links.copied.load(Ordering::Relaxed);
        Ok(FrameRun {
            outcome,
            report,
            acceptor,
        })
    }

    /// One round of the loop: read what admissions left buffered, wait for
    /// readiness (or the tick), and hand the core whatever became ready;
    /// `true` once the run is finished.
    fn round(&mut self, polls: &mut PollSet, slots: &mut Vec<Ready>) -> Result<bool, GraspError> {
        while let Some(link) = self.links.rescan.pop() {
            if self.read_frames(link)? {
                return Ok(true);
            }
        }
        polls.clear();
        slots.clear();
        self.links.watch(polls, slots);
        if polls.wait(self.tick)? == 0 {
            return self.feed(Input::Tick);
        }
        for (slot, &ready) in slots.iter().enumerate() {
            let finished = match ready {
                Ready::Bell if polls.readable(slot) => self.on_bell()?,
                Ready::Listener if polls.readable(slot) => {
                    self.links.accept_polled();
                    false
                }
                Ready::Read(link) if polls.readable(slot) => self.on_readable(link)?,
                Ready::Write(link) if polls.writable(slot) => {
                    self.links.flush(link);
                    false
                }
                _ => false,
            };
            if finished {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Descriptor link `i` is readable: take what it holds and hand the
    /// core every frame that completed.
    fn on_readable(&mut self, i: usize) -> Result<bool, GraspError> {
        let Wire::Fd(fd) = &mut self.links.table[i].wire else {
            return Ok(false);
        };
        if fd.read_fd().is_none() {
            return Ok(false);
        }
        let eof = match fd.fill() {
            Ok(0) => true,
            Ok(n) => {
                self.links.bytes_read += n as u64;
                false
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(false)
            }
            Err(_) => true,
        };
        if self.read_frames(i)? {
            return Ok(true);
        }
        if eof {
            return self.on_closed(i);
        }
        Ok(false)
    }

    /// Hand the core every complete frame descriptor link `i` holds.  A
    /// greeting link's first frame is its handshake; a link waiting for
    /// admission keeps its frames buffered.
    fn read_frames(&mut self, i: usize) -> Result<bool, GraspError> {
        loop {
            let link = &mut self.links.table[i];
            let stage = link.stage;
            let Wire::Fd(fd) = &mut link.wire else {
                return Ok(false);
            };
            if stage == Stage::Waiting {
                return Ok(false);
            }
            let msg = match fd.next_frame() {
                Ok(Some(view)) => view.to_owned(),
                Ok(None) => return Ok(false),
                Err(_) => return self.on_closed(i),
            };
            let finished = match stage {
                Stage::Member(w) => self.feed(Input::Frame(w, msg))?,
                _ => self.greet(i, Some(msg))?,
            };
            if finished {
                return Ok(true);
            }
        }
    }

    /// Descriptor link `i` reached end of stream, failed, or sent a frame
    /// that does not decode: it is closed for reading from now on.
    fn on_closed(&mut self, i: usize) -> Result<bool, GraspError> {
        let link = &mut self.links.table[i];
        let Wire::Fd(fd) = &mut link.wire else {
            return Ok(false);
        };
        if fd.read_fd().is_none() {
            return Ok(false); // already settled
        }
        fd.shut_read();
        match link.stage {
            Stage::Greeting => self.greet(i, None),
            Stage::Member(w) => self.feed(Input::Closed(w)),
            Stage::Waiting => Ok(false),
        }
    }

    /// The registration handshake: link `i`'s first frame must be a Join
    /// with this master's wire version and the job's required
    /// capabilities; anything else (or none) is answered with Shutdown and
    /// refused.
    fn greet(&mut self, i: usize, first: Option<WireMsg>) -> Result<bool, GraspError> {
        let caps = self.links.required_caps;
        let link = &mut self.links.table[i];
        match first {
            Some(WireMsg::Join {
                pid,
                wire_version,
                capabilities,
            }) if wire_version == WIRE_VERSION as u32 && capabilities & caps == caps => {
                link.pid = pid;
                link.stage = Stage::Waiting;
                self.feed(Input::Arrived {
                    link: i,
                    pid,
                    joined: true,
                })
            }
            _ => {
                link.refuse();
                self.feed(Input::Rejected)
            }
        }
    }

    /// The doorbell rang: hand the core everything the bridges posted.
    fn on_bell(&mut self) -> Result<bool, GraspError> {
        let Some(bridge) = &self.links.bridge else {
            return Ok(false);
        };
        bridge.bell.answer();
        while let Some(event) = self
            .links
            .bridge
            .as_ref()
            .and_then(|b| b.rx.try_recv().ok())
        {
            let finished = match event {
                Bridged::Accepted(conn) => {
                    self.links.accept_bridged(conn)?;
                    false
                }
                Bridged::Greeted(i, first, source) => {
                    if let Wire::Bridged { source: slot, .. } = &mut self.links.table[i].wire {
                        *slot = Some(source);
                    }
                    self.greet(i, first)?
                }
                Bridged::Frame(i, msg) => match self.links.member_of(i) {
                    Some(w) => self.feed(Input::Frame(w, msg))?,
                    None => false,
                },
                Bridged::Closed(i) => match self.links.member_of(i) {
                    Some(w) => self.feed(Input::Closed(w))?,
                    None => false,
                },
            };
            if finished {
                return Ok(true);
            }
        }
        Ok(false)
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

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::skeleton::NetDeparture;
    use grasp_core::transport::stream_connection;
    use grasp_core::TaskSpec;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

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

    // The loop's never-block rules, over socketpairs with the worker side
    // played by hand.  Each test fails against a driver that blocks on one
    // peer: the blocked run either hangs (cut off by `run_master`'s
    // deadline) or starves the other member past its own deadline.

    /// Heartbeats off: liveness is EOF-only, so a slow debug build beside
    /// CPU hogs cannot time a member out.
    fn no_heartbeats() -> BackendConfig {
        BackendConfig::new().heartbeat(0.0, 1.0)
    }

    /// Run a master configured by `cfg` over one member per socketpair
    /// end, on a thread of its own, and wait at most 20 s for it.
    /// Adaptation is off, so no member is demoted.
    fn run_master(
        units: usize,
        cfg: BackendConfig,
        payloads: Vec<(usize, u32, Vec<u8>)>,
        ends: Vec<UnixStream>,
    ) -> (SkeletonOutcome, FrameReport) {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut settings = FrameSettings::default();
            settings.configure(&cfg);
            settings.add_payloads(payloads);
            let mut config = GraspConfig::default();
            config.execution.adaptive = false;
            let run = || -> Result<FrameRun, GraspError> {
                let skeleton = Skeleton::farm(TaskSpec::uniform(units, 1.0, 0, 0));
                let job = FrameJob::lower(&config, &skeleton)?;
                let policy = JoinPolicy {
                    wait_for: ends.len(),
                    join_timeout_s: 10.0,
                    ..JoinPolicy::default()
                };
                let mut master =
                    FrameMaster::new(&settings, &config, &job, ends.len(), None, policy);
                for (pid, end) in ends.into_iter().enumerate() {
                    master.arrive(pid as u64, Wire::Fd(FdLink::socket(end)?), None, None)?;
                }
                master.run()
            };
            let _ = done_tx.send(run().map(|r| (r.outcome, r.report)));
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the master loop blocked on a peer")
            .expect("the run completes")
    }

    /// The worker end of a member's socketpair, speaking the protocol by
    /// hand.
    struct Peer {
        end: UnixStream,
        source: Box<dyn FrameSource>,
    }

    impl Peer {
        fn new(end: UnixStream) -> Peer {
            let reader = end.try_clone().expect("clone the worker end");
            let (_, source) = stream_connection("peer", std::io::sink(), reader).split();
            Peer { end, source }
        }

        /// The next Task's unit id (the Welcome is skipped); `None` at
        /// Shutdown or end of stream.
        fn task(&mut self) -> Option<u64> {
            loop {
                match self.source.recv() {
                    Ok(Some(WireMsg::Task { unit_id, .. })) => return Some(unit_id),
                    Ok(Some(WireMsg::Welcome { .. })) => {}
                    _ => return None,
                }
            }
        }

        /// Write `bytes` as they are (a frame, or a piece of one).
        fn write(&mut self, bytes: &[u8]) {
            let _ = (&self.end).write_all(bytes);
        }

        /// Serve Tasks until Shutdown or end of stream, taking `busy` per
        /// Task and calling `after(n)` once the n-th Done (from 1) is out.
        fn serve(&mut self, busy: Duration, mut after: impl FnMut(usize)) {
            let mut served = 0;
            while let Some(unit) = self.task() {
                std::thread::sleep(busy);
                self.write(&done(unit));
                served += 1;
                after(served);
            }
        }
    }

    fn done(unit_id: u64) -> Vec<u8> {
        WireMsg::Done {
            unit_id,
            elapsed_s: 1e-3,
            digest: 0,
        }
        .encode()
    }

    fn completed(report: &FrameReport) -> Vec<usize> {
        report.members.iter().map(|m| m.units_completed).collect()
    }

    #[test]
    fn a_frame_written_in_two_pieces_is_assembled_while_others_are_served() {
        // Member 0 writes its first Done up to mid-payload and holds the
        // rest until member 1 has answered three Tasks; a loop that read
        // member 0 to a frame boundary before anything else would never
        // serve member 1, and one that decoded each read alone would call
        // the first piece a protocol error.
        let (master_a, worker_a) = UnixStream::pair().unwrap();
        let (master_b, worker_b) = UnixStream::pair().unwrap();
        let (served_tx, served_rx) = mpsc::channel();
        let a = std::thread::spawn(move || {
            let mut peer = Peer::new(worker_a);
            let first = peer.task().expect("a first task");
            let frame = done(first);
            peer.write(&frame[..13]);
            let waited = served_rx.recv_timeout(Duration::from_secs(10)).is_ok();
            peer.write(&frame[13..]);
            peer.serve(Duration::ZERO, |_| {});
            waited
        });
        let b = std::thread::spawn(move || {
            Peer::new(worker_b).serve(Duration::from_millis(1), |n| {
                if n == 3 {
                    let _ = served_tx.send(());
                }
            })
        });
        let (outcome, report) =
            run_master(40, no_heartbeats(), Vec::new(), vec![master_a, master_b]);
        assert!(
            a.join().unwrap(),
            "member 1 was starved while member 0's frame was half written"
        );
        b.join().unwrap();
        assert_eq!(outcome.completed, 40);
        assert!(outcome.resilience.is_clean(), "{:?}", outcome.resilience);
        assert!(completed(&report)[0] >= 1, "the split Done was recorded");
    }

    #[test]
    fn a_peer_stalled_mid_frame_stalls_only_itself_and_times_out() {
        // Member 0 stops for good five bytes into its first Done, with its
        // link open.  Member 1 keeps answering, 1 ms per unit; with
        // heartbeats every 20 ms and a 300 ms timeout, the sweep declares
        // member 0 dead while member 1 is still busy, and its window goes
        // to member 1.
        let (master_a, worker_a) = UnixStream::pair().unwrap();
        let (master_b, worker_b) = UnixStream::pair().unwrap();
        let a = std::thread::spawn(move || {
            let mut peer = Peer::new(worker_a);
            let first = peer.task().expect("a first task");
            peer.write(&done(first)[..5]);
            // Until the master reaps the link.
            while peer.task().is_some() {}
        });
        let b = std::thread::spawn(move || {
            Peer::new(worker_b).serve(Duration::from_millis(1), |_| {});
        });
        let units = 400;
        let heartbeats = BackendConfig::new().heartbeat(0.02, 0.3);
        let (outcome, report) = run_master(units, heartbeats, Vec::new(), vec![master_a, master_b]);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(outcome.completed, units);
        assert!(outcome.conserves_units_of(&Skeleton::farm(TaskSpec::uniform(units, 1.0, 0, 0))));
        assert_eq!(outcome.resilience.nodes_lost, 1);
        assert_eq!(outcome.resilience.requeued_tasks, 2, "member 0's window");
        assert_eq!(report.members[0].left, Some(NetDeparture::Death));
        assert_eq!(completed(&report), vec![0, units]);
    }

    #[test]
    fn a_task_larger_than_the_socket_buffer_stalls_only_its_peer() {
        // Member 0 takes units 0 and 1, each carrying 2 MiB (ten times a
        // socket buffer), and reads nothing until member 1 has answered six
        // Tasks.  A loop that wrote the first large frame with a blocking
        // write would wait on member 0 and never dispatch to member 1.
        let (master_a, worker_a) = UnixStream::pair().unwrap();
        let (master_b, worker_b) = UnixStream::pair().unwrap();
        let (served_tx, served_rx) = mpsc::channel();
        let a = std::thread::spawn(move || {
            let waited = served_rx.recv_timeout(Duration::from_secs(10)).is_ok();
            Peer::new(worker_a).serve(Duration::ZERO, |_| {});
            waited
        });
        let b = std::thread::spawn(move || {
            Peer::new(worker_b).serve(Duration::from_millis(1), |n| {
                if n == 6 {
                    let _ = served_tx.send(());
                }
            })
        });
        let big = |unit| (unit, grasp_core::wire::PAYLOAD_SPIN, vec![7u8; 2 << 20]);
        let (outcome, report) = run_master(
            30,
            no_heartbeats(),
            vec![big(0), big(1)],
            vec![master_a, master_b],
        );
        assert!(
            a.join().unwrap(),
            "member 1 was starved behind member 0's unread Task"
        );
        b.join().unwrap();
        assert_eq!(outcome.completed, 30);
        assert!(outcome.resilience.is_clean(), "{:?}", outcome.resilience);
        assert!(completed(&report)[0] >= 2, "member 0 ran its large units");
        assert!(report.bytes_sent > 4 << 20);
    }
}
