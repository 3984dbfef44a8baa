//! The one frame master: the paper's calibrate → execute → monitor → adapt
//! cycle (Algorithm 2) for workers that speak [`grasp_core::wire`] frames,
//! whatever carries the frames and however the workers arrive.
//!
//! [`FrameMaster`] owns everything a master does with a member once it is
//! in the pool.  One reader thread per member feeds an event channel; the
//! master itself is single-threaded state:
//!
//! * **demand windows** — each member holds at most two dispatched but
//!   unanswered units; a result frees a slot and pulls the next pending
//!   unit.  A member admitted after dispatch began first serves a
//!   **calibration prefix** of probe units sized like the job's own, so it
//!   is ranked — and possibly demoted — before it touches a real unit;
//! * **bounded attempts, first completion wins** — a unit is dispatched at
//!   most `max_task_attempts` times; when more than one copy completes (a
//!   timeout requeue raced a late result, or a speculative duplicate), the
//!   first result is recorded and later copies are discarded on arrival;
//! * **tail speculation** — once the pending queue drains, the engine's
//!   `maybe_speculate` decides whether an idle slot duplicates a straggler;
//! * **adaptation** — every completed unit goes to the shared
//!   [`AdaptationEngine`], whose calibration prefix is the founders' first
//!   `founders × samples` observations (Algorithm 1); the engine then
//!   steers the members table: a demotion closes the member's channel (it
//!   drains its window, reads EOF and leaves), a pool-wide breach takes a
//!   fresh re-calibration sample;
//! * **departures** — a `Goodbye` stops new dispatches and releases the
//!   member with `Shutdown` once its window drains; a death (EOF, torn
//!   frame, or heartbeat timeout) requeues its in-flight units, counts the
//!   loss in the [`ResilienceReport`] and tells the engine.
//!
//! What differs between the process and the socket backend sits behind
//! [`Membership`]: how members arrive, and which [`OutcomeDetail`] a
//! finished run is reported as.

use grasp_core::adaptation::AdaptationLog;
use grasp_core::config::{BackendConfig, FaultInjection};
use grasp_core::engine::{AdaptationEngine, ExecutorSet, WallClock};
use grasp_core::error::GraspError;
use grasp_core::shm::ShmRing;
use grasp_core::skeleton::{
    NetDeparture, NetMemberReport, OutcomeDetail, ResilienceReport, Skeleton, SkeletonOutcome,
    UnitSpan,
};
use grasp_core::transport::{spawn_frame_writer, FrameSink, FrameSource, OutMsg, WireCounters};
use grasp_core::wire::WireMsg;
use grasp_core::{GraspConfig, SkeletonKind};
use gridmon::MonitorRegistry;
use gridsim::{NodeId, SimTime};
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Units a member may hold dispatched but unanswered.
const OUTSTANDING_PER_WORKER: usize = 2;

/// Calibration probe units live above this id so they can never collide
/// with (or be mistaken for) a job unit.
const PROBE_UNIT_BASE: u64 = 1 << 63;

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

/// What reader, acceptor and greeter threads forward to the master loop.
pub enum Event {
    /// A connection passed the registration handshake.
    Joined(Arrival),
    /// A connection was refused at the handshake.
    Rejected,
    /// A frame from member `.0`.
    Msg(usize, WireMsg),
    /// Member `.0`'s link closed (clean EOF or frame error): no further
    /// frames will come from it.
    Closed(usize),
}

/// A worker link about to become a member.
pub struct Arrival {
    /// Peer label for diagnostics.
    pub peer: String,
    /// The worker's OS process id.
    pub pid: u64,
    /// The master → worker direction.
    pub sink: Box<dyn FrameSink>,
    /// The worker → master direction.
    pub source: Box<dyn FrameSource>,
    /// The process behind the link when the master spawned it; the member
    /// kills and reaps it when it goes.
    pub child: Option<Child>,
    /// Shared-memory ring file to unlink once the member is reaped.
    pub ring: Option<PathBuf>,
    /// `true` when the worker registered with `Join`: it is answered with
    /// `Welcome` and may take units at once.  `false` for a spawned
    /// worker: it is configured with `Init` and takes units once its
    /// `Hello` arrives.
    pub joined: bool,
}

/// How members reach a [`FrameMaster`] and how its run is reported — the
/// only things the process and socket backends do differently.
pub trait Membership {
    /// A handshaken connection arrived.  By default it is admitted at once.
    fn joined(&mut self, master: &mut FrameMaster<'_>, arrival: Arrival) {
        master.admit(arrival);
    }

    /// Whether dispatch may begin; asked every loop turn until it first
    /// says yes.  An error fails the run.  By default dispatch begins at
    /// once.
    fn may_start(&mut self, _master: &FrameMaster<'_>) -> Result<bool, GraspError> {
        Ok(true)
    }

    /// Called once per loop turn after the event is handled: a chance to
    /// admit waiting connections or grow the pool.
    fn turn(&mut self, _master: &mut FrameMaster<'_>) -> Result<(), GraspError> {
        Ok(())
    }

    /// No member can take work while work remains: admit whoever is
    /// waiting and return `true`, or return `false` to fail the run.
    fn starved(&mut self, _master: &mut FrameMaster<'_>) -> bool {
        false
    }

    /// The surface's report of a finished run.
    fn detail(&self, report: FrameReport) -> OutcomeDetail;
}

/// The per-run facts a [`Membership`] turns into its [`OutcomeDetail`].
pub struct FrameReport {
    /// Members ever admitted (slots are never reused).
    pub workers: usize,
    /// Units recorded from each member.
    pub tasks_per_worker: Vec<usize>,
    /// Connections refused at the handshake.
    pub rejected_joins: usize,
    /// Bytes of frames written to the workers.
    pub bytes_sent: u64,
    /// Bytes of frames received from the workers.
    pub bytes_received: u64,
    /// Wall seconds the writer threads spent encoding and writing frames.
    pub wire_write_s: f64,
    /// Wall seconds of that spent encoding frames.
    pub wire_encode_s: f64,
    /// Payload bytes copied beyond the one encode per frame.
    pub bytes_copied: u64,
    /// Per-unit result digests, sorted by unit id.
    pub unit_digests: Vec<(usize, u64)>,
    /// Per-member membership audit, in admission order.
    pub members: Vec<NetMemberReport>,
}

/// One admitted worker, master side.  Dropping it closes its channel,
/// kills and reaps its process (if the master spawned one) and unlinks its
/// ring, so every error path leaves no orphan behind.
///
/// Outbound frames go through the shared transport writer thread
/// ([`spawn_frame_writer`]) rather than being written from the master loop:
/// a worker only reads between tasks, so a blocking write of a large
/// payload into a full pipe would stall the master — and with it the very
/// heartbeat sweep that is supposed to unmask a wedged worker.  Closing the
/// channel drops the sender; the writer drains what was queued, then drops
/// the sink (EOF at the worker).
struct Member {
    peer: String,
    pid: u64,
    child: Option<Child>,
    ring: Option<PathBuf>,
    /// `None` once the channel is closed (demotion, departure, or death).
    tx: Option<mpsc::Sender<OutMsg>>,
    alive: bool,
    /// `Hello` received, or admitted through `Join`.
    ready: bool,
    demoted: bool,
    /// `Goodbye` received — drain the window, then release.
    departing: bool,
    joined_s: f64,
    joined_mid_run: bool,
    /// Calibration probes this member must complete before real units.
    probes_target: usize,
    probes_done: usize,
    probe_in_flight: usize,
    /// Indices (into the unit list) currently dispatched to this member.
    in_flight: Vec<usize>,
    /// Units whose recorded result came from this member.
    completed: usize,
    left: Option<NetDeparture>,
}

impl Member {
    /// Alive, not demoted, not departing, with an open channel.
    fn can_dispatch(&self) -> bool {
        self.alive && !self.demoted && !self.departing && self.tx.is_some()
    }

    /// Eligible for real units and speculative duplicates: greeted and
    /// past its calibration prefix.
    fn takes_units(&self) -> bool {
        self.can_dispatch() && self.ready && self.probes_done >= self.probes_target
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        self.tx = None; // close the channel first: a live worker exits cleanly
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(path) = self.ring.take() {
            ShmRing::cleanup(path);
        }
    }
}

/// The frame master's executor set for [`AdaptationEngine::steer`]: its
/// members table.  Demotion across a process or network boundary closes
/// the member's channel: it finishes its window, reads EOF and exits;
/// remaining results still flow back.
struct Members<'m>(&'m mut [Member]);

impl ExecutorSet for Members<'_> {
    fn active(&self) -> Vec<NodeId> {
        (0..self.0.len())
            .filter(|&w| self.0[w].can_dispatch())
            .map(NodeId)
            .collect()
    }

    fn demote(&mut self, executor: NodeId) -> bool {
        let member = self.0.get_mut(executor.index());
        let Some(m) = member.filter(|m| m.alive && !m.demoted) else {
            return false;
        };
        m.demoted = true;
        m.tx = None;
        true
    }
}

/// The master half of a frame-speaking backend's run (see the module
/// docs): build it, admit members (or let a [`Membership`] admit them
/// during the run), then [`FrameMaster::run`] it.
pub struct FrameMaster<'a> {
    settings: &'a FrameSettings,
    job: &'a FrameJob,
    members: Vec<Member>,
    /// Cloned into every member's reader thread and handed out by
    /// [`FrameMaster::events`].
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    clock: WallClock,
    /// Liveness only: heartbeats and the stale-member sweep.  Execution
    /// times go to the engine, not here.
    registry: MonitorRegistry,
    /// The shared adaptation engine, fed per unit; its calibration prefix
    /// is the founders' first `founders × samples` observations.
    engine: Option<AdaptationEngine>,
    /// Probe units a mid-run joiner owes before real units.
    join_probes: usize,
    /// Declared work of one probe unit (the job's mean positive unit work).
    probe_work: f64,
    probe_counter: u64,
    /// `true` once dispatch began; members admitted later are mid-run
    /// joiners.
    started: bool,
    /// unit id → index into the unit list.
    id_to_idx: HashMap<usize, usize>,
    pending: VecDeque<usize>,
    /// Dispatches per unit index (bounded by `max_task_attempts`).
    attempts: Vec<usize>,
    /// unit id → completion time (master clock seconds).
    completions: BTreeMap<usize, f64>,
    /// unit id → worker-reported result digest.
    digests: BTreeMap<usize, u64>,
    /// Unit indices currently owed a re-execution (requeued, not yet done).
    requeued_open: BTreeSet<usize>,
    /// Speculative duplicates in flight: unit index → the member running
    /// the duplicate.  Duplicates never touch the attempt budget; the
    /// primary dispatch owns the retry path.
    spec_in_flight: HashMap<usize, usize>,
    resilience: ResilienceReport,
    rejected_joins: usize,
    /// Shared with the writer threads, which account bytes, encode time,
    /// write time, and extra payload copies per frame they put on the wire.
    counters: WireCounters,
    /// Shared with the reader-side sources.
    bytes_received: Arc<AtomicU64>,
    kill_injection: Option<(usize, usize)>,
}

impl<'a> FrameMaster<'a> {
    /// A master for `job` with no members yet.  The first `founders ×
    /// samples` observations form the calibration sample; a member admitted
    /// after dispatch began owes `join_probes` probe units first (default:
    /// the per-worker sample count).
    pub fn new(
        settings: &'a FrameSettings,
        config: &GraspConfig,
        job: &'a FrameJob,
        founders: usize,
        join_probes: Option<usize>,
    ) -> Self {
        let samples = settings
            .calibration_samples
            .unwrap_or(config.calibration.samples_per_node);
        let (positive_work, positive_units) = job
            .units
            .iter()
            .filter(|&&(_, w)| w > 0.0)
            .fold((0.0, 0usize), |(sum, n), &(_, w)| (sum + w, n + 1));
        // Armed with an empty reference sample: Z stays infinite until the
        // calibration prefix completes.
        let engine = (config.execution.adaptive && samples > 0).then(|| {
            AdaptationEngine::for_executors(&config.execution, &[], SimTime::ZERO)
                .with_units(positive_units > 0, (founders * samples).max(1))
        });
        let (tx, rx) = mpsc::channel();
        FrameMaster {
            settings,
            job,
            members: Vec::new(),
            tx,
            rx,
            clock: WallClock::start(),
            registry: MonitorRegistry::new(NodeId(0), 64),
            engine,
            join_probes: join_probes.unwrap_or(samples),
            probe_work: if positive_units == 0 {
                1.0
            } else {
                positive_work / positive_units as f64
            },
            probe_counter: 0,
            started: false,
            id_to_idx: job
                .units
                .iter()
                .enumerate()
                .map(|(i, &(id, _))| (id, i))
                .collect(),
            pending: (0..job.units.len()).collect(),
            attempts: vec![0; job.units.len()],
            completions: BTreeMap::new(),
            digests: BTreeMap::new(),
            requeued_open: BTreeSet::new(),
            spec_in_flight: HashMap::new(),
            resilience: ResilienceReport::default(),
            rejected_joins: 0,
            counters: WireCounters::new(),
            bytes_received: Arc::new(AtomicU64::new(0)),
            kill_injection: settings.kill_injection,
        }
    }

    /// A sender into the master's event channel, for threads that deliver
    /// [`Event::Joined`] / [`Event::Rejected`].
    pub fn events(&self) -> mpsc::Sender<Event> {
        self.tx.clone()
    }

    /// Members admitted so far (alive or not).
    pub fn admitted(&self) -> usize {
        self.members.len()
    }

    /// Members alive with an open channel.
    pub fn live(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.alive && m.tx.is_some())
            .count()
    }

    /// Units completed so far.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// Whether dispatch has begun.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Master-clock seconds since the master was built.
    pub fn elapsed_s(&self) -> f64 {
        self.clock.now().as_secs()
    }

    /// Admit a worker into the pool: assign the next slot (never reused),
    /// start its reader and writer threads, greet it (`Welcome` or `Init`),
    /// and — when dispatch has already begun — schedule its calibration
    /// prefix.
    pub fn admit(&mut self, arrival: Arrival) {
        let Arrival {
            peer,
            pid,
            sink,
            mut source,
            child,
            ring,
            joined,
        } = arrival;
        let w = self.members.len();
        let now = self.clock.now();
        source.set_byte_counter(Arc::clone(&self.bytes_received));
        let events = self.tx.clone();
        std::thread::spawn(move || loop {
            match source.recv() {
                Ok(Some(msg)) => {
                    if events.send(Event::Msg(w, msg)).is_err() {
                        return; // master gone
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = events.send(Event::Closed(w));
                    return;
                }
            }
        });
        let heartbeat_interval_s = self.settings.heartbeat_interval_s;
        let spin_per_work_unit = self.settings.spin_per_work_unit;
        let greeting = if joined {
            WireMsg::Welcome {
                worker_id: w as u64,
                heartbeat_interval_s,
                spin_per_work_unit,
            }
        } else {
            WireMsg::Init {
                heartbeat_interval_s,
                spin_per_work_unit,
            }
        };
        let out = spawn_frame_writer(sink, self.counters.clone());
        let write_ok = out.send(greeting.into()).is_ok();
        // Liveness starts fresh at admission — before a spawned worker's
        // Hello, so one that wedges without ever speaking still times out.
        // The forget-then-note pair is the re-registration contract: a new
        // member must not inherit a stale clock.
        self.registry.forget_heartbeat(NodeId(w));
        self.registry.note_heartbeat(NodeId(w), now);
        // A founder's calibration rides on the job's own leading units; a
        // mid-run joiner owes a probe prefix before real units (pointless
        // when the adaptation engine is off).
        let mid_run = self.started;
        let probes_target = match &mut self.engine {
            Some(engine) if mid_run => {
                engine.note_node_joined(now, NodeId(w));
                self.join_probes
            }
            _ => 0,
        };
        self.members.push(Member {
            peer,
            pid,
            child,
            ring,
            tx: write_ok.then_some(out),
            alive: true,
            ready: joined,
            demoted: false,
            departing: false,
            joined_s: now.as_secs(),
            joined_mid_run: mid_run,
            probes_target,
            probes_done: 0,
            probe_in_flight: 0,
            in_flight: Vec::new(),
            completed: 0,
            left: None,
        });
    }

    /// Drive the job to completion: the event loop, liveness sweep,
    /// dispatch, speculation and progress check, then an orderly shutdown
    /// and the outcome.
    pub fn run(mut self, membership: &mut impl Membership) -> Result<SkeletonOutcome, GraspError> {
        let total = self.job.units.len();
        let tick =
            Duration::from_secs_f64((self.settings.heartbeat_timeout_s / 8.0).clamp(0.02, 0.25));
        while self.completions.len() < total {
            // A timeout just runs the turn (the master holds a sender, so
            // the channel never disconnects).
            match self.rx.recv_timeout(tick) {
                Ok(Event::Joined(arrival)) => membership.joined(&mut self, arrival),
                Ok(Event::Rejected) => self.rejected_joins += 1,
                Ok(Event::Msg(w, msg)) => self.on_msg(w, msg)?,
                Ok(Event::Closed(w)) => self.on_member_gone(w),
                Err(_) => {}
            }
            membership.turn(&mut self)?;
            self.sweep();
            if !self.started {
                self.started = membership.may_start(&self)?;
                if !self.started {
                    continue;
                }
            }
            self.dispatch_all()?;
            self.try_speculate();
            if self.stuck() && !membership.starved(&mut self) {
                return Err(GraspError::WorkerUnavailable {
                    detail: format!(
                        "all {} workers gone with {} of {} units unfinished",
                        self.members.len(),
                        total - self.completions.len(),
                        total
                    ),
                });
            }
        }
        Ok(self.finish(membership))
    }

    /// Liveness sweep, when heartbeats are on: EOF catches most deaths
    /// instantly, the timeout catches wedged-but-open workers.  With
    /// heartbeats off (deterministic tests) EOF is the sole death signal.
    fn sweep(&mut self) {
        if self.settings.heartbeat_interval_s <= 0.0 {
            return;
        }
        let now = self.clock.now();
        for node in self
            .registry
            .stale_nodes(now, self.settings.heartbeat_timeout_s)
        {
            self.on_member_gone(node.index());
        }
    }

    /// Members that can accept new dispatches right now.
    fn dispatchable(&self) -> usize {
        self.members.iter().filter(|m| m.can_dispatch()).count()
    }

    fn total_in_flight(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.in_flight.len() + m.probe_in_flight)
            .sum()
    }

    /// The run can no longer make progress on its current members.
    fn stuck(&self) -> bool {
        self.completions.len() < self.job.units.len()
            && self.dispatchable() == 0
            && (!self.pending.is_empty() || self.total_in_flight() == 0)
    }

    /// Queue one frame to member `w`'s writer thread (which owns encoding
    /// and the transport write); `false` means the channel is gone and is
    /// now closed on this side — the member's fate is settled by its
    /// `Closed` event or the heartbeat timeout.
    fn send_to(&mut self, w: usize, msg: OutMsg) -> bool {
        let m = &mut self.members[w];
        let sent = m.tx.as_ref().is_some_and(|out| out.send(msg).is_ok());
        if !sent {
            m.tx = None;
        }
        sent
    }

    /// The Task frame for unit index `idx`.  Real-kernel payloads ride as
    /// `Arc<[u8]>`: dispatch clones a pointer, and the writer thread
    /// encodes straight from the shared bytes.
    fn task(&self, idx: usize) -> OutMsg {
        let (id, work) = self.job.units[idx];
        match self.settings.payloads.get(&id) {
            Some((kind, bytes)) => OutMsg::Task {
                unit_id: id as u64,
                work,
                kind: *kind,
                payload: Arc::clone(bytes),
            },
            None => OutMsg::spin_task(id as u64, work),
        }
    }

    /// Fill every eligible member's window: calibration probes first (a
    /// joiner mid-prefix gets no real units), then pending units.
    fn dispatch_all(&mut self) -> Result<(), GraspError> {
        for w in 0..self.members.len() {
            loop {
                let m = &self.members[w];
                if !(m.can_dispatch() && m.ready)
                    || m.probes_done + m.probe_in_flight >= m.probes_target
                    || m.probe_in_flight + m.in_flight.len() >= OUTSTANDING_PER_WORKER
                {
                    break;
                }
                let probe =
                    OutMsg::spin_task(PROBE_UNIT_BASE + self.probe_counter, self.probe_work);
                self.probe_counter += 1;
                if !self.send_to(w, probe) {
                    break;
                }
                self.members[w].probe_in_flight += 1;
            }
            while self.members[w].takes_units()
                && self.members[w].in_flight.len() < OUTSTANDING_PER_WORKER
            {
                let Some(idx) = self.pending.pop_front() else {
                    break;
                };
                self.attempts[idx] += 1;
                if self.attempts[idx] > self.settings.max_task_attempts {
                    return Err(GraspError::WorkerFailed {
                        task: self.job.units[idx].0,
                        attempts: self.attempts[idx],
                    });
                }
                if self.send_to(w, self.task(idx)) {
                    self.members[w].in_flight.push(idx);
                } else {
                    self.pending.push_front(idx);
                    self.attempts[idx] -= 1;
                }
            }
        }
        Ok(())
    }

    /// Near the tail — pending queue drained, a few stragglers in flight —
    /// duplicate in-flight units on idle members when the engine's
    /// `Speculate` directive allows it.  The first result to arrive wins
    /// and the loser is discarded on arrival; duplicates never touch the
    /// attempt budget, because the primary dispatch owns the retry path.
    fn try_speculate(&mut self) {
        let total = self.job.units.len();
        if !self.pending.is_empty() || self.completions.len() >= total {
            return;
        }
        loop {
            let in_flight = self.total_in_flight();
            let allowed = match &self.engine {
                Some(engine) => engine.maybe_speculate(in_flight, total).is_some(),
                None => false,
            };
            if !allowed {
                return;
            }
            // An idle window slot, counting a member's speculative
            // duplicates against the same outstanding budget.
            let Some(w) = (0..self.members.len()).find(|&w| {
                let m = &self.members[w];
                let spec_held = self.spec_in_flight.values().filter(|&&sw| sw == w).count();
                m.takes_units() && m.in_flight.len() + spec_held < OUTSTANDING_PER_WORKER
            }) else {
                return;
            };
            // A straggler worth racing: in flight on a *different* member
            // and not already duplicated.
            let candidate = self
                .members
                .iter()
                .enumerate()
                .filter(|&(mw, _)| mw != w)
                .flat_map(|(_, m)| m.in_flight.iter().copied())
                .find(|idx| {
                    !self.spec_in_flight.contains_key(idx)
                        && !self.completions.contains_key(&self.job.units[*idx].0)
                });
            let Some(idx) = candidate else {
                return;
            };
            if !self.send_to(w, self.task(idx)) {
                continue; // nothing was duplicated; `w` no longer qualifies
            }
            let now = self.clock.now();
            self.spec_in_flight.insert(idx, w);
            self.resilience.speculated_units += 1;
            if let Some(engine) = &mut self.engine {
                engine.note_speculated(now, self.job.units[idx].0, NodeId(w));
            }
        }
    }

    /// A member's link is gone (EOF, frame error, or heartbeat timeout).
    /// Members already released (Goodbye drain) were settled when their
    /// channel closed; a demoted member draining out is a planned
    /// departure; anything else is a death: requeue the stranded units,
    /// count the loss, tell the engine.
    fn on_member_gone(&mut self, w: usize) {
        if !self.members[w].alive {
            return;
        }
        let now = self.clock.now();
        let m = &mut self.members[w];
        m.alive = false;
        m.tx = None;
        if let Some(child) = &mut m.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        let stranded = std::mem::take(&mut m.in_flight);
        m.probe_in_flight = 0;
        let was_demoted = m.demoted;
        m.left = Some(if was_demoted {
            NetDeparture::Graceful
        } else {
            NetDeparture::Death
        });
        self.registry.forget_heartbeat(NodeId(w));
        // Speculative duplicates stranded on the gone member are simply
        // dropped — the primary copy lives elsewhere and owns the unit, so
        // requeueing them would double-schedule.
        self.spec_in_flight.retain(|_, &mut sw| sw != w);
        for &idx in stranded.iter().rev() {
            self.pending.push_front(idx);
            self.requeued_open.insert(idx);
        }
        self.resilience.requeued_tasks += stranded.len();
        if !was_demoted {
            self.resilience.nodes_lost += 1;
            if let Some(engine) = &mut self.engine {
                engine.note_node_lost(now, NodeId(w), stranded.len());
            }
        }
    }

    /// A departing member whose window has fully drained is released:
    /// Shutdown frame, channel closed, membership recorded as graceful.
    fn maybe_finish_departing(&mut self, w: usize) {
        let m = &self.members[w];
        if !(m.alive && m.departing && m.in_flight.is_empty() && m.probe_in_flight == 0) {
            return;
        }
        let _ = self.send_to(w, WireMsg::Shutdown.into());
        let m = &mut self.members[w];
        m.tx = None;
        m.alive = false;
        m.left = Some(NetDeparture::Graceful);
        self.registry.forget_heartbeat(NodeId(w));
    }

    /// Feed one observation of member `w` to the engine and let it steer
    /// the members table.
    fn observe(&mut self, w: usize, work: f64, elapsed_s: f64, now: SimTime) {
        if let Some(engine) = &mut self.engine {
            engine.observe_unit(NodeId(w), work, elapsed_s, now);
            engine.steer(now, &mut Members(&mut self.members));
        }
    }

    /// Index of a unit a member reported on.
    fn unit_index(&self, w: usize, unit_id: u64) -> Result<usize, GraspError> {
        self.id_to_idx
            .get(&(unit_id as usize))
            .copied()
            .ok_or_else(|| GraspError::WireProtocol {
                detail: format!("worker {w} reported unknown unit {unit_id}"),
            })
    }

    fn on_msg(&mut self, w: usize, msg: WireMsg) -> Result<(), GraspError> {
        // Frames from a member already settled (dead, drained, released)
        // are dropped: acting on them — in particular re-inserting the
        // heartbeat — would make the liveness sweep re-report a stale slot
        // forever, and a late-arriving node could not re-register cleanly.
        if !self.members[w].alive {
            return Ok(());
        }
        let now = self.clock.now();
        self.registry.note_heartbeat(NodeId(w), now);
        match msg {
            WireMsg::Hello { .. } if !self.members[w].ready => self.members[w].ready = true,
            WireMsg::Heartbeat => {}
            WireMsg::Done {
                unit_id,
                elapsed_s,
                digest,
            } => self.on_done(w, unit_id, elapsed_s, digest, now)?,
            WireMsg::Failed { unit_id, .. } => self.on_failed(w, unit_id)?,
            WireMsg::Goodbye { .. } => {
                // No new dispatches; the window drains, then
                // `maybe_finish_departing` releases the member.
                self.members[w].departing = true;
                self.maybe_finish_departing(w);
            }
            // Master-side frames, a second Hello or Join: a protocol breach.
            _ => {
                return Err(GraspError::WireProtocol {
                    detail: format!(
                        "worker {w} ({}) sent a frame outside the worker protocol",
                        self.members[w].peer
                    ),
                })
            }
        }
        Ok(())
    }

    /// A probe came back: advance the member's calibration prefix and feed
    /// the observation (if it succeeded) to the engine, so a slow newcomer
    /// can be demoted before it ever touches a real unit.
    fn on_probe_done(&mut self, w: usize, elapsed_s: Option<f64>, now: SimTime) {
        let m = &mut self.members[w];
        m.probe_in_flight = m.probe_in_flight.saturating_sub(1);
        m.probes_done += 1;
        if let Some(elapsed_s) = elapsed_s {
            self.observe(w, self.probe_work, elapsed_s, now);
        }
        self.maybe_finish_departing(w);
    }

    fn on_done(
        &mut self,
        w: usize,
        unit_id: u64,
        elapsed_s: f64,
        digest: u64,
        now: SimTime,
    ) -> Result<(), GraspError> {
        if unit_id >= PROBE_UNIT_BASE {
            self.on_probe_done(w, Some(elapsed_s), now);
            return Ok(());
        }
        let idx = self.unit_index(w, unit_id)?;
        self.members[w].in_flight.retain(|&i| i != idx);
        let (id, work) = self.job.units[idx];
        // A unit presumed lost (timeout requeue) or speculatively
        // duplicated can complete more than once: the first completion is
        // recorded and later copies are discarded on arrival, so every unit
        // is counted exactly once.
        if let btree_map::Entry::Vacant(slot) = self.completions.entry(id) {
            slot.insert(now.as_secs());
            self.digests.insert(id, digest);
            self.members[w].completed += 1;
            if self.requeued_open.remove(&idx) {
                self.resilience.retried_tasks += 1;
            }
            // A settled speculation race: if the winning copy is the
            // duplicate, the straggler was rescued.
            if self.spec_in_flight.remove(&idx) == Some(w) {
                self.resilience.speculation_wins += 1;
                if let Some(engine) = &mut self.engine {
                    engine.note_speculation_won(now, id, NodeId(w));
                }
            }
        }
        // A discarded copy was still real work on its member: the engine
        // sees its timing either way.
        self.observe(w, work, elapsed_s, now);
        self.maybe_finish_departing(w);
        // Hard-kill injection: after the configured number of results,
        // refill the victim's window so units are genuinely in flight, then
        // SIGKILL it mid-run.  Detection is the real path: EOF or the
        // heartbeat timeout, handled when the Closed event arrives.
        if let Some((kw, after)) = self.kill_injection {
            if kw == w && self.members[w].completed >= after {
                self.kill_injection = None;
                self.dispatch_all()?;
                if let Some(child) = &mut self.members[w].child {
                    let _ = child.kill();
                }
            }
        }
        Ok(())
    }

    fn on_failed(&mut self, w: usize, unit_id: u64) -> Result<(), GraspError> {
        if unit_id >= PROBE_UNIT_BASE {
            self.on_probe_done(w, None, self.clock.now());
            return Ok(());
        }
        let idx = self.unit_index(w, unit_id)?;
        self.members[w].in_flight.retain(|&i| i != idx);
        // A failed speculative duplicate is discarded outright: the primary
        // copy owns the unit's retry budget, so requeueing here would
        // double-schedule (and could even fail the run on the duplicate's
        // account).
        if self.spec_in_flight.get(&idx) == Some(&w) {
            self.spec_in_flight.remove(&idx);
            return Ok(());
        }
        if self.attempts[idx] >= self.settings.max_task_attempts {
            return Err(GraspError::WorkerFailed {
                task: unit_id as usize,
                attempts: self.attempts[idx],
            });
        }
        // The worker survives a bad payload; the unit is retried,
        // preferably elsewhere.
        self.pending.push_back(idx);
        self.requeued_open.insert(idx);
        self.resilience.requeued_tasks += 1;
        self.maybe_finish_departing(w);
        Ok(())
    }

    /// Orderly shutdown — release every live member (Shutdown frame, then
    /// EOF), reap — and assemble the outcome.
    fn finish(mut self, membership: &impl Membership) -> SkeletonOutcome {
        for w in 0..self.members.len() {
            if self.members[w].alive {
                let _ = self.send_to(w, WireMsg::Shutdown.into());
                self.members[w].tx = None;
            }
        }
        let makespan_s = self.clock.now().as_secs();
        let tasks_per_worker = self.members.iter().map(|m| m.completed).collect();
        let members = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| NetMemberReport {
                worker: i,
                pid: m.pid,
                joined_s: m.joined_s,
                joined_mid_run: m.joined_mid_run,
                calibration_probes: m.probes_done,
                units_completed: m.completed,
                left: m.left,
            })
            .collect();
        let workers = self.members.len();
        self.members.clear(); // drop = close, kill (no-op for clean exits), reap
        let report = FrameReport {
            workers,
            tasks_per_worker,
            rejected_joins: self.rejected_joins,
            bytes_sent: self.counters.bytes.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            wire_write_s: self.counters.write_seconds(),
            wire_encode_s: self.counters.encode_seconds(),
            bytes_copied: self.counters.copied.load(Ordering::Relaxed),
            unit_digests: std::mem::take(&mut self.digests).into_iter().collect(),
            members,
        };
        let (calibration_s, adaptation_log) = match self.engine {
            Some(engine) => (
                engine.armed_at().map_or(0.0, |t| t.as_secs()),
                engine.into_log(),
            ),
            None => (0.0, AdaptationLog::new()),
        };
        let unit_ids: Vec<usize> = self.completions.keys().copied().collect();
        SkeletonOutcome {
            kind: self.job.kind,
            completed: unit_ids.len(),
            unit_ids,
            makespan_s,
            calibration_s,
            adaptation_log,
            resilience: self.resilience,
            children: self
                .job
                .spans
                .iter()
                .map(|s| s.outcome_from(&self.completions))
                .collect(),
            detail: membership.detail(report),
        }
    }
}
