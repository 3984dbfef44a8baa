//! Every decision the frame master makes, and no I/O.
//!
//! [`MasterCore::step`] takes `(now, Input)` and returns the [`Output`]s a
//! driver carries out.  Links and members are indices; a send the driver
//! could not deliver comes back as [`Input::Undelivered`], which undoes its
//! dispatch.  Each step handles its input, then takes a turn:
//!
//! * **membership** — a [`JoinPolicy`] holds dispatch until `wait_for`
//!   members are live, parks later links until a join point and asks for
//!   more workers mid-run; a member admitted after dispatch began first
//!   serves a **calibration prefix** of probe units, so it is ranked — and
//!   possibly demoted — before it touches a real unit;
//! * **departures** — a member whose link closed, or that was silent past
//!   the heartbeat timeout, is dead: its window is requeued, the loss
//!   counted and the engine told; a `Goodbye` drains the window instead;
//! * **demand windows** — at most two unanswered units per member, each
//!   unit dispatched at most `max_task_attempts` times, the first of
//!   several completions recorded and later copies discarded;
//! * **adaptation** — every observation goes to the shared
//!   [`AdaptationEngine`], whose calibration prefix is the founders' first
//!   `founders × samples` observations (Algorithm 1) and which then steers
//!   the members table (a demotion closes the member's channel); once the
//!   queue drains it decides whether an idle slot duplicates a straggler.
//!
//! Once every unit has completed the core releases the live members and
//! emits [`Output::Finished`].

use super::{FrameJob, FrameSettings};
use grasp_core::adaptation::AdaptationLog;
use grasp_core::engine::{AdaptationEngine, ExecutorSet};
use grasp_core::error::GraspError;
use grasp_core::skeleton::{
    NetDeparture, NetMemberReport, OutcomeDetail, ResilienceReport, SkeletonOutcome,
};
use grasp_core::transport::OutMsg;
use grasp_core::wire::{FrameView, WireMsg};
use grasp_core::GraspConfig;
use gridsim::{NodeId, SimTime};
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Units a member may hold dispatched but unanswered.
const OUTSTANDING_PER_WORKER: usize = 2;

/// Calibration probe units live above this id so they can never collide
/// with (or be mistaken for) a job unit.
const PROBE_UNIT_BASE: u64 = 1 << 63;

/// When dispatch begins and how the pool grows.  The default — begin at
/// once, park nothing, spawn nothing — is the process backend's.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinPolicy {
    /// Live members required before dispatch may begin.
    pub wait_for: usize,
    /// Master-clock seconds to wait for them before the run fails.
    pub join_timeout_s: f64,
    /// Park links arriving beyond the first `wait_for` until this many
    /// units have completed; a parked link is admitted early if the pool
    /// would otherwise starve.
    pub hold_joins_until: Option<usize>,
    /// Ask for `.1` more workers once `.0` units have completed.
    pub join_spawn: Option<(usize, usize)>,
}

/// What happened, as the core sees it.
pub(crate) enum Input {
    /// Link `link` passed its handshake: worker process `pid`, registered
    /// with `Join` (takes units at once) or spawned (once it says `Hello`).
    Arrived {
        /// The driver's link index.
        link: usize,
        /// The worker's OS process id.
        pid: u64,
        /// Registered with `Join` rather than spawned.
        joined: bool,
    },
    /// A connection was refused at the handshake.
    Rejected,
    /// A frame from member `.0`.
    Frame(usize, WireMsg),
    /// Member `.0`'s link closed (clean EOF or frame error).
    Closed(usize),
    /// A refused [`Output::Send`] to member `.0`: its channel is gone.
    Undelivered(usize, OutMsg),
    /// Time passed with nothing else to report.
    Tick,
}

/// What the driver must do, in order.
#[derive(Debug)]
pub(crate) enum Output {
    /// Make link `.0` member `.1` (the next slot; slots are never reused)
    /// and start carrying its frames.
    Admit(usize, usize),
    /// Queue a frame to member `.0`.
    Send(usize, OutMsg),
    /// Close member `.0`'s channel (EOF once the queued frames are out).
    Close(usize),
    /// Hard-kill member `.0`'s process, if any (the kill fault).
    Kill(usize),
    /// Member `.0` is gone: close, kill and reap its process, unlink its
    /// ring.
    Reap(usize),
    /// Start `.0` more worker processes; they arrive through the handshake.
    Spawn(usize),
    /// Every unit completed and every live member was released.
    Finished,
}

/// The per-run facts a backend turns into its [`OutcomeDetail`].  The wire
/// fields are the driver's to fill; the core leaves them zero.
#[derive(Debug, Default)]
pub struct FrameReport {
    /// Connections refused at the handshake.
    pub rejected_joins: usize,
    /// Bytes of frames written to the workers.
    pub bytes_sent: u64,
    /// Bytes of frames received from the workers.
    pub bytes_received: u64,
    /// Wall seconds spent writing encoded frames.
    pub wire_write_s: f64,
    /// Wall seconds spent encoding frames.
    pub wire_encode_s: f64,
    /// Payload bytes copied beyond the one encode per frame.
    pub bytes_copied: u64,
    /// Per-unit result digests, sorted by unit id.
    pub unit_digests: Vec<(usize, u64)>,
    /// Per-member audit, in admission order (slots are never reused).
    pub members: Vec<NetMemberReport>,
}

/// One admitted worker, as the core tracks it.
#[derive(Default)]
struct Member {
    pid: u64,
    /// The channel towards the worker is open (closed by demotion,
    /// release, death or a refused send).
    open: bool,
    alive: bool,
    /// `Hello` received, or admitted through `Join`.
    ready: bool,
    demoted: bool,
    /// `Goodbye` received — drain the window, then release.
    departing: bool,
    joined_s: f64,
    joined_mid_run: bool,
    /// The last frame (or the admission): liveness for the heartbeat sweep.
    last_heard: SimTime,
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
        self.alive && !self.demoted && !self.departing && self.open
    }

    /// Eligible for real units and speculative duplicates: greeted and
    /// past its calibration prefix.
    fn takes_units(&self) -> bool {
        self.can_dispatch() && self.ready && self.probes_done >= self.probes_target
    }
}

/// The core's executor set for [`AdaptationEngine::steer`]: its members
/// table.  Demotion closes the member's channel: it finishes its window,
/// reads EOF and exits; remaining results still flow back.
struct Members<'m>(&'m mut [Member], &'m mut Vec<Output>);

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
        if m.open {
            m.open = false;
            self.1.push(Output::Close(executor.index()));
        }
        true
    }
}

/// The frame master's decisions for one job (see the module docs).
pub(crate) struct MasterCore<'a> {
    settings: &'a FrameSettings,
    job: &'a FrameJob,
    policy: JoinPolicy,
    members: Vec<Member>,
    /// Links parked by `hold_joins_until`: `(link, pid, joined)`.
    parked: Vec<(usize, u64, bool)>,
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
    kill_injection: Option<(usize, usize)>,
    /// This step's outputs.
    out: Vec<Output>,
}

impl<'a> MasterCore<'a> {
    /// A core for `job` with no members yet (see `FrameMaster::new`).
    pub(crate) fn new(
        settings: &'a FrameSettings,
        config: &GraspConfig,
        job: &'a FrameJob,
        founders: usize,
        join_probes: Option<usize>,
        policy: JoinPolicy,
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
        MasterCore {
            settings,
            job,
            policy,
            members: Vec::new(),
            parked: Vec::new(),
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
            kill_injection: settings.kill_injection,
            out: Vec::new(),
        }
    }

    /// Handle `input` at master-clock time `now`, take the turn, and return
    /// what the driver must do.  An error fails the run.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        input: Input,
    ) -> Result<std::vec::Drain<'_, Output>, GraspError> {
        self.out.clear();
        match input {
            Input::Arrived { link, pid, joined } => {
                let hold = self.policy.hold_joins_until.is_some_and(|k| {
                    self.members.len() >= self.policy.wait_for && self.completions.len() < k
                });
                if hold {
                    self.parked.push((link, pid, joined));
                } else {
                    self.admit(now, link, pid, joined);
                }
            }
            Input::Rejected => self.rejected_joins += 1,
            Input::Frame(w, msg) => self.on_frame(w, msg, now)?,
            Input::Closed(w) => self.on_member_gone(w, now),
            Input::Undelivered(w, msg) => self.on_undelivered(w, &msg),
            Input::Tick => {}
        }
        self.turn(now)?;
        Ok(self.out.drain(..))
    }

    /// The run's outcome (its `detail` left to the backend) and report,
    /// once [`Output::Finished`] was emitted.
    pub(crate) fn into_outcome(self, makespan_s: f64) -> (SkeletonOutcome, FrameReport) {
        let report = FrameReport {
            rejected_joins: self.rejected_joins,
            unit_digests: self.digests.into_iter().collect(),
            members: self
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
                .collect(),
            ..FrameReport::default()
        };
        let armed_at = self.engine.as_ref().and_then(AdaptationEngine::armed_at);
        let adaptation_log = self
            .engine
            .map_or_else(AdaptationLog::new, |e| e.into_log());
        let unit_ids: Vec<usize> = self.completions.keys().copied().collect();
        let outcome = SkeletonOutcome {
            kind: self.job.kind,
            completed: unit_ids.len(),
            unit_ids,
            makespan_s,
            calibration_s: armed_at.map_or(0.0, |t| t.as_secs()),
            adaptation_log,
            resilience: self.resilience,
            children: self
                .job
                .spans
                .iter()
                .map(|s| s.outcome_from(&self.completions))
                .collect(),
            detail: OutcomeDetail::None,
        };
        (outcome, report)
    }

    /// After every input: grow the pool, sweep liveness, wait for the
    /// founders, dispatch, speculate, check progress, and finish once every
    /// unit has completed.
    fn turn(&mut self, now: SimTime) -> Result<(), GraspError> {
        let done = self.completions.len();
        if self.started {
            if self.policy.hold_joins_until.is_some_and(|k| done >= k) {
                self.admit_parked(now);
            }
            if let Some((_, extra)) = self.policy.join_spawn.filter(|&(after, _)| done >= after) {
                self.policy.join_spawn = None;
                self.out.push(Output::Spawn(extra));
            }
        }
        self.sweep(now);
        let total = self.job.units.len();
        let live = self.members.iter().filter(|m| m.alive && m.open).count();
        if !self.started && live < self.policy.wait_for {
            if now.as_secs() > self.policy.join_timeout_s {
                return Err(GraspError::WorkerUnavailable {
                    detail: format!(
                        "only {live} of {} workers registered within {:.1}s",
                        self.policy.wait_for, self.policy.join_timeout_s
                    ),
                });
            }
            return Ok(());
        }
        self.dispatch_all()?;
        self.try_speculate(now);
        if self.stuck() {
            if self.parked.is_empty() {
                return Err(GraspError::WorkerUnavailable {
                    detail: format!(
                        "all {} workers gone with {} of {total} units unfinished",
                        self.members.len(),
                        total - self.completions.len(),
                    ),
                });
            }
            self.admit_parked(now);
        }
        if self.completions.len() >= total {
            for w in 0..self.members.len() {
                if self.members[w].alive {
                    self.release(w);
                }
            }
            self.out.push(Output::Finished);
        }
        Ok(())
    }

    /// Admit link `link` into the next member slot (never reused), greet
    /// it (`Welcome` or `Init`), and — when dispatch has already begun —
    /// schedule its calibration prefix.
    fn admit(&mut self, now: SimTime, link: usize, pid: u64, joined: bool) {
        let w = self.members.len();
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
        self.out.push(Output::Admit(link, w));
        self.out.push(Output::Send(w, greeting.into()));
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
            pid,
            open: true,
            alive: true,
            ready: joined,
            joined_s: now.as_secs(),
            joined_mid_run: mid_run,
            // Liveness starts at admission, so a worker that wedges before
            // it ever speaks still times out.
            last_heard: now,
            probes_target,
            ..Member::default()
        });
    }

    /// Admit every parked link (join point reached, or the pool would
    /// starve without them).
    fn admit_parked(&mut self, now: SimTime) {
        for (link, pid, joined) in std::mem::take(&mut self.parked) {
            self.admit(now, link, pid, joined);
        }
    }

    /// Liveness sweep, when heartbeats are on: EOF catches most deaths
    /// instantly, the timeout catches wedged-but-open workers.  With
    /// heartbeats off (deterministic tests) EOF is the sole death signal.
    /// A settled member stays silent for good; `on_member_gone` ignores it.
    fn sweep(&mut self, now: SimTime) {
        if self.settings.heartbeat_interval_s <= 0.0 {
            return;
        }
        for w in 0..self.members.len() {
            let silent_s = (now - self.members[w].last_heard).as_secs();
            if silent_s > self.settings.heartbeat_timeout_s {
                self.on_member_gone(w, now);
            }
        }
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
            && !self.members.iter().any(Member::can_dispatch)
            && (!self.pending.is_empty() || self.total_in_flight() == 0)
    }

    /// Shutdown frame, then EOF — if member `w`'s channel is still open.
    fn release(&mut self, w: usize) {
        let m = &mut self.members[w];
        if m.open {
            m.open = false;
            self.out.push(Output::Send(w, WireMsg::Shutdown.into()));
            self.out.push(Output::Close(w));
        }
    }

    /// The Task frame for unit index `idx`.  Real-kernel payloads ride as
    /// `Arc<[u8]>`: dispatch clones a pointer, and the encoder writes
    /// straight from the shared bytes.
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
                self.out.push(Output::Send(w, probe));
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
                self.out.push(Output::Send(w, self.task(idx)));
                self.members[w].in_flight.push(idx);
                self.started = true;
            }
        }
        Ok(())
    }

    /// Near the tail — pending queue drained, a few stragglers in flight —
    /// duplicate in-flight units on idle members when the engine allows it.
    /// The first result wins; duplicates never touch the attempt budget,
    /// because the primary dispatch owns the retry path.
    fn try_speculate(&mut self, now: SimTime) {
        let total = self.job.units.len();
        if !self.pending.is_empty() || self.completions.len() >= total {
            return;
        }
        loop {
            let in_flight = self.total_in_flight();
            let engine = self.engine.as_ref();
            if !engine.is_some_and(|e| e.maybe_speculate(in_flight, total)) {
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
            self.out.push(Output::Send(w, self.task(idx)));
            self.spec_in_flight.insert(idx, w);
            self.resilience.speculated_units += 1;
            if let Some(engine) = &mut self.engine {
                engine.note_speculated(now, self.job.units[idx].0, NodeId(w));
            }
        }
    }

    /// A frame for member `w` was refused: its channel is gone (its fate is
    /// settled by its `Closed` input or the heartbeat timeout).  The unit
    /// it carried goes back to the front of the queue, its attempt unspent.
    fn on_undelivered(&mut self, w: usize, msg: &OutMsg) {
        let m = &mut self.members[w];
        m.open = false;
        let FrameView::Task { unit_id, .. } = msg.as_view() else {
            return;
        };
        if unit_id >= PROBE_UNIT_BASE {
            m.probe_in_flight = m.probe_in_flight.saturating_sub(1);
            return;
        }
        let Some(&idx) = self.id_to_idx.get(&(unit_id as usize)) else {
            return;
        };
        if self.spec_in_flight.get(&idx) == Some(&w) {
            self.spec_in_flight.remove(&idx);
            self.resilience.speculated_units -= 1;
        } else if let Some(at) = m.in_flight.iter().position(|&i| i == idx) {
            m.in_flight.remove(at);
            self.pending.push_front(idx);
            self.attempts[idx] -= 1;
        }
    }

    /// A member's link is gone (EOF, frame error, or heartbeat timeout).
    /// Members already released (Goodbye drain) were settled when their
    /// channel closed; a demoted member draining out is a planned
    /// departure; anything else is a death: requeue the stranded units,
    /// count the loss, tell the engine.
    fn on_member_gone(&mut self, w: usize, now: SimTime) {
        let m = &mut self.members[w];
        if !m.alive {
            return;
        }
        m.alive = false;
        m.open = false;
        self.out.push(Output::Reap(w));
        let stranded = std::mem::take(&mut m.in_flight);
        m.probe_in_flight = 0;
        let was_demoted = m.demoted;
        m.left = Some(if was_demoted {
            NetDeparture::Graceful
        } else {
            NetDeparture::Death
        });
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
        self.release(w);
        let m = &mut self.members[w];
        m.alive = false;
        m.left = Some(NetDeparture::Graceful);
    }

    /// Feed one observation of member `w` to the engine and let it steer
    /// the members table.
    fn observe(&mut self, w: usize, work: f64, elapsed_s: f64, now: SimTime) {
        if let Some(engine) = &mut self.engine {
            engine.observe_unit(NodeId(w), work, elapsed_s, now);
            engine.steer(now, &mut Members(&mut self.members, &mut self.out));
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

    fn on_frame(&mut self, w: usize, msg: WireMsg, now: SimTime) -> Result<(), GraspError> {
        // Frames from a member already settled (dead, drained, released)
        // are dropped: acting on them would resurrect a slot the run has
        // already accounted for.
        let m = &mut self.members[w];
        if !m.alive {
            return Ok(());
        }
        m.last_heard = now;
        match msg {
            WireMsg::Hello { .. } if !m.ready => m.ready = true,
            WireMsg::Heartbeat => {}
            WireMsg::Done {
                unit_id,
                elapsed_s,
                digest,
            } => self.on_done(w, unit_id, elapsed_s, digest, now)?,
            WireMsg::Failed { unit_id, .. } => self.on_failed(w, unit_id, now)?,
            WireMsg::Goodbye { .. } => {
                // No new dispatches; the window drains, then
                // `maybe_finish_departing` releases the member.
                m.departing = true;
                self.maybe_finish_departing(w);
            }
            // Master-side frames, a second Hello or Join: a protocol breach.
            _ => {
                return Err(GraspError::WireProtocol {
                    detail: format!("worker {w} sent a frame outside the worker protocol"),
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
        // kill it mid-run.  Detection is the real path: EOF or the
        // heartbeat timeout, reported as the member's `Closed` input.
        if let Some((kw, after)) = self.kill_injection {
            if kw == w && self.members[w].completed >= after {
                self.kill_injection = None;
                self.dispatch_all()?;
                self.out.push(Output::Kill(w));
            }
        }
        Ok(())
    }

    fn on_failed(&mut self, w: usize, unit_id: u64, now: SimTime) -> Result<(), GraspError> {
        if unit_id >= PROBE_UNIT_BASE {
            self.on_probe_done(w, None, now);
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
}

#[cfg(test)]
mod tests {
    //! The core under a scripted clock: inputs in, outputs and the final
    //! outcome checked, no link, no clock, no concurrency.

    use super::*;
    use grasp_core::config::BackendConfig;
    use grasp_core::skeleton::Skeleton;
    use grasp_core::task::TaskSpec;

    fn farm(units: usize) -> Skeleton {
        Skeleton::farm(TaskSpec::uniform(units, 1.0, 0, 0))
    }

    fn lower(config: &GraspConfig, skeleton: &Skeleton) -> FrameJob {
        FrameJob::lower(config, skeleton).expect("a valid farm")
    }

    /// Frame settings with heartbeats `Some((interval, timeout))` or off.
    fn settings(heartbeat: Option<(f64, f64)>) -> FrameSettings {
        let (interval_s, timeout_s) = heartbeat.unwrap_or((0.0, 1.0));
        let mut settings = FrameSettings::default();
        settings.configure(&BackendConfig::new().heartbeat(interval_s, timeout_s));
        settings
    }

    /// The socket backend's policy shape: dispatch once `wait_for` live.
    fn waiting_for(wait_for: usize) -> JoinPolicy {
        JoinPolicy {
            wait_for,
            join_timeout_s: 30.0,
            ..JoinPolicy::default()
        }
    }

    fn step(core: &mut MasterCore<'_>, t: f64, input: Input) -> Vec<Output> {
        core.step(SimTime::new(t), input)
            .expect("the step must not fail the run")
            .collect()
    }

    fn arrive(core: &mut MasterCore<'_>, t: f64, link: usize) -> Vec<Output> {
        let pid = 100 + link as u64;
        step(
            core,
            t,
            Input::Arrived {
                link,
                pid,
                joined: true,
            },
        )
    }

    fn frame(core: &mut MasterCore<'_>, t: f64, w: usize, msg: WireMsg) -> Vec<Output> {
        step(core, t, Input::Frame(w, msg))
    }

    fn done(unit_id: u64) -> WireMsg {
        WireMsg::Done {
            unit_id,
            elapsed_s: 0.01,
            digest: unit_id,
        }
    }

    /// The Task frames among `outs`, as `(member, unit id)`.
    fn tasks(outs: &[Output]) -> Vec<(usize, u64)> {
        outs.iter()
            .filter_map(|o| match o {
                Output::Send(w, msg) => match msg.as_view() {
                    FrameView::Task { unit_id, .. } => Some((*w, unit_id)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    fn units_of(outs: &[Output], w: usize) -> Vec<u64> {
        tasks(outs)
            .into_iter()
            .filter(|&(m, _)| m == w)
            .map(|(_, u)| u)
            .collect()
    }

    fn reaped(outs: &[Output]) -> Vec<usize> {
        outs.iter()
            .filter_map(|o| match o {
                Output::Reap(w) => Some(*w),
                _ => None,
            })
            .collect()
    }

    fn tasks_per_worker(report: &FrameReport) -> Vec<usize> {
        report.members.iter().map(|m| m.units_completed).collect()
    }

    fn finished(outs: &[Output]) -> bool {
        matches!(outs.last(), Some(Output::Finished))
    }

    /// The units member `w` holds, as `(member, unit id)`.
    fn held(core: &MasterCore<'_>, w: usize) -> Vec<(usize, u64)> {
        let in_flight = core.members[w].in_flight.iter();
        in_flight
            .map(|&i| (w, core.job.units[i].0 as u64))
            .collect()
    }

    /// Answer every `owed` unit with a `Done` from its member, and keep
    /// answering what those answers dispatch; the last step's outputs.
    fn drain(
        core: &mut MasterCore<'_>,
        t: f64,
        owed: impl IntoIterator<Item = (usize, u64)>,
    ) -> Vec<Output> {
        let mut owed: VecDeque<(usize, u64)> = owed.into_iter().collect();
        let mut last = Vec::new();
        while let Some((w, unit)) = owed.pop_front() {
            last = frame(core, t, w, done(unit));
            owed.extend(tasks(&last));
        }
        last
    }

    #[test]
    fn a_closed_link_requeues_its_window_to_the_survivor() {
        let config = GraspConfig::static_baseline();
        let skeleton = farm(6);
        let job = lower(&config, &skeleton);
        let settings = settings(None);
        let mut core = MasterCore::new(&settings, &config, &job, 2, None, waiting_for(2));
        let first = arrive(&mut core, 0.0, 0);
        assert!(matches!(first[0], Output::Admit(0, 0)));
        assert!(tasks(&first).is_empty(), "dispatch waits for both founders");
        let outs = arrive(&mut core, 0.0, 1);
        assert_eq!(units_of(&outs, 0), [0, 1]);
        assert_eq!(units_of(&outs, 1), [2, 3]);
        assert_eq!(units_of(&frame(&mut core, 1.0, 0, done(0)), 0), [4]);
        assert_eq!(units_of(&frame(&mut core, 1.0, 0, done(1)), 0), [5]);
        // Member 1 dies holding units 2 and 3.
        let gone = step(&mut core, 2.0, Input::Closed(1));
        assert_eq!(reaped(&gone), [1]);
        assert!(tasks(&gone).is_empty(), "member 0's window is full");
        assert_eq!(units_of(&frame(&mut core, 3.0, 0, done(4)), 0), [2]);
        assert_eq!(units_of(&frame(&mut core, 3.0, 0, done(5)), 0), [3]);
        assert!(!finished(&frame(&mut core, 3.0, 0, done(2))));
        let last = frame(&mut core, 3.0, 0, done(3));
        assert!(finished(&last));
        assert!(matches!(
            last[..],
            [Output::Send(0, _), Output::Close(0), Output::Finished]
        ));
        let (outcome, report) = core.into_outcome(3.0);
        assert!(outcome.conserves_units_of(&skeleton));
        assert_eq!(outcome.resilience.nodes_lost, 1);
        assert_eq!(outcome.resilience.requeued_tasks, 2);
        assert_eq!(outcome.resilience.retried_tasks, 2);
        assert_eq!(tasks_per_worker(&report), [6, 0]);
        assert_eq!(report.members[1].left, Some(NetDeparture::Death));
    }

    #[test]
    fn the_heartbeat_sweep_declares_only_silent_members_dead_once() {
        let config = GraspConfig::static_baseline();
        let skeleton = farm(8);
        let job = lower(&config, &skeleton);
        let settings = settings(Some((0.5, 5.0)));
        let mut core = MasterCore::new(&settings, &config, &job, 2, None, waiting_for(2));
        arrive(&mut core, 0.0, 0);
        let outs = arrive(&mut core, 0.0, 1);
        let held_by_1 = units_of(&outs, 1);
        // Member 0 beats every second; member 1 never speaks again.
        for t in 1..=5 {
            let outs = frame(&mut core, t as f64, 0, WireMsg::Heartbeat);
            assert!(reaped(&outs).is_empty(), "nobody is stale at t={t}");
        }
        let outs = step(&mut core, 5.5, Input::Tick);
        assert_eq!(reaped(&outs), [1], "silence past the timeout is a death");
        for t in 6..=20 {
            let outs = frame(&mut core, t as f64, 0, WireMsg::Heartbeat);
            assert!(reaped(&outs).is_empty(), "a death is declared once (t={t})");
        }
        // A late result from the dead member is dropped, not recorded.
        let late = frame(&mut core, 20.5, 1, done(held_by_1[0]));
        assert!(late.is_empty(), "{late:?}");
        // A newcomer takes a fresh slot with fresh liveness: not stale one
        // second in, stale only after its own silence.
        let outs = arrive(&mut core, 21.0, 2);
        assert!(matches!(outs[0], Output::Admit(2, 2)));
        let outs = frame(&mut core, 22.0, 0, WireMsg::Heartbeat);
        assert!(reaped(&outs).is_empty());
        let outs = frame(&mut core, 26.5, 0, WireMsg::Heartbeat);
        assert_eq!(reaped(&outs), [2]);
        // Member 0 still heartbeats and finishes the job alone.
        let owed = held(&core, 0);
        assert!(finished(&drain(&mut core, 27.0, owed)));
        let (outcome, report) = core.into_outcome(27.0);
        assert!(outcome.conserves_units_of(&skeleton));
        assert_eq!(outcome.resilience.nodes_lost, 2);
        assert_eq!(tasks_per_worker(&report), [8, 0, 0]);
    }

    #[test]
    fn a_goodbye_drains_the_window_then_releases_the_member() {
        let config = GraspConfig::static_baseline();
        let skeleton = farm(8);
        let job = lower(&config, &skeleton);
        let settings = settings(None);
        let mut core = MasterCore::new(&settings, &config, &job, 2, None, waiting_for(2));
        arrive(&mut core, 0.0, 0);
        let outs = arrive(&mut core, 0.0, 1);
        let window = units_of(&outs, 1);
        assert_eq!(window.len(), 2);
        let bye = frame(
            &mut core,
            1.0,
            1,
            WireMsg::Goodbye {
                reason: "leaving".into(),
            },
        );
        assert!(bye.is_empty(), "the window must drain first: {bye:?}");
        let outs = frame(&mut core, 1.0, 1, done(window[0]));
        assert!(
            tasks(&outs).is_empty(),
            "a departing member gets no new unit"
        );
        let outs = frame(&mut core, 1.0, 1, done(window[1]));
        assert!(
            matches!(
                &outs[..],
                [
                    Output::Send(1, OutMsg::Msg(WireMsg::Shutdown)),
                    Output::Close(1)
                ]
            ),
            "{outs:?}"
        );
        let owed = held(&core, 0);
        assert!(finished(&drain(&mut core, 2.0, owed)));
        let (outcome, report) = core.into_outcome(2.0);
        assert!(outcome.conserves_units_of(&skeleton));
        assert!(outcome.resilience.is_clean());
        assert_eq!(outcome.resilience.requeued_tasks, 0);
        assert_eq!(report.members[1].left, Some(NetDeparture::Graceful));
        assert_eq!(tasks_per_worker(&report), [6, 2]);
    }

    #[test]
    fn a_parked_joiner_is_admitted_at_the_join_point_and_probes_first() {
        let config = GraspConfig::default();
        let skeleton = farm(40);
        let job = lower(&config, &skeleton);
        let settings = settings(None);
        let policy = JoinPolicy {
            hold_joins_until: Some(4),
            ..waiting_for(2)
        };
        let mut core = MasterCore::new(&settings, &config, &job, 2, Some(3), policy);
        arrive(&mut core, 0.0, 0);
        let mut owed: VecDeque<(usize, u64)> = tasks(&arrive(&mut core, 0.0, 1)).into();
        let parked = arrive(&mut core, 0.5, 2);
        assert!(
            !parked.iter().any(|o| matches!(o, Output::Admit(..))),
            "a third arrival before the join point is parked: {parked:?}"
        );
        for _ in 0..3 {
            let (w, unit) = owed.pop_front().unwrap();
            owed.extend(tasks(&frame(&mut core, 1.0, w, done(unit))));
        }
        let (w, unit) = owed.pop_front().unwrap();
        let admitted = frame(&mut core, 1.0, w, done(unit));
        assert!(
            admitted.iter().any(|o| matches!(o, Output::Admit(2, 2))),
            "the 4th completion admits the parked link: {admitted:?}"
        );
        let probes = units_of(&admitted, 2);
        assert_eq!(probes.len(), 2, "a full window of probes");
        assert!(probes.iter().all(|&u| u >= PROBE_UNIT_BASE));
        owed.extend(tasks(&admitted).into_iter().filter(|&(m, _)| m != 2));
        // Probe 1 back: the third probe goes out, still no real unit.
        let outs = frame(&mut core, 1.1, 2, done(probes[0]));
        let third = units_of(&outs, 2);
        assert_eq!(third.len(), 1);
        assert!(third[0] >= PROBE_UNIT_BASE);
        let outs = frame(&mut core, 1.2, 2, done(probes[1]));
        assert!(units_of(&outs, 2).is_empty(), "one probe still owed");
        owed.extend(tasks(&outs));
        let outs = frame(&mut core, 1.3, 2, done(third[0]));
        let real = units_of(&outs, 2);
        assert_eq!(real.len(), 2, "calibrated: a full window of real units");
        assert!(real.iter().all(|&u| u < PROBE_UNIT_BASE));
        owed.extend(tasks(&outs));
        assert!(finished(&drain(&mut core, 2.0, owed)));
        let (outcome, report) = core.into_outcome(2.0);
        assert!(outcome.conserves_units_of(&skeleton));
        assert_eq!(outcome.adaptation_log.node_joins(), 1);
        let joiner = &report.members[2];
        assert!(joiner.joined_mid_run);
        assert_eq!(joiner.calibration_probes, 3);
        assert!(joiner.units_completed > 0);
    }

    #[test]
    fn a_second_done_for_a_recorded_unit_is_discarded() {
        let config = GraspConfig::static_baseline();
        let skeleton = farm(4);
        let job = lower(&config, &skeleton);
        let settings = settings(None);
        let mut core = MasterCore::new(&settings, &config, &job, 1, None, JoinPolicy::default());
        let outs = arrive(&mut core, 0.0, 0);
        assert_eq!(units_of(&outs, 0), [0, 1]);
        let first = WireMsg::Done {
            unit_id: 0,
            elapsed_s: 0.01,
            digest: 7,
        };
        frame(&mut core, 1.0, 0, first);
        let copy = WireMsg::Done {
            unit_id: 0,
            elapsed_s: 0.01,
            digest: 9,
        };
        assert!(tasks(&frame(&mut core, 1.0, 0, copy)).is_empty());
        let owed = held(&core, 0);
        assert!(finished(&drain(&mut core, 2.0, owed)));
        let (outcome, report) = core.into_outcome(2.0);
        assert!(outcome.conserves_units_of(&skeleton));
        assert_eq!(tasks_per_worker(&report), [4]);
        assert_eq!(report.unit_digests[0], (0, 7), "the first completion wins");
    }

    #[test]
    fn too_few_founders_by_the_join_timeout_fail_the_run() {
        let config = GraspConfig::static_baseline();
        let job = lower(&config, &farm(4));
        let settings = settings(None);
        let mut core = MasterCore::new(&settings, &config, &job, 2, None, waiting_for(2));
        arrive(&mut core, 0.0, 0);
        assert!(step(&mut core, 29.0, Input::Tick).is_empty());
        let failed = core
            .step(SimTime::new(30.5), Input::Tick)
            .map(|outs| outs.collect::<Vec<_>>());
        match failed {
            Err(GraspError::WorkerUnavailable { detail }) => {
                assert!(detail.contains("only 1 of 2"), "{detail}")
            }
            other => panic!("expected WorkerUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn a_refused_send_puts_the_unit_back_with_its_attempt_unspent() {
        // One attempt per unit: re-dispatching a refused unit would fail
        // the run unless the refusal gave the attempt back.
        let config = GraspConfig::static_baseline();
        let skeleton = farm(4);
        let job = lower(&config, &skeleton);
        let mut settings = settings(None);
        settings.configure(&BackendConfig::new().max_task_attempts(1));
        let mut core = MasterCore::new(&settings, &config, &job, 2, None, waiting_for(2));
        arrive(&mut core, 0.0, 0);
        let outs = arrive(&mut core, 0.0, 1);
        assert_eq!(units_of(&outs, 1), [2, 3]);
        // Member 1's channel refuses both: the driver feeds them back
        // last-first.
        for unit in [3, 2] {
            let outs = step(
                &mut core,
                0.0,
                Input::Undelivered(1, OutMsg::spin_task(unit, 1.0)),
            );
            assert!(tasks(&outs).is_empty());
        }
        assert_eq!(core.pending, [2, 3], "back at the front, in order");
        let owed = held(&core, 0);
        assert!(finished(&drain(&mut core, 1.0, owed)));
        let (outcome, report) = core.into_outcome(1.0);
        assert!(outcome.conserves_units_of(&skeleton));
        assert!(outcome.resilience.is_clean());
        assert_eq!(outcome.resilience.requeued_tasks, 0);
        assert_eq!(tasks_per_worker(&report), [4, 0]);
    }
}
