//! In-memory loopback transport with scripted fault injection.
//!
//! The TCP transport is the production path, but sockets make fault timing
//! nondeterministic: a SIGKILL lands between *some* pair of frames, and
//! which pair differs per run.  The loopback transport replaces the socket
//! with a pair of in-memory byte channels and lets a test attach a
//! [`FaultScript`] to each direction of a connection: "drop the 3rd frame",
//! "truncate the 2nd frame after 9 bytes and kill the link", "deliver the
//! 4th frame twice".  Frame indices are counted per direction, so a test
//! that disables heartbeats (welcome interval 0) sees a fully deterministic
//! sequence — worker outbound frame 0 is always Join, frame 1 the first
//! Done, and so on.
//!
//! Faults act at the *sending* edge: the bytes that cross the channel are
//! exactly the bytes a broken network would have delivered, and the
//! receiving side runs the same framing code as TCP, so truncation is
//! detected by the real decoder, not simulated.

use grasp_core::error::GraspError;
use grasp_core::transport::{Acceptor, FrameSink, FrameSource, FramedConnection};
use grasp_core::wire::{frame_len, FrameView, WireMsg};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What to do to a single outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Deliver the frame untouched (the default for unscripted indices).
    Pass,
    /// Silently discard the frame; the connection stays up.
    Drop,
    /// Deliver the frame twice back-to-back (a retransmit gone wrong).
    Duplicate,
    /// Deliver only the first `n` bytes of the frame, then kill the
    /// connection — the receiver sees a mid-frame EOF (a crash mid-write).
    TruncateAt(usize),
    /// Sleep this long before delivering the frame (a congested link).
    /// The sender sleeps: on the worker's direction that holds the worker,
    /// while the master writes its direction inline from its one loop, so
    /// a delay scripted there holds the whole master.
    Delay(Duration),
    /// Kill the connection instead of sending the frame — the receiver
    /// sees a clean EOF at a frame boundary (a crash between writes).
    CloseBefore,
}

/// A per-direction schedule mapping outbound frame index (0-based) to the
/// fault applied to that frame.  Unscripted frames pass through untouched.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    faults: BTreeMap<usize, FrameFault>,
}

impl FaultScript {
    /// A script that faults nothing.
    pub fn clean() -> Self {
        FaultScript::default()
    }

    /// Schedule `fault` for the `frame`-th outbound frame (builder-style).
    pub fn with(mut self, frame: usize, fault: FrameFault) -> Self {
        self.faults.insert(frame, fault);
        self
    }

    fn get(&self, frame: usize) -> FrameFault {
        self.faults.get(&frame).copied().unwrap_or(FrameFault::Pass)
    }
}

fn link_down(detail: &str) -> GraspError {
    GraspError::WireProtocol {
        detail: format!("loopback link down: {detail}"),
    }
}

/// Sending half of one loopback direction; applies the fault script.
struct LoopbackSink {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    /// Shared with both directions: a hard close severs the whole
    /// connection, like a process death would.
    dead: Arc<AtomicBool>,
    script: FaultScript,
    next_frame: usize,
    /// Reused encode buffer for the owned-message [`FrameSink::send`] path.
    frame: Vec<u8>,
    copied: Option<Arc<AtomicU64>>,
}

impl LoopbackSink {
    fn push(&mut self, chunk: Vec<u8>) -> Result<(), GraspError> {
        match &self.tx {
            Some(tx) => tx
                .send(chunk)
                .map_err(|_| link_down("peer dropped its receive half")),
            None => Err(link_down("connection was hard-closed")),
        }
    }

    /// Copy encoded bytes into an owned chunk for the channel hand-off.
    /// This is the one copy the loopback transport cannot avoid (a channel
    /// needs owned data), and it is what the copy counter accounts.
    fn to_chunk(&self, frame: &[u8]) -> Vec<u8> {
        if let Some(c) = &self.copied {
            c.fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        frame.to_vec()
    }

    fn hard_close(&mut self) {
        self.dead.store(true, Ordering::SeqCst);
        self.tx = None;
    }
}

impl FrameSink for LoopbackSink {
    fn send(&mut self, msg: &WireMsg) -> Result<usize, GraspError> {
        let mut frame = std::mem::take(&mut self.frame);
        msg.encode_into(&mut frame);
        let sent = self.send_frame(&frame);
        self.frame = frame;
        sent
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<usize, GraspError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(link_down("connection was hard-closed"));
        }
        let idx = self.next_frame;
        self.next_frame += 1;
        let n = frame.len();
        match self.script.get(idx) {
            FrameFault::Pass => {
                let chunk = self.to_chunk(frame);
                self.push(chunk)?;
            }
            FrameFault::Drop => {}
            FrameFault::Duplicate => {
                let first = self.to_chunk(frame);
                self.push(first)?;
                let second = self.to_chunk(frame);
                self.push(second)?;
            }
            FrameFault::Delay(d) => {
                std::thread::sleep(d);
                let chunk = self.to_chunk(frame);
                self.push(chunk)?;
            }
            FrameFault::TruncateAt(cut) => {
                let cut = cut.min(frame.len());
                let chunk = self.to_chunk(&frame[..cut]);
                let _ = self.push(chunk);
                self.hard_close();
                return Err(link_down("scripted truncation killed the connection"));
            }
            FrameFault::CloseBefore => {
                self.hard_close();
                return Err(link_down("scripted close killed the connection"));
            }
        }
        Ok(n)
    }

    fn set_copy_counter(&mut self, counter: Arc<AtomicU64>) {
        self.copied = Some(counter);
    }
}

/// Receiving half of one loopback direction; runs the real frame decoder
/// over whatever byte chunks the faulty sender let through.
struct LoopbackSource {
    rx: mpsc::Receiver<Vec<u8>>,
    dead: Arc<AtomicBool>,
    disconnected: bool,
    buf: Vec<u8>,
    /// Bytes at the front of `buf` belonging to the frame returned by the
    /// previous `recv_view` call; drained lazily at the start of the next
    /// call so the returned view can borrow `buf`.
    consumed: usize,
    counter: Option<Arc<AtomicU64>>,
}

impl LoopbackSource {
    fn ingest(&mut self, chunk: Vec<u8>) {
        if let Some(c) = &self.counter {
            c.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        }
        self.buf.extend_from_slice(&chunk);
    }

    /// Length of the complete frame at the front of the buffer, if one is
    /// fully buffered.  A corrupt header is an error at once: never wait
    /// for bytes that a corrupt length field promises but the sender will
    /// not produce.
    fn buffered_frame_len(&self) -> Result<Option<usize>, GraspError> {
        Ok(frame_len(&self.buf)?.filter(|&needed| self.buf.len() >= needed))
    }
}

impl FrameSource for LoopbackSource {
    fn recv_view(&mut self) -> Result<Option<FrameView<'_>>, GraspError> {
        // Drop the frame handed out by the previous call.
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        loop {
            // Drain everything already queued so bytes sent before a hard
            // close are still delivered in order.
            loop {
                match self.rx.try_recv() {
                    Ok(chunk) => self.ingest(chunk),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        self.disconnected = true;
                        break;
                    }
                }
            }
            if let Some(needed) = self.buffered_frame_len()? {
                self.consumed = needed;
                let (view, _) = FrameView::decode_slice(&self.buf[..needed])?;
                return Ok(Some(view));
            }
            if self.disconnected || self.dead.load(Ordering::SeqCst) {
                // The link is gone: a clean frame boundary is EOF, leftover
                // bytes are a truncated frame.
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(GraspError::WireProtocol {
                    detail: format!(
                        "connection died mid-frame with {} undecodable bytes buffered",
                        self.buf.len()
                    ),
                });
            }
            match self.rx.recv_timeout(Duration::from_millis(5)) {
                Ok(chunk) => self.ingest(chunk),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => self.disconnected = true,
            }
        }
    }

    fn set_byte_counter(&mut self, counter: Arc<AtomicU64>) {
        self.counter = Some(counter);
    }
}

/// The connecting side of an in-memory network; cloneable, so a test can
/// hand connection handles to as many worker threads as it likes.
#[derive(Clone)]
pub struct LoopbackNet {
    accept_tx: mpsc::Sender<FramedConnection>,
    next_conn: Arc<AtomicUsize>,
}

/// The accepting side of an in-memory network; plug it into the backend
/// via `NetBackend::over`.
pub struct LoopbackAcceptor {
    accept_rx: mpsc::Receiver<FramedConnection>,
    /// Keeps the channel connected after every connector is dropped, so a
    /// wait for a peer lasts its timeout instead of returning at once.
    _keepalive: mpsc::Sender<FramedConnection>,
    label: String,
}

impl LoopbackNet {
    /// Create a connected (connector, acceptor) pair.
    pub fn new() -> (LoopbackNet, LoopbackAcceptor) {
        let (accept_tx, accept_rx) = mpsc::channel();
        (
            LoopbackNet {
                accept_tx: accept_tx.clone(),
                next_conn: Arc::new(AtomicUsize::new(0)),
            },
            LoopbackAcceptor {
                accept_rx,
                _keepalive: accept_tx,
                label: "loopback".to_string(),
            },
        )
    }

    /// Open a fault-free connection; returns the worker-side endpoint.
    pub fn connect(&self) -> Result<FramedConnection, GraspError> {
        self.connect_faulty(FaultScript::clean(), FaultScript::clean())
    }

    /// Open a connection with scripted faults: `to_master` governs the
    /// worker's outbound frames, `to_worker` the master's.  Returns the
    /// worker-side endpoint; the master side lands in the acceptor queue.
    pub fn connect_faulty(
        &self,
        to_master: FaultScript,
        to_worker: FaultScript,
    ) -> Result<FramedConnection, GraspError> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let dead = Arc::new(AtomicBool::new(false));
        let (wtx, wrx) = mpsc::channel(); // worker -> master bytes
        let (mtx, mrx) = mpsc::channel(); // master -> worker bytes
        let worker_side = FramedConnection::new(
            format!("loopback:{id}:worker"),
            Box::new(LoopbackSink {
                tx: Some(wtx),
                dead: Arc::clone(&dead),
                script: to_master,
                next_frame: 0,
                frame: Vec::new(),
                copied: None,
            }),
            Box::new(LoopbackSource {
                rx: mrx,
                dead: Arc::clone(&dead),
                disconnected: false,
                buf: Vec::new(),
                consumed: 0,
                counter: None,
            }),
        );
        let master_side = FramedConnection::new(
            format!("loopback:{id}"),
            Box::new(LoopbackSink {
                tx: Some(mtx),
                dead: Arc::clone(&dead),
                script: to_worker,
                next_frame: 0,
                frame: Vec::new(),
                copied: None,
            }),
            Box::new(LoopbackSource {
                rx: wrx,
                dead,
                disconnected: false,
                buf: Vec::new(),
                consumed: 0,
                counter: None,
            }),
        );
        self.accept_tx
            .send(master_side)
            .map_err(|_| link_down("acceptor is gone"))?;
        Ok(worker_side)
    }
}

impl Acceptor for LoopbackAcceptor {
    fn poll_accept(&mut self) -> Result<Option<FramedConnection>, GraspError> {
        Ok(self.accept_rx.try_recv().ok())
    }

    fn wait_accept(&mut self, timeout: Duration) -> Result<Option<FramedConnection>, GraspError> {
        Ok(self.accept_rx.recv_timeout(timeout).ok())
    }

    fn endpoint(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_core::transport::Acceptor;

    fn pair() -> (FramedConnection, FramedConnection, LoopbackNet) {
        let (net, mut acceptor) = LoopbackNet::new();
        let worker = net.connect().expect("connect");
        let master = acceptor
            .poll_accept()
            .expect("accept")
            .expect("connection queued");
        (worker, master, net)
    }

    fn faulty_pair(
        to_master: FaultScript,
        to_worker: FaultScript,
    ) -> (FramedConnection, FramedConnection) {
        let (net, mut acceptor) = LoopbackNet::new();
        let worker = net.connect_faulty(to_master, to_worker).expect("connect");
        let master = acceptor
            .poll_accept()
            .expect("accept")
            .expect("connection queued");
        (worker, master)
    }

    #[test]
    fn clean_connection_round_trips_both_directions() {
        let (mut worker, mut master, _net) = pair();
        worker.send(&WireMsg::Heartbeat).unwrap();
        assert_eq!(master.recv().unwrap(), Some(WireMsg::Heartbeat));
        master.send(&WireMsg::Shutdown).unwrap();
        assert_eq!(worker.recv().unwrap(), Some(WireMsg::Shutdown));
    }

    #[test]
    fn dropping_the_worker_side_is_a_clean_eof_for_the_master() {
        let (worker, mut master, _net) = pair();
        drop(worker);
        assert_eq!(master.recv().unwrap(), None);
    }

    #[test]
    fn a_dropped_frame_never_arrives_but_later_frames_do() {
        let script = FaultScript::clean().with(0, FrameFault::Drop);
        let (mut worker, mut master) = faulty_pair(script, FaultScript::clean());
        worker.send(&WireMsg::Heartbeat).unwrap();
        worker.send(&WireMsg::Shutdown).unwrap();
        // Frame 0 (Heartbeat) vanished; frame 1 (Shutdown) arrives first.
        assert_eq!(master.recv().unwrap(), Some(WireMsg::Shutdown));
    }

    #[test]
    fn a_duplicated_frame_arrives_twice() {
        let script = FaultScript::clean().with(0, FrameFault::Duplicate);
        let (mut worker, mut master) = faulty_pair(script, FaultScript::clean());
        worker.send(&WireMsg::Heartbeat).unwrap();
        assert_eq!(master.recv().unwrap(), Some(WireMsg::Heartbeat));
        assert_eq!(master.recv().unwrap(), Some(WireMsg::Heartbeat));
    }

    #[test]
    fn truncation_is_a_decode_error_not_a_clean_eof() {
        let script = FaultScript::clean().with(0, FrameFault::TruncateAt(9));
        let (mut worker, mut master) = faulty_pair(script, FaultScript::clean());
        assert!(worker.send(&WireMsg::Heartbeat).is_err());
        let err = master.recv().expect_err("partial frame must not decode");
        assert!(matches!(err, GraspError::WireProtocol { .. }), "{err}");
    }

    #[test]
    fn close_before_is_a_clean_eof_and_severs_both_directions() {
        let script = FaultScript::clean().with(1, FrameFault::CloseBefore);
        let (mut worker, mut master) = faulty_pair(script, FaultScript::clean());
        worker.send(&WireMsg::Heartbeat).unwrap();
        assert!(worker.send(&WireMsg::Heartbeat).is_err());
        // Frame 0 was queued before the close and still arrives.
        assert_eq!(master.recv().unwrap(), Some(WireMsg::Heartbeat));
        assert_eq!(master.recv().unwrap(), None);
        // The hard close also kills the master->worker direction.
        assert!(master.send(&WireMsg::Shutdown).is_err());
    }

    #[test]
    fn delayed_frames_still_arrive_intact() {
        let script = FaultScript::clean().with(0, FrameFault::Delay(Duration::from_millis(20)));
        let (mut worker, mut master) = faulty_pair(script, FaultScript::clean());
        worker.send(&WireMsg::Heartbeat).unwrap();
        assert_eq!(master.recv().unwrap(), Some(WireMsg::Heartbeat));
    }
}
