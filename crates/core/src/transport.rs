//! Framed transport abstraction under the master/worker [`crate::wire`]
//! protocol.
//!
//! The protocol module defines *what* the two ends say; this module defines
//! *how the bytes move*.  A master only ever needs three things from a
//! transport:
//!
//! * a [`FrameSink`] — ordered, framed sends towards the peer, where
//!   dropping the sink closes the direction (the worker sees EOF, which is
//!   the shutdown/demotion signal on every transport);
//! * a [`FrameSource`] — blocking framed receives, where `Ok(None)` is the
//!   peer's clean close and any mid-frame close is a typed truncation error
//!   (exactly [`WireMsg::read_from`]'s contract);
//! * an [`Acceptor`] — a non-blocking registration point where new peers
//!   appear as ready [`FramedConnection`]s.
//!
//! Three transports implement the surface: the process backend's pipes and
//! any other byte stream through `StreamSink`/`StreamSource`, TCP
//! sockets through [`TcpAcceptor`]/[`tcp_connect`] (std::net only), and the
//! deterministic in-memory loopback of `grasp-net`'s test harness.  Master
//! loops are written once against the traits and cannot tell the
//! difference — which is the point: the fault-injection tests drive the
//! *same* master code the TCP deployment runs.

use crate::error::GraspError;
use crate::wire::{read_frame_into, FrameView, WireMsg};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

fn transport_err(detail: impl Into<String>) -> GraspError {
    GraspError::WireProtocol {
        detail: detail.into(),
    }
}

/// The sending half of a framed connection.
///
/// Sends are ordered and complete (a frame is never partially written on a
/// healthy transport).  Dropping the sink closes the outbound direction;
/// the peer observes EOF after draining what was already sent — that close
/// *is* the protocol's shutdown signal for demoted workers, so every
/// implementation must make drop visible to the peer.
pub trait FrameSink: Send {
    /// Encode and write one frame; returns the bytes put on the wire.
    /// An error means the peer is unreachable — the caller treats the
    /// connection as closed (the receive side settles the peer's fate).
    /// Implementations reuse an internal encode buffer, so steady-state
    /// sends allocate nothing.
    fn send(&mut self, msg: &WireMsg) -> Result<usize, GraspError>;

    /// Write one already-encoded frame (the writer-thread fast path, which
    /// encodes into its own reused buffer).  One call is one frame — the
    /// loopback transport's fault scripts index frames by `send_frame`
    /// call, so callers must never batch two frames into one call.
    fn send_frame(&mut self, frame: &[u8]) -> Result<usize, GraspError>;

    /// Install a counter credited with every payload byte this sink has to
    /// *copy* beyond the single encode (wire-copy accounting; zero on
    /// transports that write straight from the encode buffer).
    fn set_copy_counter(&mut self, _counter: Arc<AtomicU64>) {}
}

/// The receiving half of a framed connection.
pub trait FrameSource: Send {
    /// Block until one frame arrives and borrow it from the source's
    /// internal read buffer — the zero-copy receive path.  `Ok(None)` is
    /// the peer's clean close (between frames); a close mid-frame or a
    /// corrupted frame is a typed [`GraspError::WireProtocol`].  The view
    /// is valid until the next call on this source; implementations reuse
    /// one read buffer across frames, so steady-state receives allocate
    /// nothing.
    fn recv_view(&mut self) -> Result<Option<FrameView<'_>>, GraspError>;

    /// Block until one frame arrives, copied into an owned [`WireMsg`]
    /// (convenience over [`FrameSource::recv_view`]; only the
    /// heap-carrying variants allocate in the copy).
    fn recv(&mut self) -> Result<Option<WireMsg>, GraspError> {
        Ok(self.recv_view()?.map(|v| v.to_owned()))
    }

    /// Install a counter credited with every raw inbound byte (wire
    /// accounting).  Transports without byte-level visibility may ignore it.
    fn set_byte_counter(&mut self, _counter: Arc<AtomicU64>) {}
}

/// One established, handshake-ready connection: a peer label plus both
/// framed halves.  Masters [`FramedConnection::split`] it so a reader
/// thread can own the source while a writer thread owns the sink.
pub struct FramedConnection {
    peer: String,
    sink: Box<dyn FrameSink>,
    source: Box<dyn FrameSource>,
}

impl std::fmt::Debug for FramedConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedConnection")
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl FramedConnection {
    /// Assemble a connection from its halves.
    pub fn new(
        peer: impl Into<String>,
        sink: Box<dyn FrameSink>,
        source: Box<dyn FrameSource>,
    ) -> Self {
        FramedConnection {
            peer: peer.into(),
            sink,
            source,
        }
    }

    /// Send one frame (handshake convenience; steady-state traffic usually
    /// goes through a writer thread after [`FramedConnection::split`]).
    pub fn send(&mut self, msg: &WireMsg) -> Result<usize, GraspError> {
        self.sink.send(msg)
    }

    /// Receive one frame (handshake convenience).
    pub fn recv(&mut self) -> Result<Option<WireMsg>, GraspError> {
        self.source.recv()
    }

    /// Split into the independently owned halves.
    pub fn split(self) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (self.sink, self.source)
    }
}

/// Where new peers register: masters poll it from a dedicated thread.
pub trait Acceptor: Send {
    /// Return the next fully connected (but not yet handshaken) peer, or
    /// `Ok(None)` when nobody is waiting right now.  Must not block, so the
    /// polling thread stays responsive to shutdown.
    fn poll_accept(&mut self) -> Result<Option<FramedConnection>, GraspError>;

    /// The endpoint workers should connect to (an address for sockets, a
    /// symbolic label otherwise).
    fn endpoint(&self) -> String;
}

// ---------------------------------------------------------------------------
// byte-stream transport (pipes, and the building block for sockets)
// ---------------------------------------------------------------------------

/// [`FrameSink`] over any ordered byte writer (a pipe, a socket half, an
/// in-memory buffer in tests).  One encode buffer is reused across sends.
pub(crate) struct StreamSink<W: Write + Send> {
    inner: W,
    frame: Vec<u8>,
}

impl<W: Write + Send> StreamSink<W> {
    /// Wrap a writer.
    pub(crate) fn new(inner: W) -> Self {
        StreamSink {
            inner,
            frame: Vec::new(),
        }
    }
}

impl<W: Write + Send> FrameSink for StreamSink<W> {
    fn send(&mut self, msg: &WireMsg) -> Result<usize, GraspError> {
        let mut frame = std::mem::take(&mut self.frame);
        msg.encode_into(&mut frame);
        let sent = self.send_frame(&frame);
        self.frame = frame;
        sent
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<usize, GraspError> {
        self.inner
            .write_all(frame)
            .and_then(|_| self.inner.flush())
            .map_err(|e| transport_err(format!("transport write failed: {e}")))?;
        Ok(frame.len())
    }
}

struct CountingRead<R> {
    inner: R,
    count: Option<Arc<AtomicU64>>,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(c) = &self.count {
            c.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }
}

/// [`FrameSource`] over any ordered byte reader, buffered, with optional
/// byte accounting.  One frame buffer is reused across receives: after
/// warmup there are zero heap allocations per frame.
pub(crate) struct StreamSource<R: Read + Send> {
    inner: BufReader<CountingRead<R>>,
    frame: Vec<u8>,
}

impl<R: Read + Send> StreamSource<R> {
    /// Wrap a reader.
    pub(crate) fn new(inner: R) -> Self {
        StreamSource {
            inner: BufReader::new(CountingRead { inner, count: None }),
            frame: Vec::new(),
        }
    }
}

impl<R: Read + Send> FrameSource for StreamSource<R> {
    fn recv_view(&mut self) -> Result<Option<FrameView<'_>>, GraspError> {
        match read_frame_into(&mut self.inner, &mut self.frame)? {
            None => Ok(None),
            Some(n) => Ok(Some(FrameView::decode_slice(&self.frame[..n])?.0)),
        }
    }

    fn set_byte_counter(&mut self, counter: Arc<AtomicU64>) {
        self.inner.get_mut().count = Some(counter);
    }
}

/// Build a pipe-style connection from a write half and a read half (how the
/// process backend wraps a child's stdin/stdout).
pub fn stream_connection<W, R>(peer: impl Into<String>, writer: W, reader: R) -> FramedConnection
where
    W: Write + Send + 'static,
    R: Read + Send + 'static,
{
    FramedConnection::new(
        peer,
        Box::new(StreamSink::new(writer)),
        Box::new(StreamSource::new(reader)),
    )
}

// ---------------------------------------------------------------------------
// TCP transport (std::net only)
// ---------------------------------------------------------------------------

/// [`FrameSink`] over the write half of a TCP stream.  Dropping it shuts
/// down the socket's write direction explicitly — with `try_clone`d handles
/// a plain drop would leave the kernel socket open through the read-half
/// clone, and the peer would never see the EOF that means "shutdown".
pub(crate) struct TcpSink {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl FrameSink for TcpSink {
    fn send(&mut self, msg: &WireMsg) -> Result<usize, GraspError> {
        let mut frame = std::mem::take(&mut self.frame);
        msg.encode_into(&mut frame);
        let sent = self.send_frame(&frame);
        self.frame = frame;
        sent
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<usize, GraspError> {
        self.stream
            .write_all(frame)
            .and_then(|_| self.stream.flush())
            .map_err(|e| transport_err(format!("socket write failed: {e}")))?;
        Ok(frame.len())
    }
}

impl Drop for TcpSink {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// Wrap an established TCP stream as a [`FramedConnection`] (both ends use
/// this: the master on accepted streams, workers on connected ones).
pub(crate) fn tcp_connection(stream: TcpStream) -> Result<FramedConnection, GraspError> {
    // Frames are small and latency-sensitive (a heartbeat late by a Nagle
    // delay looks like a dying worker).
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "tcp-peer".into());
    let read_half = stream
        .try_clone()
        .map_err(|e| transport_err(format!("could not clone socket: {e}")))?;
    Ok(FramedConnection::new(
        peer,
        Box::new(TcpSink {
            stream,
            frame: Vec::new(),
        }),
        Box::new(StreamSource::new(read_half)),
    ))
}

/// Connect to a listening master at `addr`.
pub fn tcp_connect(addr: impl ToSocketAddrs) -> Result<FramedConnection, GraspError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| transport_err(format!("could not connect to master: {e}")))?;
    tcp_connection(stream)
}

/// A non-blocking [`Acceptor`] over a bound TCP listener.
pub struct TcpAcceptor {
    listener: TcpListener,
    local: SocketAddr,
}

impl TcpAcceptor {
    /// Bind `addr` (use port 0 for an OS-assigned port; the actual endpoint
    /// is [`TcpAcceptor::endpoint`]).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, GraspError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| transport_err(format!("could not bind listener: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_err(format!("could not configure listener: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| transport_err(format!("listener has no local address: {e}")))?;
        Ok(TcpAcceptor { listener, local })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Acceptor for TcpAcceptor {
    fn poll_accept(&mut self) -> Result<Option<FramedConnection>, GraspError> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                // The listener is non-blocking; the accepted stream must not
                // inherit that (frame reads are blocking by contract).
                stream
                    .set_nonblocking(false)
                    .map_err(|e| transport_err(format!("could not configure socket: {e}")))?;
                Ok(Some(tcp_connection(stream)?))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(transport_err(format!("accept failed: {e}"))),
        }
    }

    fn endpoint(&self) -> String {
        self.local.to_string()
    }
}

// ---------------------------------------------------------------------------
// shared writer-thread plumbing
// ---------------------------------------------------------------------------

/// Shared wire-accounting counters one master hands to every per-worker
/// writer thread (and to each source's byte counter): bytes on the wire,
/// encode wall time, write wall time, and payload bytes copied beyond the
/// single encode.
#[derive(Debug, Clone, Default)]
pub struct WireCounters {
    /// Bytes of frames put on the wire.
    pub bytes: Arc<AtomicU64>,
    /// Wall nanoseconds writer threads spent encoding frames.
    pub(crate) encode_nanos: Arc<AtomicU64>,
    /// Wall nanoseconds writer threads spent writing encoded frames.
    pub(crate) write_nanos: Arc<AtomicU64>,
    /// Payload bytes the send path had to copy beyond the single encode
    /// (zero on transports that write straight from the encode buffer; the
    /// in-memory loopback's channel hand-off counts here).
    pub copied: Arc<AtomicU64>,
}

impl WireCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        WireCounters::default()
    }

    /// Seconds spent encoding frames so far.
    pub fn encode_seconds(&self) -> f64 {
        self.encode_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds spent writing frames so far.
    pub fn write_seconds(&self) -> f64 {
        self.write_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// One outbound message for a writer thread: either an owned protocol
/// message, or the task-dispatch fast path whose payload is a shared
/// reference-counted slice — the master clones an `Arc` per dispatch, never
/// the payload bytes (they are copied exactly once, into the writer's
/// reused encode buffer).
#[derive(Debug, Clone)]
pub enum OutMsg {
    /// An owned protocol message.
    Msg(WireMsg),
    /// A task dispatch sharing its payload bytes.
    Task {
        /// Global unit id within the running skeleton.
        unit_id: u64,
        /// Declared work of the unit.
        work: f64,
        /// Payload kind.
        kind: u32,
        /// Kind-specific serialized task, shared across dispatch attempts.
        payload: Arc<[u8]>,
    },
}

impl OutMsg {
    /// A spin-kernel task dispatch: no payload bytes, so the owned variant
    /// is already copy-free (an empty `Vec` does not allocate).
    pub fn spin_task(unit_id: u64, work: f64) -> OutMsg {
        OutMsg::Msg(WireMsg::Task {
            unit_id,
            work,
            kind: crate::wire::PAYLOAD_SPIN,
            payload: Vec::new(),
        })
    }

    /// Borrow as a [`FrameView`] for encoding (both variants encode
    /// byte-identically to the equivalent [`WireMsg`]).
    pub fn as_view(&self) -> FrameView<'_> {
        match self {
            OutMsg::Msg(m) => m.as_view(),
            OutMsg::Task {
                unit_id,
                work,
                kind,
                payload,
            } => FrameView::Task {
                unit_id: *unit_id,
                work: *work,
                kind: *kind,
                payload,
            },
        }
    }
}

impl From<WireMsg> for OutMsg {
    fn from(msg: WireMsg) -> Self {
        OutMsg::Msg(msg)
    }
}

/// Spawn the writer thread owning `sink`: frames sent on the returned
/// channel are written in order; dropping the sender drops the sink, which
/// closes the outbound direction (EOF at the peer).
///
/// Masters never write from their event loop — a worker only reads between
/// tasks, so a blocking write into a full transport would stall the very
/// loop whose heartbeat sweep is supposed to unmask wedged workers.  The
/// thread encodes every message into one buffer reused across frames
/// (steady state allocates nothing) and credits `counters` with bytes sent
/// plus encode and write wall time, kept separate so callers can tell
/// serialization cost from transport cost.
pub fn spawn_frame_writer(
    mut sink: Box<dyn FrameSink>,
    counters: WireCounters,
) -> mpsc::Sender<OutMsg> {
    sink.set_copy_counter(Arc::clone(&counters.copied));
    let (tx, rx) = mpsc::channel::<OutMsg>();
    std::thread::spawn(move || {
        let mut frame = Vec::new();
        for out in rx {
            let t0 = Instant::now();
            out.as_view().encode_into(&mut frame);
            counters
                .encode_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let t1 = Instant::now();
            match sink.send_frame(&frame) {
                Ok(n) => {
                    counters.bytes.fetch_add(n as u64, Ordering::Relaxed);
                    counters
                        .write_nanos
                        .fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                Err(_) => {
                    // Peer gone: drop queued frames; the receive side (EOF /
                    // heartbeat timeout) settles the peer's fate.
                    return;
                }
            }
        }
    });
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stream_halves_round_trip_frames_and_count_bytes() {
        let mut sink = StreamSink::new(Vec::<u8>::new());
        let msgs = [
            WireMsg::Hello { pid: 1 },
            WireMsg::Task {
                unit_id: 9,
                work: 2.0,
                kind: crate::wire::PAYLOAD_SPIN,
                payload: vec![1, 2, 3],
            },
            WireMsg::Shutdown,
        ];
        let mut sent = 0;
        for m in &msgs {
            sent += sink.send(m).unwrap();
        }
        let bytes = sink.inner;
        assert_eq!(sent, bytes.len());

        let counter = Arc::new(AtomicU64::new(0));
        let mut source = StreamSource::new(bytes.as_slice());
        source.set_byte_counter(Arc::clone(&counter));
        for m in &msgs {
            assert_eq!(source.recv().unwrap().as_ref(), Some(m));
        }
        assert_eq!(source.recv().unwrap(), None, "clean EOF between frames");
        assert_eq!(counter.load(Ordering::Relaxed), bytes.len() as u64);
    }

    #[test]
    fn tcp_acceptor_is_non_blocking_and_carries_frames() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        assert!(
            acceptor.poll_accept().unwrap().is_none(),
            "no pending peer must not block"
        );
        let endpoint = acceptor.endpoint();
        let client = std::thread::spawn(move || {
            let mut conn = tcp_connect(&endpoint).unwrap();
            conn.send(&WireMsg::Join {
                pid: 7,
                wire_version: crate::wire::WIRE_VERSION as u32,
                capabilities: crate::wire::CAP_ALL,
            })
            .unwrap();
            match conn.recv().unwrap() {
                Some(WireMsg::Welcome { worker_id, .. }) => worker_id,
                other => panic!("expected Welcome, got {other:?}"),
            }
        });
        let mut server = loop {
            if let Some(conn) = acceptor.poll_accept().unwrap() {
                break conn;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        match server.recv().unwrap() {
            Some(WireMsg::Join { pid, .. }) => assert_eq!(pid, 7),
            other => panic!("expected Join, got {other:?}"),
        }
        server
            .send(&WireMsg::Welcome {
                worker_id: 42,
                heartbeat_interval_s: 0.0,
                spin_per_work_unit: 1,
            })
            .unwrap();
        assert_eq!(client.join().unwrap(), 42);
        // Dropping the server connection shuts the socket down: the next
        // read on a fresh peer of the (now closed) connection sees EOF.
        drop(server);
    }

    #[test]
    fn dropping_a_tcp_sink_delivers_eof_to_the_peer() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let endpoint = acceptor.endpoint();
        let peer = std::thread::spawn(move || {
            let mut conn = tcp_connect(&endpoint).unwrap();
            conn.recv().unwrap() // blocks until the master closes
        });
        let conn = loop {
            if let Some(c) = acceptor.poll_accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let (sink, _source) = conn.split();
        drop(sink); // explicit write-shutdown, despite the live read clone
        assert_eq!(peer.join().unwrap(), None, "peer sees a clean EOF");
    }

    #[test]
    fn writer_thread_accounts_frames_and_closes_on_drop() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let endpoint = acceptor.endpoint();
        let peer = std::thread::spawn(move || {
            let mut conn = tcp_connect(&endpoint).unwrap();
            let mut got = Vec::new();
            while let Some(m) = conn.recv().unwrap() {
                got.push(m);
            }
            got
        });
        let conn = loop {
            if let Some(c) = acceptor.poll_accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let (sink, _source) = conn.split();
        let counters = WireCounters::new();
        let tx = spawn_frame_writer(sink, counters.clone());
        let sent = [WireMsg::Heartbeat, WireMsg::Shutdown];
        for m in &sent {
            tx.send(m.clone().into()).unwrap();
        }
        drop(tx);
        let got = peer.join().unwrap();
        assert_eq!(got, sent);
        let expected: usize = sent.iter().map(|m| m.encode().len()).sum();
        assert_eq!(counters.bytes.load(Ordering::Relaxed), expected as u64);
        assert_eq!(
            counters.copied.load(Ordering::Relaxed),
            0,
            "a TCP sink writes straight from the encode buffer"
        );
    }

    #[test]
    fn out_msg_task_encodes_identically_to_the_owned_message() {
        let payload: Arc<[u8]> = vec![7u8; 48].into();
        let out = OutMsg::Task {
            unit_id: 3,
            work: 1.5,
            kind: crate::wire::PAYLOAD_MATMUL,
            payload: Arc::clone(&payload),
        };
        let owned = WireMsg::Task {
            unit_id: 3,
            work: 1.5,
            kind: crate::wire::PAYLOAD_MATMUL,
            payload: payload.to_vec(),
        };
        let mut frame = Vec::new();
        out.as_view().encode_into(&mut frame);
        assert_eq!(frame, owned.encode());
    }
}
