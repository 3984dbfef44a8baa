//! Framed transport abstraction under the master/worker [`crate::wire`]
//! protocol.
//!
//! The protocol module defines *what* the two ends say; this module defines
//! *how the bytes move*.  Workers, probes and tests move frames through
//! three traits:
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
//! deterministic in-memory loopback of `grasp-net`'s test harness.
//!
//! ## Readiness: one thread, never blocked by a peer
//!
//! A master serves every member from one thread, and that thread must
//! never block on a peer: a worker only reads between tasks, and a stalled
//! or wedged peer must stall only itself while the master's heartbeat
//! sweep unmasks it.  For links carried by file descriptors — pipes and
//! sockets — this module gives that loop its parts:
//!
//! * [`PollSet`] waits in `poll(2)` on many descriptors at once;
//! * [`FdLink`] moves frames over a non-blocking descriptor pair: reads
//!   land in a reused buffer that reassembles frames however the bytes
//!   were split (a partial frame waits for its rest; it is not an error),
//!   and sends are appended to an out-buffer that drains as the peer makes
//!   room;
//! * [`Acceptor::listener`] exposes a listening socket to poll, so
//!   connections are accepted, and greeted, on the same thread.
//!
//! Ends without a descriptor (the shared-memory ring, the loopback
//! network) block instead; a master reads them on bridge threads that ring
//! a [`Doorbell`] in its poll set, so they wake the loop rather than time
//! out into it.
//!
//! The `poll`, `fcntl` and `shutdown` calls are this module's private
//! `sys` wrappers; with the shared-memory ring's, they are the crate's only
//! unsafe code.

use crate::error::GraspError;
use crate::wire::{frame_len, read_frame_into, FrameView, WireMsg};
use std::fs::File;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

    /// Write one already-encoded frame (the master's path, which encodes
    /// into its own reused buffer).  One call is one frame — the
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
/// framed halves.  [`FramedConnection::split`] hands them to separate
/// owners (a master keeps the sink and gives the source to a bridge
/// thread).
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
    /// goes through the halves after [`FramedConnection::split`]).
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

/// Where new peers register.
pub trait Acceptor: Send {
    /// Return the next fully connected (but not yet handshaken) peer, or
    /// `Ok(None)` when nobody is waiting right now.  Must not block.
    fn poll_accept(&mut self) -> Result<Option<FramedConnection>, GraspError>;

    /// The endpoint workers should connect to (an address for sockets, a
    /// symbolic label otherwise).
    fn endpoint(&self) -> String;

    /// The listening socket behind this acceptor, if there is one: a
    /// readiness loop polls it and accepts on it directly, so its peers
    /// become [`FdLink`]s.  `None` (the default) means the acceptor has no
    /// descriptor, and a loop waits on it through
    /// [`Acceptor::wait_accept`] on a bridge thread.
    fn listener(&self) -> Option<&TcpListener> {
        None
    }

    /// Like [`Acceptor::poll_accept`], but wait up to `timeout` for a peer.
    /// Acceptors that can block override this (the loopback network waits
    /// on its channel); the default polls once and, finding nobody, sleeps
    /// out the timeout.
    fn wait_accept(&mut self, timeout: Duration) -> Result<Option<FramedConnection>, GraspError> {
        let conn = self.poll_accept()?;
        if conn.is_none() {
            std::thread::sleep(timeout);
        }
        Ok(conn)
    }
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

    fn listener(&self) -> Option<&TcpListener> {
        Some(&self.listener)
    }
}

// ---------------------------------------------------------------------------
// outbound messages
// ---------------------------------------------------------------------------

/// One outbound message of a master: either an owned protocol message, or
/// the task-dispatch fast path whose payload is a shared reference-counted
/// slice — the master clones an `Arc` per dispatch, never the payload
/// bytes (they are copied exactly once, into the link's out-buffer or
/// encode buffer).
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

// ---------------------------------------------------------------------------
// readiness: non-blocking descriptors for a one-thread loop
// ---------------------------------------------------------------------------

/// The descriptors one `poll(2)` call waits on.  Rebuild it before every
/// wait with [`PollSet::clear`] and [`PollSet::watch`]; the storage is
/// reused, so a steady-state wait allocates nothing.
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<sys::PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Forget every watched descriptor.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watch `fd` for input (`read`) and for room to write (`write`);
    /// returns the slot its readiness is reported under.
    pub fn watch(&mut self, fd: RawFd, read: bool, write: bool) -> usize {
        let mut events = 0;
        if read {
            events |= sys::POLLIN;
        }
        if write {
            events |= sys::POLLOUT;
        }
        self.fds.push(sys::PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until a watched descriptor is ready or `timeout` passes, and
    /// return how many are ready: 0 when the wait timed out or a signal
    /// interrupted it.
    pub fn wait(&mut self, timeout: Duration) -> Result<usize, GraspError> {
        // Round up: a wait cut short by sub-millisecond truncation would
        // wake the loop before its deadline.
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        match sys::poll_fds(&mut self.fds, ms) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(transport_err(format!("poll failed: {e}"))),
        }
    }

    /// Slot `slot` has input, an end of stream or an error to collect.
    pub fn readable(&self, slot: usize) -> bool {
        self.fds[slot].revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0
    }

    /// Slot `slot` has room to write, or a write would report its error.
    pub fn writable(&self, slot: usize) -> bool {
        self.fds[slot].revents & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0
    }
}

/// A frame buffer's first size.  It is compacted, then doubled, whenever
/// an unfinished frame leaves less than a quarter of this free to read
/// into.
const READ_CHUNK: usize = 16 << 10;

/// A link whose frames cross non-blocking file descriptors — a child's
/// pipe pair or one connected socket — driven by a readiness loop.
///
/// * **Receive:** [`FdLink::fill`] reads what the descriptor holds into a
///   buffer reused across frames, and [`FdLink::next_frame`] hands out each
///   complete frame as a borrowed [`FrameView`].  Bytes of an unfinished
///   frame stay buffered until the rest arrives, however the peer split its
///   writes.  Steady-state receives allocate nothing.
/// * **Send:** [`FdLink::queue`] appends a frame to an out-buffer and
///   [`FdLink::flush`] writes as much as the descriptor takes without
///   blocking; the rest waits for the next [`FdLink::write_fd`] readiness.
///   [`FdLink::close`] is end-of-stream after the queued frames.  A write
///   error drops the queued frames and closes the direction, so later
///   frames are refused.
///
/// Dropping the link closes both directions at once.
#[derive(Debug)]
pub struct FdLink {
    /// `None` once the caller shut the receive side.
    read: Option<File>,
    /// `None` once the send side closed or failed.
    write: Option<File>,
    /// Both directions are one socket: closing the send side is a
    /// `shutdown(SHUT_WR)`, since the receive side keeps the socket open.
    socket: bool,
    /// Received bytes; `inbuf[start..end]` is not yet handed out.
    inbuf: Vec<u8>,
    start: usize,
    end: usize,
    /// Queued frames; `out[sent..]` is not yet written.
    out: Vec<u8>,
    sent: usize,
    /// Close the send side once `out` drains.
    closing: bool,
}

impl FdLink {
    /// A link over a child process's pipes: frames go to `writer` (its
    /// stdin) and come from `reader` (its stdout).
    pub fn pipes(
        writer: impl Into<OwnedFd>,
        reader: impl Into<OwnedFd>,
    ) -> Result<FdLink, GraspError> {
        FdLink::new(reader.into(), writer.into(), false)
    }

    /// A link over one connected stream socket (TCP or Unix) carrying both
    /// directions.
    pub fn socket(stream: impl Into<OwnedFd>) -> Result<FdLink, GraspError> {
        let read = stream.into();
        let write = read
            .try_clone()
            .map_err(|e| transport_err(format!("could not clone socket: {e}")))?;
        FdLink::new(read, write, true)
    }

    fn new(read: OwnedFd, write: OwnedFd, socket: bool) -> Result<FdLink, GraspError> {
        for fd in [&read, &write] {
            sys::set_nonblocking(fd.as_raw_fd())
                .map_err(|e| transport_err(format!("could not make a link non-blocking: {e}")))?;
        }
        Ok(FdLink {
            read: Some(File::from(read)),
            write: Some(File::from(write)),
            socket,
            inbuf: Vec::new(),
            start: 0,
            end: 0,
            out: Vec::new(),
            sent: 0,
            closing: false,
        })
    }

    /// The descriptor to watch for input, while the receive side is open.
    pub fn read_fd(&self) -> Option<RawFd> {
        self.read.as_ref().map(AsRawFd::as_raw_fd)
    }

    /// The descriptor to watch for room to write, while queued bytes wait.
    pub fn write_fd(&self) -> Option<RawFd> {
        self.write
            .as_ref()
            .filter(|_| self.sent < self.out.len())
            .map(AsRawFd::as_raw_fd)
    }

    /// Read once from the descriptor into the frame buffer: the bytes read,
    /// `Ok(0)` at end of stream (or once the receive side is shut), and an
    /// [`ErrorKind::WouldBlock`] error when nothing is ready.
    pub fn fill(&mut self) -> std::io::Result<usize> {
        let Some(read) = &self.read else {
            return Ok(0);
        };
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.inbuf.len() - self.end < READ_CHUNK / 4 {
            // Little room left behind an unfinished frame: move it to the
            // front, and grow once the frame alone fills the buffer.
            self.inbuf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.inbuf.len() - self.end < READ_CHUNK / 4 {
            let grown = (self.inbuf.len() * 2).max(READ_CHUNK);
            self.inbuf.resize(grown, 0);
        }
        let n = (&*read).read(&mut self.inbuf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame in the buffer, or `Ok(None)` until one is.
    /// A corrupt frame is a typed [`GraspError::WireProtocol`].  The view is
    /// valid until the next call on this link.
    pub fn next_frame(&mut self) -> Result<Option<FrameView<'_>>, GraspError> {
        let pending = &self.inbuf[self.start..self.end];
        let Some(total) = frame_len(pending)?.filter(|&total| pending.len() >= total) else {
            return Ok(None);
        };
        let at = self.start;
        self.start += total;
        Ok(Some(
            FrameView::decode_slice(&self.inbuf[at..at + total])?.0,
        ))
    }

    /// Stop receiving: release the receive side and drop what it buffered.
    pub fn shut_read(&mut self) {
        self.read = None;
        (self.start, self.end) = (0, 0);
    }

    /// Append one frame to the out-buffer; `false` (nothing queued) once
    /// the send side is closed, closing or failed.
    pub fn queue(&mut self, frame: &FrameView<'_>) -> bool {
        if self.write.is_none() || self.closing {
            return false;
        }
        frame.append_to(&mut self.out);
        true
    }

    /// Write queued bytes until they are all out or the descriptor would
    /// block, and return how many were written.  An error closes the send
    /// side and drops what was queued.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        let mut written = 0;
        while self.sent < self.out.len() {
            let Some(write) = &self.write else {
                break;
            };
            match (&*write).write(&self.out[self.sent..]) {
                Ok(0) => return self.fail(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    written += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(written),
                Err(e) => return self.fail(e),
            }
        }
        self.out.clear();
        self.sent = 0;
        if self.closing {
            self.close_write();
        }
        Ok(written)
    }

    fn fail(&mut self, e: std::io::Error) -> std::io::Result<usize> {
        self.out.clear();
        self.sent = 0;
        self.close_write();
        Err(e)
    }

    /// End the send side after the queued frames: the peer reads them, then
    /// end-of-stream.  Later frames are refused.
    pub fn close(&mut self) {
        self.closing = true;
        if self.sent == self.out.len() {
            self.close_write();
        }
    }

    fn close_write(&mut self) {
        if let Some(write) = self.write.take() {
            if self.socket {
                // The peer sees EOF although the receive side keeps the
                // socket open; a failure means it is already gone.
                let _ = sys::shutdown_write(write.as_raw_fd());
            }
        }
    }
}

/// A self-pipe a [`PollSet`] watches, so threads without a descriptor of
/// their own can wake the loop: they post their news somewhere the loop
/// looks, then [`Ringer::ring`].  Rings coalesce — one byte stays in the
/// pipe until the loop answers — so a busy bridge costs one `write` per
/// wake-up of the loop, not per message.
#[derive(Debug)]
pub struct Doorbell {
    rx: UnixStream,
    ringer: Ringer,
}

/// The ringing end of a [`Doorbell`]; clone one per thread.
#[derive(Debug, Clone)]
pub struct Ringer(Arc<RingerInner>);

#[derive(Debug)]
struct RingerInner {
    tx: UnixStream,
    /// A byte is in the pipe, or the loop is about to look anyway.
    rung: AtomicBool,
}

impl Doorbell {
    /// A fresh, silent doorbell.
    pub fn new() -> Result<Doorbell, GraspError> {
        let io = |e: std::io::Error| transport_err(format!("could not make a doorbell: {e}"));
        let (rx, tx) = UnixStream::pair().map_err(io)?;
        rx.set_nonblocking(true).map_err(io)?;
        tx.set_nonblocking(true).map_err(io)?;
        Ok(Doorbell {
            rx,
            ringer: Ringer(Arc::new(RingerInner {
                tx,
                rung: AtomicBool::new(false),
            })),
        })
    }

    /// A ringer for another thread.
    pub fn ringer(&self) -> Ringer {
        self.ringer.clone()
    }

    /// The descriptor to watch for input.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Silence the bell and re-arm it.  Call this *before* collecting what
    /// the ringers posted: a post that lands after the collection rings
    /// again, so none is left unannounced.
    pub fn answer(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        self.ringer.0.rung.store(false, Ordering::SeqCst);
    }
}

impl Ringer {
    /// Wake the loop watching the doorbell, unless a ring is pending.
    pub fn ring(&self) {
        if !self.0.rung.swap(true, Ordering::SeqCst) {
            // A full pipe is already ringing.
            let _ = (&self.0.tx).write(&[1]);
        }
    }
}

/// The `poll`, `fcntl` and `shutdown` wrappers: with the shared-memory
/// ring's `sys`, the crate's only unsafe code.  The constants are Linux's
/// generic ABI (x86, Arm, RISC-V); other Unixes use the BSD values.
#[allow(unsafe_code)]
#[warn(clippy::undocumented_unsafe_blocks)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::os::fd::RawFd;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;
    pub(super) const POLLERR: c_short = 0x8;
    pub(super) const POLLHUP: c_short = 0x10;
    pub(super) const POLLNVAL: c_short = 0x20;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x4;
    const SHUT_WR: c_int = 1;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn shutdown(fd: c_int, how: c_int) -> c_int;
    }

    fn check(rc: c_int) -> std::io::Result<c_int> {
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    /// Wait up to `timeout_ms` for readiness on `fds`; the number of
    /// entries with events.
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<usize> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records; the kernel writes only their
        // `revents` fields and nothing past `fds.len()` entries.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        check(rc).map(|n| n as usize)
    }

    /// Set `O_NONBLOCK` on `fd`'s open file description.
    pub(super) fn set_nonblocking(fd: RawFd) -> std::io::Result<()> {
        // SAFETY: F_GETFL and F_SETFL read and write the descriptor's
        // status flags and touch no memory of this process; an fd that is
        // not open fails with EBADF.
        let flags = check(unsafe { fcntl(fd, F_GETFL) })?;
        // SAFETY: as above; the third argument is the `int` F_SETFL takes.
        check(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }).map(drop)
    }

    /// Shut down the send direction of the socket behind `fd`.
    pub(super) fn shutdown_write(fd: RawFd) -> std::io::Result<()> {
        // SAFETY: shutdown(2) acts on the socket behind `fd` and touches no
        // memory of this process; a non-socket fails with ENOTSOCK.
        check(unsafe { shutdown(fd, SHUT_WR) }).map(drop)
    }
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
            acceptor.listener().is_some(),
            "a readiness loop can poll it"
        );
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

    fn socket_pair() -> (FdLink, UnixStream) {
        let (near, far) = UnixStream::pair().unwrap();
        (FdLink::socket(near).unwrap(), far)
    }

    /// Fill `link` until it yields a frame or `tries` reads found nothing.
    fn next_owned(link: &mut FdLink) -> Option<WireMsg> {
        for _ in 0..1000 {
            if let Some(view) = link.next_frame().unwrap() {
                return Some(view.to_owned());
            }
            match link.fill() {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
        None
    }

    #[test]
    fn an_fd_link_reassembles_frames_however_the_bytes_were_split() {
        let (mut link, mut far) = socket_pair();
        let msgs = [
            WireMsg::Done {
                unit_id: 3,
                elapsed_s: 0.5,
                digest: 9,
            },
            WireMsg::Goodbye {
                reason: "draining".into(),
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }
        // One byte at a time: every prefix is "not yet", never an error.
        let mut got = Vec::new();
        for byte in &stream {
            far.write_all(std::slice::from_ref(byte)).unwrap();
            assert_eq!(link.fill().unwrap(), 1);
            while let Some(view) = link.next_frame().unwrap() {
                got.push(view.to_owned());
            }
        }
        assert_eq!(got, msgs);
        assert!(
            matches!(link.fill(), Err(e) if e.kind() == ErrorKind::WouldBlock),
            "an empty link must not block"
        );
        drop(far);
        assert_eq!(link.fill().unwrap(), 0, "end of stream");
    }

    #[test]
    fn an_fd_link_grows_its_buffer_for_frames_larger_than_a_read() {
        let (mut link, far) = socket_pair();
        let big = WireMsg::Task {
            unit_id: 1,
            work: 1.0,
            kind: crate::wire::PAYLOAD_SPIN,
            payload: vec![5; 3 * READ_CHUNK + 7],
        };
        let frame = big.encode();
        let writer = std::thread::spawn(move || (&far).write_all(&frame));
        assert_eq!(next_owned(&mut link), Some(big));
        writer.join().unwrap().unwrap();
    }

    #[test]
    fn an_fd_link_queues_what_a_full_peer_cannot_take_without_blocking() {
        let (mut link, far) = socket_pair();
        let task = WireMsg::Task {
            unit_id: 7,
            work: 1.0,
            kind: crate::wire::PAYLOAD_SPIN,
            payload: vec![1; 4 << 20],
        };
        let total = task.encode().len();
        assert!(link.queue(&OutMsg::from(task.clone()).as_view()));
        let first = link.flush().unwrap();
        assert!(first < total, "a 4 MiB frame cannot fit a socket buffer");
        assert!(link.write_fd().is_some(), "the rest waits for POLLOUT");
        let mut polls = PollSet::new();
        polls.watch(link.write_fd().unwrap(), false, true);
        assert_eq!(polls.wait(Duration::from_millis(10)).unwrap(), 0, "full");
        // Close now: end-of-stream comes after the queued frame.
        link.close();
        assert!(!link.queue(&OutMsg::from(WireMsg::Shutdown).as_view()));
        let reader = std::thread::spawn(move || {
            let (_, mut source) = stream_connection("far", std::io::sink(), far).split();
            (source.recv().unwrap(), source.recv().unwrap())
        });
        let mut written = first;
        while let Some(fd) = link.write_fd() {
            polls.clear();
            polls.watch(fd, false, true);
            if polls.wait(Duration::from_secs(5)).unwrap() == 1 && polls.writable(0) {
                written += link.flush().unwrap();
            }
        }
        assert_eq!(written, total);
        assert_eq!(reader.join().unwrap(), (Some(task), None));
    }

    #[test]
    fn a_failed_write_refuses_every_later_frame() {
        let (mut link, far) = socket_pair();
        drop(far);
        let beat = OutMsg::from(WireMsg::Heartbeat);
        assert!(link.queue(&beat.as_view()));
        assert!(link.flush().is_err(), "the peer is gone");
        assert!(link.write_fd().is_none(), "nothing left to write");
        assert!(!link.queue(&beat.as_view()), "later frames are refused");
    }

    #[test]
    fn poll_sets_time_out_and_report_input() {
        let (link, mut far) = socket_pair();
        let mut polls = PollSet::new();
        polls.watch(link.read_fd().unwrap(), true, false);
        let t0 = std::time::Instant::now();
        assert_eq!(polls.wait(Duration::from_millis(20)).unwrap(), 0);
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "waited the timeout"
        );
        far.write_all(&WireMsg::Heartbeat.encode()).unwrap();
        assert_eq!(polls.wait(Duration::from_secs(5)).unwrap(), 1);
        assert!(polls.readable(0));
        assert!(!polls.writable(0));
    }

    #[test]
    fn a_doorbell_wakes_a_poll_from_another_thread_and_coalesces_rings() {
        let bell = Doorbell::new().unwrap();
        let ringer = bell.ringer();
        let mut polls = PollSet::new();
        polls.watch(bell.fd(), true, false);
        assert_eq!(polls.wait(Duration::ZERO).unwrap(), 0, "silent at first");
        let t0 = std::time::Instant::now();
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            ringer.ring();
            ringer.ring();
        });
        assert_eq!(polls.wait(Duration::from_secs(5)).unwrap(), 1);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woken, not timed out"
        );
        thread.join().unwrap();
        bell.answer();
        assert_eq!(polls.wait(Duration::ZERO).unwrap(), 0, "answered");
        bell.ringer().ring();
        assert_eq!(polls.wait(Duration::ZERO).unwrap(), 1, "re-armed");
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
