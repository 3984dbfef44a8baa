//! The worker wire protocol of the process-isolated backend.
//!
//! The paper's setting is a real computational grid: workers are remote OS
//! instances reachable only through links that *serialize* every task and
//! result.  The `grasp-proc` backend reproduces that boundary with worker
//! processes connected by local pipes, and this module defines the framing
//! both ends speak.  It lives in `grasp-core` because the protocol — not the
//! transport — is the contract: any future remote backend (sockets, batch
//! systems) reuses these types unchanged.
//!
//! The workspace's offline `serde` shim derives are markers (no codegen), so
//! framing is explicit and versioned:
//!
//! ```text
//! +-------+---------+-----+-------------+---------+-------------+
//! | magic | version | tag | payload len | payload | checksum    |
//! | 4 B   | 1 B     | 1 B | 4 B LE      | n B     | 4 B LE FNV  |
//! +-------+---------+-----+-------------+---------+-------------+
//! ```
//!
//! The checksum is FNV-1a/32 over the tag byte followed by the payload, so a
//! frame corrupted anywhere past the fixed header is rejected with a typed
//! [`GraspError::WireProtocol`] instead of being mis-parsed.  Every decode
//! path returns `Result` — a truncated, oversized, or garbage frame must
//! never panic the master or a worker.
//!
//! Integers are little-endian; floats travel as IEEE-754 bit patterns.

use crate::error::GraspError;
use std::io::Read;

/// Frame preamble: `b"GRSP"`.
pub(crate) const WIRE_MAGIC: [u8; 4] = *b"GRSP";

/// Current protocol version; bumped on any incompatible frame change.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload (rejects garbage length fields before
/// any allocation is attempted).
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Task payload kind: no payload bytes — the worker synthesises the task's
/// declared work with its calibrated spin kernel (the default, and what the
/// thread-backend parity tests exercise).
pub const PAYLOAD_SPIN: u32 = 0;

/// Task payload kind: a serialized `grasp-workloads` mat-mul row band
/// (`MatMulBandTask`).
pub const PAYLOAD_MATMUL: u32 = 1;

/// Task payload kind: a serialized `grasp-workloads` imaging frame task
/// (`ImagingFrameTask`).
pub const PAYLOAD_IMAGING: u32 = 2;

const TAG_HELLO: u8 = 0;
const TAG_INIT: u8 = 1;
const TAG_TASK: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_FAILED: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_JOIN: u8 = 7;
const TAG_WELCOME: u8 = 8;
const TAG_GOODBYE: u8 = 9;

/// Capability bit advertised by a worker that can execute [`PAYLOAD_SPIN`]
/// tasks (every worker can).
pub const CAP_SPIN: u32 = 1 << PAYLOAD_SPIN;

/// Capability bit for [`PAYLOAD_MATMUL`] tasks.
pub(crate) const CAP_MATMUL: u32 = 1 << PAYLOAD_MATMUL;

/// Capability bit for [`PAYLOAD_IMAGING`] tasks.
pub(crate) const CAP_IMAGING: u32 = 1 << PAYLOAD_IMAGING;

/// Every capability the stock worker binaries implement.
pub const CAP_ALL: u32 = CAP_SPIN | CAP_MATMUL | CAP_IMAGING;

/// The capability bit a worker must advertise to be handed tasks of payload
/// `kind` (0 for kinds beyond the bitmask — no worker can claim them, so the
/// master rejects such joins instead of dispatching undecodable payloads).
pub fn payload_capability(kind: u32) -> u32 {
    1u32.checked_shl(kind).unwrap_or(0)
}

/// FNV-1a 64-bit hash — the deterministic digest workloads use to compare a
/// worker's result against a locally computed reference without shipping the
/// full output back over the wire.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental [`fnv1a_64`]: feed byte chunks as they are produced instead
/// of concatenating them first.  `Fnv64::new().update(x).update(y).finish()`
/// equals `fnv1a_64` over `x ++ y`, so result digests can be folded straight
/// over computed values (or borrowed wire slices) with no intermediate
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a/64 offset basis (the hash of the empty input).
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the running hash; returns `self` for chaining.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

fn fnv1a_32(tag: u8, bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in std::iter::once(tag).chain(bytes.iter().copied()) {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn wire_err(detail: impl Into<String>) -> GraspError {
    GraspError::WireProtocol {
        detail: detail.into(),
    }
}

/// Append-only little-endian byte encoder used by the protocol and by the
/// workloads' serializable task representations.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte decoder matching [`ByteWriter`]; every
/// accessor returns [`GraspError::WireProtocol`] on underrun.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Borrow the next `n` bytes without copying.  The returned slice lives
    /// as long as the underlying buffer, not the reader, so a caller can
    /// keep slicing after the reader is dropped — this is the primitive the
    /// zero-copy [`FrameView`] decode path is built on.
    pub(crate) fn take_slice(&mut self, n: usize) -> Result<&'a [u8], GraspError> {
        if self.buf.len() - self.pos < n {
            return Err(wire_err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `u32`.
    pub(crate) fn take_u32(&mut self) -> Result<u32, GraspError> {
        Ok(u32::from_le_bytes(self.take_slice(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, GraspError> {
        Ok(u64::from_le_bytes(self.take_slice(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub(crate) fn take_f64(&mut self) -> Result<f64, GraspError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Borrow a `u32`-length-prefixed byte string without copying.
    pub(crate) fn take_bytes_slice(&mut self) -> Result<&'a [u8], GraspError> {
        let len = self.take_u32()? as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(wire_err(format!("byte string length {len} exceeds cap")));
        }
        self.take_slice(len)
    }

    /// Borrow a `u32`-length-prefixed UTF-8 string without copying.
    pub(crate) fn take_str_slice(&mut self) -> Result<&'a str, GraspError> {
        std::str::from_utf8(self.take_bytes_slice()?).map_err(|_| wire_err("invalid UTF-8 string"))
    }

    /// Succeed only if every byte has been consumed (catches frames whose
    /// payload is longer than the message it claims to carry).
    pub fn finish(&self) -> Result<(), GraspError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(wire_err(format!(
                "{} trailing bytes after message body",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// One protocol message, master ⇄ worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Worker → master, first frame after spawn: the worker is alive.
    Hello {
        /// The worker's OS process id.
        pid: u64,
    },
    /// Master → worker, first frame after spawn: run parameters.
    Init {
        /// How often the worker's heartbeat thread reports liveness.
        heartbeat_interval_s: f64,
        /// Spin-kernel iterations per declared work unit (the
        /// [`PAYLOAD_SPIN`] cost model, mirroring the thread backend).
        spin_per_work_unit: u64,
    },
    /// Master → worker: execute one work unit.
    Task {
        /// Global unit id within the running skeleton.
        unit_id: u64,
        /// Declared work of the unit.
        work: f64,
        /// Payload kind ([`PAYLOAD_SPIN`], [`PAYLOAD_MATMUL`], …).
        kind: u32,
        /// Kind-specific serialized task representation (empty for spin).
        payload: Vec<u8>,
    },
    /// Worker → master: a unit completed.
    Done {
        /// The completed unit.
        unit_id: u64,
        /// Wall seconds the computation took on the worker — the per-unit
        /// observation the master feeds to the adaptation engine.
        elapsed_s: f64,
        /// Deterministic digest of the computed result (0 for spin tasks).
        digest: u64,
    },
    /// Worker → master: a unit's payload could not be executed; the worker
    /// survives and the master may retry the unit elsewhere.
    Failed {
        /// The failing unit.
        unit_id: u64,
        /// Human-readable cause.
        detail: String,
    },
    /// Worker → master: periodic liveness signal (sent by a side thread even
    /// while a long task is computing).
    Heartbeat,
    /// Master → worker: drain and exit cleanly.
    Shutdown,
    /// Worker → master, first frame of the network registration handshake:
    /// who the worker is and what it speaks.  The master validates the
    /// version and the capability mask before admitting it to the pool (a
    /// mismatch is answered with [`WireMsg::Shutdown`] and a closed
    /// connection).
    Join {
        /// The worker's OS process id (diagnostic; also how a master that
        /// spawned the process matches the connection to its child handle).
        pid: u64,
        /// The wire protocol version the worker speaks ([`WIRE_VERSION`]).
        wire_version: u32,
        /// Bitmask of payload kinds the worker can execute ([`CAP_SPIN`],
        /// `CAP_MATMUL`, …).
        capabilities: u32,
    },
    /// Master → worker: the registration was accepted; run parameters.
    /// The network analogue of [`WireMsg::Init`], carrying the identity the
    /// master assigned on top.
    Welcome {
        /// The pool slot the master assigned (stable for the connection's
        /// lifetime; never reused within a run).
        worker_id: u64,
        /// How often the worker's heartbeat thread reports liveness
        /// (0 disables the heartbeat thread — liveness then rests on
        /// connection EOF alone).
        heartbeat_interval_s: f64,
        /// Spin-kernel iterations per declared work unit.
        spin_per_work_unit: u64,
    },
    /// Worker → master: the worker wants to leave gracefully.  It finishes
    /// the tasks already on its wire, but must be handed no new ones; the
    /// master answers with [`WireMsg::Shutdown`] once the window drains.
    Goodbye {
        /// Human-readable reason (diagnostics only).
        reason: String,
    },
}

impl WireMsg {
    /// Borrow this message as a [`FrameView`] (the inverse of
    /// [`FrameView::to_owned`]): heap-carrying fields become slices into
    /// `self`, everything else is copied by value.
    pub(crate) fn as_view(&self) -> FrameView<'_> {
        match self {
            WireMsg::Hello { pid } => FrameView::Hello { pid: *pid },
            WireMsg::Init {
                heartbeat_interval_s,
                spin_per_work_unit,
            } => FrameView::Init {
                heartbeat_interval_s: *heartbeat_interval_s,
                spin_per_work_unit: *spin_per_work_unit,
            },
            WireMsg::Task {
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
            WireMsg::Done {
                unit_id,
                elapsed_s,
                digest,
            } => FrameView::Done {
                unit_id: *unit_id,
                elapsed_s: *elapsed_s,
                digest: *digest,
            },
            WireMsg::Failed { unit_id, detail } => FrameView::Failed {
                unit_id: *unit_id,
                detail,
            },
            WireMsg::Heartbeat => FrameView::Heartbeat,
            WireMsg::Shutdown => FrameView::Shutdown,
            WireMsg::Join {
                pid,
                wire_version,
                capabilities,
            } => FrameView::Join {
                pid: *pid,
                wire_version: *wire_version,
                capabilities: *capabilities,
            },
            WireMsg::Welcome {
                worker_id,
                heartbeat_interval_s,
                spin_per_work_unit,
            } => FrameView::Welcome {
                worker_id: *worker_id,
                heartbeat_interval_s: *heartbeat_interval_s,
                spin_per_work_unit: *spin_per_work_unit,
            },
            WireMsg::Goodbye { reason } => FrameView::Goodbye { reason },
        }
    }

    /// Encode the message as one complete frame (header + payload +
    /// checksum), ready to write to the transport.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        frame
    }

    /// Encode the message as one complete frame into `frame`, clearing and
    /// reusing its capacity — the steady-state encode path allocates nothing
    /// once the buffer has grown to the working frame size.
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        self.as_view().encode_into(frame)
    }

    /// Decode one frame from the front of `buf`, returning the message and
    /// the number of bytes consumed.  Truncated, corrupted, oversized and
    /// unknown frames all yield [`GraspError::WireProtocol`]; this function
    /// never panics on any input.
    pub fn decode_slice(buf: &[u8]) -> Result<(WireMsg, usize), GraspError> {
        let (view, used) = FrameView::decode_slice(buf)?;
        Ok((view.to_owned(), used))
    }

    /// Read one frame from a blocking reader.  Returns `Ok(None)` on a clean
    /// end-of-stream *boundary* (the peer closed the pipe between frames);
    /// an end-of-stream mid-frame is a truncation error.  Allocates a fresh
    /// frame buffer per call — steady-state receive loops should hold a
    /// buffer and use `read_frame_into` + [`FrameView::decode_slice`]
    /// instead.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<WireMsg>, GraspError> {
        let mut buf = Vec::new();
        match read_frame_into(r, &mut buf)? {
            None => Ok(None),
            Some(n) => Ok(Some(FrameView::decode_slice(&buf[..n])?.0.to_owned())),
        }
    }
}

fn read_exactly<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), GraspError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            wire_err("truncated frame: peer closed mid-message")
        } else {
            wire_err(format!("transport read failed: {e}"))
        }
    })
}

/// A zero-copy view of one protocol message: the borrowed analogue of
/// [`WireMsg`] whose heap-carrying fields ([`FrameView::Task`] payload,
/// [`FrameView::Failed`] detail, [`FrameView::Goodbye`] reason) are slices
/// into the frame buffer they were decoded from.  Decoding a view allocates
/// nothing; [`FrameView::to_owned`] converts to the owned [`WireMsg`] when a
/// caller needs to keep the message past the buffer's next reuse.  The two
/// types encode byte-identically — `FrameView` is a different *path* onto
/// the same wire format, not a different format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameView<'a> {
    /// See [`WireMsg::Hello`].
    Hello {
        /// The worker's OS process id.
        pid: u64,
    },
    /// See [`WireMsg::Init`].
    Init {
        /// How often the worker's heartbeat thread reports liveness.
        heartbeat_interval_s: f64,
        /// Spin-kernel iterations per declared work unit.
        spin_per_work_unit: u64,
    },
    /// See [`WireMsg::Task`]; the payload borrows the frame buffer.
    Task {
        /// Global unit id within the running skeleton.
        unit_id: u64,
        /// Declared work of the unit.
        work: f64,
        /// Payload kind ([`PAYLOAD_SPIN`], [`PAYLOAD_MATMUL`], …).
        kind: u32,
        /// Kind-specific serialized task representation (empty for spin),
        /// borrowed from the read buffer — valid until the source's next
        /// receive.
        payload: &'a [u8],
    },
    /// See [`WireMsg::Done`].
    Done {
        /// The completed unit.
        unit_id: u64,
        /// Wall seconds the computation took on the worker.
        elapsed_s: f64,
        /// Deterministic digest of the computed result (0 for spin tasks).
        digest: u64,
    },
    /// See [`WireMsg::Failed`]; the detail borrows the frame buffer.
    Failed {
        /// The failing unit.
        unit_id: u64,
        /// Human-readable cause, borrowed from the read buffer.
        detail: &'a str,
    },
    /// See [`WireMsg::Heartbeat`].
    Heartbeat,
    /// See [`WireMsg::Shutdown`].
    Shutdown,
    /// See [`WireMsg::Join`].
    Join {
        /// The worker's OS process id.
        pid: u64,
        /// The wire protocol version the worker speaks.
        wire_version: u32,
        /// Bitmask of payload kinds the worker can execute.
        capabilities: u32,
    },
    /// See [`WireMsg::Welcome`].
    Welcome {
        /// The pool slot the master assigned.
        worker_id: u64,
        /// How often the worker's heartbeat thread reports liveness.
        heartbeat_interval_s: f64,
        /// Spin-kernel iterations per declared work unit.
        spin_per_work_unit: u64,
    },
    /// See [`WireMsg::Goodbye`]; the reason borrows the frame buffer.
    Goodbye {
        /// Human-readable reason, borrowed from the read buffer.
        reason: &'a str,
    },
}

impl<'a> FrameView<'a> {
    fn tag(&self) -> u8 {
        match self {
            FrameView::Hello { .. } => TAG_HELLO,
            FrameView::Init { .. } => TAG_INIT,
            FrameView::Task { .. } => TAG_TASK,
            FrameView::Done { .. } => TAG_DONE,
            FrameView::Failed { .. } => TAG_FAILED,
            FrameView::Heartbeat => TAG_HEARTBEAT,
            FrameView::Shutdown => TAG_SHUTDOWN,
            FrameView::Join { .. } => TAG_JOIN,
            FrameView::Welcome { .. } => TAG_WELCOME,
            FrameView::Goodbye { .. } => TAG_GOODBYE,
        }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        fn put_u32(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_f64(out: &mut Vec<u8>, v: f64) {
            put_u64(out, v.to_bits());
        }
        fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
            put_u32(out, v.len() as u32);
            out.extend_from_slice(v);
        }
        match self {
            FrameView::Hello { pid } => put_u64(out, *pid),
            FrameView::Init {
                heartbeat_interval_s,
                spin_per_work_unit,
            } => {
                put_f64(out, *heartbeat_interval_s);
                put_u64(out, *spin_per_work_unit);
            }
            FrameView::Task {
                unit_id,
                work,
                kind,
                payload,
            } => {
                put_u64(out, *unit_id);
                put_f64(out, *work);
                put_u32(out, *kind);
                put_bytes(out, payload);
            }
            FrameView::Done {
                unit_id,
                elapsed_s,
                digest,
            } => {
                put_u64(out, *unit_id);
                put_f64(out, *elapsed_s);
                put_u64(out, *digest);
            }
            FrameView::Failed { unit_id, detail } => {
                put_u64(out, *unit_id);
                put_bytes(out, detail.as_bytes());
            }
            FrameView::Heartbeat | FrameView::Shutdown => {}
            FrameView::Join {
                pid,
                wire_version,
                capabilities,
            } => {
                put_u64(out, *pid);
                put_u32(out, *wire_version);
                put_u32(out, *capabilities);
            }
            FrameView::Welcome {
                worker_id,
                heartbeat_interval_s,
                spin_per_work_unit,
            } => {
                put_u64(out, *worker_id);
                put_f64(out, *heartbeat_interval_s);
                put_u64(out, *spin_per_work_unit);
            }
            FrameView::Goodbye { reason } => put_bytes(out, reason.as_bytes()),
        }
    }

    /// Encode this view as one complete frame into `frame`, clearing and
    /// reusing its capacity.  Byte-identical to [`WireMsg::encode`] of the
    /// owned equivalent — the frame format does not know which path built
    /// it.
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(self.tag());
        frame.extend_from_slice(&[0u8; 4]); // length, patched below
        let body_start = frame.len();
        self.write_body(frame);
        let len = (frame.len() - body_start) as u32;
        frame[6..10].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a_32(self.tag(), &frame[body_start..]);
        frame.extend_from_slice(&sum.to_le_bytes());
    }

    /// Decode a message body without copying any variable-length field.
    pub(crate) fn from_body(tag: u8, body: &'a [u8]) -> Result<FrameView<'a>, GraspError> {
        let mut r = ByteReader::new(body);
        let msg = match tag {
            TAG_HELLO => FrameView::Hello { pid: r.take_u64()? },
            TAG_INIT => FrameView::Init {
                heartbeat_interval_s: r.take_f64()?,
                spin_per_work_unit: r.take_u64()?,
            },
            TAG_TASK => FrameView::Task {
                unit_id: r.take_u64()?,
                work: r.take_f64()?,
                kind: r.take_u32()?,
                payload: r.take_bytes_slice()?,
            },
            TAG_DONE => FrameView::Done {
                unit_id: r.take_u64()?,
                elapsed_s: r.take_f64()?,
                digest: r.take_u64()?,
            },
            TAG_FAILED => FrameView::Failed {
                unit_id: r.take_u64()?,
                detail: r.take_str_slice()?,
            },
            TAG_HEARTBEAT => FrameView::Heartbeat,
            TAG_SHUTDOWN => FrameView::Shutdown,
            TAG_JOIN => FrameView::Join {
                pid: r.take_u64()?,
                wire_version: r.take_u32()?,
                capabilities: r.take_u32()?,
            },
            TAG_WELCOME => FrameView::Welcome {
                worker_id: r.take_u64()?,
                heartbeat_interval_s: r.take_f64()?,
                spin_per_work_unit: r.take_u64()?,
            },
            TAG_GOODBYE => FrameView::Goodbye {
                reason: r.take_str_slice()?,
            },
            other => return Err(wire_err(format!("unknown message tag {other}"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Decode one frame from the front of `buf` without copying, returning
    /// the view and the number of bytes consumed.  Truncated, corrupted,
    /// oversized and unknown frames all yield [`GraspError::WireProtocol`];
    /// this function never panics on any input.
    pub fn decode_slice(buf: &'a [u8]) -> Result<(FrameView<'a>, usize), GraspError> {
        if buf.is_empty() {
            return Err(wire_err("empty input where a frame was expected"));
        }
        if buf.len() < 10 {
            return Err(wire_err("truncated frame: peer closed mid-message"));
        }
        let magic = [buf[0], buf[1], buf[2], buf[3]];
        if magic != WIRE_MAGIC {
            return Err(wire_err(format!("bad frame magic {magic:02x?}")));
        }
        let version = buf[4];
        if version != WIRE_VERSION {
            return Err(wire_err(format!(
                "wire version mismatch: got {version}, speak {WIRE_VERSION}"
            )));
        }
        let tag = buf[5];
        let len = u32::from_le_bytes(buf[6..10].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(wire_err(format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} cap"
            )));
        }
        let total = 10 + len + 4;
        if buf.len() < total {
            return Err(wire_err("truncated frame: peer closed mid-message"));
        }
        let body = &buf[10..10 + len];
        let expect = u32::from_le_bytes(buf[10 + len..total].try_into().unwrap());
        let got = fnv1a_32(tag, body);
        if got != expect {
            return Err(wire_err(format!(
                "frame checksum mismatch (got {got:#010x}, frame says {expect:#010x})"
            )));
        }
        Ok((Self::from_body(tag, body)?, total))
    }

    /// Copy every borrowed field into an owned [`WireMsg`].  This is the
    /// only allocation point of the borrowed decode path, and only the
    /// heap-carrying variants (`Task`, `Failed`, `Goodbye`) allocate at
    /// all.
    pub fn to_owned(&self) -> WireMsg {
        match *self {
            FrameView::Hello { pid } => WireMsg::Hello { pid },
            FrameView::Init {
                heartbeat_interval_s,
                spin_per_work_unit,
            } => WireMsg::Init {
                heartbeat_interval_s,
                spin_per_work_unit,
            },
            FrameView::Task {
                unit_id,
                work,
                kind,
                payload,
            } => WireMsg::Task {
                unit_id,
                work,
                kind,
                payload: payload.to_vec(),
            },
            FrameView::Done {
                unit_id,
                elapsed_s,
                digest,
            } => WireMsg::Done {
                unit_id,
                elapsed_s,
                digest,
            },
            FrameView::Failed { unit_id, detail } => WireMsg::Failed {
                unit_id,
                detail: detail.to_string(),
            },
            FrameView::Heartbeat => WireMsg::Heartbeat,
            FrameView::Shutdown => WireMsg::Shutdown,
            FrameView::Join {
                pid,
                wire_version,
                capabilities,
            } => WireMsg::Join {
                pid,
                wire_version,
                capabilities,
            },
            FrameView::Welcome {
                worker_id,
                heartbeat_interval_s,
                spin_per_work_unit,
            } => WireMsg::Welcome {
                worker_id,
                heartbeat_interval_s,
                spin_per_work_unit,
            },
            FrameView::Goodbye { reason } => WireMsg::Goodbye {
                reason: reason.to_string(),
            },
        }
    }
}

/// Read one complete frame from a blocking reader into `buf`, clearing and
/// reusing its capacity (no allocation once the buffer has grown to the
/// working frame size), and return the frame's total length.  Returns
/// `Ok(None)` on a clean end-of-stream boundary; an end-of-stream mid-frame
/// is a truncation error.  The frame's magic, version and length cap are
/// validated here (they bound the read); the checksum and body are
/// validated by the [`FrameView::decode_slice`] call that follows.
pub(crate) fn read_frame_into<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> Result<Option<usize>, GraspError> {
    // Distinguish a clean close (0 bytes available) from truncation.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(wire_err(format!("transport read failed: {e}"))),
        }
    }
    let mut header = [0u8; 9]; // magic[1..4] + version + tag + len
    read_exactly(r, &mut header)?;
    let magic = [first[0], header[0], header[1], header[2]];
    if magic != WIRE_MAGIC {
        return Err(wire_err(format!("bad frame magic {magic:02x?}")));
    }
    let version = header[3];
    if version != WIRE_VERSION {
        return Err(wire_err(format!(
            "wire version mismatch: got {version}, speak {WIRE_VERSION}"
        )));
    }
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(wire_err(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} cap"
        )));
    }
    let total = 10 + len + 4;
    buf.clear();
    buf.resize(total, 0);
    buf[0] = first[0];
    buf[1..10].copy_from_slice(&header);
    read_exactly(r, &mut buf[10..])?;
    Ok(Some(total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello { pid: 4242 },
            WireMsg::Init {
                heartbeat_interval_s: 0.25,
                spin_per_work_unit: 500,
            },
            WireMsg::Task {
                unit_id: 7,
                work: 3.5,
                kind: PAYLOAD_MATMUL,
                payload: vec![1, 2, 3, 250],
            },
            WireMsg::Done {
                unit_id: 7,
                elapsed_s: 0.0125,
                digest: 0xdead_beef,
            },
            WireMsg::Failed {
                unit_id: 9,
                detail: "bad payload: wanted 8 bytes".into(),
            },
            WireMsg::Heartbeat,
            WireMsg::Shutdown,
            WireMsg::Join {
                pid: 31337,
                wire_version: WIRE_VERSION as u32,
                capabilities: CAP_ALL,
            },
            WireMsg::Welcome {
                worker_id: 3,
                heartbeat_interval_s: 0.25,
                spin_per_work_unit: 500,
            },
            WireMsg::Goodbye {
                reason: "drained by operator".into(),
            },
        ]
    }

    #[test]
    fn payload_capabilities_cover_the_known_kinds_and_reject_the_rest() {
        assert_eq!(payload_capability(PAYLOAD_SPIN), CAP_SPIN);
        assert_eq!(payload_capability(PAYLOAD_MATMUL), CAP_MATMUL);
        assert_eq!(payload_capability(PAYLOAD_IMAGING), CAP_IMAGING);
        assert_eq!(CAP_ALL, CAP_SPIN | CAP_MATMUL | CAP_IMAGING);
        // A kind beyond the mask maps to "no worker can claim it".
        assert_eq!(payload_capability(99), 0);
        assert_eq!(payload_capability(32), 0);
    }

    #[test]
    fn every_message_round_trips_through_a_frame() {
        for msg in samples() {
            let frame = msg.encode();
            let (back, used) = WireMsg::decode_slice(&frame).unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, frame.len(), "whole frame consumed");
        }
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut stream = Vec::new();
        for msg in samples() {
            stream.extend_from_slice(&msg.encode());
        }
        let mut r = stream.as_slice();
        let mut decoded = Vec::new();
        while let Some(m) = WireMsg::read_from(&mut r).unwrap() {
            decoded.push(m);
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn clean_eof_is_none_but_mid_frame_eof_is_an_error() {
        let mut empty: &[u8] = &[];
        assert_eq!(WireMsg::read_from(&mut empty).unwrap(), None);
        let frame = WireMsg::Heartbeat.encode();
        for cut in 1..frame.len() {
            let mut r = &frame[..cut];
            let err = WireMsg::read_from(&mut r)
                .expect_err("every truncation must be rejected")
                .to_string();
            assert!(err.contains("wire protocol"), "{err}");
        }
    }

    #[test]
    fn corrupted_frames_are_rejected_not_misparsed() {
        let msg = WireMsg::Task {
            unit_id: 1,
            work: 2.0,
            kind: PAYLOAD_SPIN,
            payload: vec![9; 16],
        };
        let frame = msg.encode();
        // Flip one bit anywhere: magic/version/tag/len errors or checksum
        // mismatch — never a successful decode of different content, and
        // never a panic.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            if let Ok((m, _)) = WireMsg::decode_slice(&bad) {
                panic!("corrupted byte {i} decoded as {m:?}");
            }
        }
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        let mut frame = WireMsg::Heartbeat.encode();
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = WireMsg::decode_slice(&frame).unwrap_err().to_string();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn foreign_versions_and_tags_are_rejected() {
        let mut frame = WireMsg::Heartbeat.encode();
        frame[4] = WIRE_VERSION + 1;
        assert!(WireMsg::decode_slice(&frame).is_err());
        let mut frame = WireMsg::Heartbeat.encode();
        frame[5] = 99; // unknown tag — checksum covers the tag, so fix it up.
        let sum = fnv1a_32(99, &[]);
        let n = frame.len();
        frame[n - 4..].copy_from_slice(&sum.to_le_bytes());
        let err = WireMsg::decode_slice(&frame).unwrap_err().to_string();
        assert!(err.contains("unknown message tag"), "{err}");
    }

    #[test]
    fn byte_reader_reports_trailing_and_missing_bytes() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        w.put_u64(u64::MAX);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u64().unwrap(), 5);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        r.finish().unwrap();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u64().unwrap(), 5);
        assert!(r.finish().is_err(), "unread bytes must be flagged");
        let mut r = ByteReader::new(&bytes[..2]);
        assert!(r.take_u32().is_err(), "underrun must be flagged");
    }

    #[test]
    fn borrowed_views_round_trip_and_encode_identically_to_owned() {
        let mut reused = Vec::new();
        for msg in samples() {
            let frame = msg.encode();
            // Borrowed decode sees exactly what owned decode sees.
            let (view, used) = FrameView::decode_slice(&frame).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(view, msg.as_view());
            assert_eq!(view.to_owned(), msg);
            // Both encode paths produce byte-identical frames, and the
            // reused buffer carries nothing over from the previous message.
            view.encode_into(&mut reused);
            assert_eq!(reused, frame);
            msg.encode_into(&mut reused);
            assert_eq!(reused, frame);
        }
    }

    #[test]
    fn borrowed_decode_rejects_everything_owned_decode_rejects() {
        let frame = WireMsg::Task {
            unit_id: 1,
            work: 2.0,
            kind: PAYLOAD_SPIN,
            payload: vec![9; 16],
        }
        .encode();
        for cut in 0..frame.len() {
            assert!(FrameView::decode_slice(&frame[..cut]).is_err());
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            if let Ok((v, _)) = FrameView::decode_slice(&bad) {
                panic!("corrupted byte {i} decoded as {v:?}");
            }
        }
    }

    #[test]
    fn read_frame_into_reuses_one_buffer_across_a_stream() {
        let mut stream = Vec::new();
        for msg in samples() {
            stream.extend_from_slice(&msg.encode());
        }
        let mut r = stream.as_slice();
        let mut buf = Vec::new();
        let mut decoded = Vec::new();
        while let Some(n) = read_frame_into(&mut r, &mut buf).unwrap() {
            let (view, used) = FrameView::decode_slice(&buf[..n]).unwrap();
            assert_eq!(used, n);
            decoded.push(view.to_owned());
        }
        assert_eq!(decoded, samples());
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }
}
