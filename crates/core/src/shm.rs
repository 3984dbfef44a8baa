//! Same-host shared-memory ring transport.
//!
//! The fourth [`crate::transport`] implementation: a pair of single-producer
//! single-consumer byte rings backed by one tmpfs file (`/dev/shm` on
//! Linux), one ring per direction.  A master creates the file before
//! spawning the worker process; both sides then move frames through the
//! rings with positioned reads and writes (`FileExt::read_at`/`write_at`) —
//! on tmpfs these are memory-speed page-cache copies, no disk I/O and no
//! per-frame pipe or socket syscall queueing.  Only the 4 KiB header page is
//! mapped into memory; it holds the ring positions as atomics and the futex
//! words the two sides park on.
//!
//! ## File layout
//!
//! ```text
//! offset  0  magic "GRSPSHM2"       8  ring capacity per direction (u64 LE)
//!        16  master pid            24  worker pid (0 until attach)
//!        32  master closed flag    40  worker closed flag
//!        48  M→W ring words:  48 head (worker-written)  56 tail (master-written)
//!                             64 data seq   68 consumer-parked flag  (u32)
//!                             72 space seq  76 producer-parked flag  (u32)
//!        80  W→M ring words, same shape (head 80, tail 88, data 96, space 104)
//!      4096  M→W data ring (capacity bytes)
//! 4096+cap  W→M data ring (capacity bytes)
//! ```
//!
//! Magic and capacity are written once with `pwrite` before the header page
//! is mapped; every later header access is an atomic on the mapping.  Head
//! and tail are free-running `u64` byte counters (never wrapped), so
//! `tail - head` is the number of unread bytes and the empty/full states
//! are unambiguous.  Each side writes only its own fields: the producer
//! `pwrite`s the data and then publishes the tail, the consumer `pread`s and
//! then publishes the head, both `SeqCst`, so the peer never observes a tail
//! beyond valid data or a head beyond data already copied out.
//!
//! ## Waiting: park, wake
//!
//! A side that finds nothing to read (or no room to write) parks on that
//! ring's futex straight away: it reads the sequence word, raises the
//! parked flag, re-checks the position and the peer's closed flag (all
//! `SeqCst`), and `FUTEX_WAIT`s on the sequence word for at most 10 ms.
//! The other side publishes its position and only then looks at the parked
//! flag; if it is raised it bumps the sequence word and `FUTEX_WAKE`s.
//! Either the waiter's re-check sees the new position or the publisher sees
//! the flag, and a bump between the waiter's read and its wait fails the
//! futex compare — no wake is lost.  The data futex wakes a parked consumer
//! on tail advances, the space futex a parked producer on head advances.
//! The futex calls use the shared (not process-private) form, so the kernel
//! keys them by file page and a wake reaches the other process.
//!
//! There is no spin before the park: on a 2-vCPU VM, parking at once beat
//! a 300-round spin in 12 of 12 interleaved `grasp-benchmark` `proc-shm`
//! pairs, on both units per second (median 50.1 k against 44.6 k) and CPU
//! seconds per thousand units (0.036 against 0.042), because a spinning
//! waiter burns CPU the worker kernels need.  The spin won only the ring's
//! two-thread round-trip probe (3 µs against 14–15 µs).
//!
//! ## Death detection
//!
//! Pipes and TCP get end-of-file from the kernel for free; a shared file
//! has no such signal, so liveness is explicit, in three layers: a clean
//! close sets the side's *closed flag* and wakes the peer (the `Drop` of
//! [`ShmSink`]), which the peer reads as EOF once the ring drains; a
//! SIGKILLed peer never sets its flag, so a park that ends by its 10 ms
//! timeout checks that the peer pid still exists (`/proc/<pid>`); and the
//! master's ordinary heartbeat-timeout sweep remains the backstop for a
//! wedged-but-alive peer, exactly as on the other transports.  An EOF
//! observed mid-frame is the same typed truncation error every transport
//! reports.
//!
//! ## Unsafe code
//!
//! `grasp-core` denies unsafe code; the one exception is the private `sys`
//! module here, which declares `mmap`, `munmap` and `syscall(SYS_futex)` and
//! wraps them in a header mapping type and two futex functions.  Every
//! unsafe block in it carries a `SAFETY:` comment, enforced by clippy.
//! Targets without the futex wrappers park by sleeping 200 µs instead —
//! the same loop, reporting each sleep as a timeout.

use crate::error::GraspError;
use crate::transport::{FrameSink, FrameSource};
use crate::wire::{FrameView, MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::Arc;
use std::time::Duration;

const SHM_MAGIC: [u8; 8] = *b"GRSPSHM2";
const HEADER_LEN: u64 = 4096;

/// Default per-direction ring capacity.
pub const DEFAULT_RING_CAPACITY: u64 = 1 << 20;

/// Longest single park; one that runs out checks the peer is still alive,
/// which bounds SIGKILL detection to about this.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// The header page as both processes see it (see the module docs for the
/// offsets).  Every field is an atomic, so any bytes are a valid `Header`
/// and concurrent access from the peer process is not a data race.
#[repr(C)]
struct Header {
    /// Magic and capacity, only ever accessed through `pread`/`pwrite`.
    _prefix: [AtomicU64; 2],
    pid: [AtomicU64; 2],
    closed: [AtomicU64; 2],
    rings: [RingWords; 2],
}

const _: () = assert!(std::mem::size_of::<Header>() <= HEADER_LEN as usize);

/// Positions and futexes of one ring direction.
#[repr(C)]
struct RingWords {
    head: AtomicU64,
    tail: AtomicU64,
    /// The consumer parks here for tail advances.
    data: Parker,
    /// The producer parks here for head advances.
    space: Parker,
}

/// A futex sequence word and the flag its single waiter raises while
/// parked on it.
#[repr(C)]
struct Parker {
    seq: AtomicU32,
    parked: AtomicU32,
}

impl Parker {
    /// Wake the waiter if it is parked.  Call after publishing whatever it
    /// waits for.
    fn wake(&self) {
        if self.parked.load(SeqCst) != 0 {
            self.seq.fetch_add(1, SeqCst);
            sys::futex_wake(&self.seq);
        }
    }
}

/// The mapping, futex and sleep primitives: the crate's only unsafe code.
#[allow(unsafe_code)]
#[warn(clippy::undocumented_unsafe_blocks)]
mod sys {
    use super::{Header, HEADER_LEN};
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::unix::io::AsRawFd;
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_SHARED: c_int = 0x01;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    /// The header page of a ring file, mapped `MAP_SHARED` for the
    /// lifetime of this value.
    #[derive(Debug)]
    pub(super) struct HeaderMap {
        ptr: NonNull<Header>,
    }

    impl HeaderMap {
        /// Map the first `HEADER_LEN` bytes of `file`.  The caller has
        /// checked that the file is at least that long: a page past the end
        /// of a file faults on first touch instead of failing here.
        pub(super) fn new(file: &File) -> std::io::Result<HeaderMap> {
            // SAFETY: with a null address hint the kernel picks a fresh
            // range, so the mapping aliases no Rust object; the fd stays
            // open for the call and was opened read-write, as a shared
            // writable mapping requires; on failure nothing is mapped.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    HEADER_LEN as usize,
                    PROT_READ_WRITE,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if p == MAP_FAILED {
                return Err(std::io::Error::last_os_error());
            }
            let ptr = NonNull::new(p.cast::<Header>())
                .ok_or_else(|| std::io::Error::other("mmap returned a null mapping"))?;
            Ok(HeaderMap { ptr })
        }

        pub(super) fn header(&self) -> &Header {
            // SAFETY: `ptr` is a page-aligned mapping of HEADER_LEN bytes,
            // at least `size_of::<Header>()` (asserted at compile time),
            // that stays mapped until `self` drops, which the borrow cannot
            // outlive.  Every field of `Header` is an atomic integer, so any
            // bytes the file holds are a valid value and the peer process
            // writing them concurrently is not a data race.
            unsafe { self.ptr.as_ref() }
        }
    }

    impl Drop for HeaderMap {
        fn drop(&mut self) {
            // SAFETY: `ptr` came from a successful `mmap` of HEADER_LEN
            // bytes and is unmapped exactly once, here; no `&Header` can
            // outlive `self`.
            unsafe { munmap(self.ptr.as_ptr().cast(), HEADER_LEN as usize) };
        }
    }

    // SAFETY: the mapping is process-wide memory, not tied to the thread
    // that created it, and `munmap` may run on any thread.
    unsafe impl Send for HeaderMap {}
    // SAFETY: shared access only hands out `&Header`, whose fields are all
    // atomics.
    unsafe impl Sync for HeaderMap {}

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod park {
        use std::ffi::{c_int, c_long};
        use std::sync::atomic::AtomicU32;
        use std::time::Duration;

        extern "C" {
            fn syscall(num: c_long, ...) -> c_long;
        }

        #[cfg(target_arch = "x86_64")]
        const SYS_FUTEX: c_long = 202;
        #[cfg(target_arch = "aarch64")]
        const SYS_FUTEX: c_long = 98;
        const FUTEX_WAIT: c_int = 0;
        const FUTEX_WAKE: c_int = 1;
        const ETIMEDOUT: i32 = 110;

        /// `struct timespec` on 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }

        /// Sleep while `*word == expected`, at most `timeout` (spurious
        /// returns are possible); `true` when the timeout ran out.
        pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) -> bool {
            let ts = Timespec {
                tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
                tv_nsec: i64::from(timeout.subsec_nanos()),
            };
            // SAFETY: FUTEX_WAIT reads the aligned u32 behind `word`, which
            // is live for the call, and the timespec `ts`, which outlives
            // it; it writes no memory of this process.  The shared (not
            // `FUTEX_PRIVATE_FLAG`) form keys the wait by the mapped file
            // page, which is what lets the peer process wake it.
            let rc = unsafe {
                syscall(
                    SYS_FUTEX,
                    word.as_ptr(),
                    FUTEX_WAIT,
                    expected,
                    &ts as *const Timespec,
                    std::ptr::null::<u32>(),
                    0u32,
                )
            };
            rc == -1 && std::io::Error::last_os_error().raw_os_error() == Some(ETIMEDOUT)
        }

        /// Wake every thread, of any process, waiting on `word`.
        pub(crate) fn futex_wake(word: &AtomicU32) {
            // SAFETY: FUTEX_WAKE uses the address of `word`, live for the
            // call, only as a key; it reads and writes no memory.
            unsafe {
                syscall(
                    SYS_FUTEX,
                    word.as_ptr(),
                    FUTEX_WAKE,
                    c_int::MAX,
                    std::ptr::null::<Timespec>(),
                    std::ptr::null::<u32>(),
                    0u32,
                )
            };
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    mod park {
        use std::sync::atomic::AtomicU32;
        use std::time::Duration;

        /// How long a park sleeps where there is no futex to wait on.
        const POLL_SLEEP: Duration = Duration::from_micros(200);

        pub(crate) fn futex_wait(_word: &AtomicU32, _expected: u32, _timeout: Duration) -> bool {
            std::thread::sleep(POLL_SLEEP);
            true
        }

        pub(crate) fn futex_wake(_word: &AtomicU32) {}
    }

    pub(super) use park::{futex_wait, futex_wake};
}

/// Which end of the ring pair this process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Master,
    Worker,
}

impl Side {
    fn index(self) -> usize {
        match self {
            Side::Master => 0,
            Side::Worker => 1,
        }
    }

    fn peer(self) -> Side {
        match self {
            Side::Master => Side::Worker,
            Side::Worker => Side::Master,
        }
    }

    /// Ring index this side produces into (master produces M→W).
    fn out_ring(self) -> usize {
        self.index()
    }

    /// Ring index this side consumes from.
    fn in_ring(self) -> usize {
        self.peer().index()
    }
}

fn shm_err(detail: impl Into<String>) -> GraspError {
    GraspError::WireProtocol {
        detail: detail.into(),
    }
}

fn io_err(what: &str, e: std::io::Error) -> GraspError {
    shm_err(format!("shm ring {what} failed: {e}"))
}

/// Parks taken and parks that ran out their timeout, for the wake-protocol
/// tests.
#[cfg(test)]
#[derive(Debug, Default)]
struct ParkStats {
    parks: AtomicU64,
    timeouts: AtomicU64,
}

/// Shared state of one attached ring file: the open file, its mapped header
/// and this side's identity.  Sink and source halves of one side share it.
#[derive(Debug)]
struct ShmShared {
    file: File,
    map: sys::HeaderMap,
    side: Side,
    capacity: u64,
    #[cfg(test)]
    stats: ParkStats,
}

impl ShmShared {
    /// Map the header of a validated ring file and register this process
    /// as `side`.
    fn open(file: File, side: Side, capacity: u64) -> Result<Arc<ShmShared>, GraspError> {
        let map = sys::HeaderMap::new(&file).map_err(|e| io_err("header map", e))?;
        let shared = ShmShared {
            file,
            map,
            side,
            capacity,
            #[cfg(test)]
            stats: ParkStats::default(),
        };
        shared.header().pid[side.index()].store(u64::from(std::process::id()), SeqCst);
        Ok(Arc::new(shared))
    }

    fn header(&self) -> &Header {
        self.map.header()
    }

    fn ring(&self, ring: usize) -> &RingWords {
        &self.header().rings[ring]
    }

    fn data_base(&self, ring: usize) -> u64 {
        HEADER_LEN + ring as u64 * self.capacity
    }

    fn peer_closed(&self) -> bool {
        self.header().closed[self.side.peer().index()].load(SeqCst) != 0
    }

    /// `true` while the peer can still make progress: its closed flag is
    /// unset and (once it has registered a pid) its process still exists.
    fn peer_alive(&self, peer_pid_hint: u64) -> bool {
        if self.peer_closed() {
            return false;
        }
        let pid = match self.header().pid[self.side.peer().index()].load(SeqCst) {
            0 => peer_pid_hint, // peer not yet attached; fall back to spawn-time knowledge
            p => p,
        };
        if pid == 0 {
            return true; // nothing to check against yet
        }
        if Path::new("/proc").exists() {
            PathBuf::from(format!("/proc/{pid}")).exists()
        } else {
            true // no procfs: rely on closed flags + heartbeat sweep
        }
    }

    /// Block until `poll` yields a value, parking on `parker` while it has
    /// none.  Returns `None` once the peer is gone and a final `poll` —
    /// after everything the peer will ever publish is visible — still has
    /// nothing.
    fn block_on<T>(
        &self,
        parker: &Parker,
        peer_pid_hint: u64,
        mut poll: impl FnMut() -> Result<Option<T>, GraspError>,
    ) -> Result<Option<T>, GraspError> {
        if let Some(v) = poll()? {
            return Ok(Some(v));
        }
        loop {
            let seq = parker.seq.load(SeqCst);
            parker.parked.store(1, SeqCst);
            // Re-check with the flag raised: a publish that missed the flag
            // is visible here, and one that saw it bumps `seq`, which fails
            // the futex compare or wakes the wait.
            let idle = matches!(poll(), Ok(None)) && !self.peer_closed();
            let timed_out = idle && sys::futex_wait(&parker.seq, seq, PARK_TIMEOUT);
            parker.parked.store(0, SeqCst);
            #[cfg(test)]
            if idle {
                self.stats.parks.fetch_add(1, Relaxed);
                self.stats.timeouts.fetch_add(u64::from(timed_out), Relaxed);
            }
            if let Some(v) = poll()? {
                return Ok(Some(v));
            }
            // The peer closes after its last publish, so a poll that
            // follows the closed flag (or its death) is the final word.
            if self.peer_closed() || (timed_out && !self.peer_alive(peer_pid_hint)) {
                return poll();
            }
        }
    }
}

/// One side's handle on a ring file, from which the framed halves are
/// taken.  Create the file with [`ShmRing::create`] (master, before
/// spawning the worker), attach with [`ShmRing::attach`] (worker).
#[derive(Debug)]
pub struct ShmRing {
    shared: Arc<ShmShared>,
}

impl ShmRing {
    /// Create and initialise a ring file at `path` with the given
    /// per-direction capacity, registering the calling process as the
    /// master side.  The file must not already exist as a valid ring (it is
    /// truncated).
    pub fn create(path: impl Into<PathBuf>, capacity: u64) -> Result<ShmRing, GraspError> {
        let path = path.into();
        let capacity = capacity.max(4096);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", e))?;
        file.set_len(HEADER_LEN + 2 * capacity)
            .map_err(|e| io_err("size", e))?;
        let mut prefix = [0u8; 16];
        prefix[..8].copy_from_slice(&SHM_MAGIC);
        prefix[8..].copy_from_slice(&capacity.to_le_bytes());
        file.write_all_at(&prefix, 0)
            .map_err(|e| io_err("init", e))?;
        Ok(ShmRing {
            shared: ShmShared::open(file, Side::Master, capacity)?,
        })
    }

    /// Attach to an existing ring file as the worker side, registering this
    /// process id so the master can watch for its death.  A file with the
    /// wrong magic or shorter than its header promises is a typed error.
    pub fn attach(path: impl Into<PathBuf>) -> Result<ShmRing, GraspError> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let mut prefix = [0u8; 16];
        file.read_exact_at(&mut prefix, 0)
            .map_err(|e| io_err("header read", e))?;
        if prefix[..8] != SHM_MAGIC {
            return Err(shm_err(format!("bad shm ring magic {:02x?}", &prefix[..8])));
        }
        let capacity = u64::from_le_bytes(prefix[8..].try_into().expect("an 8-byte slice"));
        if capacity == 0 || capacity > (1 << 32) {
            return Err(shm_err(format!("implausible shm ring capacity {capacity}")));
        }
        let len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        let want = HEADER_LEN + 2 * capacity;
        if len < want {
            return Err(shm_err(format!(
                "shm ring file holds {len} bytes, short of the {want} its header promises"
            )));
        }
        Ok(ShmRing {
            shared: ShmShared::open(file, Side::Worker, capacity)?,
        })
    }

    /// Split into the framed halves.  `peer_pid_hint` is the peer process
    /// id if the caller already knows it (the master knows the child pid at
    /// spawn time — before the worker attaches and registers itself);
    /// pass 0 otherwise.
    pub fn into_halves(self, peer_pid_hint: u64) -> (ShmSink, ShmSource) {
        let sink = ShmSink {
            shared: Arc::clone(&self.shared),
            tail: 0,
            frame: Vec::new(),
            peer_pid_hint,
        };
        let source = ShmSource {
            shared: self.shared,
            head: 0,
            frame: Vec::new(),
            bytes: None,
            peer_pid_hint,
        };
        (sink, source)
    }

    /// Remove a ring file, ignoring errors (open handles keep working; this
    /// just unlinks the name so tmpfs space is reclaimed when both sides
    /// exit).
    pub fn cleanup(path: impl AsRef<Path>) {
        let _ = std::fs::remove_file(path);
    }
}

/// The sending half of a shared-memory ring.  Dropping it sets this side's
/// closed flag — the peer reads EOF once the ring drains, exactly like a
/// dropped pipe or socket write half.
#[derive(Debug)]
pub struct ShmSink {
    shared: Arc<ShmShared>,
    /// Cached free-running producer position (only this side writes it).
    tail: u64,
    frame: Vec<u8>,
    peer_pid_hint: u64,
}

impl FrameSink for ShmSink {
    fn send(&mut self, msg: &crate::wire::WireMsg) -> Result<usize, GraspError> {
        let mut frame = std::mem::take(&mut self.frame);
        msg.encode_into(&mut frame);
        let sent = self.send_frame(&frame);
        self.frame = frame;
        sent
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<usize, GraspError> {
        let shared = &*self.shared;
        let cap = shared.capacity;
        let n = frame.len() as u64;
        if n > cap {
            return Err(shm_err(format!(
                "frame of {n} bytes exceeds the ring capacity of {cap}"
            )));
        }
        let out = shared.side.out_ring();
        let ring = shared.ring(out);
        let tail = self.tail;
        let room = shared.block_on(&ring.space, self.peer_pid_hint, || {
            let used = tail.wrapping_sub(ring.head.load(SeqCst));
            if used > cap {
                return Err(shm_err("corrupt shm ring: consumer ahead of producer"));
            }
            Ok((cap - used >= n).then_some(()))
        })?;
        if room.is_none() {
            return Err(shm_err("shm ring peer gone with the ring full"));
        }
        let base = shared.data_base(out);
        let at = tail % cap;
        let first = ((cap - at) as usize).min(frame.len());
        shared
            .file
            .write_all_at(&frame[..first], base + at)
            .map_err(|e| io_err("data write", e))?;
        if first < frame.len() {
            shared
                .file
                .write_all_at(&frame[first..], base)
                .map_err(|e| io_err("data write", e))?;
        }
        self.tail += n;
        ring.tail.store(self.tail, SeqCst);
        ring.data.wake();
        Ok(frame.len())
    }
}

impl Drop for ShmSink {
    fn drop(&mut self) {
        // A clean close: the peer sees EOF once it drains the ring.  Wake
        // whichever of its halves may be parked waiting on this side.
        let shared = &*self.shared;
        shared.header().closed[shared.side.index()].store(1, SeqCst);
        shared.ring(shared.side.out_ring()).data.wake();
        shared.ring(shared.side.in_ring()).space.wake();
    }
}

/// The receiving half of a shared-memory ring.  One frame buffer is reused
/// across receives.
#[derive(Debug)]
pub struct ShmSource {
    shared: Arc<ShmShared>,
    /// Cached free-running consumer position (only this side writes it).
    head: u64,
    frame: Vec<u8>,
    bytes: Option<Arc<AtomicU64>>,
    peer_pid_hint: u64,
}

impl ShmSource {
    /// Copy exactly `out.len()` bytes from the ring, blocking until they
    /// arrive.  Returns `Ok(false)` — without consuming anything — when the
    /// peer is gone and the ring holds fewer than `out.len()` bytes while
    /// `at_boundary` is set and nothing of the current frame has been read
    /// yet; the same condition mid-frame is a typed truncation error.
    fn read_exact_ring(&mut self, out: &mut [u8], at_boundary: bool) -> Result<bool, GraspError> {
        let shared = &*self.shared;
        let cap = shared.capacity;
        let input = shared.side.in_ring();
        let ring = shared.ring(input);
        let base = shared.data_base(input);
        let mut filled = 0usize;
        while filled < out.len() {
            let head = self.head;
            let readable = shared.block_on(&ring.data, self.peer_pid_hint, || {
                let avail = ring.tail.load(SeqCst).wrapping_sub(head);
                if avail > cap {
                    return Err(shm_err("corrupt shm ring: producer overran the consumer"));
                }
                Ok((avail > 0).then_some(avail))
            })?;
            let Some(avail) = readable else {
                // Nothing buffered and the peer is gone for good.
                if at_boundary && filled == 0 {
                    return Ok(false);
                }
                return Err(shm_err("truncated frame: peer closed mid-message"));
            };
            let take = (avail as usize).min(out.len() - filled);
            let at = head % cap;
            let first = ((cap - at) as usize).min(take);
            shared
                .file
                .read_exact_at(&mut out[filled..filled + first], base + at)
                .map_err(|e| io_err("data read", e))?;
            if first < take {
                shared
                    .file
                    .read_exact_at(&mut out[filled + first..filled + take], base)
                    .map_err(|e| io_err("data read", e))?;
            }
            filled += take;
            self.head += take as u64;
            ring.head.store(self.head, SeqCst);
            ring.space.wake();
            if let Some(b) = &self.bytes {
                b.fetch_add(take as u64, Relaxed);
            }
        }
        Ok(true)
    }
}

impl FrameSource for ShmSource {
    fn recv_view(&mut self) -> Result<Option<FrameView<'_>>, GraspError> {
        let mut header = [0u8; 10];
        if !self.read_exact_ring(&mut header, true)? {
            return Ok(None); // clean EOF between frames
        }
        if header[..4] != WIRE_MAGIC {
            return Err(shm_err(format!("bad frame magic {:02x?}", &header[..4])));
        }
        if header[4] != WIRE_VERSION {
            return Err(shm_err(format!(
                "wire version mismatch: got {}, speak {WIRE_VERSION}",
                header[4]
            )));
        }
        let len = u32::from_le_bytes(header[6..10].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(shm_err(format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} cap"
            )));
        }
        let total = 10 + len + 4;
        self.frame.clear();
        self.frame.resize(total, 0);
        self.frame[..10].copy_from_slice(&header);
        let mut rest = std::mem::take(&mut self.frame);
        let read = self.read_exact_ring(&mut rest[10..], false);
        self.frame = rest;
        read?;
        Ok(Some(FrameView::decode_slice(&self.frame[..total])?.0))
    }

    fn set_byte_counter(&mut self, counter: Arc<AtomicU64>) {
        self.bytes = Some(counter);
    }
}

/// Pick a ring-file path on tmpfs: `/dev/shm` when present (Linux),
/// otherwise the system temp directory.  `tag` keeps concurrent masters
/// and workers apart; the master pid makes leaked files attributable.
pub fn ring_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = if Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let seq = SEQ.fetch_add(1, Relaxed);
    dir.join(format!("grasp-ring-{}-{tag}-{seq}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMsg;

    fn pair(capacity: u64) -> ((ShmSink, ShmSource), (ShmSink, ShmSource), PathBuf) {
        let path = ring_path("test");
        let master = ShmRing::create(&path, capacity).unwrap();
        let worker = ShmRing::attach(&path).unwrap();
        let me = std::process::id() as u64;
        (master.into_halves(me), worker.into_halves(me), path)
    }

    /// `(parks, timeouts)` taken so far by one side's halves.
    fn park_stats(shared: &ShmShared) -> (u64, u64) {
        let s = &shared.stats;
        (s.parks.load(Relaxed), s.timeouts.load(Relaxed))
    }

    /// Spin until `parker`'s waiter has raised its parked flag.
    fn until_parked(parker: &Parker) {
        while parker.parked.load(SeqCst) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn frames_cross_the_ring_in_both_directions() {
        let ((mut m_sink, mut m_src), (mut w_sink, mut w_src), path) = pair(1 << 16);
        let task = WireMsg::Task {
            unit_id: 5,
            work: 2.0,
            kind: 1,
            payload: vec![3; 300],
        };
        m_sink.send(&task).unwrap();
        assert_eq!(w_src.recv().unwrap(), Some(task));
        let done = WireMsg::Done {
            unit_id: 5,
            elapsed_s: 0.25,
            digest: 42,
        };
        w_sink.send(&done).unwrap();
        assert_eq!(m_src.recv().unwrap(), Some(done));
        ShmRing::cleanup(path);
    }

    #[test]
    fn many_frames_wrap_a_small_ring_without_corruption() {
        // Capacity clamps at 4096; frames of ~330 bytes force many wraps.
        let ((m_sink, _m_src), (_w_sink, mut w_src), path) = pair(0);
        let msgs: Vec<WireMsg> = (0..200)
            .map(|i| WireMsg::Task {
                unit_id: i,
                work: i as f64,
                kind: 2,
                payload: vec![i as u8; 300],
            })
            .collect();
        let expected = msgs.clone();
        let producer = std::thread::spawn(move || {
            let mut sink = m_sink;
            for m in &msgs {
                sink.send(m).unwrap();
            }
        });
        for want in &expected {
            assert_eq!(w_src.recv().unwrap().as_ref(), Some(want));
        }
        producer.join().unwrap();
        ShmRing::cleanup(path);
    }

    #[test]
    fn dropping_the_sink_reads_as_clean_eof_after_the_ring_drains() {
        let ((mut m_sink, _m_src), (_w_sink, mut w_src), path) = pair(1 << 16);
        m_sink.send(&WireMsg::Heartbeat).unwrap();
        drop(m_sink);
        assert_eq!(w_src.recv().unwrap(), Some(WireMsg::Heartbeat));
        assert_eq!(w_src.recv().unwrap(), None, "closed flag is a clean EOF");
        ShmRing::cleanup(path);
    }

    #[test]
    fn a_torn_frame_is_a_typed_truncation_error() {
        let ((mut m_sink, _m_src), (_w_sink, mut w_src), path) = pair(1 << 16);
        let frame = WireMsg::Done {
            unit_id: 1,
            elapsed_s: 1.0,
            digest: 7,
        }
        .encode();
        // Write only part of the frame, then close.
        m_sink.send_frame(&frame[..frame.len() - 3]).unwrap();
        drop(m_sink);
        let err = w_src.recv().expect_err("mid-frame close must be typed");
        assert!(err.to_string().contains("wire protocol"), "{err}");
        ShmRing::cleanup(path);
    }

    #[test]
    fn oversized_frames_are_rejected_against_the_capacity() {
        let ((mut m_sink, _m_src), _worker, path) = pair(0);
        let big = vec![0u8; 5000];
        let err = m_sink.send_frame(&big).unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
        ShmRing::cleanup(path);
    }

    #[test]
    fn a_file_shorter_than_its_header_promises_is_a_typed_error() {
        // A valid magic and capacity in a file cut short: mapping and
        // touching it would fault, so attach must refuse it up front.
        let path = ring_path("short");
        let ring = ShmRing::create(&path, 1 << 16).unwrap();
        for len in [HEADER_LEN + (1 << 16), 16] {
            ring.shared.file.set_len(len).unwrap();
            let err = ShmRing::attach(&path).expect_err("a short ring file must not attach");
            assert!(matches!(err, GraspError::WireProtocol { .. }), "{err}");
            assert!(err.to_string().contains("short"), "{err}");
        }
        ShmRing::cleanup(path);
    }

    #[test]
    fn a_ring_file_of_the_previous_layout_is_a_typed_error() {
        let path = ring_path("v1");
        let mut old = vec![0u8; (HEADER_LEN + 2 * 4096) as usize];
        old[..8].copy_from_slice(b"GRSPSHM1");
        old[8..16].copy_from_slice(&4096u64.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let err = ShmRing::attach(&path).expect_err("a version-1 ring must not attach");
        assert!(matches!(err, GraspError::WireProtocol { .. }), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
        ShmRing::cleanup(path);
    }

    #[test]
    fn ping_pong_parks_are_woken_not_timed_out() {
        // A lost wake-up turns every round trip that parks into a 10 ms
        // timeout.  The echo side naps now and then so the pinging side
        // is sure to park.
        const FRAMES: u64 = 20_000;
        let ((mut m_sink, mut m_src), (mut w_sink, mut w_src), path) = pair(1 << 16);
        let master = Arc::clone(&m_sink.shared);
        let worker = Arc::clone(&w_sink.shared);
        let echo = std::thread::spawn(move || {
            let mut seen = 0u64;
            while let Some(msg) = w_src.recv().unwrap() {
                if seen % 25 == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                w_sink.send(&msg).unwrap();
                seen += 1;
            }
            seen
        });
        for unit_id in 0..FRAMES {
            let ping = WireMsg::Task {
                unit_id,
                work: 1.0,
                kind: 1,
                payload: vec![7; 64],
            };
            m_sink.send(&ping).unwrap();
            assert_eq!(m_src.recv().unwrap(), Some(ping));
        }
        drop(m_sink);
        assert_eq!(echo.join().unwrap(), FRAMES);
        let (m_parks, m_timeouts) = park_stats(&master);
        let (w_parks, w_timeouts) = park_stats(&worker);
        let (parks, timeouts) = (m_parks + w_parks, m_timeouts + w_timeouts);
        assert!(m_parks > 0, "the pinging side never parked");
        assert!(
            timeouts * 100 < FRAMES,
            "{timeouts} of {parks} parks timed out over {FRAMES} round trips"
        );
        ShmRing::cleanup(path);
    }

    #[test]
    fn a_producer_parked_on_a_full_ring_is_woken_by_the_head_advance() {
        // 4 KiB ring, ~330-byte frames: the producer fills it and parks.
        // Each frame the consumer takes (only once the producer is parked)
        // advances the head, which must wake it rather than leave it to
        // its timeout.
        const FRAMES: u64 = 100;
        let ((mut m_sink, _m_src), (_w_sink, mut w_src), path) = pair(0);
        let master = Arc::clone(&m_sink.shared);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = std::thread::spawn({
            let done = Arc::clone(&done);
            move || {
                for unit_id in 0..FRAMES {
                    let task = WireMsg::Task {
                        unit_id,
                        work: 1.0,
                        kind: 2,
                        payload: vec![1; 300],
                    };
                    m_sink.send(&task).unwrap();
                }
                done.store(true, SeqCst);
            }
        });
        let space = &master.ring(Side::Master.out_ring()).space;
        for unit_id in 0..FRAMES {
            while !done.load(SeqCst) && space.parked.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            match w_src.recv().unwrap() {
                Some(WireMsg::Task { unit_id: got, .. }) => assert_eq!(got, unit_id),
                other => panic!("expected task {unit_id}, got {other:?}"),
            }
        }
        producer.join().unwrap();
        let (parks, timeouts) = park_stats(&master);
        assert!(parks > 0, "the producer never parked on the full ring");
        assert!(
            timeouts * 2 < parks,
            "{timeouts} of {parks} producer parks ran out their timeout"
        );
        ShmRing::cleanup(path);
    }

    #[test]
    fn dropping_the_sink_wakes_a_parked_reader() {
        // A lost close wake-up leaves the reader to find the flag at its
        // next timeout: exactly one timed-out park after each drop.  Five
        // rounds keep a timer that merely races the wake from failing it.
        const ROUNDS: u64 = 5;
        let mut late = 0;
        for _ in 0..ROUNDS {
            let ((m_sink, _m_src), (w_sink, mut w_src), path) = pair(1 << 16);
            let reader = std::thread::spawn(move || w_src.recv());
            until_parked(&w_sink.shared.ring(Side::Worker.in_ring()).data);
            let (_, before) = park_stats(&w_sink.shared);
            drop(m_sink);
            assert_eq!(reader.join().unwrap().unwrap(), None, "close reads as EOF");
            late += park_stats(&w_sink.shared).1 - before;
            ShmRing::cleanup(path);
        }
        assert!(late < ROUNDS, "every drop left the reader to its timeout");
    }
}
