//! Steady-state allocation check for the zero-copy data plane.
//!
//! The borrowed decode path exists so that the per-frame cost on a hot
//! receive loop is bounded by the bytes moved, not by allocator traffic.
//! This test pins that property in CI: after a short warmup (which grows
//! the reusable read buffer to its steady-state capacity), receiving and
//! decoding a frame over the loopback transport or the shared-memory ring
//! performs **zero** heap allocations on the receiving side.  The same pin
//! holds the frame master's receive path (a poll wait, a non-blocking read
//! into a link's frame buffer, and the decode of its `Done` frames), a
//! work-stealing drain and a warm forecaster's observe + predict.
//! The counting global allocator comes from the offline
//! `allocation-counter` shim (see `shims/README.md`), so the check needs no
//! crates.io dependency and runs in every `cargo test`.

use allocation_counter::measure;
use grasp_repro::grasp_core::shm::{self, ShmRing};
use grasp_repro::grasp_core::transport::{Acceptor, FdLink, FrameSink, FrameSource, PollSet};
use grasp_repro::grasp_core::wire::{FrameView, WireMsg, PAYLOAD_SPIN};
use grasp_repro::grasp_core::SchedulePolicy;
use grasp_repro::grasp_exec::StealDeque;
use grasp_repro::grasp_net::LoopbackNet;
use grasp_repro::gridmon::{AdaptiveForecaster, Forecaster};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[test]
fn steady_state_frame_receive_and_decode_allocates_nothing() {
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 64;
    const PAYLOAD_LEN: usize = 4096;

    let (net, mut acceptor) = LoopbackNet::new();
    let worker = net.connect().expect("loopback connect");
    let master = acceptor
        .poll_accept()
        .expect("poll_accept")
        .expect("the connection must be queued");
    let (mut to_worker, _from_worker) = master.split();
    let (_to_master, mut from_master) = worker.split();

    // Pre-send every frame: the sending side allocates by design (the
    // loopback channel hands each frame over as an owned chunk, which is
    // exactly what its copy counter measures).  The property under test is
    // about the receive/decode side only.
    let payload = vec![7u8; PAYLOAD_LEN];
    for unit_id in 0..WARMUP + MEASURED {
        to_worker
            .send(&WireMsg::Task {
                unit_id,
                work: 1.0,
                kind: PAYLOAD_SPIN,
                payload: payload.clone(),
            })
            .expect("send task frame");
    }

    // Warmup: the reusable read buffer grows to frame size and stays there.
    for expected in 0..WARMUP {
        match from_master.recv_view().expect("warmup recv") {
            Some(FrameView::Task { unit_id, .. }) => assert_eq!(unit_id, expected),
            other => panic!("warmup expected a task frame, got {other:?}"),
        }
    }

    // Steady state: every borrowed receive+decode must be allocation-free.
    let mut decoded = 0u64;
    let mut payload_bytes = 0usize;
    let info = measure(|| {
        for _ in 0..MEASURED {
            match from_master.recv_view() {
                Ok(Some(FrameView::Task { payload, .. })) => {
                    decoded += 1;
                    payload_bytes += payload.len();
                }
                other => panic!("steady state expected a task frame, got {other:?}"),
            }
        }
    });
    assert_eq!(decoded, MEASURED);
    assert_eq!(payload_bytes, MEASURED as usize * PAYLOAD_LEN);
    assert_eq!(
        info.count_total, 0,
        "steady-state recv_view must not touch the heap, but allocated \
         {} times ({} bytes) over {MEASURED} frames: {info:?}",
        info.count_total, info.bytes_total
    );
}

#[test]
fn steady_state_master_receive_from_a_descriptor_allocates_nothing() {
    // The frame master's receive path: wait in poll(2) for the member's
    // socket, read what it holds into the link's reused frame buffer, and
    // decode each Done to the owned message the master core is fed (a
    // Done carries nothing on the heap).  The worker side writes one frame
    // per round, so every measured round takes the whole path.
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 256;

    let (master_end, mut worker_end) = UnixStream::pair().expect("socketpair");
    let mut link = FdLink::socket(master_end).expect("non-blocking link");
    let frames: Vec<Vec<u8>> = (0..WARMUP + MEASURED)
        .map(|unit_id| {
            WireMsg::Done {
                unit_id,
                elapsed_s: 1e-3,
                digest: unit_id,
            }
            .encode()
        })
        .collect();
    let mut polls = PollSet::new();
    let mut receive = |frame: &[u8]| -> Option<WireMsg> {
        worker_end.write_all(frame).expect("worker write");
        loop {
            if let Some(view) = link.next_frame().expect("a valid frame") {
                return Some(view.to_owned());
            }
            polls.clear();
            let slot = polls.watch(link.read_fd()?, true, false);
            if polls.wait(Duration::from_secs(5)).expect("poll") == 1 && polls.readable(slot) {
                link.fill().expect("non-blocking read");
            }
        }
    };

    for (unit_id, frame) in frames[..WARMUP as usize].iter().enumerate() {
        match receive(frame) {
            Some(WireMsg::Done { unit_id: got, .. }) => assert_eq!(got, unit_id as u64),
            other => panic!("warmup expected a Done frame, got {other:?}"),
        }
    }

    let mut digests = 0u64;
    let info = measure(|| {
        for frame in &frames[WARMUP as usize..] {
            match receive(frame) {
                Some(WireMsg::Done { digest, .. }) => digests += digest,
                other => panic!("steady state expected a Done frame, got {other:?}"),
            }
        }
    });
    assert_eq!(digests, (WARMUP..WARMUP + MEASURED).sum::<u64>());
    assert_eq!(
        info.count_total, 0,
        "the master's steady-state receive path must not touch the heap, but \
         allocated {} times ({} bytes) over {MEASURED} frames: {info:?}",
        info.count_total, info.bytes_total
    );
}

#[test]
fn steady_state_shm_ring_receive_and_decode_allocates_nothing() {
    // The same pin over the shared-memory ring: positioned reads into the
    // source's reused buffer, atomics on the mapped header and the futex
    // wake path must all stay off the heap once the buffer has grown.
    const WARMUP: u64 = 32;
    const MEASURED: u64 = 64;
    const PAYLOAD_LEN: usize = 4096;

    let path = shm::ring_path("zero-alloc");
    let master = ShmRing::create(&path, shm::DEFAULT_RING_CAPACITY).expect("create ring");
    let worker = ShmRing::attach(&path).expect("attach ring");
    let me = u64::from(std::process::id());
    let (mut to_worker, _from_worker) = master.into_halves(me);
    let (_to_master, mut from_master) = worker.into_halves(me);

    // Pre-send every frame (≈ 400 KiB, well inside the 1 MiB ring), so no
    // receive below has to wait for its producer.
    let payload = vec![7u8; PAYLOAD_LEN];
    for unit_id in 0..WARMUP + MEASURED {
        to_worker
            .send(&WireMsg::Task {
                unit_id,
                work: 1.0,
                kind: PAYLOAD_SPIN,
                payload: payload.clone(),
            })
            .expect("send task frame");
    }

    for expected in 0..WARMUP {
        match from_master.recv_view().expect("warmup recv") {
            Some(FrameView::Task { unit_id, .. }) => assert_eq!(unit_id, expected),
            other => panic!("warmup expected a task frame, got {other:?}"),
        }
    }

    let mut decoded = 0u64;
    let mut payload_bytes = 0usize;
    let info = measure(|| {
        for _ in 0..MEASURED {
            match from_master.recv_view() {
                Ok(Some(FrameView::Task { payload, .. })) => {
                    decoded += 1;
                    payload_bytes += payload.len();
                }
                other => panic!("steady state expected a task frame, got {other:?}"),
            }
        }
    });
    ShmRing::cleanup(&path);
    assert_eq!(decoded, MEASURED);
    assert_eq!(payload_bytes, MEASURED as usize * PAYLOAD_LEN);
    assert_eq!(
        info.count_total, 0,
        "steady-state shm recv_view must not touch the heap, but allocated \
         {} times ({} bytes) over {MEASURED} frames: {info:?}",
        info.count_total, info.bytes_total
    );
}

#[test]
fn steady_state_work_stealing_dispatch_allocates_nothing() {
    // The work-stealing scheduler exists to cut dispatch overhead on hot
    // farms, so its steady-state owner path must stay off the heap: sizing
    // a chunk (`owner_chunk`), claiming it (`take_bottom`), and a thief's
    // `steal_top_half` are each one CAS on a packed word.  The whole drain
    // loop below — owner bites interleaved with steals until four deques
    // are empty — must therefore perform **zero** allocations.
    const WORKERS: usize = 4;
    const RANGE: usize = 4_096;
    let policy = SchedulePolicy::WorkStealing { min_chunk: 1 };

    let drain = |deques: &[StealDeque]| -> usize {
        let mut claimed = 0;
        loop {
            let mut progress = false;
            for w in 0..deques.len() {
                let len = deques[w].len();
                if len > 0 {
                    // Owner bite, sized by the calibration-weighted formula
                    // (weight 1.0 = an unranked, healthy worker).
                    let want = policy.owner_chunk(len, WORKERS, 1.0);
                    if let Some((_, count)) = deques[w].take_bottom(want) {
                        claimed += count;
                        progress = true;
                    }
                }
                // An idle peer steals the top half of the longest deque.
                let victim = (w + 1) % deques.len();
                if let Some((_, count)) = deques[victim].steal_top_half() {
                    claimed += count;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        claimed
    };

    let seed = || -> Vec<StealDeque> {
        (0..WORKERS)
            .map(|w| StealDeque::new(w * RANGE / WORKERS, (w + 1) * RANGE / WORKERS))
            .collect()
    };

    // Warmup pass: one full drain outside the measurement window.
    assert_eq!(drain(&seed()), RANGE);

    // Steady state: the deques are seeded ahead of the window (seeding
    // allocates the Vec of deques, dispatch must not allocate anything).
    let deques = seed();
    let mut claimed = 0;
    let info = measure(|| {
        claimed = drain(&deques);
    });
    assert_eq!(claimed, RANGE, "the drain loop must claim every index");
    assert_eq!(
        info.count_total, 0,
        "steady-state owner/thief dispatch must not touch the heap, but \
         allocated {} times ({} bytes) over {RANGE} tasks: {info:?}",
        info.count_total, info.bytes_total
    );
}

#[test]
fn steady_state_adaptive_forecast_allocates_nothing() {
    // The forecasters compute each prediction inside `observe`, into buffers
    // they own: once the sliding windows and the AR(1) history are full, a
    // feed plus a prediction must stay off the heap.  The series mixes a
    // sawtooth, a periodic spike and NaN gaps so every candidate keeps
    // re-sorting, re-fitting and re-ranking.
    const WARMUP: usize = 64;
    const MEASURED: usize = 256;
    let value = |i: usize| match i % 31 {
        0 => f64::NAN,
        13 => 0.95,
        _ => 0.3 + 0.1 * ((i % 17) as f64 / 17.0),
    };
    let mut forecaster = AdaptiveForecaster::standard();
    for i in 0..WARMUP {
        forecaster.observe(value(i));
    }

    let mut predicted = 0.0;
    let info = measure(|| {
        for i in WARMUP..WARMUP + MEASURED {
            forecaster.observe(value(i));
            predicted += forecaster.predict().expect("a warm forecaster predicts");
        }
    });
    assert!(predicted.is_finite());
    assert_eq!(
        info.count_total, 0,
        "steady-state observe + predict must not touch the heap, but \
         allocated {} times ({} bytes) over {MEASURED} observations: {info:?}",
        info.count_total, info.bytes_total
    );
}
