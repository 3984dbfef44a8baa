//! A lock-free steal deque over a contiguous index range.
//!
//! The farm's work-stealing mode gives every worker a local deque seeded
//! from a one-shot partition of the task range.  Because tasks are plain
//! indices, a worker's whole deque is just the not-yet-claimed sub-range
//! `[bottom, top)` — which fits in a single `AtomicU64` (`bottom` in the low
//! 32 bits, `top` in the high 32).  Both the owner's pop-from-the-bottom and
//! a thief's steal-from-the-top are one CAS on that word, so the structure
//! is linearizable, allocation-free, safe code, and lock-free: a failed CAS
//! means somebody else made progress.
//!
//! This is the THE-protocol idea (Arora–Blumofe–Plaxton and its successors)
//! specialised to range tasks: instead of a fence-synchronised owner fast
//! path over an array, the packed word makes owner/thief overlap impossible
//! by construction — a CAS that would hand the same index to both sides
//! cannot succeed twice.  Thieves take the top *half* of the remaining
//! range and never touch a deque shorter than two, so the lone last task
//! always stays with its owner.

use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum index (exclusive) a [`StealDeque`] can hold.
///
/// Ranges are packed as two 32-bit halves of one atomic word; the E15 scale
/// smoke peaks at one million units, five hundred times below this bound.
pub(crate) const MAX_RANGE: usize = u32::MAX as usize;

/// A single worker's deque of task indices: the contiguous range
/// `[bottom, top)` packed into one atomic word.
///
/// The **owner** pops chunks from the bottom with [`StealDeque::take_bottom`];
/// **thieves** remove the top half with [`StealDeque::steal_top_half`].
/// Demotion and retirement drain the whole remainder at once with
/// `StealDeque::drain_all` so the tasks re-enter circulation.
#[derive(Debug)]
pub struct StealDeque {
    /// `top << 32 | bottom`; empty when `bottom >= top`.
    range: AtomicU64,
}

fn pack(bottom: usize, top: usize) -> u64 {
    debug_assert!(bottom <= top && top <= MAX_RANGE);
    ((top as u64) << 32) | bottom as u64
}

fn unpack(word: u64) -> (usize, usize) {
    ((word & 0xFFFF_FFFF) as usize, (word >> 32) as usize)
}

impl StealDeque {
    /// A deque seeded with the task range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > MAX_RANGE`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= MAX_RANGE,
            "invalid deque range [{start}, {end})"
        );
        StealDeque {
            range: AtomicU64::new(pack(start, end)),
        }
    }

    /// An empty deque.
    pub(crate) fn empty() -> Self {
        StealDeque::new(0, 0)
    }

    /// Tasks still in the deque (a racy snapshot, exact only to its owner).
    pub fn len(&self) -> usize {
        let (bottom, top) = unpack(self.range.load(Ordering::Acquire));
        top.saturating_sub(bottom)
    }

    /// Whether the deque is empty (racy snapshot, like [`StealDeque::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner fast path: claim up to `want` tasks from the **bottom**.
    ///
    /// Returns the claimed sub-range `(start, count)`, or `None` when the
    /// deque is empty (a thief may have emptied it since the owner last
    /// looked).  Lock-free: retries its CAS only when a concurrent steal
    /// succeeded, i.e. when someone made progress.
    pub fn take_bottom(&self, want: usize) -> Option<(usize, usize)> {
        if want == 0 {
            return None;
        }
        let mut word = self.range.load(Ordering::Acquire);
        loop {
            let (bottom, top) = unpack(word);
            if bottom >= top {
                return None;
            }
            let count = want.min(top - bottom);
            match self.range.compare_exchange_weak(
                word,
                pack(bottom + count, top),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((bottom, count)),
                Err(seen) => word = seen,
            }
        }
    }

    /// Thief path: steal the **top half** of the deque.
    ///
    /// Returns the stolen sub-range `(start, count)`, or `None` when fewer
    /// than two tasks remain — the last task is never stolen, so the owner
    /// can always finish what it started without contending for it.
    pub fn steal_top_half(&self) -> Option<(usize, usize)> {
        let mut word = self.range.load(Ordering::Acquire);
        loop {
            let (bottom, top) = unpack(word);
            let share = grasp_core::scheduler::SchedulePolicy::steal_share(top - bottom);
            if share == 0 {
                return None;
            }
            match self.range.compare_exchange_weak(
                word,
                pack(bottom, top - share),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((top - share, share)),
                Err(seen) => word = seen,
            }
        }
    }

    /// Drain the whole remaining range (demotion / retirement): the deque
    /// becomes empty and the drained `(start, count)` re-enters circulation
    /// through the caller.  Returns `None` when already empty.
    pub(crate) fn drain_all(&self) -> Option<(usize, usize)> {
        let mut word = self.range.load(Ordering::Acquire);
        loop {
            let (bottom, top) = unpack(word);
            if bottom >= top {
                return None;
            }
            match self.range.compare_exchange_weak(
                word,
                pack(top, top),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((bottom, top - bottom)),
                Err(seen) => word = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owner_pops_from_the_bottom_in_order() {
        let d = StealDeque::new(10, 30);
        assert_eq!(d.len(), 20);
        assert_eq!(d.take_bottom(5), Some((10, 5)));
        assert_eq!(d.take_bottom(100), Some((15, 15)), "clamped to remaining");
        assert_eq!(d.take_bottom(1), None);
        assert!(d.is_empty());
    }

    #[test]
    fn thief_takes_the_top_half_and_spares_the_last_task() {
        let d = StealDeque::new(0, 8);
        assert_eq!(d.steal_top_half(), Some((4, 4)));
        assert_eq!(d.steal_top_half(), Some((2, 2)));
        assert_eq!(d.steal_top_half(), Some((1, 1)));
        assert_eq!(d.len(), 1);
        assert_eq!(d.steal_top_half(), None, "lone last task stays home");
        assert_eq!(d.take_bottom(4), Some((0, 1)));
    }

    #[test]
    fn drain_hands_back_the_whole_remainder() {
        let d = StealDeque::new(3, 9);
        assert_eq!(d.take_bottom(2), Some((3, 2)));
        assert_eq!(d.drain_all(), Some((5, 4)));
        assert!(d.is_empty());
        assert_eq!(d.drain_all(), None);
    }

    #[test]
    fn zero_want_and_empty_deques_yield_nothing() {
        let d = StealDeque::empty();
        assert_eq!(d.take_bottom(4), None);
        assert_eq!(d.steal_top_half(), None);
        let d = StealDeque::new(5, 9);
        assert_eq!(d.take_bottom(0), None);
    }

    /// Concurrent owner + thieves: every index claimed exactly once, none
    /// lost — the conservation property the farm's `conserves_units_of`
    /// invariant rests on.
    #[test]
    fn concurrent_owner_and_thieves_partition_the_range() {
        const TOTAL: usize = 20_000;
        const THIEVES: usize = 3;
        let deque = Arc::new(StealDeque::new(0, TOTAL));
        let mut handles = Vec::new();
        for _ in 0..THIEVES {
            let deque = Arc::clone(&deque);
            handles.push(std::thread::spawn(move || {
                let mut got: Vec<(usize, usize)> = Vec::new();
                loop {
                    match deque.steal_top_half() {
                        Some(r) => got.push(r),
                        None => {
                            if deque.len() <= 1 {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                got
            }));
        }
        // The owner pops small chunks until its deque is gone.
        let mut owned: Vec<(usize, usize)> = Vec::new();
        while let Some(r) = deque.take_bottom(3) {
            owned.push(r);
        }
        let mut claimed = vec![false; TOTAL];
        for (start, count) in handles
            .into_iter()
            .flat_map(|h| h.join().expect("thief panicked"))
            .chain(owned)
        {
            for (idx, slot) in claimed.iter_mut().enumerate().skip(start).take(count) {
                assert!(!*slot, "index {idx} claimed twice");
                *slot = true;
            }
        }
        assert!(claimed.iter().all(|&c| c), "some index was never claimed");
    }
}
