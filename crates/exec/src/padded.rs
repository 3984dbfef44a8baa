//! Cache-line padding for per-worker state.

/// `T` aligned — and so padded — to a cache line of its own.
///
/// The thread farms keep per-worker state (running timing sums, steal
/// deques, observation totals) in adjacent `Vec` slots.  Unpadded, two
/// workers' slots can share a line, and every per-unit write by one worker
/// then invalidates the line in its peer's cache (false sharing).  Padded,
/// a worker's writes stay in its own core's cache; peers only pull the line
/// on the rare reads that need it (a chunk decision, a monitor flush).
///
/// 128 bytes on x86-64 and AArch64, whose prefetchers fetch lines in
/// adjacent pairs; 64 bytes elsewhere.
#[derive(Debug, Default)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    repr(align(64))
)]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn adjacent_slots_never_share_a_line() {
        let slots: Vec<CachePadded<AtomicU64>> = (0..4).map(|_| CachePadded::default()).collect();
        let line = std::mem::align_of::<CachePadded<AtomicU64>>();
        assert!(line >= 64);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), line);
        for pair in slots.windows(2) {
            let a = &*pair[0] as *const AtomicU64 as usize;
            let b = &*pair[1] as *const AtomicU64 as usize;
            assert_eq!(a % line, 0, "slot not line-aligned");
            assert!(b - a >= line, "slots {a:#x} and {b:#x} share a line");
        }
    }
}
