//! A generic discrete-event queue.
//!
//! The skeleton simulations (task farm, pipeline) are discrete-event
//! programs: "task completes on node n at time t", "monitoring interval
//! expires", "node revoked".  This module provides the ordered event queue
//! they are built on: a binary heap keyed by [`SimTime`] with a sequence
//! number tie-breaker so that events scheduled first fire first at equal
//! times (deterministic replay).

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of type `E` scheduled at a point in virtual time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number used to break ties deterministically.
    pub(crate) seq: u64,
    /// The payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest time pops first,
        // and the lowest sequence number within equal times.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `time`.  Scheduling in the past is
    /// clamped to `now` (the event fires immediately on the next pop).
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Pop the next event, advancing the queue's clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.schedule_at(SimTime::new(5.0), "c");
        q.schedule_at(SimTime::new(1.0), "a");
        q.schedule_at(SimTime::new(3.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::new(2.0), 1);
        q.schedule_at(SimTime::new(2.0), 2);
        q.schedule_at(SimTime::new(2.0), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(SimTime::new(4.0), ());
        assert_eq!(q.now, SimTime::ZERO);
        q.pop();
        assert_eq!(q.now, SimTime::new(4.0));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.schedule_at(SimTime::new(10.0), "first");
        q.pop();
        q.schedule_at(SimTime::new(1.0), "late");
        let ev = q.pop().unwrap();
        assert_eq!(ev.payload, "late");
        assert_eq!(ev.time, SimTime::new(10.0));
    }
}
