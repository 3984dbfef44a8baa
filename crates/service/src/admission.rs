//! Bounded fair-share admission queue.
//!
//! The backlog is bounded: a service that accepted every submission would
//! trade its latency guarantees for an unbounded queue, so overflow is a
//! *typed* client-visible outcome ([`grasp_core::prelude::GraspError::Rejected`]
//! at the service surface) rather than silent buffering.  Draining order is
//! priority-first, then fair-share: within one priority level tenants are
//! served round-robin (least recently served first), FIFO within a tenant —
//! one chatty client cannot starve the others at its own priority.

use crate::job::JobPriority;
use std::collections::VecDeque;

/// One queued submission, wrapped with its admission metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Queued<T> {
    tenant: String,
    seq: u64,
    item: T,
}

/// A bounded priority + fair-share queue (see the module docs).
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    capacity: usize,
    /// One FIFO lane per priority level (index = `JobPriority::level`).
    lanes: [VecDeque<Queued<T>>; 3],
    /// Tenant fairness clock: each pop stamps the winning tenant, and the
    /// tenant with the *oldest* stamp wins the next pop at equal priority.
    served: Vec<(String, u64)>,
    tick: u64,
    seq: u64,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            served: Vec::new(),
            tick: 0,
            seq: 0,
        }
    }

    /// Jobs currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Admit a job, or refuse it when the backlog is full.  The error is
    /// `(backlog, capacity)` — the payload of `GraspError::Rejected`.
    pub fn push(
        &mut self,
        priority: JobPriority,
        tenant: &str,
        item: T,
    ) -> Result<(), (usize, usize)> {
        let backlog = self.len();
        if backlog >= self.capacity {
            return Err((backlog, self.capacity));
        }
        let seq = self.seq;
        self.seq += 1;
        self.lanes[priority.level()].push_back(Queued {
            tenant: tenant.to_string(),
            seq,
            item,
        });
        Ok(())
    }

    /// When `tenant` was last served (0 = never).
    fn last_served(&self, tenant: &str) -> u64 {
        self.served
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, at)| *at)
            .unwrap_or(0)
    }

    fn stamp(&mut self, tenant: &str) {
        self.tick += 1;
        let at = self.tick;
        match self.served.iter_mut().find(|(t, _)| t == tenant) {
            Some(slot) => slot.1 = at,
            None => self.served.push((tenant.to_string(), at)),
        }
    }

    /// Remove and return the next job to serve, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        let lane = self.lanes.iter().rposition(|l| !l.is_empty())?;
        // Fair share within the lane: the waiting tenant served longest ago
        // wins; its oldest submission is taken (FIFO within a tenant).
        let winner = self.lanes[lane]
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (self.last_served(&q.tenant), q.seq))
            .map(|(i, _)| i)?;
        let picked = self.lanes[lane].remove(winner)?;
        self.stamp(&picked.tenant);
        Some(picked.item)
    }

    /// Drain up to `max` jobs in service order — one shared dispatch round's
    /// worth of admissions.
    pub(crate) fn pop_batch(&mut self, max: usize) -> Vec<T> {
        let mut batch = Vec::new();
        while batch.len() < max {
            match self.pop() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(
        q: &mut AdmissionQueue<&'static str>,
        p: JobPriority,
        tenant: &str,
        item: &'static str,
    ) {
        q.push(p, tenant, item).unwrap();
    }

    #[test]
    fn higher_priorities_drain_first() {
        let mut q = AdmissionQueue::new(8);
        push(&mut q, JobPriority::Batch, "a", "batch");
        push(&mut q, JobPriority::Normal, "a", "normal");
        push(&mut q, JobPriority::High, "a", "high");
        assert_eq!(q.pop_batch(8), vec!["high", "normal", "batch"]);
    }

    #[test]
    fn equal_priority_interleaves_tenants_fairly() {
        let mut q = AdmissionQueue::new(8);
        push(&mut q, JobPriority::Normal, "chatty", "c1");
        push(&mut q, JobPriority::Normal, "chatty", "c2");
        push(&mut q, JobPriority::Normal, "chatty", "c3");
        push(&mut q, JobPriority::Normal, "quiet", "q1");
        // The quiet tenant is not stuck behind the chatty one's backlog.
        assert_eq!(q.pop_batch(3), vec!["c1", "q1", "c2"]);
        assert_eq!(q.pop(), Some("c3"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_reports_backlog_and_capacity() {
        let mut q = AdmissionQueue::new(2);
        push(&mut q, JobPriority::Normal, "a", "one");
        push(&mut q, JobPriority::Normal, "a", "two");
        assert_eq!(
            q.push(JobPriority::High, "a", "three"),
            Err((2, 2)),
            "priority does not bypass the backlog bound"
        );
        q.pop();
        assert!(q.push(JobPriority::Normal, "a", "three").is_ok());
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut q = AdmissionQueue::new(8);
        push(&mut q, JobPriority::Normal, "a", "first");
        push(&mut q, JobPriority::Normal, "a", "second");
        assert_eq!(q.pop(), Some("first"));
        assert_eq!(q.pop(), Some("second"));
    }
}
