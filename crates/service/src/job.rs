//! Job-side types of the service: what a client submits and what it holds
//! while the job is in flight.

use grasp_core::prelude::{GraspError, SkeletonOutcome};
use std::fmt;
use std::sync::mpsc;

/// Service-assigned job identifier, unique for the service's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct JobId(pub(crate) u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Admission priority of a submission.  Higher priorities drain first; jobs
/// of equal priority are served fair-share across tenants (see
/// `admission`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum JobPriority {
    /// Background work: served only when nothing more urgent waits.
    Batch,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-sensitive work: drained before everything else.
    High,
}

impl JobPriority {
    /// Queue index (higher = more urgent).
    pub(crate) fn level(self) -> usize {
        match self {
            JobPriority::Batch => 0,
            JobPriority::Normal => 1,
            JobPriority::High => 2,
        }
    }
}

/// Per-submission metadata: how to admit the job and which calibration
/// profiles apply to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Admission priority.
    pub(crate) priority: JobPriority,
    /// Fair-share key: jobs of equal priority are interleaved round-robin
    /// across tenants so one chatty client cannot starve the rest.
    pub(crate) tenant: String,
    /// Calibration-cache key component: submissions whose units stress the
    /// machine the same way share a payload kind, and therefore share
    /// `(worker, payload-kind)` calibration profiles across jobs.
    pub(crate) payload_kind: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            priority: JobPriority::Normal,
            tenant: "default".to_string(),
            payload_kind: "spin".to_string(),
        }
    }
}

impl JobSpec {
    /// Set the admission priority.
    pub fn with_priority(mut self, priority: JobPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the fair-share tenant key.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Set the calibration payload kind.
    pub fn with_payload_kind(mut self, kind: impl Into<String>) -> Self {
        self.payload_kind = kind.into();
        self
    }
}

/// The client's handle on an admitted job; resolves to the job's
/// [`SkeletonOutcome`] (or error) exactly once.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) rx: mpsc::Receiver<Result<SkeletonOutcome, GraspError>>,
}

impl JobHandle {
    /// Block until the job completes and return its outcome.  Errors with
    /// [`GraspError::WorkerUnavailable`] when the service shut down before
    /// the job ran.
    pub fn wait(self) -> Result<SkeletonOutcome, GraspError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(GraspError::WorkerUnavailable {
                detail: format!("the service shut down before {} completed", self.id),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_by_urgency() {
        assert!(JobPriority::High.level() > JobPriority::Normal.level());
        assert!(JobPriority::Normal.level() > JobPriority::Batch.level());
        assert_eq!(JobPriority::default(), JobPriority::Normal);
    }

    #[test]
    fn spec_builders_compose() {
        let spec = JobSpec::default()
            .with_priority(JobPriority::High)
            .with_tenant("alice")
            .with_payload_kind("mandelbrot");
        assert_eq!(spec.priority, JobPriority::High);
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.payload_kind, "mandelbrot");
    }

    #[test]
    fn dropped_sender_maps_to_worker_unavailable() {
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let handle = JobHandle { id: JobId(7), rx };
        match handle.wait() {
            Err(GraspError::WorkerUnavailable { detail }) => {
                assert!(detail.contains("job-7"), "{detail}");
            }
            other => panic!("expected WorkerUnavailable, got {other:?}"),
        }
    }
}
