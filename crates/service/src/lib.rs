//! # grasp-service — a resident multi-job GRASP service
//!
//! Every other backend in this workspace is one-shot: build a pool, run one
//! skeleton, tear the pool down.  The paper's grid manager is not — it is a
//! *resident* entity that amortises calibration across submissions and
//! multiplexes many applications over one set of managed resources.  This
//! crate provides that layer:
//!
//! * [`GraspService`] owns a persistent [`grasp_exec::WorkerPool`] (spawned
//!   once, leased per dispatch round — never torn down between jobs) and a
//!   single shared [`grasp_core::engine::AdaptationEngine`] monitoring it
//!   across all jobs.  No adaptation logic is forked: the service feeds the
//!   engine observations and the engine steers the pool (demotion takes a
//!   worker out of rotation; drift invalidates the calibration cache and
//!   re-bases the threshold), exactly like the one-shot backends.
//! * [`GraspService::submit`] admits a [`grasp_core::prelude::Skeleton`]
//!   with a [`JobSpec`] into a **bounded fair-share queue** ([`admission`]):
//!   priority first, round-robin across tenants within a priority, and a
//!   typed [`grasp_core::prelude::GraspError::Rejected`] when the backlog is
//!   full.  Small jobs are batched into **shared dispatch rounds**, so the
//!   per-round overhead is paid once per batch, not once per job.
//! * Calibration profiles are cached per `(worker, payload-kind)`
//!   ([`cache`]) and reused by every later job of the same kind; they are
//!   invalidated **only** when the shared engine flags drift.
//! * Every job keeps its own identity: unit ids live in a per-job
//!   namespace, so `conserves_units_of` holds per job, and each
//!   [`JobHandle`] resolves to a normal
//!   [`grasp_core::prelude::SkeletonOutcome`] with its own resilience
//!   report, adaptation log, and an
//!   [`grasp_core::prelude::OutcomeDetail::Service`] record of how the job
//!   rode the pool.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod job;
pub mod service;

pub use admission::AdmissionQueue;
pub use cache::{ProfileCache, ProfileCacheStats};
pub use job::{JobHandle, JobId, JobPriority, JobSpec};
pub use service::{GraspService, ServiceConfig, ServiceStats};
