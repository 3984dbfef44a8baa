//! # grasp-core — Adaptive Structured Parallelism (GRASP)
//!
//! A Rust reproduction of the GRASP methodology from *González-Vélez & Cole,
//! "Adaptive structured parallelism for computational grids", PPoPP 2007*.
//!
//! GRASP instruments **algorithmic skeletons** — here the paper's two
//! skeletons, the [`farm::TaskFarm`] and the [`pipeline::Pipeline`], plus
//! compositions — with their intrinsic structural properties so that a
//! program running on a non-dedicated, heterogeneous grid can *steer its own
//! execution*:
//!
//! 1. **Programming** — the user picks a skeleton and parameterises it
//!    ([`grasp::Grasp`], [`task::TaskSpec`], [`pipeline::StageSpec`]).
//! 2. **Compilation** — the skeleton is bound to a grid, a monitoring
//!    registry, and a [`config::GraspConfig`] (static phase).
//! 3. **Calibration** — Algorithm 1: every allocated node executes a sample
//!    of the real work; nodes are ranked by extrapolated performance, either
//!    from execution times alone or adjusted by univariate / multivariate
//!    regression over CPU load and bandwidth ([`calibration`]).
//! 4. **Execution** — Algorithm 2: the chosen nodes execute the remaining
//!    work while a monitor compares observed times against a performance
//!    threshold *Z*; exceeding it triggers recalibration and/or rescheduling
//!    according to the skeleton's properties ([`execution`], [`adaptation`]).
//!
//! The crate is backend-agnostic through the [`skeleton::Backend`] trait:
//! jobs are written once as composable [`skeleton::Skeleton`] expressions
//! (farm, pipeline, farm-of-pipelines, pipeline-of-farms, …) and run
//! unchanged on the reference [`skeleton::SimBackend`] (the [`gridsim`]
//! simulated grid; see DESIGN.md for the substitution rationale) or on the
//! real-thread `ThreadBackend` of the companion `grasp-exec` crate.
//!
//! ## Quick example
//!
//! ```
//! use grasp_core::prelude::*;
//! use gridsim::{Grid, TopologyBuilder};
//!
//! // A small heterogeneous cluster (idle, so purely illustrative).
//! let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(8, 20.0, 80.0, 1));
//! // 200 identical farm tasks of 50 work units, 1 KiB in/out.
//! let skeleton = Skeleton::farm(TaskSpec::uniform(200, 50.0, 1024, 1024));
//! let report = Grasp::new(GraspConfig::default())
//!     .run(&SimBackend::new(&grid), &skeleton)
//!     .expect("valid workload on an all-up grid");
//! assert_eq!(report.outcome.completed, 200);
//!
//! // Nesting is one more constructor: a farm of two pipeline instances runs
//! // through exactly the same entry point, and adapts as one unit.
//! let lane = Skeleton::pipeline(StageSpec::balanced(3, 10.0, 1024), 25);
//! let nested = Skeleton::farm_of(vec![lane.clone(), lane]);
//! let report = Grasp::new(GraspConfig::default())
//!     .run(&SimBackend::new(&grid), &nested)
//!     .expect("valid workload on an all-up grid");
//! assert_eq!(report.outcome.completed, 50);
//! assert!(report.outcome.conserves_units_of(&nested));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod adaptation;
pub mod calibration;
pub mod config;
pub mod engine;
pub mod error;
pub mod execution;
mod farm;
mod grasp;
mod metrics;
mod pipeline;
mod properties;
pub mod scheduler;
pub mod shm;
pub mod skeleton;
pub mod task;
mod threshold;
pub mod transport;
pub mod wire;

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::adaptation::{AdaptationAction, AdaptationLog};
    pub use crate::calibration::CalibrationMode;
    pub use crate::config::{
        BackendConfig, CalibrationConfig, ExecutionConfig, FaultInjection, GraspConfig,
    };
    pub use crate::engine::{AdaptationEngine, WallClock};
    pub use crate::error::GraspError;
    pub use crate::farm::{FarmOutcome, TaskFarm};
    pub use crate::grasp::{Grasp, GraspRunReport};
    pub use crate::metrics::efficiency;
    pub use crate::pipeline::{Pipeline, StageSpec};
    pub use crate::properties::{SkeletonKind, SkeletonProperties};
    pub use crate::scheduler::SchedulePolicy;
    pub use crate::skeleton::{
        Backend, FarmedStage, NetDeparture, OutcomeDetail, ResilienceReport, SimBackend, Skeleton,
        SkeletonOutcome,
    };
    pub use crate::task::TaskSpec;
    pub use crate::threshold::ThresholdPolicy;
}

pub use prelude::*;
