//! # grasp-exec — shared-memory execution backend for GRASP skeletons
//!
//! The reference backend of `grasp-core` drives a *simulated* grid so that
//! the adaptive behaviour can be studied reproducibly.  This crate provides
//! the complementary piece a downstream user wants on a real machine: the
//! same two skeletons — task farm and pipeline — executing user closures on
//! real threads.
//!
//! The shared-memory backend keeps the GRASP shape:
//!
//! * [`farm::ThreadFarm`] runs a **calibration pass** (a few probe tasks per
//!   worker) before settling on a chunk size, then executes the remaining
//!   tasks demand-driven, recording per-worker statistics.
//! * [`pool::WorkerPool`] keeps its threads resident across **dispatch
//!   rounds** (the service's pool); each round runs the farm's own worker
//!   loop on them, so the two differ only in how long their threads live.
//! * [`pipeline::ThreadPipeline`] runs each stage on its own thread connected
//!   by bounded channels, measures per-stage service times, and can
//!   **replicate the bottleneck stage** when its observed service time
//!   exceeds the adaptation threshold — the shared-memory analogue of
//!   remapping a stage to a faster node.
//!
//! Every engine delivers results in submission order, and none uses
//! `unsafe`.
//!
//! On top of the two engines, [`backend::ThreadBackend`] implements the
//! `grasp-core` `Backend` trait, so any composable `Skeleton` expression —
//! including nested farm-of-pipelines and pipeline-of-farms — runs on real
//! threads through the same `Grasp::run` entry point as the simulation.
//! The backend also drives the backend-neutral
//! [`grasp_core::engine::AdaptationEngine`] on wall-clock observations
//! (Algorithms 1–2: calibrate, monitor against the threshold *Z*, demote or
//! re-calibrate), so `SkeletonOutcome::adaptation_log` is populated on real
//! threads exactly as on the simulated grid.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod deque;
pub mod farm;
mod padded;
pub mod pipeline;
pub mod pool;

pub use backend::{spin, ThreadBackend};
pub use deque::StealDeque;
pub use farm::{FarmStats, RankTable, ThreadFarm, UnitObserver, UnitTiming, WorkerGate};
pub use pipeline::{PipelineStats, ThreadPipeline};
pub use pool::{PoolLease, RoundOutcome, WorkerPool};
