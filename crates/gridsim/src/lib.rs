//! # gridsim — a simulated computational grid
//!
//! The PPoPP'07 GRASP paper targets *non-dedicated, heterogeneous,
//! dynamically loaded* computational grids.  We do not have a Globus testbed,
//! so this crate provides the closest synthetic equivalent: a deterministic,
//! discrete-event simulation of a multi-site grid whose observable behaviour
//! — per-node execution times that vary with external load, per-link transfer
//! times that vary with background traffic, node revocation — is exactly what
//! the GRASP calibration and adaptation layers react to.
//!
//! ## Model
//!
//! * A `GridTopology` is a set of `Site`s (administrative
//!   domains), each containing `NodeSpec`s with heterogeneous base
//!   speeds, connected by [`link::LinkSpec`]s with bandwidth
//!   and latency.
//! * Every node carries an **external load model** (`load`) describing the
//!   CPU fraction consumed by other grid users over time, and every link a
//!   background-traffic model.  Load models are deterministic functions of
//!   virtual time (seeded pseudo-random where stochastic), so experiments are
//!   reproducible.
//! * The [`grid::Grid`] facade answers the two questions the skeleton layer
//!   asks: *how long does `w` units of work take on node `n` starting at
//!   time `t`?* (integrating availability over time) and *how long does a
//!   `b`-byte transfer take between nodes?*
//! * [`fault::FaultPlan`] injects node revocations and recoveries, and
//!   [`event::EventQueue`] provides a generic discrete-event core used by the
//!   skeleton simulations.
//!
//! The simulator works in **virtual seconds** ([`clock::SimTime`]); nothing in
//! it depends on wall-clock time, threads, or I/O.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod clock;
mod event;
mod fault;
mod grid;
mod link;
mod load;
mod node;
mod site;
mod topology;

pub use clock::SimTime;
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use grid::{Grid, GridBuilder};
pub use link::LinkSpec;
pub use load::{
    BurstyLoad, CompositeLoad, ConstantLoad, LoadModel, PeriodicLoad, RandomWalkLoad, SpikeLoad,
};
pub use node::NodeId;
pub use topology::TopologyBuilder;
