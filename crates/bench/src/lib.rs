//! # grasp-bench — the experiment harness
//!
//! One module per experiment of DESIGN.md's experiment index (E1–E17), plus
//! shared scenario builders and plain-text table/series formatters.  The
//! `run_all` binary prints the tables and figure series the paper-style
//! evaluation reports (all of them, or one with `--only E<n>`); the
//! Criterion benches under `benches/` measure the wall-clock cost of the
//! same code paths.
//!
//! Everything here is deterministic: scenarios are seeded, and the simulated
//! grid advances virtual time only.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod gate;
pub mod report;
pub mod scenarios;

pub use report::{format_series, format_table, Series, Table};
pub use scenarios::{
    bursty_grid, churn_grid, irregular_farm_tasks, loaded_heterogeneous_grid, spike_grid,
    standard_farm_tasks, standard_imaging_job, transient_load_grid, ScenarioSeed,
};
