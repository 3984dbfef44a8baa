//! # grasp-workloads — synthetic scientific workloads
//!
//! The GRASP evaluation exercises the skeletons on parameter-sweep and
//! stream-processing codes typical of grid applications of its era.  This
//! crate provides self-contained, deterministic stand-ins for those codes:
//!
//! * [`mandelbrot`] — Mandelbrot-set tiles: an embarrassingly parallel farm
//!   with highly *irregular* per-task cost (the classic load-balancing demo);
//! * [`matmul`] — blocked dense matrix multiplication: a regular,
//!   compute-bound farm;
//! * [`quadrature`] — numerical integration panels with a tunable
//!   computation/communication ratio (descriptors only);
//! * [`seqmatch`] — synthetic pairwise sequence alignment (Smith–Waterman
//!   scoring on random sequences): the BLAST-style parameter sweep the
//!   companion task-farm paper motivates;
//! * [`imaging`] — a four-stage image-processing pipeline (blur → sharpen →
//!   edge detect → threshold) for the pipeline skeleton;
//! * [`blackscholes`] — a Black–Scholes option-pricing sweep (fine-grained
//!   farm tasks; descriptors only);
//! * `servicemix` — a deterministic Poisson stream of mixed-shape small
//!   jobs for exercising the resident multi-job service.
//!
//! Every module offers a **descriptor generator** that turns the workload
//! into the abstract [`grasp_core::TaskSpec`] / [`grasp_core::StageSpec`]
//! lists the simulated grid executes, with work units calibrated to the
//! kernels' relative costs.  All but `quadrature` and `blackscholes` also
//! carry the **real kernel** (usable by the `grasp-exec` shared-memory
//! backend).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod blackscholes;
pub mod imaging;
pub mod mandelbrot;
pub mod matmul;
pub mod quadrature;
pub mod seqmatch;
mod servicemix;
mod transim;

pub use servicemix::ServiceMixJob;
pub use transim::TranSimJob;
