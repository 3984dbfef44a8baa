//! # gridmon — resource monitoring and forecasting
//!
//! The GRASP compilation phase links the program against "the resource
//! monitoring library" and the calibration phase may "collect processor and
//! bandwidth values" to adjust the execution-time table statistically
//! (Algorithm 1).  On the paper's testbed this role is played by an NWS-style
//! monitoring service; here we implement the equivalent library:
//!
//! * `series` — bounded time series storing recent observations;
//! * `forecast` — one-step-ahead predictors (last value, running mean,
//!   sliding-window mean/median, exponential smoothing, AR(1)) plus an
//!   adaptive selector that tracks each predictor's error and uses the
//!   current best — the same trick the Network Weather Service uses;
//! * `registry` — a per-node monitor registry that samples CPU load and
//!   bandwidth availability from a [`gridsim::Grid`] (or records wall-clock
//!   observations) and ties series and forecasters together for the
//!   calibration and execution phases.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod forecast;
mod registry;
mod series;

pub use forecast::{
    mean_absolute_error, AdaptiveForecaster, Ar1Forecaster, ExponentialSmoothing, Forecaster,
    LastValue, RunningMean, SlidingWindowMean, SlidingWindowMedian,
};
pub use registry::{MonitorRegistry, NodeObservation};
pub use series::TimeSeries;
