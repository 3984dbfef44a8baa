//! Configuration of the four GRASP phases.
//!
//! The programming phase "parameterises the API calls to GRASP"; everything
//! tunable about calibration and adaptive execution is collected here so that
//! the experiment harness can sweep it.

use crate::calibration::CalibrationMode;
use crate::error::GraspError;
use crate::scheduler::SchedulePolicy;
use crate::threshold::ThresholdPolicy;
use gridsim::NodeId;
use std::path::PathBuf;

/// Parameters of the calibration phase (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// How node performance is extrapolated from the samples.
    pub mode: CalibrationMode,
    /// How many sample tasks each allocated node executes.
    pub samples_per_node: usize,
    /// Fraction of the candidate pool selected as "fittest" (0, 1].
    pub selection_fraction: f64,
    /// Never select fewer than this many nodes (provided enough are up).
    pub min_nodes: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            mode: CalibrationMode::TimeOnly,
            samples_per_node: 1,
            // Keep the whole pool by default: on a mostly homogeneous grid the
            // transient losers at calibration time still contribute capacity
            // later.  Strongly heterogeneous or WAN-separated pools should
            // lower this (the calibration experiments use 0.5).
            selection_fraction: 1.0,
            min_nodes: 1,
        }
    }
}

/// Parameters of the adaptive execution phase (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// How the performance threshold *Z* is derived from calibration.
    pub threshold: ThresholdPolicy,
    /// Monitoring period in virtual seconds: how often the monitor node
    /// collects execution times and evaluates the threshold.
    pub monitor_interval_s: f64,
    /// Upper bound on recalibrations per job (guards against thrashing).
    pub max_recalibrations: usize,
    /// Master switch: `false` turns Algorithm 2 off entirely (the
    /// non-adaptive baseline used throughout the evaluation).
    pub adaptive: bool,
    /// A node whose recent mean time exceeds `demote_factor × Z` is demoted
    /// (dropped from the chosen set) without waiting for a full recalibration.
    pub demote_factor: f64,
    /// Never adapt below this many active nodes.
    pub min_active_nodes: usize,
    /// How many recent observations the monitor judges a resource by (≥ 1).
    /// The farm keeps at most this many per-node task times per interval;
    /// the pipeline averages this many recent per-stage service times before
    /// declaring a stage degraded.  Shared by every skeleton so that nested
    /// compositions monitor uniformly.
    pub monitor_window: usize,
    /// Straggler speculation: once every unit has been handed out and no
    /// more than `speculate_tail_fraction × total` units remain in flight,
    /// idle workers may duplicate in-flight units (first verified result
    /// wins, the loser is discarded).  `0.0` (the default) disables
    /// speculation; the decision itself routes through
    /// [`AdaptationEngine::maybe_speculate`](crate::engine::AdaptationEngine::maybe_speculate),
    /// like every other adaptation.  Must be in `[0, 1]`.
    pub speculate_tail_fraction: f64,
    /// Stage breach response: `false` (the default) activates a pre-spawned
    /// standby replica alongside the slow worker (replication); `true`
    /// checkpoints the breached stage's queued items and **re-homes** the
    /// stage on a fresh worker — the old one stops — logged as a
    /// `StageMigrated` adaptation event.
    pub migrate_stages: bool,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            threshold: ThresholdPolicy::default(),
            monitor_interval_s: 5.0,
            max_recalibrations: 10,
            adaptive: true,
            demote_factor: 3.0,
            min_active_nodes: 2,
            monitor_window: 8,
            speculate_tail_fraction: 0.0,
            migrate_stages: false,
        }
    }
}

/// Complete configuration of a GRASP job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraspConfig {
    /// Calibration-phase parameters.
    pub calibration: CalibrationConfig,
    /// Execution-phase parameters.
    pub execution: ExecutionConfig,
    /// Farm chunking policy.
    pub scheduler: SchedulePolicy,
    /// Master / root node; `None` selects the first candidate node.
    pub master: Option<NodeId>,
    /// Seed for any randomised decisions (kept for reproducibility).
    pub seed: u64,
}

impl Default for GraspConfig {
    fn default() -> Self {
        GraspConfig {
            calibration: CalibrationConfig::default(),
            execution: ExecutionConfig::default(),
            scheduler: SchedulePolicy::default(),
            master: None,
            seed: 42,
        }
    }
}

impl GraspConfig {
    /// The fully adaptive configuration with statistical (multivariate)
    /// calibration — the "everything on" setting.
    pub fn adaptive_multivariate() -> Self {
        let mut c = GraspConfig::default();
        c.calibration.mode = CalibrationMode::Multivariate;
        c
    }

    /// A non-adaptive baseline: no node selection (every node is used), no
    /// monitoring, static block scheduling.  This is the classic rigid
    /// implementation the paper's adaptive skeletons are compared against.
    pub fn static_baseline() -> Self {
        GraspConfig {
            calibration: CalibrationConfig {
                mode: CalibrationMode::TimeOnly,
                samples_per_node: 0,
                selection_fraction: 1.0,
                min_nodes: 1,
            },
            execution: ExecutionConfig {
                adaptive: false,
                ..ExecutionConfig::default()
            },
            scheduler: SchedulePolicy::StaticBlock,
            master: None,
            seed: 42,
        }
    }

    /// A demand-driven (self-scheduling) baseline without calibration or
    /// monitoring — adaptivity through greedy work stealing only.
    pub fn self_scheduling_baseline() -> Self {
        let mut c = GraspConfig::static_baseline();
        c.scheduler = SchedulePolicy::SelfScheduling;
        c
    }

    /// Validate internal consistency; returns the offending reason on error.
    pub fn validate(&self) -> Result<(), GraspError> {
        if !(0.0..=1.0).contains(&self.calibration.selection_fraction)
            || self.calibration.selection_fraction == 0.0
        {
            return Err(GraspError::InvalidConfig(
                "selection_fraction must be in (0, 1]".to_string(),
            ));
        }
        if self.execution.monitor_interval_s <= 0.0 {
            return Err(GraspError::InvalidConfig(
                "monitor_interval_s must be positive".to_string(),
            ));
        }
        if self.execution.demote_factor < 1.0 {
            return Err(GraspError::InvalidConfig(
                "demote_factor must be at least 1.0".to_string(),
            ));
        }
        if self.calibration.min_nodes == 0 {
            return Err(GraspError::InvalidConfig(
                "min_nodes must be at least 1".to_string(),
            ));
        }
        if self.execution.monitor_window == 0 {
            return Err(GraspError::InvalidConfig(
                "monitor_window must be at least 1".to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&self.execution.speculate_tail_fraction) {
            return Err(GraspError::InvalidConfig(
                "speculate_tail_fraction must be in [0, 1]".to_string(),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// shared backend configuration
// ---------------------------------------------------------------------------

/// The knobs every execution backend understands, collected once.
///
/// This builder is the single shared surface: construct one, hand it to any
/// backend's `with_config`, and only the knobs you actually set are applied
/// (`None` keeps that backend's default).  Knobs a backend has no use for —
/// heartbeats on the in-process thread backend, worker binaries anywhere but
/// proc/net — are documented as ignored by that backend, not an error, so
/// one `BackendConfig` can parameterise a cross-backend comparison.
///
/// ```
/// use grasp_core::config::BackendConfig;
///
/// let cfg = BackendConfig::new()
///     .calibration_samples(2)
///     .spin_per_work_unit(10_000)
///     .max_task_attempts(5)
///     .heartbeat(0.1, 2.0);
/// assert_eq!(cfg.calibration_samples, Some(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendConfig {
    /// Probe units per worker forming the Algorithm-1 calibration sample
    /// (`Some(0)` disables the adaptation engine; `None` defers to
    /// `GraspConfig::calibration.samples_per_node`).
    pub calibration_samples: Option<usize>,
    /// Spin-kernel iterations one declared work unit costs (clamped ≥ 1).
    pub spin_per_work_unit: Option<u64>,
    /// Dispatches per unit before the run fails (clamped ≥ 1).
    pub max_task_attempts: Option<usize>,
    /// Worker liveness cadence `(interval_s, timeout_s)`; an interval of 0
    /// turns worker heartbeats and the master's timeout sweep off (deaths
    /// are then seen by EOF only).  Ignored by the thread backend (panics
    /// are caught in-process, not timed out).
    pub heartbeat: Option<(f64, f64)>,
    /// Explicit worker binary for the process-spawning backends; ignored by
    /// the thread backend.  `None` keeps the usual resolution chain
    /// (environment variable, then a search next to the current executable).
    pub worker_bin: Option<PathBuf>,
    /// Worker panics tolerated before the thread backend retires the worker
    /// (proc/net workers die with their process instead).
    pub worker_panic_budget: Option<usize>,
    /// The fault-injection plan (defaults to no injected faults).
    pub faults: FaultInjection,
}

impl BackendConfig {
    /// A configuration that overrides nothing.
    pub fn new() -> Self {
        BackendConfig::default()
    }

    /// Set the calibration sample size per worker (0 disables adaptation).
    pub fn calibration_samples(mut self, samples: usize) -> Self {
        self.calibration_samples = Some(samples);
        self
    }

    /// Set the spin iterations one declared work unit costs.
    pub fn spin_per_work_unit(mut self, iters: u64) -> Self {
        self.spin_per_work_unit = Some(iters.max(1));
        self
    }

    /// Set the dispatch bound per unit.
    pub fn max_task_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = Some(attempts.max(1));
        self
    }

    /// Set the heartbeat cadence: workers report every `interval_s`, and
    /// silence past `timeout_s` declares a worker dead.
    pub fn heartbeat(mut self, interval_s: f64, timeout_s: f64) -> Self {
        self.heartbeat = Some((interval_s, timeout_s));
        self
    }

    /// Use an explicit worker binary (proc/net backends).
    pub fn worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(path.into());
        self
    }

    /// Set how many panics the thread backend tolerates per worker.
    pub fn worker_panic_budget(mut self, budget: usize) -> Self {
        self.worker_panic_budget = Some(budget);
        self
    }

    /// Attach a fault-injection plan.
    pub fn faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }
}

/// A typed fault-injection plan, shared by every backend.
///
/// A test scripts its faults once and hands the plan to whichever backend
/// it is exercising.  Fields a backend cannot realise are ignored: threads
/// panic but are never SIGKILLed, processes are killed but never unwound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultInjection {
    /// Thread backend: the first `panics` tasks deliberately panic inside
    /// the worker closure (exercising catch-and-requeue).
    pub panics: usize,
    /// Proc/net backends: SIGKILL worker `.worker` after it has delivered
    /// `.after_results` completed units — the hard-kill analogue of grid
    /// node revocation.
    pub kill: Option<KillSpec>,
    /// Thread backend: slow a worker down mid-run (the straggler injection
    /// behind the demotion, stealing, and speculation experiments).
    pub slowdown: Option<SlowdownSpec>,
    /// Net backend: grow the pool mid-run by spawning extra workers once
    /// enough results are in.
    pub join_spawn: Option<JoinSpawnSpec>,
}

/// Kill worker `worker` after `after_results` delivered units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Victim worker index.
    pub worker: usize,
    /// Results the victim delivers before the SIGKILL.
    pub after_results: usize,
}

/// Multiply a worker's per-unit cost by `factor` after `after_units`
/// completed units pool-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownSpec {
    /// The slowed worker; `None` slows whichever worker completes the
    /// `after_units`-th task (the "any straggler" form).
    pub worker: Option<usize>,
    /// Pool-wide completed units before the slowdown engages.
    pub after_units: usize,
    /// Cost multiplier (> 1 slows the worker down).
    pub factor: f64,
}

/// Spawn `extra` additional workers once `after_results` units completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSpawnSpec {
    /// Pool-wide completed units before the spawns.
    pub after_results: usize,
    /// How many workers join (clamped ≥ 1).
    pub extra: usize,
}

impl FaultInjection {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultInjection::default()
    }

    /// Panic inside the first `panics` worker tasks (thread backend).
    pub fn panics(mut self, panics: usize) -> Self {
        self.panics = panics;
        self
    }

    /// SIGKILL `worker` after it delivered `after_results` units (proc/net).
    pub fn kill(mut self, worker: usize, after_results: usize) -> Self {
        self.kill = Some(KillSpec {
            worker,
            after_results,
        });
        self
    }

    /// Slow whichever worker completes the `after_units`-th task by
    /// `factor` (thread backend).
    pub fn slowdown(mut self, after_units: usize, factor: f64) -> Self {
        self.slowdown = Some(SlowdownSpec {
            worker: None,
            after_units,
            factor,
        });
        self
    }

    /// Slow worker `worker` by `factor` once `after_units` tasks completed
    /// pool-wide (thread backend).
    pub fn worker_slowdown(mut self, worker: usize, after_units: usize, factor: f64) -> Self {
        self.slowdown = Some(SlowdownSpec {
            worker: Some(worker),
            after_units,
            factor,
        });
        self
    }

    /// Spawn `extra` joining workers after `after_results` units (net).
    pub fn join_spawn(mut self, after_results: usize, extra: usize) -> Self {
        self.join_spawn = Some(JoinSpawnSpec {
            after_results,
            extra: extra.max(1),
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(GraspConfig::default().validate().is_ok());
        assert!(GraspConfig::adaptive_multivariate().validate().is_ok());
        assert!(GraspConfig::static_baseline().validate().is_ok());
        assert!(GraspConfig::self_scheduling_baseline().validate().is_ok());
    }

    #[test]
    fn baseline_configs_disable_adaptation() {
        let b = GraspConfig::static_baseline();
        assert!(!b.execution.adaptive);
        assert_eq!(b.scheduler, SchedulePolicy::StaticBlock);
        assert_eq!(b.calibration.selection_fraction, 1.0);
        let s = GraspConfig::self_scheduling_baseline();
        assert_eq!(s.scheduler, SchedulePolicy::SelfScheduling);
    }

    #[test]
    fn adaptive_multivariate_uses_statistical_calibration() {
        assert_eq!(
            GraspConfig::adaptive_multivariate().calibration.mode,
            CalibrationMode::Multivariate
        );
    }

    #[test]
    fn validation_rejects_bad_fraction() {
        let mut c = GraspConfig::default();
        c.calibration.selection_fraction = 0.0;
        assert!(matches!(c.validate(), Err(GraspError::InvalidConfig(_))));
        c.calibration.selection_fraction = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_interval_and_factors() {
        let mut c = GraspConfig::default();
        c.execution.monitor_interval_s = 0.0;
        assert!(c.validate().is_err());

        let mut c = GraspConfig::default();
        c.execution.demote_factor = 0.5;
        assert!(c.validate().is_err());

        let mut c = GraspConfig::default();
        c.calibration.min_nodes = 0;
        assert!(c.validate().is_err());

        let mut c = GraspConfig::default();
        c.execution.monitor_window = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn monitor_window_is_part_of_the_shared_surface() {
        assert_eq!(GraspConfig::default().execution.monitor_window, 8);
        let mut c = GraspConfig::default();
        c.execution.monitor_window = 3;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn speculation_is_off_by_default_and_fraction_is_validated() {
        let d = GraspConfig::default();
        assert_eq!(d.execution.speculate_tail_fraction, 0.0);
        assert!(!d.execution.migrate_stages);

        let mut c = GraspConfig::default();
        c.execution.speculate_tail_fraction = 0.25;
        c.execution.migrate_stages = true;
        assert!(c.validate().is_ok());

        c.execution.speculate_tail_fraction = 1.5;
        assert!(c.validate().is_err());
        c.execution.speculate_tail_fraction = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn backend_config_sets_only_what_was_asked() {
        let cfg = BackendConfig::new()
            .calibration_samples(3)
            .spin_per_work_unit(0) // clamped
            .heartbeat(0.1, 2.0);
        assert_eq!(cfg.calibration_samples, Some(3));
        assert_eq!(cfg.spin_per_work_unit, Some(1));
        assert_eq!(cfg.heartbeat, Some((0.1, 2.0)));
        assert_eq!(cfg.max_task_attempts, None);
        assert_eq!(cfg.worker_bin, None);
        assert_eq!(cfg.faults, FaultInjection::none());
    }

    #[test]
    fn fault_injection_plan_is_typed_and_composable() {
        let plan = FaultInjection::none()
            .panics(2)
            .kill(1, 4)
            .worker_slowdown(0, 8, 6.0)
            .join_spawn(10, 0); // extra clamped to ≥ 1
        assert_ne!(plan, FaultInjection::none());
        assert_eq!(plan.panics, 2);
        assert_eq!(
            plan.kill,
            Some(KillSpec {
                worker: 1,
                after_results: 4
            })
        );
        assert_eq!(
            plan.slowdown,
            Some(SlowdownSpec {
                worker: Some(0),
                after_units: 8,
                factor: 6.0
            })
        );
        assert_eq!(
            plan.join_spawn,
            Some(JoinSpawnSpec {
                after_results: 10,
                extra: 1
            })
        );
        // The anonymous-straggler form leaves the worker unpinned.
        assert_eq!(
            FaultInjection::none().slowdown(5, 2.0).slowdown,
            Some(SlowdownSpec {
                worker: None,
                after_units: 5,
                factor: 2.0
            })
        );
    }
}
