//! The four-phase GRASP driver (Figure 1 of the paper).
//!
//! [`Grasp`] packages the methodology end to end:
//!
//! 1. **Programming** — the user constructs the driver with a
//!    [`GraspConfig`] and describes the job as a composable
//!    [`Skeleton`] expression (farm, pipeline, or any nesting of the two);
//!    this is the only part the application programmer writes.
//! 2. **Compilation** — [`Backend::compile`] binds the expression to the
//!    parallel environment (the simulated grid, real threads, …).  Static;
//!    no feedback from the platform yet.
//! 3. **Calibration** — Algorithm 1 runs on the allocated resources.
//! 4. **Execution** — Algorithm 2 runs the remaining work adaptively.
//!
//! Phases 3 and 4 happen inside [`Backend::execute`] (calibration consumes
//! the job's first tasks, so it cannot be separated from the job), and the
//! driver returns a [`GraspRunReport`] containing the phase timings and the
//! backend-neutral [`SkeletonOutcome`] — exactly the information the
//! experiment harness needs, whatever the backend.

use crate::config::GraspConfig;
use crate::error::GraspError;
use crate::skeleton::{Backend, Skeleton, SkeletonOutcome};
use gridsim::SimTime;
use serde::{Deserialize, Serialize};

/// Virtual-time accounting of the four phases.
///
/// Programming and compilation are static phases; they consume no *job*
/// time (their cost is developer/compiler time, not grid time), but they are
/// kept in the report so the life-cycle of Figure 1 is visible to callers.
/// Times are in the executing backend's clock: virtual seconds for the
/// simulated grid, wall-clock seconds for real threads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Programming phase (static, always zero job seconds).
    pub programming: SimTime,
    /// Compilation phase (static, always zero job seconds).
    pub compilation: SimTime,
    /// Calibration phase duration.
    pub calibration: SimTime,
    /// Execution phase duration (job end minus calibration end).
    pub execution: SimTime,
}

impl PhaseTimings {
    /// Total time of the dynamic phases.
    pub fn total(&self) -> SimTime {
        self.programming + self.compilation + self.calibration + self.execution
    }

    /// Calibration's share of the total dynamic time in `[0, 1]`.
    pub fn calibration_fraction(&self) -> f64 {
        let total = self.total().as_secs();
        if total <= 0.0 {
            0.0
        } else {
            self.calibration.as_secs() / total
        }
    }
}

/// The result of driving a job through all four phases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraspRunReport<O> {
    /// Per-phase time accounting.
    pub phases: PhaseTimings,
    /// The backend-neutral skeleton outcome.  Engine-native reports (the
    /// simulated farm/pipeline outcomes, the thread-farm summary) travel in
    /// [`crate::skeleton::SkeletonOutcome::detail`].
    pub outcome: O,
}

/// The GRASP driver.
#[derive(Debug, Clone)]
pub struct Grasp {
    config: GraspConfig,
}

impl Grasp {
    /// Programming phase: create a driver with the chosen parameterisation.
    pub fn new(config: GraspConfig) -> Self {
        Grasp { config }
    }

    /// Drive a skeleton expression through all four phases on `backend`.
    ///
    /// This is the single entry point of the unified API: the same call runs
    /// a plain farm, a plain pipeline, or any nesting (farm-of-pipelines,
    /// pipeline-of-farms, …) on any [`Backend`].  All errors — invalid
    /// configuration, empty workloads, unusable resource pools, lost tasks —
    /// are reported as [`GraspError`]; nothing panics.
    pub fn run<B: Backend>(
        &self,
        backend: &B,
        skeleton: &Skeleton,
    ) -> Result<GraspRunReport<SkeletonOutcome>, GraspError> {
        // Compilation phase (static).
        let compiled = backend.compile(&self.config, skeleton)?;
        // Calibration + execution phases.
        let outcome = backend.execute(&self.config, &compiled)?;
        let phases = PhaseTimings {
            programming: SimTime::ZERO,
            compilation: SimTime::ZERO,
            calibration: SimTime::new(outcome.calibration_s),
            execution: SimTime::new((outcome.makespan_s - outcome.calibration_s).max(0.0)),
        };
        Ok(GraspRunReport { phases, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageSpec;
    use crate::properties::SkeletonKind;
    use crate::skeleton::{OutcomeDetail, SimBackend};
    use crate::task::TaskSpec;
    use gridsim::{Grid, TopologyBuilder};

    #[test]
    fn farm_report_accounts_for_all_phases() {
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(6, 20.0, 60.0, 2));
        let tasks = TaskSpec::uniform(60, 40.0, 16 * 1024, 16 * 1024);
        let report = Grasp::new(GraspConfig::default())
            .run(&SimBackend::new(&grid), &Skeleton::farm(tasks))
            .unwrap();
        assert_eq!(report.outcome.completed, 60);
        assert_eq!(report.phases.programming, SimTime::ZERO);
        assert_eq!(report.phases.compilation, SimTime::ZERO);
        assert!(report.phases.calibration.as_secs() > 0.0);
        assert!(report.phases.execution.as_secs() > 0.0);
        assert!(report.phases.calibration_fraction() > 0.0);
        assert!(report.phases.calibration_fraction() < 1.0);
        assert!((report.phases.total().as_secs() - report.outcome.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn pipeline_report_wraps_the_outcome() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(5, 40.0));
        let stages = StageSpec::balanced(3, 15.0, 8 * 1024);
        let report = Grasp::new(GraspConfig::default())
            .run(&SimBackend::new(&grid), &Skeleton::pipeline(stages, 40))
            .unwrap();
        assert_eq!(report.outcome.completed, 40);
        assert_eq!(report.outcome.kind, SkeletonKind::Pipeline);
        assert!(report.phases.execution.as_secs() > 0.0);
    }

    #[test]
    fn nested_skeleton_runs_through_the_same_entry_point() {
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(8, 20.0, 80.0, 5));
        let lane = Skeleton::pipeline(StageSpec::balanced(3, 10.0, 4 * 1024), 12);
        let skeleton = Skeleton::farm_of(vec![lane.clone(), lane]);
        let report = Grasp::new(GraspConfig::default())
            .run(&SimBackend::new(&grid), &skeleton)
            .unwrap();
        assert_eq!(report.outcome.kind, SkeletonKind::FarmOfPipelines);
        assert_eq!(report.outcome.completed, 24);
        assert!(report.outcome.conserves_units_of(&skeleton));
        assert_eq!(report.outcome.children.len(), 2);
    }

    #[test]
    fn unified_run_reports_errors_instead_of_panicking() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(2, 40.0));
        let g = Grasp::new(GraspConfig::default());
        assert!(g
            .run(&SimBackend::new(&grid), &Skeleton::farm(vec![]))
            .is_err());
        assert!(g
            .run(&SimBackend::new(&grid), &Skeleton::pipeline(vec![], 10))
            .is_err());
        let empty = Grid::dedicated(TopologyBuilder::new().build());
        assert!(g
            .run(
                &SimBackend::new(&empty),
                &Skeleton::farm(TaskSpec::uniform(5, 1.0, 0, 0))
            )
            .is_err());
    }

    #[test]
    fn engine_native_outcomes_remain_reachable_through_the_unified_api() {
        // Migrated from the deleted `run_{farm,pipeline}[_on]` shims' self
        // test: everything the legacy surface exposed — the engine-native
        // farm and pipeline outcomes — is reachable through `Grasp::run` via
        // `OutcomeDetail`, and agrees with the backend-neutral view.
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(6, 20.0, 60.0, 2));
        let tasks = TaskSpec::uniform(40, 40.0, 16 * 1024, 16 * 1024);
        let g = Grasp::new(GraspConfig::default());
        let report = g
            .run(&SimBackend::new(&grid), &Skeleton::farm(tasks))
            .unwrap();
        match &report.outcome.detail {
            OutcomeDetail::SimFarm(farm) => {
                assert_eq!(farm.completed_tasks(), report.outcome.completed);
                assert!((farm.makespan.as_secs() - report.outcome.makespan_s).abs() < 1e-9);
                assert_eq!(farm.adaptation, report.outcome.adaptation_log);
            }
            other => panic!("farm run must carry the native farm outcome, got {other:?}"),
        }

        let stages = StageSpec::balanced(3, 15.0, 8 * 1024);
        let report = g
            .run(&SimBackend::new(&grid), &Skeleton::pipeline(stages, 20))
            .unwrap();
        match &report.outcome.detail {
            OutcomeDetail::SimPipeline(pipeline) => {
                assert_eq!(pipeline.items, 20);
                assert_eq!(pipeline.adaptation, report.outcome.adaptation_log);
            }
            other => panic!("pipeline run must carry the native outcome, got {other:?}"),
        }
    }

    #[test]
    fn config_is_accessible() {
        let g = Grasp::new(GraspConfig::static_baseline());
        assert!(!g.config.execution.adaptive);
    }
}
