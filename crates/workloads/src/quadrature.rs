//! Numerical integration panels with a tunable computation/communication
//! ratio.
//!
//! The integral of an oscillatory function is split into panels; each panel
//! is one farm task evaluated by composite Simpson's rule with a per-panel
//! point count.  Because the point count is a free parameter, this workload
//! is the one used to sweep the computation/communication ratio in the
//! granularity experiments.  The job is a descriptor generator only: it
//! turns the panels into abstract farm tasks for the simulated grid.

use grasp_core::TaskSpec;

/// A quadrature job description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadratureJob {
    /// Number of panels (= farm tasks).
    pub panels: usize,
    /// Simpson sub-intervals per panel.
    pub points_per_panel: usize,
}

impl QuadratureJob {
    /// A small job suitable for unit tests.
    pub fn small() -> Self {
        QuadratureJob {
            panels: 16,
            points_per_panel: 200,
        }
    }

    /// The job as abstract farm tasks.  Work is proportional to the number of
    /// integrand evaluations; each task ships only a tiny descriptor and a
    /// single `f64` result.
    pub fn as_tasks(&self, evals_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = evals_per_work_unit.max(1.0);
        let work = self.points_per_panel as f64 / scale;
        (0..self.panels)
            .map(|id| TaskSpec::new(id, work, 48, 8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_descriptors_reflect_the_point_count() {
        let coarse = QuadratureJob {
            points_per_panel: 100,
            ..QuadratureJob::small()
        };
        let fine = QuadratureJob {
            points_per_panel: 10_000,
            ..QuadratureJob::small()
        };
        let tc = coarse.as_tasks(100.0);
        let tf = fine.as_tasks(100.0);
        assert_eq!(tc.len(), coarse.panels);
        assert!(tf[0].work > tc[0].work * 50.0);
    }
}
