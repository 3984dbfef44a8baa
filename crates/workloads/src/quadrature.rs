//! Numerical integration panels with a tunable computation/communication
//! ratio.
//!
//! The integral of a configurable oscillatory function over `[a, b]` is split
//! into panels; each panel is one farm task evaluated by composite Simpson's
//! rule with a per-panel point count.  Because the point count is a free
//! parameter, this workload is the one used to sweep the
//! computation/communication ratio in the granularity experiments.

use grasp_core::TaskSpec;
use serde::{Deserialize, Serialize};

/// A quadrature job description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadratureJob {
    /// Lower integration bound.
    pub a: f64,
    /// Upper integration bound.
    pub b: f64,
    /// Number of panels (= farm tasks).
    pub panels: usize,
    /// Simpson sub-intervals per panel (must be even; odd values are bumped).
    pub points_per_panel: usize,
    /// Oscillation frequency of the integrand.
    pub frequency: f64,
}

impl Default for QuadratureJob {
    fn default() -> Self {
        QuadratureJob {
            a: 0.0,
            b: 10.0,
            panels: 256,
            points_per_panel: 10_000,
            frequency: 3.0,
        }
    }
}

impl QuadratureJob {
    /// A small job suitable for unit tests.
    pub fn small() -> Self {
        QuadratureJob {
            panels: 16,
            points_per_panel: 200,
            ..QuadratureJob::default()
        }
    }

    /// The integrand: `sin(f·x)·exp(-x/5) + x²/50`.
    pub(crate) fn integrand(&self, x: f64) -> f64 {
        (self.frequency * x).sin() * (-x / 5.0).exp() + x * x / 50.0
    }

    /// The analytically known reference value of the full integral, obtained
    /// by a very fine composite Simpson evaluation (used to validate panels).
    #[cfg(test)]
    pub(crate) fn reference_value(&self) -> f64 {
        self.integrate_range(self.a, self.b, 400_000)
    }

    /// Composite Simpson's rule over `[lo, hi]` with `n` sub-intervals
    /// (bumped to the next even number).  This is the real kernel.
    pub(crate) fn integrate_range(&self, lo: f64, hi: f64, n: usize) -> f64 {
        let n = if n % 2 == 0 { n.max(2) } else { n + 1 };
        let h = (hi - lo) / n as f64;
        let mut acc = self.integrand(lo) + self.integrand(hi);
        for i in 1..n {
            let x = lo + i as f64 * h;
            acc += self.integrand(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        acc * h / 3.0
    }

    /// Bounds of panel `i`.
    pub(crate) fn panel_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.b - self.a) / self.panels.max(1) as f64;
        (self.a + i as f64 * width, self.a + (i + 1) as f64 * width)
    }

    /// Integrate a single panel (one farm task).
    pub fn integrate_panel(&self, i: usize) -> f64 {
        let (lo, hi) = self.panel_bounds(i);
        self.integrate_range(lo, hi, self.points_per_panel)
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
    fn panel_sum_matches_whole_range_integral() {
        let job = QuadratureJob::small();
        let whole = job.integrate_range(job.a, job.b, 20_000);
        let sum: f64 = (0..job.panels).map(|i| job.integrate_panel(i)).sum();
        assert!(
            (whole - sum).abs() < 1e-3,
            "panel decomposition must preserve the integral: {whole} vs {sum}"
        );
    }

    #[test]
    fn panels_tile_the_interval() {
        let job = QuadratureJob::small();
        let (lo0, _) = job.panel_bounds(0);
        let (_, hi_last) = job.panel_bounds(job.panels - 1);
        assert!((lo0 - job.a).abs() < 1e-12);
        assert!((hi_last - job.b).abs() < 1e-9);
        for i in 1..job.panels {
            let (_, prev_hi) = job.panel_bounds(i - 1);
            let (lo, _) = job.panel_bounds(i);
            assert!((prev_hi - lo).abs() < 1e-12);
        }
    }

    #[test]
    fn simpson_converges_with_more_points() {
        let job = QuadratureJob::small();
        let coarse = job.integrate_range(0.0, 10.0, 10);
        let fine = job.integrate_range(0.0, 10.0, 10_000);
        let reference = job.reference_value();
        assert!((fine - reference).abs() < (coarse - reference).abs());
    }

    #[test]
    fn odd_subinterval_counts_are_handled() {
        let job = QuadratureJob::small();
        let odd = job.integrate_range(0.0, 1.0, 99);
        let even = job.integrate_range(0.0, 1.0, 100);
        assert!((odd - even).abs() < 1e-6);
    }

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
