//! A deterministic multi-job arrival stream for service-mode experiments.
//!
//! A resident service is exercised not by one big skeleton but by *many
//! small jobs of mixed shape arriving over time*.  This module generates
//! that stream reproducibly: Poisson arrivals (exponential inter-arrival
//! times from a seeded LCG — no global RNG, no wall clock) over a cycling
//! mix of skeleton shapes (plain farm, pipeline, farm-of-farms), so every
//! run of an experiment sees the exact same offered load.

use grasp_core::prelude::{Skeleton, StageSpec};
use grasp_core::TaskSpec;
use serde::{Deserialize, Serialize};

/// One job of the stream: when it arrives and what it asks for.
#[derive(Debug, Clone)]
pub struct ServiceArrival {
    /// Seconds from stream start to submission.
    pub arrival_s: f64,
    /// The skeleton to submit.
    pub skeleton: Skeleton,
    /// Shape label ("farm", "pipeline", "farm-of"), e.g. for payload kinds
    /// or per-shape reporting.
    pub shape: &'static str,
}

/// A reproducible mixed-shape Poisson job stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceMixJob {
    /// Jobs in the stream.
    pub jobs: usize,
    /// Mean inter-arrival time in seconds (Poisson arrivals).
    pub mean_interarrival_s: f64,
    /// Work units per job (split across the job's shape).
    pub units_per_job: usize,
    /// Declared work per unit.
    pub work_per_unit: f64,
    /// LCG seed.
    pub seed: u64,
}

impl Default for ServiceMixJob {
    fn default() -> Self {
        ServiceMixJob {
            jobs: 60,
            mean_interarrival_s: 0.002,
            units_per_job: 24,
            work_per_unit: 1.0,
            seed: 42,
        }
    }
}

impl ServiceMixJob {
    /// The deterministic arrival schedule: `jobs` entries with strictly
    /// increasing arrival stamps and shapes cycling farm → pipeline →
    /// farm-of-farms.
    pub fn arrivals(&self) -> Vec<ServiceArrival> {
        let mut lcg = self.seed.wrapping_mul(2).wrapping_add(1);
        let mut uniform = move || {
            // Numerical Recipes LCG; top 53 bits → (0, 1].
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        };
        let mut at = 0.0;
        (0..self.jobs)
            .map(|i| {
                at += -self.mean_interarrival_s * uniform().ln();
                let (skeleton, shape) = self.shape_for(i);
                ServiceArrival {
                    arrival_s: at,
                    skeleton,
                    shape,
                }
            })
            .collect()
    }

    /// The `i`-th job's skeleton: the shape mix cycles with `i`.
    fn shape_for(&self, i: usize) -> (Skeleton, &'static str) {
        let units = self.units_per_job.max(2);
        match i % 3 {
            0 => (
                Skeleton::farm(TaskSpec::uniform(units, self.work_per_unit, 0, 0)),
                "farm",
            ),
            1 => {
                // Two stages sharing each unit's work over `units` items.
                let stages = (0..2)
                    .map(|id| StageSpec::new(id, self.work_per_unit / 2.0, 0, 0))
                    .collect();
                (Skeleton::pipeline(stages, units), "pipeline")
            }
            _ => {
                let half = units / 2;
                (
                    Skeleton::farm_of(vec![
                        Skeleton::farm(TaskSpec::uniform(half, self.work_per_unit, 0, 0)),
                        Skeleton::farm(TaskSpec::uniform(units - half, self.work_per_unit, 0, 0)),
                    ]),
                    "farm-of",
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small stream.
    fn small() -> ServiceMixJob {
        ServiceMixJob {
            jobs: 12,
            units_per_job: 8,
            ..ServiceMixJob::default()
        }
    }

    #[test]
    fn arrivals_are_deterministic_and_increasing() {
        let job = small();
        let a = job.arrivals();
        let b = job.arrivals();
        assert_eq!(a.len(), job.jobs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.shape, y.shape);
        }
        assert!(
            a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s),
            "arrival stamps must strictly increase"
        );
    }

    #[test]
    fn the_mix_cycles_all_three_shapes_with_constant_units() {
        let job = small();
        let arrivals = job.arrivals();
        let shapes: std::collections::BTreeSet<&str> = arrivals.iter().map(|a| a.shape).collect();
        assert_eq!(
            shapes.into_iter().collect::<Vec<_>>(),
            vec!["farm", "farm-of", "pipeline"]
        );
        for a in &arrivals {
            assert!(a.skeleton.validate().is_ok());
            assert_eq!(a.skeleton.work_units(), job.units_per_job);
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = small();
        let b = ServiceMixJob { seed: 7, ..small() };
        assert_ne!(
            a.arrivals().last().unwrap().arrival_s,
            b.arrivals().last().unwrap().arrival_s
        );
    }
}
