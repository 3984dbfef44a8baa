//! Calibration — Algorithm 1 of the paper.
//!
//! > *"The calibration is an autonomic stage, which executes a sample of the
//! > data on every allocated node, extrapolating the node performance in
//! > order to select the fittest nodes for the given computation under the
//! > current resource conditions. … Nodes are ranked by extrapolating their
//! > performance based on the execution times only (the faster a node the
//! > fitter it is), or on statistical functions, such as univariate and
//! > multivariate linear regression involving execution time, processor
//! > load, and bandwidth utilisation."*
//!
//! The calibrator takes the candidate node pool and the *real* task list,
//! runs a small sample of tasks on every node concurrently, observes CPU load
//! and bandwidth through the monitoring registry, and produces a
//! [`CalibrationReport`]: the ranked table *T*, the `Chosen` set of fittest
//! nodes, per-node weights used by adaptive chunking, and the task outcomes
//! produced along the way (calibration work **contributes to the overall
//! job**, exactly as the paper states).

use crate::config::CalibrationConfig;
use crate::error::GraspError;
use crate::task::{TaskOutcome, TaskSpec};
use gridmon::MonitorRegistry;
use gridsim::{Grid, NodeId, SimTime};
use gridstats::{mean, multivariate_regression, reject_outliers};
use serde::{Deserialize, Serialize};

/// How node performance is extrapolated from the calibration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CalibrationMode {
    /// Rank by raw mean execution time ("the faster a node the fitter it is").
    TimeOnly,
    /// Univariate statistical calibration: remove the pool-wide linear effect
    /// of CPU load on execution time before ranking, so a node that was
    /// transiently busy during sampling is not permanently misjudged.
    Univariate,
    /// Multivariate statistical calibration: remove the linear effects of
    /// both CPU load and bandwidth utilisation.
    Multivariate,
}

impl CalibrationMode {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CalibrationMode::TimeOnly => "time-only",
            CalibrationMode::Univariate => "univariate",
            CalibrationMode::Multivariate => "multivariate",
        }
    }
}

/// The calibration measurements for one node (one row of the table *T*).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCalibration {
    /// The node.
    pub node: NodeId,
    /// Observed times of the node's samples, in seconds per work unit
    /// (normalised by each sample task's `work` so irregular task sizes do
    /// not skew the ranking).
    pub(crate) sample_times: Vec<f64>,
    /// Mean observed per-work-unit time after outlier rejection.
    pub(crate) mean_time: f64,
    /// Extrapolated ("adjusted") per-work-unit time used for ranking.
    pub adjusted_time: f64,
    /// External CPU load observed on the node during calibration.
    pub(crate) cpu_load: f64,
    /// Bandwidth availability towards the master observed during calibration.
    pub(crate) bandwidth_availability: f64,
    /// Relative speed weight (pool mean adjusted time / this node's adjusted
    /// time); 1.0 means average, 2.0 means twice as fast as average.
    pub(crate) weight: f64,
    /// Whether the node was up and produced at least one sample.
    pub(crate) usable: bool,
}

/// The result of running Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Extrapolation mode that produced this report.
    pub mode: CalibrationMode,
    /// Per-node table *T*, in candidate order.
    pub table: Vec<NodeCalibration>,
    /// Every usable node, fittest first.
    pub ranking: Vec<NodeId>,
    /// The selected fittest nodes ("Chosen"), fittest first.
    pub chosen: Vec<NodeId>,
    /// Virtual time consumed by the calibration phase.
    pub duration: SimTime,
    /// How many real tasks were consumed as calibration samples.
    pub tasks_consumed: usize,
    /// Outcomes of those tasks (they count towards the job's results).
    pub(crate) outcomes: Vec<TaskOutcome>,
}

impl CalibrationReport {
    /// Per-work-unit reference times of the chosen nodes, used to derive
    /// the performance threshold *Z*.
    pub(crate) fn chosen_reference_times(&self) -> Vec<f64> {
        self.table
            .iter()
            .filter(|c| self.chosen.contains(&c.node))
            .map(|c| c.adjusted_time)
            .collect()
    }

    /// Render the table as an aligned text report (used by examples and the
    /// experiment binaries).
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "calibration mode={} duration={:.3}s tasks_consumed={}\n",
            self.mode.name(),
            self.duration.as_secs(),
            self.tasks_consumed
        ));
        out.push_str("node      mean_t    adj_t     cpu_load  bw_avail  weight  chosen\n");
        for row in &self.table {
            out.push_str(&format!(
                "{:<9} {:<9.4} {:<9.4} {:<9.3} {:<9.3} {:<7.3} {}\n",
                row.node.to_string(),
                row.mean_time,
                row.adjusted_time,
                row.cpu_load,
                row.bandwidth_availability,
                row.weight,
                if self.chosen.contains(&row.node) {
                    "*"
                } else {
                    ""
                }
            ));
        }
        out
    }
}

/// Runs Algorithm 1 against a grid.
#[derive(Debug, Clone)]
pub struct Calibrator {
    config: CalibrationConfig,
}

impl Calibrator {
    /// A calibrator with the given configuration.
    pub fn new(config: CalibrationConfig) -> Self {
        Calibrator { config }
    }

    /// Execute the calibration phase.
    ///
    /// * `grid` — the (simulated) grid.
    /// * `registry` — monitoring registry; every up candidate is sampled
    ///   through it once, at `start`, and the statistical modes read the
    ///   observation that comes back.
    /// * `candidates` — the allocated node pool *P*.
    /// * `tasks` — the job's task list; the first few tasks are consumed as
    ///   calibration samples and their outcomes are returned in the report.
    /// * `master` — the root node data is shipped from / results shipped to.
    /// * `start` — virtual time at which calibration begins.
    pub fn calibrate(
        &self,
        grid: &Grid,
        registry: &mut MonitorRegistry,
        candidates: &[NodeId],
        tasks: &[TaskSpec],
        master: NodeId,
        start: SimTime,
    ) -> Result<CalibrationReport, GraspError> {
        if candidates.is_empty() {
            return Err(GraspError::NoUsableNodes);
        }
        let up_candidates: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&n| grid.is_up(n, start))
            .collect();
        if up_candidates.is_empty() {
            return Err(GraspError::CalibrationFailed(
                "every candidate node is down".to_string(),
            ));
        }

        // When sampling is disabled (samples_per_node == 0) we still build a
        // report, ranked by nominal speed, so baselines have weights.
        if self.config.samples_per_node == 0 || tasks.is_empty() {
            return Ok(self.nominal_report(grid, &up_candidates, start));
        }

        // ------------------------------------------------------------------
        // "Execute F over P nodes concurrently; Set t ← execution times(F)"
        // ------------------------------------------------------------------
        let samples = self.config.samples_per_node;
        let mut outcomes = Vec::new();
        let mut table = Vec::with_capacity(candidates.len());
        let mut task_cursor = 0usize;
        let mut calibration_end = start;
        let mean_work = mean(&tasks.iter().map(|t| t.work).collect::<Vec<_>>()).unwrap_or(1.0);
        let mean_in = tasks.iter().map(|t| t.input_bytes).sum::<u64>() / tasks.len() as u64;
        let mean_out = tasks.iter().map(|t| t.output_bytes).sum::<u64>() / tasks.len() as u64;
        // The job's unit system is decided once: seconds per work unit when
        // any task carries real work, raw seconds for an all-zero-work
        // (pure-transfer) job.  Mixing the two across nodes would make the
        // ranking compare incomparable values.
        let job_has_work = tasks.iter().any(|t| t.work > 0.0);

        for &node in candidates {
            if !grid.is_up(node, start) {
                table.push(NodeCalibration {
                    node,
                    sample_times: Vec::new(),
                    mean_time: f64::INFINITY,
                    adjusted_time: f64::INFINITY,
                    cpu_load: 1.0,
                    bandwidth_availability: 0.0,
                    weight: 0.0,
                    usable: false,
                });
                continue;
            }
            // Observe the node's resource state at the start of calibration.
            let obs = registry.observe(grid, node, start);

            let mut node_now = start;
            let mut sample_times = Vec::with_capacity(samples);
            for _ in 0..samples {
                // Draw the next real task if any remain, otherwise probe with
                // a synthetic task of average shape (not recorded as an outcome).
                let (spec, is_real) = if task_cursor < tasks.len() {
                    let s = tasks[task_cursor];
                    task_cursor += 1;
                    (s, true)
                } else {
                    (
                        TaskSpec::new(usize::MAX, mean_work, mean_in, mean_out),
                        false,
                    )
                };
                let dispatched = node_now;
                let after_in = match grid.transfer(master, node, spec.input_bytes, node_now) {
                    Some(t) => node_now + t.duration,
                    None => node_now,
                };
                let after_compute = match grid.execute(node, spec.work, after_in) {
                    Some(t) => t,
                    None => {
                        // The node died mid-sample; mark it unusable.
                        sample_times.clear();
                        break;
                    }
                };
                let done = match grid.transfer(node, master, spec.output_bytes, after_compute) {
                    Some(t) => after_compute + t.duration,
                    None => after_compute,
                };
                // Recorded as (work, seconds); normalised per work unit
                // below so irregular task sizes do not masquerade as node
                // speed differences (the nominal report's 1/speed entries
                // are in the same seconds-per-work-unit unit).
                sample_times.push((spec.work, (done - dispatched).as_secs()));
                node_now = done;
                if is_real {
                    outcomes.push(TaskOutcome {
                        task: spec.id,
                        node,
                        work: spec.work,
                        dispatched,
                        completed: done,
                        during_calibration: true,
                    });
                }
            }
            calibration_end = calibration_end.max(node_now);

            let usable = !sample_times.is_empty();
            // In a job with real work, zero-work (pure-communication)
            // samples carry no per-work-unit signal and are dropped; a node
            // that drew *only* such samples falls back to its nominal speed
            // (the same seconds-per-work-unit unit), never to raw seconds —
            // raw seconds are used only when the whole job is zero-work, so
            // every node is in the same unit either way.
            let normalized: Vec<f64> = if job_has_work {
                let with_work: Vec<f64> = sample_times
                    .iter()
                    .filter(|&&(w, _)| w > 0.0)
                    .map(|&(w, s)| crate::task::normalize_time(w, s))
                    .collect();
                if with_work.is_empty() && usable {
                    vec![
                        1.0 / grid
                            .node(node)
                            .map(|s| s.base_speed)
                            .unwrap_or(1.0)
                            .max(1e-9),
                    ]
                } else {
                    with_work
                }
            } else {
                sample_times.iter().map(|&(_, s)| s).collect()
            };
            let sample_times: Vec<f64> = normalized;
            let filtered = reject_outliers(&sample_times, self.config.outlier_policy);
            let mean_time = mean(&filtered).unwrap_or(f64::INFINITY);
            table.push(NodeCalibration {
                node,
                sample_times,
                mean_time,
                adjusted_time: mean_time, // adjusted below
                cpu_load: obs.cpu_load,
                bandwidth_availability: obs.bandwidth_availability,
                weight: 0.0,
                usable,
            });
        }

        // ------------------------------------------------------------------
        // "if Statistical Calibration then Collect processor and bandwidth
        //  values; Adjust T statistically"
        // ------------------------------------------------------------------
        self.adjust_statistically(&mut table);

        // ------------------------------------------------------------------
        // "Rank P by extrapolating performance based on T; Select Chosen"
        // ------------------------------------------------------------------
        let (ranking, chosen) = self.rank_and_select(&table);
        if chosen.is_empty() {
            return Err(GraspError::CalibrationFailed(
                "no node produced a usable calibration sample".to_string(),
            ));
        }
        Self::assign_weights(&mut table, &chosen);

        Ok(CalibrationReport {
            mode: self.config.mode,
            table,
            ranking,
            chosen,
            duration: calibration_end - start,
            tasks_consumed: task_cursor,
            outcomes,
        })
    }

    /// Build a report from nominal node speeds without running any samples
    /// (used by non-calibrating baselines).
    fn nominal_report(&self, grid: &Grid, up: &[NodeId], _start: SimTime) -> CalibrationReport {
        let mut table: Vec<NodeCalibration> = up
            .iter()
            .map(|&node| {
                let speed = grid.node(node).map(|n| n.base_speed).unwrap_or(1.0);
                let t = 1.0 / speed;
                NodeCalibration {
                    node,
                    sample_times: Vec::new(),
                    mean_time: t,
                    adjusted_time: t,
                    cpu_load: 0.0,
                    bandwidth_availability: 1.0,
                    weight: 0.0,
                    usable: true,
                }
            })
            .collect();
        let (ranking, chosen) = self.rank_and_select(&table);
        Self::assign_weights(&mut table, &chosen);
        CalibrationReport {
            mode: self.config.mode,
            table,
            ranking,
            chosen,
            duration: SimTime::ZERO,
            tasks_consumed: 0,
            outcomes: Vec::new(),
        }
    }

    /// Remove the pool-wide linear effect of resource conditions from the
    /// observed times (univariate: CPU load; multivariate: CPU load and
    /// bandwidth utilisation).  Falls back to raw times when the regression
    /// is degenerate.
    fn adjust_statistically(&self, table: &mut [NodeCalibration]) {
        if matches!(self.config.mode, CalibrationMode::TimeOnly) {
            return;
        }
        let usable: Vec<&NodeCalibration> = table
            .iter()
            .filter(|c| c.usable && c.mean_time.is_finite())
            .collect();
        if usable.len() < 3 {
            return;
        }
        let y: Vec<f64> = usable.iter().map(|c| c.mean_time).collect();
        // Candidate predictors: CPU load, and (for multivariate) bandwidth
        // utilisation.  Predictors that barely vary across the pool carry no
        // information and would make the normal equations singular, so they
        // are dropped before fitting.
        let predictor_of = |c: &NodeCalibration, which: usize| -> f64 {
            match which {
                0 => c.cpu_load,
                _ => 1.0 - c.bandwidth_availability,
            }
        };
        let candidate_predictors: &[usize] = match self.config.mode {
            CalibrationMode::Univariate => &[0],
            CalibrationMode::Multivariate => &[0, 1],
            CalibrationMode::TimeOnly => &[],
        };
        let kept: Vec<usize> = candidate_predictors
            .iter()
            .copied()
            .filter(|&which| {
                let col: Vec<f64> = usable.iter().map(|c| predictor_of(c, which)).collect();
                gridstats::sample_variance(&col).unwrap_or(0.0) > 1e-9
            })
            .collect();
        if kept.is_empty() {
            return;
        }
        let rows: Vec<Vec<f64>> = usable
            .iter()
            .map(|c| kept.iter().map(|&which| predictor_of(c, which)).collect())
            .collect();
        let fit = match multivariate_regression(&rows, &y) {
            Ok(f) => f,
            Err(_) => return,
        };
        for c in table.iter_mut() {
            if !c.usable || !c.mean_time.is_finite() {
                continue;
            }
            let effect: f64 = kept
                .iter()
                .enumerate()
                .map(|(i, &which)| fit.coefficients[i + 1] * predictor_of(c, which))
                .sum();
            // Subtract only a performance-degrading effect; a negative
            // "effect" would mean load made the node faster, which is noise.
            let adjusted = c.mean_time - effect.max(0.0);
            c.adjusted_time = adjusted.max(c.mean_time * 0.05);
        }
    }

    /// Rank usable nodes by adjusted time and select the fittest fraction.
    fn rank_and_select(&self, table: &[NodeCalibration]) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut usable: Vec<(&NodeCalibration, f64)> = table
            .iter()
            .filter(|c| c.usable && c.adjusted_time.is_finite())
            .map(|c| (c, c.adjusted_time))
            .collect();
        usable.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let ranking: Vec<NodeId> = usable.iter().map(|(c, _)| c.node).collect();
        if ranking.is_empty() {
            return (ranking, Vec::new());
        }
        let frac = self.config.selection_fraction.clamp(1e-6, 1.0);
        let want = ((ranking.len() as f64) * frac).ceil() as usize;
        let count = want.max(self.config.min_nodes.max(1)).min(ranking.len());
        let chosen = ranking[..count].to_vec();
        (ranking, chosen)
    }

    /// Weight chosen nodes by relative speed; unchosen/unusable nodes get 0.
    fn assign_weights(table: &mut [NodeCalibration], chosen: &[NodeId]) {
        let chosen_times: Vec<f64> = table
            .iter()
            .filter(|c| chosen.contains(&c.node) && c.adjusted_time.is_finite())
            .map(|c| c.adjusted_time)
            .collect();
        let pool_mean = mean(&chosen_times).unwrap_or(1.0);
        for c in table.iter_mut() {
            c.weight = if chosen.contains(&c.node) && c.adjusted_time > 0.0 {
                pool_mean / c.adjusted_time
            } else {
                0.0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalibrationConfig;
    use gridsim::{ConstantLoad, FaultPlan, GridBuilder, TopologyBuilder};
    use gridstats::spearman_rho;

    fn registry() -> MonitorRegistry {
        MonitorRegistry::new(NodeId(0), 64)
    }

    fn cfg(mode: CalibrationMode) -> CalibrationConfig {
        CalibrationConfig {
            mode,
            samples_per_node: 2,
            selection_fraction: 0.5,
            min_nodes: 1,
            ..CalibrationConfig::default()
        }
    }

    fn tasks(n: usize) -> Vec<TaskSpec> {
        TaskSpec::uniform(n, 100.0, 64 * 1024, 64 * 1024)
    }

    #[test]
    fn time_only_ranking_matches_true_speed_on_idle_grid() {
        // Speeds 10, 20, 40, 80: ranking should be n3, n2, n1, n0.
        let mut b = gridsim::TopologyBuilder::new();
        let s = b.add_site("c", gridsim::LinkSpec::lan());
        for (i, speed) in [10.0, 20.0, 40.0, 80.0].iter().enumerate() {
            b.add_node(s, format!("n{i}"), *speed);
        }
        let grid = Grid::dedicated(b.build());
        let cal = Calibrator::new(cfg(CalibrationMode::TimeOnly));
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &tasks(64),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(report.ranking[0], NodeId(3));
        assert_eq!(report.ranking[3], NodeId(0));
        // 50 % selection of 4 nodes → the 2 fastest.
        assert_eq!(report.chosen, vec![NodeId(3), NodeId(2)]);
        // Weights: the fastest chosen node is above-average.
        let weight_of = |n| report.table.iter().find(|c| c.node == n).unwrap().weight;
        assert!(weight_of(NodeId(3)) > 1.0);
        assert_eq!(weight_of(NodeId(0)), 0.0);
        assert!(report.duration.as_secs() > 0.0);
        assert_eq!(report.tasks_consumed, 8);
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.outcomes.iter().all(|o| o.during_calibration));
        assert!(report
            .to_table_string()
            .contains("calibration mode=time-only"));
    }

    #[test]
    fn calibration_consumes_tasks_from_the_front() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(4, 50.0));
        let cal = Calibrator::new(cfg(CalibrationMode::TimeOnly));
        let ts = tasks(100);
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &ts,
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        let ids: Vec<usize> = report.outcomes.iter().map(|o| o.task).collect();
        assert_eq!(report.tasks_consumed, 8);
        assert!(
            ids.iter().all(|&id| id < 8),
            "only the first 8 tasks are consumed"
        );
    }

    #[test]
    fn statistical_calibration_recovers_intrinsic_speed_under_load() {
        // All nodes have identical hardware, but half are externally loaded
        // during calibration.  Time-only calibration misranks them as slow;
        // univariate calibration should largely discount the transient load.
        let topo = TopologyBuilder::uniform_cluster(8, 40.0);
        let node_ids: Vec<NodeId> = topo.node_ids();
        let mut builder = GridBuilder::new(topo);
        for &n in &node_ids {
            let load = if n.index() % 2 == 0 { 0.0 } else { 0.6 };
            builder = builder.node_load(n, ConstantLoad::new(load));
        }
        let grid = builder.build();

        let time_only = Calibrator::new(cfg(CalibrationMode::TimeOnly))
            .calibrate(
                &grid,
                &mut registry(),
                &node_ids,
                &tasks(64),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        let univariate = Calibrator::new(cfg(CalibrationMode::Univariate))
            .calibrate(
                &grid,
                &mut registry(),
                &node_ids,
                &tasks(64),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();

        // Time-only: loaded nodes have ~2.5x the time of idle nodes.
        let spread = |r: &CalibrationReport| {
            let loaded: Vec<f64> = r
                .table
                .iter()
                .filter(|c| c.node.index() % 2 == 1)
                .map(|c| c.adjusted_time)
                .collect();
            let idle: Vec<f64> = r
                .table
                .iter()
                .filter(|c| c.node.index() % 2 == 0)
                .map(|c| c.adjusted_time)
                .collect();
            mean(&loaded).unwrap() / mean(&idle).unwrap()
        };
        assert!(spread(&time_only) > 2.0);
        assert!(
            spread(&univariate) < spread(&time_only) * 0.6,
            "statistical adjustment should shrink the load-induced spread: {} vs {}",
            spread(&univariate),
            spread(&time_only)
        );
    }

    #[test]
    fn multivariate_calibration_also_discounts_bandwidth() {
        // Two sites; the remote site's link is congested, inflating its
        // transfer times.  Multivariate adjustment should bring the remote
        // nodes' adjusted times closer to the local ones than raw times are.
        let topo = TopologyBuilder::multi_site(&[(4, 40.0), (4, 40.0)]);
        let s0 = topo.sites()[0].id;
        let s1 = topo.sites()[1].id;
        let node_ids = topo.node_ids();
        let grid = GridBuilder::new(topo)
            .link_load(s0, s1, ConstantLoad::new(0.8))
            .build();
        let heavy_tasks: Vec<TaskSpec> = TaskSpec::uniform(64, 20.0, 4 * 1024 * 1024, 1024 * 1024);

        let raw = Calibrator::new(cfg(CalibrationMode::TimeOnly))
            .calibrate(
                &grid,
                &mut registry(),
                &node_ids,
                &heavy_tasks,
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        let multi = Calibrator::new(cfg(CalibrationMode::Multivariate))
            .calibrate(
                &grid,
                &mut registry(),
                &node_ids,
                &heavy_tasks,
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        let remote_ratio = |r: &CalibrationReport| {
            let local: Vec<f64> = r.table[..4].iter().map(|c| c.adjusted_time).collect();
            let remote: Vec<f64> = r.table[4..].iter().map(|c| c.adjusted_time).collect();
            mean(&remote).unwrap() / mean(&local).unwrap()
        };
        assert!(remote_ratio(&raw) > 1.5);
        assert!(remote_ratio(&multi) < remote_ratio(&raw));
    }

    #[test]
    fn ranking_correlates_with_ground_truth_speed() {
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(16, 10.0, 100.0, 3));
        let node_ids = grid.node_ids();
        let cal = Calibrator::new(CalibrationConfig {
            samples_per_node: 1,
            selection_fraction: 1.0,
            ..CalibrationConfig::default()
        });
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &node_ids,
                &tasks(64),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        // Spearman correlation between adjusted time and 1/speed should be ~1.
        let adj: Vec<f64> = report.table.iter().map(|c| c.adjusted_time).collect();
        let inv_speed: Vec<f64> = node_ids
            .iter()
            .map(|&n| 1.0 / grid.node(n).unwrap().base_speed)
            .collect();
        let rho = spearman_rho(&adj, &inv_speed).unwrap();
        assert!(rho > 0.95, "rho = {rho}");
    }

    #[test]
    fn down_nodes_are_excluded_from_the_chosen_set() {
        let topo = TopologyBuilder::uniform_cluster(4, 50.0);
        let faults = FaultPlan::none().with_outage(NodeId(1), SimTime::ZERO, SimTime::new(1e9));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let cal = Calibrator::new(CalibrationConfig {
            samples_per_node: 1,
            selection_fraction: 1.0,
            ..CalibrationConfig::default()
        });
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &tasks(16),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(!report.chosen.contains(&NodeId(1)));
        assert_eq!(report.chosen.len(), 3);
        let down_row = report.table.iter().find(|c| c.node == NodeId(1)).unwrap();
        assert!(!down_row.usable);
        assert_eq!(down_row.weight, 0.0);
    }

    #[test]
    fn all_nodes_down_is_an_error() {
        let topo = TopologyBuilder::uniform_cluster(2, 50.0);
        let faults = FaultPlan::none()
            .with_outage(NodeId(0), SimTime::ZERO, SimTime::new(1e9))
            .with_outage(NodeId(1), SimTime::ZERO, SimTime::new(1e9));
        let grid = GridBuilder::new(topo).faults(faults).build();
        let cal = Calibrator::new(CalibrationConfig::default());
        let err = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &tasks(4),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, GraspError::CalibrationFailed(_)));
    }

    #[test]
    fn empty_candidate_pool_is_an_error() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(2, 50.0));
        let cal = Calibrator::new(CalibrationConfig::default());
        assert!(matches!(
            cal.calibrate(
                &grid,
                &mut registry(),
                &[],
                &tasks(4),
                NodeId(0),
                SimTime::ZERO
            ),
            Err(GraspError::NoUsableNodes)
        ));
    }

    #[test]
    fn zero_samples_yields_nominal_report() {
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(8, 10.0, 80.0, 1));
        let cal = Calibrator::new(CalibrationConfig {
            samples_per_node: 0,
            selection_fraction: 1.0,
            ..CalibrationConfig::default()
        });
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &tasks(16),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(report.tasks_consumed, 0);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.duration, SimTime::ZERO);
        assert_eq!(report.chosen.len(), 8);
        // Still ranked by (nominal) speed.
        let fastest = report.ranking[0];
        let slowest = *report.ranking.last().unwrap();
        assert!(grid.node(fastest).unwrap().base_speed >= grid.node(slowest).unwrap().base_speed);
    }

    #[test]
    fn min_nodes_overrides_small_fractions() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(8, 50.0));
        let cal = Calibrator::new(CalibrationConfig {
            samples_per_node: 1,
            selection_fraction: 0.01,
            min_nodes: 4,
            ..CalibrationConfig::default()
        });
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &tasks(32),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(report.chosen.len(), 4);
    }

    #[test]
    fn more_tasks_than_available_uses_synthetic_probes() {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(4, 50.0));
        let cal = Calibrator::new(CalibrationConfig {
            samples_per_node: 3,
            selection_fraction: 1.0,
            ..CalibrationConfig::default()
        });
        // Only 4 tasks but 4 nodes × 3 samples wanted.
        let report = cal
            .calibrate(
                &grid,
                &mut registry(),
                &grid.node_ids(),
                &tasks(4),
                NodeId(0),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(report.tasks_consumed, 4);
        assert_eq!(
            report.outcomes.len(),
            4,
            "synthetic probes are not job outcomes"
        );
        assert_eq!(report.chosen.len(), 4);
    }
}
