//! Intrinsic skeleton properties.
//!
//! The paper's central claim is that "by identifying the intrinsic properties
//! of an algorithmic skeleton, which capture its essence and distinguish it
//! from the rest, the GRASP methodology enables its instrumentation and
//! indeed its adaptivity".  This module makes those properties a first-class
//! value: the calibration and adaptation layers consult them rather than
//! hard-coding per-skeleton behaviour, so new skeletons can be added by
//! describing their properties.

use serde::{Deserialize, Serialize};

/// Which structured pattern a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SkeletonKind {
    /// Independent tasks distributed from a master to workers.
    TaskFarm,
    /// A linear chain of stages each item flows through.
    Pipeline,
    /// A farm whose workers are themselves pipelines (composition).
    FarmOfPipelines,
    /// A pipeline whose stages are internally farmed (composition).
    PipelineOfFarms,
}

impl SkeletonKind {
    /// Short lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SkeletonKind::TaskFarm => "task-farm",
            SkeletonKind::Pipeline => "pipeline",
            SkeletonKind::FarmOfPipelines => "farm-of-pipelines",
            SkeletonKind::PipelineOfFarms => "pipeline-of-farms",
        }
    }
}

/// How work may be redistributed when the skeleton adapts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Rebalancing {
    /// Any pending task may be given to any worker (farm-like freedom).
    AnyTaskAnyWorker,
    /// Only whole stages can be moved between nodes (pipeline-like).
    StageRemapping,
}

/// The intrinsic, structural properties of a skeleton instance that GRASP
/// instruments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkeletonProperties {
    /// The pattern.
    pub(crate) kind: SkeletonKind,
    /// Whether tasks/items are mutually independent (true for a farm; items
    /// of a pipeline are independent but stages are ordered).
    pub independent_tasks: bool,
    /// Whether results must be delivered in submission order.
    pub ordered_results: bool,
    /// Whether the skeleton carries per-stage state that must move with a
    /// stage when it is remapped.
    pub(crate) stateful_stages: bool,
    /// How the adaptation layer may redistribute work.
    pub(crate) rebalancing: Rebalancing,
    /// Nominal computation-to-communication ratio of the instantiated
    /// skeleton (dedicated seconds of compute per second of communication on
    /// the reference link); fixed by the programming-phase parameterisation.
    pub comp_comm_ratio: f64,
}

impl SkeletonProperties {
    /// Properties of a task farm with the given computation/communication ratio.
    pub fn task_farm(comp_comm_ratio: f64) -> Self {
        SkeletonProperties {
            kind: SkeletonKind::TaskFarm,
            independent_tasks: true,
            ordered_results: false,
            stateful_stages: false,
            rebalancing: Rebalancing::AnyTaskAnyWorker,
            comp_comm_ratio: comp_comm_ratio.max(0.0),
        }
    }

    /// Properties of a pipeline with the given computation/communication ratio.
    pub(crate) fn pipeline(comp_comm_ratio: f64, stateful_stages: bool) -> Self {
        SkeletonProperties {
            kind: SkeletonKind::Pipeline,
            independent_tasks: false,
            ordered_results: true,
            stateful_stages,
            rebalancing: Rebalancing::StageRemapping,
            comp_comm_ratio: comp_comm_ratio.max(0.0),
        }
    }

    /// Compose the properties of a farm whose tasks are sub-skeletons
    /// (farm-of-pipelines and deeper nestings).
    ///
    /// The algebra propagates bottom-up from the children, each weighted by
    /// its share of the total work:
    /// * the **outer** structure dictates rebalancing — child instances are
    ///   mutually independent, so any instance may go to any worker
    ///   ([`Rebalancing::AnyTaskAnyWorker`]), whatever the children are;
    /// * results are unordered (a farm never promises ordering);
    /// * statefulness is inherited if *any* child carries stage state;
    /// * the computation/communication ratio is the work-weighted mean of
    ///   the children's ratios (the calibration rules see the blend the
    ///   master actually dispatches).
    ///
    /// A composition of plain farms collapses back to
    /// [`SkeletonKind::TaskFarm`]; anything else is a
    /// [`SkeletonKind::FarmOfPipelines`].
    pub(crate) fn compose_farm(children: &[(SkeletonProperties, f64)]) -> Self {
        let kind = if children
            .iter()
            .all(|(p, _)| p.kind == SkeletonKind::TaskFarm)
        {
            SkeletonKind::TaskFarm
        } else {
            SkeletonKind::FarmOfPipelines
        };
        SkeletonProperties {
            kind,
            independent_tasks: true,
            ordered_results: false,
            stateful_stages: children.iter().any(|(p, _)| p.stateful_stages),
            rebalancing: Rebalancing::AnyTaskAnyWorker,
            comp_comm_ratio: weighted_ratio(children),
        }
    }

    /// Compose the properties of a pipeline whose stages are sub-skeletons
    /// (pipeline-of-farms: stages may be internally farmed).
    ///
    /// The outer structure again dictates the rules: stages are ordered and
    /// may carry state, so adaptation is restricted to
    /// [`Rebalancing::StageRemapping`] even when a stage is internally a
    /// farm — the farm freedom applies *within* the stage, not across the
    /// chain.  The ratio is the work-weighted mean over the stages.  A
    /// composition with no farmed stage collapses back to
    /// [`SkeletonKind::Pipeline`].
    pub(crate) fn compose_pipeline(stages: &[(SkeletonProperties, f64)]) -> Self {
        let kind = if stages.iter().all(|(p, _)| p.kind == SkeletonKind::Pipeline) {
            SkeletonKind::Pipeline
        } else {
            SkeletonKind::PipelineOfFarms
        };
        SkeletonProperties {
            kind,
            independent_tasks: false,
            ordered_results: true,
            stateful_stages: stages.iter().any(|(p, _)| p.stateful_stages),
            rebalancing: Rebalancing::StageRemapping,
            comp_comm_ratio: weighted_ratio(stages),
        }
    }

    /// Is the workload dominated by communication (ratio below 1)?
    pub fn communication_bound(&self) -> bool {
        self.comp_comm_ratio < 1.0
    }

    /// A granularity hint used by adaptive chunking: coarse-grained jobs can
    /// be dispatched in larger chunks without hurting balance, fine-grained
    /// jobs should be dispatched in small chunks to amortise per-message cost
    /// only as far as necessary.
    pub fn suggested_chunking(&self, workers: usize) -> usize {
        if workers == 0 {
            return 1;
        }
        if self.comp_comm_ratio >= 10.0 {
            1
        } else if self.comp_comm_ratio >= 1.0 {
            2
        } else {
            // Communication-bound: batch aggressively.
            (4.0 / self.comp_comm_ratio.max(0.05)).ceil() as usize
        }
    }
}

/// Work-weighted mean of composed ratios; falls back to the unweighted mean
/// when the weights carry no information (all-zero work), and to a neutral
/// 1.0 for an empty composition.
fn weighted_ratio(parts: &[(SkeletonProperties, f64)]) -> f64 {
    if parts.is_empty() {
        return 1.0;
    }
    let total: f64 = parts.iter().map(|(_, w)| w.max(0.0)).sum();
    if total > 0.0 {
        parts
            .iter()
            .map(|(p, w)| p.comp_comm_ratio * w.max(0.0))
            .sum::<f64>()
            / total
    } else {
        parts.iter().map(|(p, _)| p.comp_comm_ratio).sum::<f64>() / parts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(SkeletonKind::TaskFarm.name(), "task-farm");
        assert_eq!(SkeletonKind::Pipeline.name(), "pipeline");
        assert_eq!(SkeletonKind::FarmOfPipelines.name(), "farm-of-pipelines");
        assert_eq!(SkeletonKind::PipelineOfFarms.name(), "pipeline-of-farms");
    }

    #[test]
    fn farm_properties_allow_free_rebalancing() {
        let p = SkeletonProperties::task_farm(5.0);
        assert!(p.independent_tasks);
        assert!(!p.ordered_results);
        assert_eq!(p.rebalancing, Rebalancing::AnyTaskAnyWorker);
        assert!(!p.communication_bound());
    }

    #[test]
    fn pipeline_properties_require_stage_remapping() {
        let p = SkeletonProperties::pipeline(0.5, true);
        assert!(!p.independent_tasks);
        assert!(p.ordered_results);
        assert!(p.stateful_stages);
        assert_eq!(p.rebalancing, Rebalancing::StageRemapping);
        assert!(p.communication_bound());
    }

    #[test]
    fn chunking_grows_as_ratio_shrinks() {
        let coarse = SkeletonProperties::task_farm(50.0).suggested_chunking(8);
        let medium = SkeletonProperties::task_farm(2.0).suggested_chunking(8);
        let fine = SkeletonProperties::task_farm(0.1).suggested_chunking(8);
        assert!(coarse <= medium && medium <= fine);
        assert_eq!(coarse, 1);
        assert!(fine >= 4);
        assert_eq!(SkeletonProperties::task_farm(1.0).suggested_chunking(0), 1);
    }

    #[test]
    fn negative_ratio_is_clamped() {
        assert_eq!(SkeletonProperties::task_farm(-3.0).comp_comm_ratio, 0.0);
    }

    #[test]
    fn farm_composition_keeps_outer_farm_freedom() {
        let pipe = SkeletonProperties::pipeline(0.5, true);
        let farm = SkeletonProperties::task_farm(8.0);
        let composed = SkeletonProperties::compose_farm(&[(pipe, 30.0), (farm, 10.0)]);
        assert_eq!(composed.kind, SkeletonKind::FarmOfPipelines);
        assert!(composed.independent_tasks);
        assert!(!composed.ordered_results);
        assert!(
            composed.stateful_stages,
            "inherited from the pipeline child"
        );
        assert_eq!(composed.rebalancing, Rebalancing::AnyTaskAnyWorker);
        // Work-weighted: (0.5*30 + 8*10) / 40 = 2.375.
        assert!((composed.comp_comm_ratio - 2.375).abs() < 1e-12);
    }

    #[test]
    fn pipeline_composition_keeps_stage_remapping() {
        let plain = SkeletonProperties::pipeline(2.0, false);
        let farmed = SkeletonProperties::task_farm(4.0);
        let composed = SkeletonProperties::compose_pipeline(&[(plain, 10.0), (farmed, 30.0)]);
        assert_eq!(composed.kind, SkeletonKind::PipelineOfFarms);
        assert!(!composed.independent_tasks);
        assert!(composed.ordered_results);
        assert_eq!(composed.rebalancing, Rebalancing::StageRemapping);
        assert!((composed.comp_comm_ratio - 3.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_compositions_collapse_and_stay_finite() {
        let farms = [
            (SkeletonProperties::task_farm(1.0), 0.0),
            (SkeletonProperties::task_farm(3.0), 0.0),
        ];
        let composed = SkeletonProperties::compose_farm(&farms);
        assert_eq!(composed.kind, SkeletonKind::TaskFarm);
        assert!(
            (composed.comp_comm_ratio - 2.0).abs() < 1e-12,
            "unweighted fallback"
        );
        assert_eq!(SkeletonProperties::compose_farm(&[]).comp_comm_ratio, 1.0);
        let pipes = [(SkeletonProperties::pipeline(1.5, false), 5.0)];
        assert_eq!(
            SkeletonProperties::compose_pipeline(&pipes).kind,
            SkeletonKind::Pipeline
        );
    }
}
