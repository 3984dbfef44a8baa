//! Adaptation actions and their audit log.
//!
//! When the execution monitor (Algorithm 2) finds the performance threshold
//! exceeded, "the skeleton takes action, e.g., feeding back to the
//! calibration phase and/or modifying the task scheduling according to the
//! inherent properties of the skeleton in hand".  Every such action is
//! recorded in an [`AdaptationLog`] so experiments can report how often and
//! why a run adapted.

use gridsim::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// One adaptation decision taken during execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdaptationAction {
    /// The monitor fed back into the calibration phase: the node pool was
    /// re-sampled and re-ranked.
    Recalibrated {
        /// Nodes chosen after the recalibration.
        new_chosen: Vec<NodeId>,
    },
    /// One node was dropped from the chosen set without a full recalibration
    /// because its recent times exceeded the demotion threshold.
    NodeDemoted {
        /// The demoted node.
        node: NodeId,
        /// Its recent mean per-work-unit time when demoted.
        recent_mean_time: f64,
    },
    /// A node was found down/revoked and its in-flight work re-queued.
    NodeLost {
        /// The lost node.
        node: NodeId,
        /// Number of tasks returned to the pending queue.
        requeued_tasks: usize,
    },
    /// A node was admitted to the pool while execution was already under
    /// way (dynamic membership: the network backend's mid-run joins).
    NodeJoined {
        /// The admitted node.
        node: NodeId,
    },
    /// A pipeline stage was remapped to a different node.
    StageRemapped {
        /// Index of the remapped stage.
        stage: usize,
        /// Node the stage ran on before.
        from: NodeId,
        /// Node the stage runs on now.
        to: NodeId,
    },
    /// A pipeline stage was replicated across more executors — the
    /// shared-memory realisation of a stage remap, where the legal move is
    /// adding a worker thread rather than migrating to a different node.
    StageReplicated {
        /// Index of the replicated stage.
        stage: usize,
        /// Worker count serving the stage after the replication.
        replicas: usize,
    },
    /// A pipeline stage was **live-migrated**: its queued items were
    /// checkpointed (serialized through the wire payload machinery) and the
    /// stage re-homed on a different worker, the old one stopping — the
    /// Cactus-Worm move, as opposed to [`StageReplicated`](Self::StageReplicated)'s
    /// "add a helper" move.
    StageMigrated {
        /// Index of the migrated stage.
        stage: usize,
        /// Worker the stage ran on before.
        from: NodeId,
        /// Worker the stage runs on now.
        to: NodeId,
        /// Queued items carried across in the checkpoint.
        checkpointed_items: usize,
    },
    /// An in-flight unit was speculatively duplicated on an idle worker
    /// near the tail (Time-Warp-style optimistic execution: the duplicate
    /// races the straggler, the first verified result wins).
    UnitSpeculated {
        /// The duplicated unit's id.
        unit: usize,
        /// The idle worker running the duplicate.
        on: NodeId,
    },
    /// A speculative duplicate delivered the winning (first) result; the
    /// straggler's copy is cancelled/discarded on arrival.
    SpeculationWon {
        /// The rescued unit's id.
        unit: usize,
        /// The worker whose duplicate won.
        on: NodeId,
    },
}

impl AdaptationAction {
    /// Short kind label used when aggregating logs.
    pub fn kind(&self) -> &'static str {
        match self {
            AdaptationAction::Recalibrated { .. } => "recalibrated",
            AdaptationAction::NodeDemoted { .. } => "node-demoted",
            AdaptationAction::NodeLost { .. } => "node-lost",
            AdaptationAction::NodeJoined { .. } => "node-joined",
            AdaptationAction::StageRemapped { .. } => "stage-remapped",
            AdaptationAction::StageReplicated { .. } => "stage-replicated",
            AdaptationAction::StageMigrated { .. } => "stage-migrated",
            AdaptationAction::UnitSpeculated { .. } => "unit-speculated",
            AdaptationAction::SpeculationWon { .. } => "speculation-won",
        }
    }
}

/// A timestamped adaptation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptationEvent {
    /// When the action was taken.
    pub time: SimTime,
    /// The action.
    pub action: AdaptationAction,
    /// The threshold *Z* in force when the action was taken.
    pub threshold: f64,
    /// The observation that triggered it (e.g. the minimum recent mean time).
    pub trigger_value: f64,
}

/// Chronological record of every adaptation taken during one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptationLog {
    events: Vec<AdaptationEvent>,
}

impl AdaptationLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn record(
        &mut self,
        time: SimTime,
        action: AdaptationAction,
        threshold: f64,
        trigger_value: f64,
    ) {
        self.events.push(AdaptationEvent {
            time,
            action,
            threshold,
            trigger_value,
        });
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[AdaptationEvent] {
        &self.events
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the run never adapted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of full recalibrations.
    pub fn recalibrations(&self) -> usize {
        self.count_kind("recalibrated")
    }

    /// Number of node demotions.
    pub fn demotions(&self) -> usize {
        self.count_kind("node-demoted")
    }

    /// Number of node losses handled.
    pub(crate) fn node_losses(&self) -> usize {
        self.count_kind("node-lost")
    }

    /// Number of mid-run node admissions (dynamic membership).
    pub fn node_joins(&self) -> usize {
        self.count_kind("node-joined")
    }

    /// Total tasks returned to the pending queue by node losses.
    pub(crate) fn requeued_tasks(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e.action {
                AdaptationAction::NodeLost { requeued_tasks, .. } => requeued_tasks,
                _ => 0,
            })
            .sum()
    }

    /// Number of pipeline stage remaps.
    pub fn stage_remaps(&self) -> usize {
        self.count_kind("stage-remapped")
    }

    /// Number of pipeline stage replications (the shared-memory remap).
    pub fn stage_replications(&self) -> usize {
        self.count_kind("stage-replicated")
    }

    /// Number of live stage migrations (checkpoint + re-home).
    pub fn stage_migrations(&self) -> usize {
        self.count_kind("stage-migrated")
    }

    /// Number of speculative duplicates launched.
    pub(crate) fn speculations(&self) -> usize {
        self.count_kind("unit-speculated")
    }

    /// Number of speculative duplicates that delivered the winning result.
    pub(crate) fn speculation_wins(&self) -> usize {
        self.count_kind("speculation-won")
    }

    fn count_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.action.kind() == kind)
            .count()
    }

    /// Render a compact text summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "adaptations: {} (recalibrations {}, demotions {}, losses {}, remaps {}, \
             replications {}, migrations {}, speculations {}, spec wins {})",
            self.len(),
            self.recalibrations(),
            self.demotions(),
            self.node_losses(),
            self.stage_remaps(),
            self.stage_replications(),
            self.stage_migrations(),
            self.speculations(),
            self.speculation_wins()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_counts_by_kind() {
        let mut log = AdaptationLog::new();
        assert!(log.is_empty());
        log.record(
            SimTime::new(1.0),
            AdaptationAction::Recalibrated {
                new_chosen: vec![NodeId(0)],
            },
            2.0,
            3.0,
        );
        log.record(
            SimTime::new(2.0),
            AdaptationAction::NodeDemoted {
                node: NodeId(3),
                recent_mean_time: 9.0,
            },
            2.0,
            9.0,
        );
        log.record(
            SimTime::new(3.0),
            AdaptationAction::NodeLost {
                node: NodeId(3),
                requeued_tasks: 4,
            },
            2.0,
            0.0,
        );
        log.record(
            SimTime::new(4.0),
            AdaptationAction::StageRemapped {
                stage: 1,
                from: NodeId(2),
                to: NodeId(5),
            },
            2.0,
            7.0,
        );
        assert_eq!(log.len(), 4);
        assert_eq!(log.recalibrations(), 1);
        assert_eq!(log.demotions(), 1);
        assert_eq!(log.node_losses(), 1);
        assert_eq!(log.requeued_tasks(), 4);
        assert_eq!(log.stage_remaps(), 1);
        assert!(log.summary().contains("adaptations: 4"));
        assert_eq!(log.events()[0].time, SimTime::new(1.0));
    }

    #[test]
    fn action_kinds_are_distinct() {
        let kinds = [
            AdaptationAction::Recalibrated { new_chosen: vec![] }.kind(),
            AdaptationAction::NodeDemoted {
                node: NodeId(0),
                recent_mean_time: 0.0,
            }
            .kind(),
            AdaptationAction::NodeLost {
                node: NodeId(0),
                requeued_tasks: 0,
            }
            .kind(),
            AdaptationAction::NodeJoined { node: NodeId(0) }.kind(),
            AdaptationAction::StageRemapped {
                stage: 0,
                from: NodeId(0),
                to: NodeId(1),
            }
            .kind(),
            AdaptationAction::StageReplicated {
                stage: 0,
                replicas: 2,
            }
            .kind(),
            AdaptationAction::StageMigrated {
                stage: 0,
                from: NodeId(0),
                to: NodeId(1),
                checkpointed_items: 3,
            }
            .kind(),
            AdaptationAction::UnitSpeculated {
                unit: 7,
                on: NodeId(1),
            }
            .kind(),
            AdaptationAction::SpeculationWon {
                unit: 7,
                on: NodeId(1),
            }
            .kind(),
        ];
        let unique: std::collections::HashSet<&str> = kinds.into_iter().collect();
        assert_eq!(unique.len(), 9);
    }

    #[test]
    fn speculation_and_migration_counters() {
        let mut log = AdaptationLog::new();
        log.record(
            SimTime::new(1.0),
            AdaptationAction::UnitSpeculated {
                unit: 9,
                on: NodeId(2),
            },
            2.0,
            1.0,
        );
        log.record(
            SimTime::new(1.5),
            AdaptationAction::SpeculationWon {
                unit: 9,
                on: NodeId(2),
            },
            2.0,
            1.0,
        );
        log.record(
            SimTime::new(2.0),
            AdaptationAction::StageMigrated {
                stage: 1,
                from: NodeId(0),
                to: NodeId(3),
                checkpointed_items: 5,
            },
            2.0,
            8.0,
        );
        assert_eq!(log.speculations(), 1);
        assert_eq!(log.speculation_wins(), 1);
        assert_eq!(log.stage_migrations(), 1);
        assert!(log.summary().contains("speculations 1"));
        assert!(log.summary().contains("migrations 1"));
    }
}
