//! Golden regression of one seeded simulated-grid farm run.
//!
//! The simulation is deterministic, so a run on a fixed grid must reproduce
//! the same virtual makespan bit for bit, the same per-node task counts, the
//! same fault-tolerance accounting and the same sequence of adaptation
//! actions.  The values below were recorded from the farm as it stood before
//! its per-unit grid sampling was dropped; any change to the simulator, the
//! sim farm or the adaptation engine that moves one of them is a behaviour
//! change, not a refactor.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::gridsim::{
    FaultPlan, Grid, GridBuilder, NodeId, SimTime, SpikeLoad, TopologyBuilder,
};

const NODES: usize = 96;
const UNITS: usize = 20_000;

/// Virtual makespan, as `f64` bits (64.80339873644874 s).
const GOLDEN_MAKESPAN_BITS: u64 = 0x4050_336a_e288_ac7c;

/// Tasks completed per node, calibration samples included.
#[rustfmt::skip]
const GOLDEN_PER_NODE: [usize; NODES] = [
    247, 168, 166, 93, 221, 327, 375, 245, 124, 206, 113, 287,
    250, 187, 198, 344, 186, 69, 356, 217, 286, 235, 231, 172,
    97, 199, 98, 241, 177, 220, 278, 121, 289, 231, 265, 288,
    126, 155, 103, 97, 175, 144, 315, 280, 131, 160, 161, 249,
    182, 175, 252, 141, 155, 126, 274, 342, 99, 301, 113, 41,
    324, 181, 185, 377, 221, 117, 132, 312, 155, 203, 203, 370,
    173, 54, 184, 299, 296, 140, 148, 196, 43, 155, 264, 281,
    349, 367, 347, 102, 216, 151, 146, 95, 342, 285, 148, 335,
];

const GOLDEN_REQUEUED: usize = 37;
const GOLDEN_NODES_LOST: usize = 2;

/// The adaptation log, as rendered by [`action_sequence`]: the two permanent
/// revocations, the demotions the two load spikes provoke, and the one
/// pool-wide recalibration.
#[rustfmt::skip]
const GOLDEN_ACTIONS: [&str; 39] = [
    "node-lost:73:8", "node-lost:90:29", "node-demoted:39", "node-demoted:91", "node-demoted:1",
    "node-demoted:2", "node-demoted:8", "node-demoted:9", "node-demoted:14", "node-demoted:16",
    "node-demoted:23", "node-demoted:25", "node-demoted:26", "node-demoted:36", "node-demoted:37",
    "node-demoted:40", "node-demoted:41", "node-demoted:44", "node-demoted:46", "node-demoted:48",
    "node-demoted:51", "node-demoted:53", "node-demoted:56", "node-demoted:58", "node-demoted:61",
    "node-demoted:65", "node-demoted:68", "node-demoted:69", "node-demoted:70", "node-demoted:72",
    "node-demoted:74", "node-demoted:77", "node-demoted:78", "node-demoted:81", "node-demoted:89",
    "recalibrated:94", "node-demoted:17", "node-demoted:59", "node-demoted:80",
];

/// 96 heterogeneous nodes.  Every seventh is 90 % loaded from t = 12 s; all
/// the others go to 70 % at t = 28 s (a pool-wide degradation), a third of
/// them from a background load before that; six are revoked, two for good.
fn golden_grid() -> Grid {
    let topo = TopologyBuilder::heterogeneous_cluster(NODES, 20.0, 80.0, 2_024);
    let ids = topo.node_ids();
    let mut b = GridBuilder::new(topo).quantum(0.25);
    for &n in &ids {
        let i = n.index();
        if i % 7 == 3 {
            b = b.node_load(
                n,
                SpikeLoad::new(0.05, 0.9, SimTime::new(12.0), SimTime::new(1e9)),
            );
        } else {
            let background = if i % 3 == 1 {
                0.1 * (i % 5) as f64
            } else {
                0.0
            };
            b = b.node_load(
                n,
                SpikeLoad::new(background, 0.7, SimTime::new(28.0), SimTime::new(1e9)),
            );
        }
    }
    let faults = FaultPlan::none()
        .with_outage(NodeId(11), SimTime::new(4.0), SimTime::new(9.0))
        .with_outage(NodeId(29), SimTime::new(6.5), SimTime::new(18.0))
        .with_outage(NodeId(47), SimTime::new(10.0), SimTime::new(14.0))
        .with_outage(NodeId(62), SimTime::new(15.0), SimTime::new(21.0))
        .revoked_from(NodeId(73), SimTime::new(8.0))
        .revoked_from(NodeId(90), SimTime::new(17.5));
    b.faults(faults).build()
}

/// One line per adaptation action: its kind and the node it names.
fn action_sequence(log: &AdaptationLog) -> Vec<String> {
    log.events()
        .iter()
        .map(|e| match &e.action {
            AdaptationAction::Recalibrated { new_chosen } => {
                format!("recalibrated:{}", new_chosen.len())
            }
            AdaptationAction::NodeDemoted { node, .. } => format!("node-demoted:{}", node.0),
            AdaptationAction::NodeLost {
                node,
                requeued_tasks,
            } => format!("node-lost:{}:{requeued_tasks}", node.0),
            other => other.kind().to_string(),
        })
        .collect()
}

#[test]
fn seeded_sim_farm_run_matches_its_golden_values() {
    let grid = golden_grid();
    let skeleton = Skeleton::farm(TaskSpec::uniform(UNITS, 8.0, 32 * 1024, 32 * 1024));
    let report = Grasp::new(GraspConfig::default())
        .run(&SimBackend::new(&grid), &skeleton)
        .expect("the golden run completes");
    let outcome = &report.outcome;
    assert!(outcome.conserves_units_of(&skeleton));
    let farm = match &outcome.detail {
        OutcomeDetail::SimFarm(farm) => farm,
        other => panic!("expected a simulated farm outcome, got {other:?}"),
    };
    let per_node: Vec<usize> = (0..NODES)
        .map(|i| farm.per_node_tasks.get(&NodeId(i)).copied().unwrap_or(0))
        .collect();
    assert_eq!(
        outcome.makespan_s.to_bits(),
        GOLDEN_MAKESPAN_BITS,
        "virtual makespan moved: {} s",
        outcome.makespan_s
    );
    assert_eq!(per_node, GOLDEN_PER_NODE);
    assert_eq!(outcome.resilience.requeued_tasks, GOLDEN_REQUEUED);
    assert_eq!(outcome.resilience.nodes_lost, GOLDEN_NODES_LOST);
    assert_eq!(action_sequence(&outcome.adaptation_log), GOLDEN_ACTIONS);
}
