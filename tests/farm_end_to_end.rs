//! Cross-crate integration: real workload generators driving the adaptive
//! farm on the simulated grid.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_workloads::{
    blackscholes::BlackScholesSweep, mandelbrot::MandelbrotJob, quadrature::QuadratureJob,
    seqmatch::SequenceMatchJob,
};
use grasp_repro::gridsim::{ConstantLoad, Grid, GridBuilder, TopologyBuilder};
use std::collections::BTreeSet;

fn loaded_grid(nodes: usize) -> Grid {
    let topo = TopologyBuilder::heterogeneous_cluster(nodes, 20.0, 80.0, 5);
    let node_ids = topo.node_ids();
    let mut builder = GridBuilder::new(topo);
    for &n in &node_ids {
        builder = builder.node_load(n, ConstantLoad::new(0.1 * (n.index() % 4) as f64));
    }
    builder.build()
}

fn assert_complete(outcome: &FarmOutcome, expected: usize) {
    assert_eq!(outcome.completed_tasks(), expected);
    let ids: BTreeSet<usize> = outcome.task_outcomes.iter().map(|o| o.task).collect();
    assert_eq!(ids.len(), expected, "every task id exactly once");
    assert!(outcome.makespan.as_secs() > 0.0);
}

#[test]
fn mandelbrot_sweep_completes_on_the_grid() {
    let job = MandelbrotJob::small();
    let tasks = job.as_tasks(500.0);
    let expected = tasks.len();
    let out = TaskFarm::new(GraspConfig::default())
        .run(&loaded_grid(8), &tasks)
        .unwrap();
    assert_complete(&out, expected);
}

#[test]
fn irregular_mandelbrot_tasks_are_balanced_toward_fast_nodes() {
    let job = MandelbrotJob {
        tiles_x: 8,
        tiles_y: 6,
        ..MandelbrotJob::small()
    };
    let tasks = job.as_tasks(200.0);
    let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(6, 10.0, 80.0, 9));
    let mut cfg = GraspConfig::default();
    cfg.calibration.selection_fraction = 1.0;
    let out = TaskFarm::new(cfg).run(&grid, &tasks).unwrap();
    assert_complete(&out, tasks.len());
    // The single fastest node should have done more tasks than the slowest.
    let speeds: Vec<f64> = grid
        .node_ids()
        .iter()
        .map(|&n| grid.node(n).unwrap().base_speed)
        .collect();
    let fastest = gridstats_argmax(&speeds);
    let slowest = gridstats_argmin(&speeds);
    let f = out
        .per_node_tasks
        .get(&grid.node_ids()[fastest])
        .copied()
        .unwrap_or(0);
    let s = out
        .per_node_tasks
        .get(&grid.node_ids()[slowest])
        .copied()
        .unwrap_or(0);
    assert!(f >= s, "fastest node did {f}, slowest did {s}");
}

fn gridstats_argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

fn gridstats_argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

#[test]
fn sequence_match_sweep_with_statistical_calibration() {
    let job = SequenceMatchJob {
        queries: 48,
        ..SequenceMatchJob::small()
    };
    let tasks = job.as_tasks(2_000.0);
    let out = TaskFarm::new(GraspConfig::adaptive_multivariate())
        .run(&loaded_grid(10), &tasks)
        .unwrap();
    assert_complete(&out, 48);
    assert_eq!(out.calibration.mode, CalibrationMode::Multivariate);
}

#[test]
fn quadrature_panels_and_blackscholes_batches_complete() {
    let quad = QuadratureJob {
        panels: 64,
        ..QuadratureJob::small()
    };
    let out = TaskFarm::new(GraspConfig::default())
        .run(&loaded_grid(6), &quad.as_tasks(100.0))
        .unwrap();
    assert_complete(&out, 64);

    let sweep = BlackScholesSweep {
        options: 2_000,
        batch_size: 100,
    };
    let out = TaskFarm::new(GraspConfig::self_scheduling_baseline())
        .run(&loaded_grid(6), &sweep.as_tasks(50.0))
        .unwrap();
    assert_complete(&out, 20);
}

#[test]
fn adaptive_configuration_never_loses_to_static_by_much_on_a_loaded_grid() {
    let tasks = TaskSpec::uniform(150, 60.0, 16 * 1024, 16 * 1024);
    let adaptive = TaskFarm::new(GraspConfig::default())
        .run(&loaded_grid(8), &tasks)
        .unwrap();
    let rigid = TaskFarm::new(GraspConfig::static_baseline())
        .run(&loaded_grid(8), &tasks)
        .unwrap();
    assert!(
        adaptive.makespan.as_secs() <= rigid.makespan.as_secs() * 1.10,
        "adaptive {} vs static {}",
        adaptive.makespan.as_secs(),
        rigid.makespan.as_secs()
    );
}
