//! Property-based tests (proptest) over the core data structures and the
//! cross-crate invariants of the GRASP system.

use grasp_repro::grasp_core::prelude::*;
use grasp_repro::grasp_exec::{ThreadBackend, ThreadPipeline};
use grasp_repro::grasp_proc::ProcBackend;
use grasp_repro::gridsim::{
    ConstantLoad, EventQueue, Grid, GridBuilder, LoadModel, PeriodicLoad, RandomWalkLoad, SimTime,
    TopologyBuilder,
};
use grasp_repro::gridstats;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------- gridstats invariants -------------------------

    /// Percentiles always lie between the sample minimum and maximum.
    #[test]
    fn percentile_is_bounded(values in prop::collection::vec(-1e6f64..1e6, 1..200), p in 0.0f64..100.0) {
        let v = gridstats::percentile(&values, p).unwrap();
        let lo = gridstats::min(&values).unwrap();
        let hi = gridstats::max(&values).unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    /// OLS on exactly linear data recovers the coefficients.
    #[test]
    fn linear_regression_recovers_lines(
        intercept in -100.0f64..100.0,
        slope in -50.0f64..50.0,
        xs in prop::collection::vec(-1000.0f64..1000.0, 3..100),
    ) {
        // Skip degenerate (constant) predictors.
        let spread = gridstats::max(&xs).unwrap() - gridstats::min(&xs).unwrap();
        prop_assume!(spread > 1e-6);
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let fit = gridstats::linear_regression(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-4 * (1.0 + intercept.abs()));
    }

    /// Solving a diagonally dominant system and multiplying back reproduces b.
    #[test]
    fn matrix_solve_roundtrips(
        seed_vals in prop::collection::vec(-10.0f64..10.0, 9),
        b_vals in prop::collection::vec(-100.0f64..100.0, 3),
    ) {
        let mut data = seed_vals.clone();
        // Make the matrix strictly diagonally dominant → well conditioned.
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| data[i * 3 + j].abs()).sum();
            data[i * 3 + i] = row_sum + 1.0;
        }
        let a = gridstats::Matrix::from_vec(3, 3, data).unwrap();
        let b = gridstats::Matrix::column(&b_vals);
        let x = a.solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        prop_assert!(back.max_abs_diff(&b).unwrap() < 1e-6);
    }

    /// Dense ranks are a permutation-invariant of the sorted order: every rank
    /// is between 1 and the number of distinct values.
    #[test]
    fn dense_ranks_are_well_formed(values in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let ranks = gridstats::dense_ranks(&values);
        prop_assert_eq!(ranks.len(), values.len());
        let max_rank = *ranks.iter().max().unwrap();
        prop_assert!(ranks.iter().all(|&r| r >= 1 && r <= max_rank));
        prop_assert!(max_rank <= values.len());
    }

    // ------------------------- gridsim invariants ---------------------------

    /// Load models always report loads in [0, 1) and availability in (0, 1].
    #[test]
    fn load_models_stay_bounded(
        mean in 0.0f64..1.5,
        amplitude in 0.0f64..1.0,
        period in 1.0f64..1000.0,
        volatility in 0.0f64..0.3,
        seed in any::<u64>(),
        t in 0.0f64..1e5,
    ) {
        let models: Vec<Box<dyn LoadModel>> = vec![
            Box::new(ConstantLoad::new(mean)),
            Box::new(PeriodicLoad::new(mean, amplitude, period, 0.0)),
            Box::new(RandomWalkLoad::new(mean, volatility, 1.0, 500.0, seed)),
        ];
        for m in &models {
            let load = m.load_at(SimTime::new(t));
            prop_assert!((0.0..1.0).contains(&load), "load {} out of range", load);
            prop_assert!(m.availability_at(SimTime::new(t)) > 0.0);
        }
    }

    /// The event queue always pops events in non-decreasing time order.
    #[test]
    fn event_queue_pops_in_order(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::new(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last);
            last = ev.time;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Executing work on an idle node takes exactly work/speed seconds and is
    /// additive: doing it in two halves lands at the same completion time.
    #[test]
    fn grid_execution_is_consistent(
        speed in 1.0f64..200.0,
        work in 0.1f64..1e4,
        start in 0.0f64..1e4,
    ) {
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(1, speed));
        let n = grid.node_ids()[0];
        let whole = grid.execute(n, work, SimTime::new(start)).unwrap();
        let half = grid.execute(n, work / 2.0, SimTime::new(start)).unwrap();
        let rest = grid.execute(n, work / 2.0, half).unwrap();
        prop_assert!((whole.as_secs() - (start + work / speed)).abs() < 1e-6);
        prop_assert!((rest.as_secs() - whole.as_secs()).abs() < 1e-6);
    }

    /// External load can only slow execution down, never speed it up.
    #[test]
    fn load_never_speeds_execution_up(
        load in 0.0f64..0.95,
        work in 1.0f64..1000.0,
    ) {
        let idle = Grid::dedicated(TopologyBuilder::uniform_cluster(1, 50.0));
        let busy = GridBuilder::new(TopologyBuilder::uniform_cluster(1, 50.0))
            .uniform_node_load(ConstantLoad::new(load))
            .build();
        let n = idle.node_ids()[0];
        let t_idle = idle.execute(n, work, SimTime::ZERO).unwrap();
        let t_busy = busy.execute(n, work, SimTime::ZERO).unwrap();
        prop_assert!(t_busy >= t_idle);
    }

    // ------------------------- grasp-core invariants ------------------------

    /// The scheduler never hands out zero tasks while work remains, never more
    /// than remains, and static block covers the pool in one round per worker.
    #[test]
    fn scheduler_chunks_are_valid(
        remaining in 1usize..10_000,
        workers in 1usize..128,
        weight in 0.01f64..20.0,
        chunk in 1usize..64,
        factor in 0.01f64..1.0,
    ) {
        let policies = [
            SchedulePolicy::StaticBlock,
            SchedulePolicy::SelfScheduling,
            SchedulePolicy::FixedChunk { chunk },
            SchedulePolicy::Guided { min_chunk: chunk },
            SchedulePolicy::Factoring { factor },
            SchedulePolicy::AdaptiveWeighted { min_chunk: chunk },
            SchedulePolicy::WorkStealing { min_chunk: chunk },
        ];
        for p in policies {
            // Total-less view: the dynamic policies ignore the job total, so
            // `remaining` stands in for it; StaticBlock's total-aware path is
            // covered by its dedicated unit test.
            let c = p.next_chunk_with_total(remaining, remaining, workers, weight);
            prop_assert!(c >= 1 && c <= remaining, "{:?} gave {}", p, c);
        }
    }

    /// Every policy drains any job: chunks never go to zero while work
    /// remains (liveness), and the handed-out chunks sum exactly to the
    /// total (conservation).
    #[test]
    fn scheduler_drains_and_conserves(
        total in 1usize..5_000,
        workers in 1usize..64,
        weight in 0.01f64..20.0,
        chunk in 1usize..64,
        factor in 0.01f64..1.0,
    ) {
        let policies = [
            SchedulePolicy::StaticBlock,
            SchedulePolicy::SelfScheduling,
            SchedulePolicy::FixedChunk { chunk },
            SchedulePolicy::Guided { min_chunk: chunk },
            SchedulePolicy::Factoring { factor },
            SchedulePolicy::AdaptiveWeighted { min_chunk: chunk },
            SchedulePolicy::WorkStealing { min_chunk: chunk },
        ];
        for p in policies {
            let mut remaining = total;
            let mut handed = 0usize;
            let mut rounds = 0usize;
            while remaining > 0 {
                let c = p.next_chunk_with_total(remaining, total, workers, weight);
                prop_assert!(c >= 1 && c <= remaining, "{:?} gave {} of {}", p, c, remaining);
                remaining -= c;
                handed += c;
                rounds += 1;
                prop_assert!(rounds <= total, "{:?} failed to make progress", p);
            }
            prop_assert_eq!(handed, total);
        }
    }

    /// The work-stealing owner/thief protocol partitions any seeded range
    /// exactly, for any interleaving of owner bites and top-half steals:
    /// neither side hands out zero while work remains, and the pieces sum
    /// to the range length.
    #[test]
    fn work_stealing_owner_and_thief_conserve_the_range(
        len in 1usize..5_000,
        workers in 1usize..64,
        weight in 0.0f64..20.0,
        chunk in 1usize..64,
        interleave in any::<u64>(),
    ) {
        let policy = SchedulePolicy::WorkStealing { min_chunk: chunk };
        let mut remaining = len;
        let mut handed = 0usize;
        let mut turn = interleave;
        while remaining > 0 {
            // A pseudo-random interleaving of thief and owner turns; a
            // thief's share is 0 on a lone last task, which the owner then
            // takes (the protocol's liveness guarantee).
            let steal_turn = turn & 1 == 1;
            turn = turn.rotate_right(1) ^ 0x9e37_79b9_7f4a_7c15;
            let c = if steal_turn {
                SchedulePolicy::steal_share(remaining)
            } else {
                policy.owner_chunk(remaining, workers, weight)
            };
            if c == 0 {
                prop_assert!(steal_turn && remaining == 1, "owner gave 0 of {}", remaining);
                continue;
            }
            prop_assert!(c <= remaining);
            remaining -= c;
            handed += c;
        }
        prop_assert_eq!(handed, len);
    }

    /// Thresholds grow monotonically with the factor and never fall below the
    /// best calibrated time.
    #[test]
    fn threshold_monotone_in_factor(
        times in prop::collection::vec(0.01f64..100.0, 1..50),
        f1 in 1.0f64..4.0,
        delta in 0.0f64..4.0,
    ) {
        let z1 = ThresholdPolicy::Factor { factor: f1 }.compute(&times);
        let z2 = ThresholdPolicy::Factor { factor: f1 + delta }.compute(&times);
        prop_assert!(z2 >= z1);
        prop_assert!(z1 >= gridstats::min(&times).unwrap() - 1e-12);
    }

    /// Every farm run completes every task exactly once, whatever the task
    /// sizes, on a small heterogeneous grid.
    #[test]
    fn farm_completes_every_task_exactly_once(
        works in prop::collection::vec(1.0f64..200.0, 1..60),
        nodes in 2usize..6,
        seed in any::<u64>(),
    ) {
        let tasks: Vec<TaskSpec> = works
            .iter()
            .enumerate()
            .map(|(i, &w)| TaskSpec::new(i, w, 1024, 1024))
            .collect();
        let grid = Grid::dedicated(TopologyBuilder::heterogeneous_cluster(nodes, 10.0, 80.0, seed));
        let out = TaskFarm::new(GraspConfig::default()).run(&grid, &tasks).unwrap();
        prop_assert_eq!(out.completed_tasks(), tasks.len());
        let mut ids: Vec<usize> = out.task_outcomes.iter().map(|o| o.task).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), tasks.len());
        // Makespan can never beat the aggregate-capacity lower bound.
        let total_work: f64 = works.iter().sum();
        let bound = total_work / grid.topology().aggregate_speed();
        prop_assert!(out.makespan.as_secs() >= bound - 1e-6);
    }

    /// The pipeline preserves stream length and order for any stage shape.
    #[test]
    fn pipeline_preserves_stream_order(
        stage_works in prop::collection::vec(1.0f64..50.0, 1..5),
        items in 1usize..40,
    ) {
        let stages: Vec<StageSpec> = stage_works
            .iter()
            .enumerate()
            .map(|(i, &w)| StageSpec::new(i, w, 1024, 1024))
            .collect();
        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(4, 40.0));
        let out = Pipeline::new(GraspConfig::default()).run(&grid, &stages, items).unwrap();
        prop_assert_eq!(out.items, items);
        prop_assert_eq!(out.item_completions.len(), items);
        prop_assert!(out.item_completions.windows(2).all(|w| w[0] <= w[1]));
    }
}

// ---------------- speculation / migration invariants ----------------
//
// These cases drive real worker threads (and, for the proc backend, real
// worker processes), so the case counts are kept deliberately small: the
// point is to randomise the race geometry — task counts, pool sizes, tail
// fractions, degradation points — not to grind thousands of executions.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// First-result-wins speculation must count every unit exactly once,
    /// whatever the winner/loser races do: the unit-id multiset equals the
    /// skeleton's, and wins never exceed launches.
    #[test]
    fn thread_speculation_never_double_counts_a_unit(
        tasks in 6usize..40,
        workers in 2usize..5,
        fraction in 0.05f64..1.0,
        slow_factor in 2.0f64..30.0,
    ) {
        let skeleton = Skeleton::farm(TaskSpec::uniform(tasks, 2.0, 0, 0));
        let backend = ThreadBackend::new(workers).with_config(
            BackendConfig::new()
                .spin_per_work_unit(500)
                .faults(FaultInjection::none().worker_slowdown(0, 0, slow_factor)),
        );
        let mut cfg = GraspConfig {
            scheduler: SchedulePolicy::SelfScheduling,
            ..GraspConfig::default()
        };
        cfg.execution.adaptive = true;
        cfg.execution.min_active_nodes = workers;
        cfg.execution.speculate_tail_fraction = fraction;
        let report = Grasp::new(cfg).run(&backend, &skeleton).unwrap();
        prop_assert_eq!(report.outcome.completed, tasks);
        prop_assert!(report.outcome.conserves_units_of(&skeleton));
        let r = &report.outcome.resilience;
        prop_assert!(
            r.speculation_wins <= r.speculated_units,
            "wins {} above launches {}", r.speculation_wins, r.speculated_units
        );
    }

    /// Live stage migration under a randomised breach point must never lose,
    /// duplicate, or reorder an item: the output equals the sequential
    /// reference whether or not the checkpoint/re-home path fired.
    #[test]
    fn pipeline_migration_preserves_the_stream(
        items in 40usize..120,
        degrade_after in 10usize..40,
        degrade_spin in 40_000u64..120_000,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let hook = done.clone();
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 3.0 },
            monitor_interval_s: 1e-4,
            migrate_stages: true,
            ..ExecutionConfig::default()
        };
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| x + 1)
            .stage(move |x: u64| {
                let n = hook.fetch_add(1, Ordering::Relaxed);
                grasp_repro::grasp_exec::spin(if n >= degrade_after {
                    degrade_spin
                } else {
                    1_000
                });
                x * 2
            })
            .with_adaptation(exec)
            .with_migration(|x, w| w.put_u64(*x), |r| r.take_u64());
        let stream: Vec<u64> = (0..items as u64).collect();
        let expected: Vec<u64> = stream.iter().map(|x| (x + 1) * 2).collect();
        let (out, _stats) = pipeline.try_run(stream).unwrap();
        prop_assert_eq!(out, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The `migrate_stages` flag must be conservation-neutral on every
    /// backend that accepts a pipeline expression: the simulator (which
    /// re-homes via its own StageRemapped path), real threads (checkpoint +
    /// standby re-home), and worker processes (pipelines lower to farms —
    /// the flag must simply never corrupt the unit set).
    #[test]
    fn migration_config_conserves_units_on_sim_thread_and_proc(
        stage_works in prop::collection::vec(1.0f64..30.0, 2..4),
        items in 10usize..40,
    ) {
        let stages: Vec<StageSpec> = stage_works
            .iter()
            .enumerate()
            .map(|(i, &w)| StageSpec::new(i, w, 128, 128))
            .collect();
        let skeleton = Skeleton::pipeline(stages, items);
        let mut cfg = GraspConfig::default();
        cfg.execution.migrate_stages = true;
        cfg.execution.monitor_interval_s = 1e-3;
        let grasp = Grasp::new(cfg);

        let grid = Grid::dedicated(TopologyBuilder::uniform_cluster(4, 40.0));
        let sim = grasp.run(&SimBackend::new(&grid), &skeleton).unwrap();
        prop_assert!(sim.outcome.conserves_units_of(&skeleton));
        prop_assert_eq!(sim.outcome.completed, items);

        let threads = grasp
            .run(
                &ThreadBackend::new(3).with_config(BackendConfig::new().spin_per_work_unit(10)),
                &skeleton,
            )
            .unwrap();
        prop_assert!(threads.outcome.conserves_units_of(&skeleton));
        prop_assert_eq!(threads.outcome.completed, items);

        let procs = grasp
            .run(
                &ProcBackend::new(2).with_config(
                    BackendConfig::new()
                        .worker_bin(env!("CARGO_BIN_EXE_grasp-proc-worker"))
                        .spin_per_work_unit(10),
                ),
                &skeleton,
            )
            .unwrap();
        prop_assert!(procs.outcome.conserves_units_of(&skeleton));
        prop_assert_eq!(procs.outcome.completed, items);
    }

    /// Master-side speculation on the process backend: duplicated dispatches
    /// settle first-result-wins in the completion map, so the unit set must
    /// stay exact and the counters ordered even across worker processes.
    #[test]
    fn proc_speculation_never_double_counts_a_unit(
        tasks in 8usize..20,
        fraction in 0.1f64..0.8,
    ) {
        let backend = ProcBackend::new(3).with_config(
            BackendConfig::new()
                .worker_bin(env!("CARGO_BIN_EXE_grasp-proc-worker"))
                .spin_per_work_unit(20_000),
        );
        speculated_run_counts_each_unit_once(&backend, tasks, fraction)?;
    }

    /// The same frame master behind the socket backend, over loopback: the
    /// same first-result-wins settlement must hold for socket members.
    #[test]
    fn net_speculation_never_double_counts_a_unit(
        tasks in 8usize..20,
        fraction in 0.1f64..0.8,
    ) {
        use grasp_repro::grasp_net::worker::{run_connection, WorkerOptions};
        use grasp_repro::grasp_net::{LoopbackNet, NetBackend};
        let (net, acceptor) = LoopbackNet::new();
        let backend = NetBackend::over(Box::new(acceptor), 3).with_config(
            BackendConfig::new()
                .heartbeat(0.0, 1.0)
                .spin_per_work_unit(20_000),
        );
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let conn = net.connect().unwrap();
                std::thread::spawn(move || run_connection(conn, WorkerOptions::default()))
            })
            .collect();
        speculated_run_counts_each_unit_once(&backend, tasks, fraction)?;
        for w in workers {
            prop_assert_eq!(w.join().unwrap(), 0);
        }
    }
}

/// Run a `tasks`-unit farm with tail speculation at `fraction` on
/// `backend`: every unit is counted exactly once and wins never exceed
/// launches.
fn speculated_run_counts_each_unit_once<B: Backend>(
    backend: &B,
    tasks: usize,
    fraction: f64,
) -> Result<(), TestCaseError> {
    let skeleton = Skeleton::farm(TaskSpec::uniform(tasks, 1.0, 0, 0));
    let mut cfg = GraspConfig::default();
    cfg.execution.adaptive = true;
    cfg.execution.speculate_tail_fraction = fraction;
    let report = Grasp::new(cfg).run(backend, &skeleton).unwrap();
    prop_assert_eq!(report.outcome.completed, tasks);
    prop_assert!(report.outcome.conserves_units_of(&skeleton));
    let r = &report.outcome.resilience;
    prop_assert!(r.speculation_wins <= r.speculated_units);
    Ok(())
}
