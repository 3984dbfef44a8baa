//! One pass over one workload, in its own process (`--child <name>`).
//!
//! The pass prints exactly one line on stdout: its [`PassResult`] as JSON.
//! For `service-mix` that line is written *before* the service is shut
//! down, so a lost wake-up in the shutdown path costs the pass its
//! tear-down time, not its measurements; a second line then carries the
//! shutdown span, if it is ever reached.

use crate::gen;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::result::{PassResult, RepStat};
use crate::stats::median;
use crate::trace::Tracer;
use crate::usage;
use crate::workloads::{Counts, Prepared, Rep, SKEW_SLOW_FACTOR};
use crate::{Workload, WORKERS};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What the parent asks of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    pub workload: Workload,
    pub seed: u64,
    /// Keep starting timed repetitions until this much time has passed…
    pub seconds: f64,
    /// …and at least this many have run.
    pub min_reps: usize,
    pub trace: bool,
}

/// Untraced/traced repetition pairs of a traced pass.
const TRACED_PAIRS: usize = 3;

fn stat_of(rep: &Rep, cpu_s: f64) -> RepStat {
    RepStat {
        wall_s: rep.wall_s,
        units: rep.units as f64,
        jobs: rep.jobs as f64,
        failed: rep.failed as f64,
        latency_p50_us: median(&rep.latencies_us),
        cpu_s,
    }
}

pub fn run(plan: PassPlan, trace_dir: &Path) {
    let process_start = Instant::now();
    let workload = plan.workload;
    let spin_ns_start = probes::spin_ns_per_iter();
    let mut tracer = plan.trace.then(Tracer::new);

    let inputs = gen::generate(workload, plan.seed);
    let mut prepared = Prepared::new(workload, &inputs, tracer.as_mut());
    let warm_up = prepared.rep(None);
    let setup_ended = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.record("setup", process_start, setup_ended);
    }

    let mut pass = PassResult {
        workload: workload.name().to_string(),
        setup_s: setup_ended.duration_since(process_start).as_secs_f64(),
        spin_ns_start,
        ..PassResult::default()
    };

    // Timed repetitions.  A traced pass runs untraced/traced pairs instead,
    // alternating which goes first, so tracing overhead is a difference
    // between neighbours in time; only the untraced half feeds the
    // end-to-end numbers, CPU time included.
    let timed_start = Instant::now();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut pair_overheads = Vec::new();
    let untraced = |prepared: &mut Prepared, pass: &mut PassResult| {
        let before = usage::process_tree();
        let rep = prepared.rep(None);
        let cpu_s = usage::process_tree().cpu_s - before.cpu_s;
        pass.latencies_us.extend_from_slice(&rep.latencies_us);
        pass.reps.push(stat_of(&rep, cpu_s));
        rep.wall_s
    };
    match tracer.as_mut() {
        None => {
            while pass.reps.len() < plan.min_reps
                || timed_start.elapsed().as_secs_f64() < plan.seconds
            {
                untraced(&mut prepared, &mut pass);
            }
        }
        Some(tracer) => {
            for pair in 0..TRACED_PAIRS {
                let traced_first = pair % 2 == 1;
                if traced_first {
                    traced_reps.push(prepared.rep(Some(tracer)));
                }
                let untraced_wall_s = untraced(&mut prepared, &mut pass);
                if !traced_first {
                    traced_reps.push(prepared.rep(Some(tracer)));
                }
                let traced_wall_s = traced_reps.last().map_or(0.0, |r| r.wall_s);
                pair_overheads.push((traced_wall_s - untraced_wall_s) / untraced_wall_s);
            }
        }
    }
    pass.peak_rss_mb = usage::process_tree().peak_rss_mb;
    // The warm-up repetition is untimed but not unchecked: its failures
    // are charged to the first timed repetition.
    if let Some(first) = pass.reps.first_mut() {
        first.failed += warm_up.failed as f64;
        first.jobs += warm_up.failed as f64;
    }

    if let Some(tracer) = &tracer {
        let mut layers = probes::run(workload, &inputs);
        layers.insert("bench.trace_overhead_share", median(&pair_overheads));
        span_layers(workload, tracer, &mut layers);
        count_layers(workload, &inputs, &traced_reps, &mut layers);
        pass.layers = PER_LAYER
            .iter()
            .filter_map(|m| Some((m.name.to_string(), *layers.get(m.name)?)))
            .collect();
    }
    pass.spin_ns_end = probes::spin_ns_per_iter();

    // Metrics (and the trace) first, tear-down second: see the module docs.
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{}", pass.to_json());
    let _ = stdout.flush();
    let write_trace = |tracer: &Tracer| {
        let path = trace_dir.join(format!("trace-{}.json", workload.name()));
        let written = std::fs::create_dir_all(trace_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(workload.name())));
        if let Err(e) = written {
            eprintln!(
                "{}: could not write {}: {e}",
                workload.name(),
                path.display()
            );
        }
    };
    if let Some(tracer) = &tracer {
        write_trace(tracer);
    }
    let shutdown_started = Instant::now();
    if let (Some(shutdown_s), Some(tracer)) = (prepared.shutdown_service(), tracer.as_mut()) {
        tracer.record("service.shutdown", shutdown_started, Instant::now());
        write_trace(tracer);
        let _ = writeln!(stdout, "{{\"service.shutdown_ms\":{}}}", shutdown_s * 1e3);
    }
}

/// Per-layer metrics that are spans: medians of the spans' durations.
fn span_layers(workload: Workload, tracer: &Tracer, layers: &mut Counts) {
    let median_of = |name: &str, scale: f64| median(&tracer.durations_ns(name)) / scale;
    layers.insert("core.compile_us", median_of("compile", 1e3));
    layers.insert(
        "bench.check_self_us",
        median(&tracer.self_times_ns("job")) / 1e3,
    );
    match workload {
        Workload::ProcStream | Workload::ProcShm | Workload::ProcJobs => {
            layers.insert("proc.execute_s", median_of("execute", 1e9));
        }
        Workload::NetStream => {
            layers.insert("net.execute_s", median_of("execute", 1e9));
        }
        Workload::ServiceMix | Workload::ServiceSerial => {
            let submits = tracer.durations_ns("submit");
            layers.insert("service.submit_us_p50", median(&submits) / 1e3);
            layers.insert(
                "service.submit_us_p99",
                crate::stats::tail_percentile(&submits).0 / 1e3,
            );
            layers.insert("service.wait_us_p50", median_of("wait", 1e3));
            layers.insert("service.start_ms", median_of("service.start", 1e6));
        }
        Workload::SimScale => {
            layers.insert("gridsim.grid_build_ms", median_of("grid_build", 1e6));
        }
        Workload::ThreadFine | Workload::ThreadSkew => {}
    }
}

/// Per-layer metrics that are counts read from the outcomes, and the ones
/// computed from them.  Each is the median over the traced repetitions of
/// that repetition's value.
fn count_layers(workload: Workload, inputs: &gen::Inputs, traced: &[Rep], layers: &mut Counts) {
    let over_reps =
        |f: &dyn Fn(&Rep) -> Option<f64>| median(&traced.iter().filter_map(f).collect::<Vec<_>>());
    let count = |name: &'static str| over_reps(&|r| r.counts.get(name).copied());
    let spin_ns = layers
        .get("workloads.spin_ns_per_iter")
        .copied()
        .unwrap_or(0.0);
    let wall_s = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let units = over_reps(&|r| Some(r.units as f64)).max(1.0);
    let jobs = over_reps(&|r| Some(r.jobs as f64)).max(1.0);
    let workers = WORKERS as f64;

    // Seconds summed over a repetition's jobs are reported per job.
    layers.insert("core.calibration_s", count("core.calibration_s") / jobs);
    for name in [
        "core.adaptations",
        "core.demotions",
        "core.recalibrations",
        "core.requeued_units",
        "core.speculated_units",
    ] {
        layers.insert(name, count(name));
    }
    layers.insert(
        "core.calibration_share",
        over_reps(&|r| Some(r.counts.get("core.calibration_s")? / r.counts.get("makespan_s")?)),
    );
    layers.insert(
        "core.speculation_win_ratio",
        over_reps(&|r| {
            let launched = *r.counts.get("core.speculated_units")?;
            Some(r.counts.get("speculation_wins")? / launched.max(1.0))
        }),
    );

    // The kernel floor: declared spin iterations × today's ns per iteration
    // (or bands × the measured band time), summed over the repetition.
    let kernel_s = match inputs {
        gen::Inputs::SpinFarm {
            work,
            iters_per_work_unit,
        } => {
            let declared: f64 = work.iter().sum();
            // thread-skew's slowed worker burns SKEW_SLOW_FACTOR× the
            // declared iterations on its share of the work.
            let slow = if workload == Workload::ThreadSkew {
                count("work_slow") * (SKEW_SLOW_FACTOR - 1.0)
            } else {
                0.0
            };
            (declared + slow) * *iters_per_work_unit as f64 * spin_ns / 1e9
        }
        gen::Inputs::ServiceMix {
            jobs,
            iters_per_work_unit,
        } => {
            let declared: usize = jobs.iter().map(|(_, units)| units).sum();
            declared as f64 * *iters_per_work_unit as f64 * spin_ns / 1e9
        }
        gen::Inputs::MatMulJobs { .. } => {
            units
                * layers
                    .get("workloads.matmul_band_us")
                    .copied()
                    .unwrap_or(0.0)
                / 1e6
        }
        // The simulator burns no kernel: all of its wall is overhead.
        gen::Inputs::SimGrid { .. } => 0.0,
    };
    layers.insert("workloads.kernel_s", kernel_s);
    // Wall × workers = kernel + overhead, by construction.
    let overhead_us_per_unit = (wall_s * workers - kernel_s) * 1e6 / units;
    let kernel_share = kernel_s / (wall_s * workers).max(1e-12);
    let teardown_ms =
        over_reps(&|r| Some((r.counts.get("execute_s")? - r.counts.get("makespan_s")?) * 1e3))
            / jobs;

    match workload {
        Workload::ThreadFine | Workload::ThreadSkew => {
            layers.insert("exec.farm_overhead_us_per_unit", overhead_us_per_unit);
            for name in [
                "exec.imbalance",
                "exec.steals_attempted",
                "exec.steals_completed",
                "exec.units_stolen",
                "exec.slow_worker_work_share",
            ] {
                layers.insert(name, count(name));
            }
            layers.insert(
                "exec.steal_success_ratio",
                over_reps(&|r| {
                    let attempted = *r.counts.get("exec.steals_attempted")?;
                    Some(r.counts.get("exec.steals_completed")? / attempted.max(1.0))
                }),
            );
            if let (
                Workload::ThreadSkew,
                gen::Inputs::SpinFarm {
                    work,
                    iters_per_work_unit,
                },
            ) = (workload, inputs)
            {
                // Ideal wall for one full-speed and one 1/8-speed worker.
                let declared_s =
                    work.iter().sum::<f64>() * *iters_per_work_unit as f64 * spin_ns / 1e9;
                let ideal_s = declared_s / (1.0 + 1.0 / SKEW_SLOW_FACTOR);
                layers.insert("exec.skew_efficiency", ideal_s / wall_s.max(1e-12));
            }
        }
        Workload::ProcStream | Workload::ProcShm | Workload::ProcJobs => {
            layers.insert("proc.overhead_us_per_unit", overhead_us_per_unit);
            layers.insert("proc.kernel_share", kernel_share);
            layers.insert("proc.teardown_ms", teardown_ms);
            layers.insert("proc.imbalance", count("proc.imbalance"));
        }
        Workload::NetStream => {
            layers.insert("net.overhead_us_per_unit", overhead_us_per_unit);
            layers.insert("net.teardown_ms", teardown_ms);
            for name in [
                "net.imbalance",
                "net.calibration_probes",
                "net.rejected_joins",
            ] {
                layers.insert(name, count(name));
            }
        }
        Workload::ServiceMix | Workload::ServiceSerial => {
            for name in [
                "service.rounds",
                "service.jobs_per_round",
                "service.profile_hit_ratio",
                "service.rejected",
            ] {
                layers.insert(name, count(name));
            }
            layers.insert(
                "service.overhead_us_per_job",
                (wall_s * workers - kernel_s) * 1e6 / jobs,
            );
        }
        Workload::SimScale => {
            layers.insert("gridsim.wall_ns_per_unit", wall_s * 1e9 / units);
            for name in [
                "gridsim.virtual_makespan_s",
                "gridsim.nodes_lost",
                "gridsim.requeued",
            ] {
                layers.insert(name, count(name));
            }
        }
    }
    if traced.iter().any(|r| r.counts.contains_key("wire_bytes")) {
        let per_unit = |name: &'static str| {
            over_reps(&|r| Some(r.counts.get(name)? / (r.units as f64).max(1.0)))
        };
        layers.insert("core.wire_encode_s", count("core.wire_encode_s") / jobs);
        layers.insert("core.wire_write_s", count("core.wire_write_s") / jobs);
        layers.insert("core.wire_bytes_per_unit", per_unit("wire_bytes"));
        layers.insert("core.bytes_copied_per_unit", per_unit("bytes_copied"));
    }
}
