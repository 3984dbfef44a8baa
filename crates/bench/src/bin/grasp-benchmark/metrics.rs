//! The benchmark's vocabulary: every metric by name, with its unit, the
//! direction that is better, its bound, and — for per-layer metrics — which
//! end-to-end metric on which workload it is expected to move.  Written
//! before measuring; `BENCHMARK.json` and README.md are generated from /
//! checked against these tables (`--describe`).

use crate::json::JsonOut;
use crate::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// ISSUE 12's bound: the share of the baseline's value by which the
    /// metric may worsen before `--compare` calls it a regression.  The 30 %
    /// the issue gave `setup_s` and the tail latency is the 25 % the driver's
    /// contract stops at.
    bound: f64,
    /// The same on the `proc-*` workloads, where the issue allows more.
    proc_bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    // process start to first timed rep: input generation, expected digests,
    // spin-rate probe, service start, warm-up rep (median over passes)
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        proc_bound: 0.25,
    },
    // wall of one rep, timed outside the call: the median over reps where a
    // rep is one job, the mean where it is a batch of jobs
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        proc_bound: 0.15,
    },
    // verified units of a rep / its wall, median over reps (batches: all
    // verified units / all timed wall)
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        proc_bound: 0.15,
    },
    // jobs of a rep / its wall, median over reps (batches: all jobs / all
    // timed wall)
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        proc_bound: 0.15,
    },
    // median over all job latencies of all timed reps
    EndToEnd {
        name: "job_latency_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        proc_bound: 0.15,
    },
    // highest percentile <= p99 with >= 10 samples beyond it (p99 on proc-jobs
    // and service-mix, the median elsewhere; the percentile and count are
    // printed)
    EndToEnd {
        name: "job_latency_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        proc_bound: 0.25,
    },
    // user+sys CPU of the benchmark process and its reaped worker processes
    // over the timed reps / (units/1000)
    EndToEnd {
        name: "cpu_s_per_kunit",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        proc_bound: 0.10,
    },
    // max of the process's own peak RSS and its reaped children's
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        proc_bound: 0.15,
    },
];

/// A bound wider than ISSUE 12's, on one workload, and what forced it: the
/// widest run-to-run spread of the metric there (interquartile distance ÷
/// median of ten runs on ten seeds, as the driver measures it) over the
/// sessions README.md reports.  A bound is widened only where that spread
/// exceeds half of the issue's bound — two runs of the same code must not
/// read as a regression — and then to the first of 15 % and 25 % that is
/// twice the spread, or to 25 %, where the driver's contract stops.  An
/// entry for `run_wall_s` also covers the three metrics ISSUE 12 bounds "as
/// `run_wall_s`" (`units_per_s`, `jobs_per_s`, `job_latency_us_p50`); its
/// spread is the widest of the four.
#[derive(Debug, Clone, Copy)]
pub struct Widened {
    pub workload: &'static str,
    pub metric: &'static str,
    pub bound: f64,
    pub forcing_spread: f64,
}

const fn widened(
    workload: &'static str,
    metric: &'static str,
    bound: f64,
    forcing_spread: f64,
) -> Widened {
    Widened {
        workload,
        metric,
        bound,
        forcing_spread,
    }
}

pub const WIDENED: [Widened; 14] = [
    widened("thread-skew", "run_wall_s", 0.15, 0.056),
    widened("proc-stream", "run_wall_s", 0.25, 0.097),
    widened("proc-stream", "cpu_s_per_kunit", 0.15, 0.075),
    widened("proc-shm", "cpu_s_per_kunit", 0.25, 0.142),
    widened("proc-jobs", "run_wall_s", 0.25, 0.217),
    widened("proc-jobs", "cpu_s_per_kunit", 0.25, 0.227),
    widened("net-stream", "run_wall_s", 0.15, 0.068),
    widened("net-stream", "cpu_s_per_kunit", 0.15, 0.067),
    widened("service-mix", "run_wall_s", 0.25, 0.263),
    widened("service-mix", "cpu_s_per_kunit", 0.15, 0.074),
    widened("service-serial", "run_wall_s", 0.25, 0.166),
    widened("service-serial", "cpu_s_per_kunit", 0.25, 0.143),
    widened("sim-scale", "run_wall_s", 0.25, 0.165),
    widened("sim-scale", "cpu_s_per_kunit", 0.25, 0.131),
];

impl EndToEnd {
    /// The metric whose [`WIDENED`] entries apply to this one.
    fn widened_as(&self) -> &'static str {
        match self.name {
            "units_per_s" | "jobs_per_s" | "job_latency_us_p50" => "run_wall_s",
            name => name,
        }
    }

    /// ISSUE 12's bound on `workload`.
    fn issue_bound(&self, workload: &str) -> f64 {
        if workload.starts_with("proc-") {
            self.proc_bound
        } else {
            self.bound
        }
    }

    /// The bound `--compare` applies on `workload`.
    pub fn bound_on(&self, workload: &str) -> f64 {
        WIDENED
            .iter()
            .find(|w| w.workload == workload && w.metric == self.widened_as())
            .map_or(self.issue_bound(workload), |w| w.bound)
    }

    /// The bound `BENCHMARK.json` declares: its contract has one number per
    /// metric for all the workloads it lists, so it is the widest of theirs.
    pub fn declared_bound(&self) -> f64 {
        Workload::ALL
            .iter()
            .filter(|w| w.in_contract())
            .map(|w| self.bound_on(w.name()))
            .fold(0.0, f64::max)
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Span,
    /// A tight loop over a layer's public function, after the timed reps.
    Probe,
    /// Read from the returned outcome / stats; expected to repeat.
    Count,
    /// Arithmetic on the others.
    Computed,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Probe => "probe",
            Source::Count => "count",
            Source::Computed => "computed",
        }
    }
}

/// A metric of a single layer (traced run only; the prefix is the crate).
/// A workload whose path does not touch the layer reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Computed, Count, Probe, Span};

const JOBS: &str = "job_latency_us_p50, jobs_per_s on proc-jobs";
const STREAMS: &str = "units_per_s on proc-stream, net-stream";
const FINE: &str = "units_per_s on thread-fine";
const SKEW: &str = "run_wall_s on thread-skew";
const SERVICE: &str = "job_latency_us_p50/p99, jobs_per_s on service-mix, service-serial";
const SIM: &str = "units_per_s on sim-scale";

pub const PER_LAYER: [PerLayer; 70] = [
    // core
    layer("core.compile_us", "us", Lower, Span, JOBS),
    layer("core.calibration_s", "s", Lower, Count, JOBS),
    layer("core.calibration_share", "ratio", Lower, Computed, JOBS),
    layer("core.wire_encode_ns", "ns", Lower, Probe, STREAMS),
    layer("core.wire_decode_ns", "ns", Lower, Probe, STREAMS),
    layer("core.wire_encode_s", "s", Lower, Count, STREAMS),
    layer("core.wire_write_s", "s", Lower, Count, STREAMS),
    layer("core.wire_bytes_per_unit", "B", Lower, Count, STREAMS),
    layer("core.bytes_copied_per_unit", "B", Lower, Count, STREAMS),
    layer(
        "core.stream_rtt_us",
        "us",
        Lower,
        Probe,
        "units_per_s on proc-stream",
    ),
    layer(
        "core.shm_rtt_us",
        "us",
        Lower,
        Probe,
        "units_per_s on proc-shm only",
    ),
    layer(
        "core.tcp_rtt_us",
        "us",
        Lower,
        Probe,
        "units_per_s on net-stream",
    ),
    layer("core.engine_observe_ns", "ns", Lower, Probe, FINE),
    layer("core.engine_poll_ns", "ns", Lower, Probe, FINE),
    layer("core.scheduler_chunk_ns", "ns", Lower, Probe, FINE),
    layer("core.adaptations", "count", Lower, Count, SKEW),
    layer("core.demotions", "count", Lower, Count, SKEW),
    layer("core.recalibrations", "count", Lower, Count, SKEW),
    layer("core.requeued_units", "count", Lower, Count, SIM),
    layer("core.speculated_units", "count", Lower, Count, SKEW),
    layer(
        "core.speculation_win_ratio",
        "ratio",
        Higher,
        Computed,
        SKEW,
    ),
    // exec
    layer(
        "exec.farm_overhead_us_per_unit",
        "us",
        Lower,
        Computed,
        FINE,
    ),
    layer("exec.farm_dispatch_ns", "ns", Lower, Probe, FINE),
    layer("exec.deque_take_ns", "ns", Lower, Probe, SKEW),
    layer("exec.deque_steal_ns", "ns", Lower, Probe, SKEW),
    layer("exec.steals_attempted", "count", Lower, Count, SKEW),
    layer("exec.steals_completed", "count", Lower, Count, SKEW),
    layer("exec.steal_success_ratio", "ratio", Higher, Computed, SKEW),
    layer("exec.units_stolen", "count", Higher, Count, SKEW),
    layer("exec.slow_worker_work_share", "ratio", Lower, Count, SKEW),
    layer("exec.skew_efficiency", "ratio", Higher, Computed, SKEW),
    layer(
        "exec.imbalance",
        "ratio",
        Lower,
        Count,
        "run_wall_s on thread-fine, thread-skew",
    ),
    layer("exec.pool_round_us", "us", Lower, Probe, SERVICE),
    // proc
    layer(
        "proc.execute_s",
        "s",
        Lower,
        Span,
        "run_wall_s on proc-stream, proc-shm, proc-jobs",
    ),
    layer("proc.spawn_handshake_ms", "ms", Lower, Probe, JOBS),
    layer("proc.teardown_ms", "ms", Lower, Computed, JOBS),
    layer(
        "proc.overhead_us_per_unit",
        "us",
        Lower,
        Computed,
        "units_per_s on proc-stream, proc-shm",
    ),
    layer(
        "proc.kernel_share",
        "ratio",
        Higher,
        Computed,
        "units_per_s on proc-stream, proc-shm",
    ),
    layer(
        "proc.imbalance",
        "ratio",
        Lower,
        Count,
        "run_wall_s on proc-stream, proc-shm",
    ),
    // net
    layer(
        "net.execute_s",
        "s",
        Lower,
        Span,
        "run_wall_s on net-stream",
    ),
    layer(
        "net.join_handshake_ms",
        "ms",
        Lower,
        Probe,
        "run_wall_s on net-stream",
    ),
    layer(
        "net.teardown_ms",
        "ms",
        Lower,
        Computed,
        "run_wall_s on net-stream",
    ),
    layer(
        "net.overhead_us_per_unit",
        "us",
        Lower,
        Computed,
        "units_per_s on net-stream",
    ),
    layer(
        "net.imbalance",
        "ratio",
        Lower,
        Count,
        "run_wall_s on net-stream",
    ),
    layer(
        "net.calibration_probes",
        "count",
        Lower,
        Count,
        "run_wall_s on net-stream",
    ),
    layer("net.rejected_joins", "count", Lower, Count, "must be 0"),
    // service
    layer("service.submit_us_p50", "us", Lower, Span, SERVICE),
    layer("service.submit_us_p99", "us", Lower, Span, SERVICE),
    layer("service.wait_us_p50", "us", Lower, Span, SERVICE),
    layer("service.rounds", "count", Lower, Count, SERVICE),
    layer("service.jobs_per_round", "ratio", Higher, Computed, SERVICE),
    layer(
        "service.profile_hit_ratio",
        "ratio",
        Higher,
        Computed,
        SERVICE,
    ),
    layer(
        "service.rejected",
        "count",
        Lower,
        Count,
        "failed on service-mix, service-serial",
    ),
    layer(
        "service.overhead_us_per_job",
        "us",
        Lower,
        Computed,
        SERVICE,
    ),
    layer("service.admission_ns", "ns", Lower, Probe, SERVICE),
    layer("service.cache_lookup_ns", "ns", Lower, Probe, SERVICE),
    layer(
        "service.start_ms",
        "ms",
        Lower,
        Span,
        "setup_s on service-mix, service-serial",
    ),
    layer(
        "service.shutdown_ms",
        "ms",
        Lower,
        Span,
        "none (teardown is untimed)",
    ),
    // workloads
    layer(
        "workloads.spin_ns_per_iter",
        "ns",
        Lower,
        Probe,
        "every wall metric (machine speed, not code)",
    ),
    layer(
        "workloads.kernel_s",
        "s",
        Lower,
        Computed,
        "run_wall_s everywhere (the floor)",
    ),
    layer("workloads.matmul_band_us", "us", Lower, Probe, JOBS),
    // gridsim / gridmon / gridstats
    layer(
        "gridsim.grid_build_ms",
        "ms",
        Lower,
        Span,
        "setup_s on sim-scale",
    ),
    layer("gridsim.wall_ns_per_unit", "ns", Lower, Computed, SIM),
    layer(
        "gridsim.virtual_makespan_s",
        "s",
        Lower,
        Count,
        "none (must repeat bit-exactly)",
    ),
    layer(
        "gridsim.nodes_lost",
        "count",
        Lower,
        Count,
        "none (input-determined)",
    ),
    layer(
        "gridsim.requeued",
        "count",
        Lower,
        Count,
        "none (input-determined)",
    ),
    layer("gridmon.forecast_ns", "ns", Lower, Probe, FINE),
    layer("gridstats.rank_ns", "ns", Lower, Probe, SIM),
    // bench
    layer(
        "bench.trace_overhead_share",
        "ratio",
        Lower,
        Computed,
        "none (must stay <= 0.05)",
    ),
    layer(
        "bench.check_self_us",
        "us",
        Lower,
        Span,
        "none (the benchmark's own verification)",
    ),
];

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`, in exactly the shape the driver's contract
/// fixes (no extra keys: layers, interactions and the default seed live in
/// README.md and in these tables).
pub fn benchmark_json() -> String {
    let dir = "crates/bench/src/bin/grasp-benchmark";
    let mut out = JsonOut::new();
    out.begin_obj();
    out.key("command").begin_arr();
    out.str("bash").str(&format!("{dir}/run.sh"));
    out.end_arr();
    out.key("paths").begin_arr().str(dir).end_arr();
    out.key("run_seconds").num(f64::from(RUN_SECONDS));
    out.key("workloads").begin_arr();
    for w in Workload::ALL.into_iter().filter(|w| w.in_contract()) {
        out.begin_obj();
        out.key("name").str(w.name());
        out.key("why").str(w.why());
        out.end_obj();
    }
    out.end_arr();
    out.key("end_to_end").begin_arr();
    for m in &END_TO_END {
        out.begin_obj();
        out.key("name").str(m.name);
        out.key("unit").str(m.unit);
        out.key("better").str(m.better.name());
        out.key("bound").num(m.declared_bound());
        out.end_obj();
    }
    out.end_arr();
    out.key("per_layer").begin_arr();
    for m in &PER_LAYER {
        out.begin_obj();
        out.key("name").str(m.name);
        out.key("unit").str(m.unit);
        out.key("better").str(m.better.name());
        out.end_obj();
    }
    out.end_arr();
    out.end_obj();
    pretty(&out.finish())
}

/// Re-indent compact JSON (two spaces), one array element or field per line.
fn pretty(compact: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                if matches!(chars.peek(), Some('}' | ']')) {
                    continue;
                }
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                if !matches!(out.chars().last(), Some('{' | '[')) {
                    depth = depth.saturating_sub(1);
                    newline(&mut out, depth);
                }
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_bench::gate::parse_json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            for w in Workload::ALL {
                let bound = m.bound_on(w.name());
                assert!(bound > 0.0 && bound <= 0.25, "{} on {}", m.name, w.name());
            }
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// ISSUE 12's bounds hold wherever no measured spread forced a wider one,
    /// and every widening names a real pair and the spread behind it.
    #[test]
    fn bounds_are_the_issues_except_where_a_measured_spread_forced_more() {
        let run_wall = end_to_end("run_wall_s").unwrap();
        assert_eq!(run_wall.bound_on("thread-fine"), 0.10);
        assert_eq!(end_to_end("peak_rss_mb").unwrap().declared_bound(), 0.15);
        assert_eq!(end_to_end("setup_s").unwrap().declared_bound(), 0.25);
        for w in &WIDENED {
            let metric = end_to_end(w.metric).expect(w.metric);
            assert_eq!(metric.widened_as(), w.metric);
            assert!(Workload::ALL.iter().any(|x| x.name() == w.workload));
            let issue = metric.issue_bound(w.workload);
            assert!(w.bound > issue, "{} on {}", w.metric, w.workload);
            assert!(
                w.forcing_spread > issue / 2.0,
                "{} on {}: a spread of {} does not force a bound wider than {issue}",
                w.metric,
                w.workload,
                w.forcing_spread
            );
            assert!(
                w.bound == 0.25 || (w.bound == 0.15 && w.forcing_spread <= 0.075),
                "{} on {}",
                w.metric,
                w.workload
            );
            assert_eq!(metric.bound_on(w.workload), w.bound);
        }
        assert_eq!(
            end_to_end("units_per_s").unwrap().bound_on("thread-skew"),
            0.15
        );
    }

    /// The committed `BENCHMARK.json` is this table, byte for byte (it is
    /// written with `grasp-benchmark --describe > BENCHMARK.json`).
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let generated = benchmark_json();
        let doc = parse_json(&generated).expect("generated BENCHMARK.json must parse");
        assert_eq!(doc.get("workloads").unwrap().as_arr().unwrap().len(), 8);
        assert!(generated.len() < 64 * 1024);
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let committed = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                break std::fs::read_to_string(candidate).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        };
        assert_eq!(committed, generated, "regenerate with --describe");
    }
}
