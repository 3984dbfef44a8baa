//! Run every experiment (E1–E17) and print all tables/series, additionally
//! emitting a machine-readable `BENCH_results.json` so the performance
//! trajectory can be tracked across commits without parsing text tables.
//!
//! ```text
//! cargo run --release -p grasp-bench --bin run_all > results.txt
//! cargo run --release -p grasp-bench --bin run_all -- --smoke   # tiny CI scale
//! cargo run --release -p grasp-bench --bin run_all -- --json out.json
//! cargo run --release -p grasp-bench --bin run_all -- --only E4      # one experiment
//! cargo run --release -p grasp-bench --bin run_all -- --check out.json --baseline BENCH_baseline.json
//! ```
//!
//! `--smoke` runs every experiment at a reduced scale (seconds, suitable as a
//! CI gate that the whole harness stays runnable); the default is paper
//! scale.  `--json PATH` overrides the output path (default
//! `BENCH_results.json` in the working directory).
//!
//! `--only E<n>` runs that one experiment (at the chosen scale) and prints
//! its table and/or series; it writes no results file, so a partial run can
//! never overwrite a complete one.  An unknown id exits 2 with the list of
//! valid ids, and a failing experiment exits 1.
//!
//! A panicking experiment no longer aborts the run: its panic is caught and
//! recorded as a structured `{"type":"failed",…}` entry so the remaining
//! experiments still execute and the trajectory file stays complete.
//!
//! `--check PATH` validates a previously written results file instead of
//! running anything: the document must parse, record every experiment, and
//! carry no failure entries; with `--baseline PATH` it additionally gates
//! the performance trajectory (adaptive still beats static in E10, E11
//! still demotes, the experiment set has not shrunk) — see
//! `grasp_bench::gate`.  Exit status 1 signals a gate violation, so CI can
//! use it directly, with no Python in the loop.

use grasp_bench::experiments::*;
use grasp_bench::gate;
use grasp_bench::report::{failed_json, series_json, table_json};
use grasp_bench::{format_series, format_table, ScenarioSeed, Series, Table};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-experiment sizes for one scale, so the invocation sequence below is
/// written exactly once and both scales necessarily cover every experiment.
struct Scale {
    e1: (usize, usize),
    e2: (&'static [usize], usize),
    e3_items: usize,
    e4: (&'static [f64], usize, usize),
    e5: (&'static [usize], usize, usize),
    e6: (&'static [usize], usize),
    e7: (usize, usize),
    e8_samples: usize,
    e9: (usize, usize, usize),
    e10: (usize, usize, &'static [f64], f64),
    e11: (usize, f64),
    e12: (usize, usize),
    e13: (usize, usize),
    e14: (usize, usize),
    e15: (usize, usize),
    e16: (usize, f64),
    e17: (usize, f64),
}

/// Paper scale: the numbers the committed experiment tables use.
const PAPER: Scale = Scale {
    e1: (32, 3),
    e2: (&[4, 8, 16, 32, 64], 600),
    e3_items: 600,
    e4: (&[1.05, 1.25, 1.5, 2.0, 3.0, 4.0], 16, 400),
    e5: (&[1, 2, 4, 8, 16], 16, 400),
    e6: (&[8, 16, 32, 64, 128], 800),
    e7: (16, 800),
    e8_samples: 2_000,
    e9: (400, 4, 3),
    e10: (16, 400, &[0.2, 0.4, 0.6, 0.8, 1.0], 20.0),
    e11: (6_000, 25.0),
    e12: (512, 16),
    e13: (400, 8),
    e14: (60, 8),
    e15: (4_096, 2_000_000),
    e16: (2_400, 8.0),
    e17: (16, 25.0),
};

/// Smoke scale: every experiment at a size that finishes in seconds.
const SMOKE: Scale = Scale {
    e1: (16, 2),
    e2: (&[4, 8], 150),
    e3_items: 150,
    e4: (&[1.25, 2.0], 8, 150),
    e5: (&[1, 4], 8, 120),
    e6: (&[8, 16], 200),
    e7: (8, 200),
    e8_samples: 500,
    e9: (48, 3, 3),
    e10: (8, 160, &[0.5], 15.0),
    e11: (1_200, 25.0),
    e12: (128, 16),
    e13: (80, 4),
    e14: (16, 4),
    // The scale smoke keeps ad-hoc-grid numbers even at CI scale: thousands
    // of nodes, a million units.
    e15: (2_048, 1_000_000),
    e16: (240, 8.0),
    e17: (12, 25.0),
};

/// Every experiment id, in run order.
const IDS: [&str; 17] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15",
    "E16", "E17",
];

/// Collects printed experiment results and their JSON renderings.
#[derive(Default)]
struct Results {
    /// Run only this experiment (`--only`); `None` runs them all.
    only: Option<String>,
    json_parts: Vec<String>,
    failed: usize,
}

impl Results {
    fn table(&mut self, t: &Table) {
        println!("{}", format_table(t));
        self.json_parts.push(table_json(t));
    }

    fn series(&mut self, s: &Series) {
        println!("{}", format_series(s));
        self.json_parts.push(series_json(s));
    }

    /// Run one experiment, catching any panic: a broken experiment becomes a
    /// structured `failed` record (and drops its partial output) instead of
    /// aborting the rest of the harness.
    fn experiment(&mut self, id: &str, run: impl FnOnce(&mut Results)) {
        if self.only.as_deref().is_some_and(|only| only != id) {
            return;
        }
        let recorded_before = self.json_parts.len();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run(self))) {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            self.json_parts.truncate(recorded_before);
            self.json_parts.push(failed_json(id, &message));
            self.failed += 1;
            eprintln!("run_all: {id} FAILED: {message}");
        }
    }

    fn write(&self, path: &str) {
        let doc = format!("{{\"experiments\":[{}]}}\n", self.json_parts.join(","));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("run_all: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("run_all: wrote {path}");
        if self.failed > 0 {
            eprintln!(
                "run_all: {} experiment(s) recorded failures (the results file \
                 has the details; `run_all --check` turns them into a red gate)",
                self.failed
            );
        }
    }
}

/// The value following `flag`, if present (a following flag is a forgotten
/// value, not a path).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => {
                eprintln!("run_all: {flag} requires a value");
                std::process::exit(2);
            }
        },
        None => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Validation mode: judge an existing results file, run nothing.
    if args.iter().any(|a| a == "--check") {
        let results = flag_value(&args, "--check").expect("--check checked above");
        let baseline = flag_value(&args, "--baseline");
        match gate::check_files(&results, baseline.as_deref()) {
            Ok(summary) => println!("run_all --check: {summary}"),
            Err(e) => {
                eprintln!("run_all --check: FAIL: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let scale = if args.iter().any(|a| a == "--smoke") {
        SMOKE
    } else {
        PAPER
    };
    let json_path = flag_value(&args, "--json");
    let only = flag_value(&args, "--only");
    if let Some(id) = &only {
        if !IDS.contains(&id.as_str()) {
            eprintln!(
                "run_all: unknown experiment id `{id}`; valid ids: {}",
                IDS.join(", ")
            );
            std::process::exit(2);
        }
        if json_path.is_some() {
            eprintln!("run_all: --only writes no results file; drop --json");
            std::process::exit(2);
        }
    }

    let seed = ScenarioSeed::default();
    let mut out = Results {
        only,
        ..Results::default()
    };

    out.experiment("E1", |out| {
        out.table(&e1_calibration_quality(scale.e1.0, scale.e1.1, seed));
    });
    out.experiment("E2", |out| {
        let (t2, s2) = e2_farm_comparison(scale.e2.0, scale.e2.1, seed);
        out.table(&t2);
        out.series(&s2);
    });
    out.experiment("E3", |out| {
        let (t3, s3) = e3_pipeline_adaptation(scale.e3_items);
        out.table(&t3);
        out.series(&s3);
    });
    out.experiment("E4", |out| {
        let (t4, s4) = e4_threshold_sweep(scale.e4.0, scale.e4.1, scale.e4.2, seed);
        out.table(&t4);
        out.series(&s4);
    });
    out.experiment("E5", |out| {
        out.table(&e5_calibration_overhead(
            scale.e5.0, scale.e5.1, scale.e5.2, seed,
        ));
    });
    out.experiment("E6", |out| {
        out.series(&e6_scalability(scale.e6.0, scale.e6.1, seed));
    });
    out.experiment("E7", |out| {
        let (t7, s7) = e7_adaptation_response(scale.e7.0, scale.e7.1);
        out.table(&t7);
        out.series(&s7);
    });
    out.experiment("E8", |out| {
        out.table(&e8_forecaster_accuracy(scale.e8_samples));
    });
    out.experiment("E9", |out| {
        out.table(&e9_nested_skeletons(scale.e9.0, scale.e9.1, scale.e9.2));
    });
    out.experiment("E10", |out| {
        out.table(&e10_churn(
            scale.e10.0,
            scale.e10.1,
            scale.e10.2,
            scale.e10.3,
            seed,
        ));
    });
    out.experiment("E11", |out| {
        out.table(&e11_thread_slowdown(scale.e11.0, scale.e11.1));
    });
    out.experiment("E12", |out| {
        out.table(&e12_proc_backend(scale.e12.0, scale.e12.1));
    });
    out.experiment("E13", |out| {
        out.table(&e13_net_membership(scale.e13.0, scale.e13.1));
    });
    out.experiment("E14", |out| {
        out.table(&e14_service(scale.e14.0, scale.e14.1));
    });
    out.experiment("E15", |out| {
        out.table(&e15_scale_smoke(scale.e15.0, scale.e15.1, seed));
    });
    out.experiment("E16", |out| {
        out.table(&e16_steal_rebalance(scale.e16.0, scale.e16.1));
    });
    out.experiment("E17", |out| {
        out.table(&e17_speculation(scale.e17.0, scale.e17.1));
    });

    if out.only.is_some() {
        if out.failed > 0 {
            std::process::exit(1);
        }
        return;
    }
    out.write(json_path.as_deref().unwrap_or("BENCH_results.json"));
}
