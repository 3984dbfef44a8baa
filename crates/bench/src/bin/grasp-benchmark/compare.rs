//! `--compare A.json B.json`: is B no worse than A, within each metric's
//! bound?  One row per (workload, end-to-end metric):
//!
//! * `ok` — B's value is not worse than A's by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — the spread between A's own samples is wider than the
//!   bound, so the pair cannot tell a regression from noise.
//!
//! The exit code is non-zero on any `regressed` row and when B failed a
//! larger share of its operations than A.

use crate::metrics::{Better, END_TO_END, WIDENED};
use crate::result::WorkloadResult;
use grasp_bench::gate::{parse_json, Json};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Signed share of A by which B is worse (negative = better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn load(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_results(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn parse_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    parse_json(text)?
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no `workloads` array")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

/// Judge every (workload, end-to-end metric) pair present in both sets.
/// Also returns the workloads whose failed share rose, and those of A that
/// B lacks.
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut rejections = Vec::new();
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            rejections.push(format!("{}: missing from B", wa.name));
            continue;
        };
        let share = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        if share(wb) > share(wa) {
            rejections.push(format!(
                "{}: failed {}/{} in B against {}/{} in A",
                wa.name, wb.failed, wb.attempted, wa.failed, wa.attempted
            ));
        }
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metrics.get(m.name), wb.metrics.get(m.name)) else {
                continue;
            };
            let change = (mb.value - ma.value) / ma.value.abs().max(1e-300);
            let worse_by = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread_a = ma.spread();
            let bound = m.bound_on(&wa.name);
            let verdict = if spread_a > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: m.name,
                a: ma.value,
                b: mb.value,
                worse_by,
                spread_a,
                bound,
                verdict,
            });
        }
    }
    (rows, rejections)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("grasp-benchmark --compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (rows, rejections) = compare(&a, &b);
    println!(
        "{:<12} {:<20} {:>16} {:>16} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread A", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<20} {:>16.6} {:>16.6} {:>8.1}% {:>8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread_a * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    for r in &rejections {
        println!("rejected: {r}");
    }
    for w in WIDENED
        .iter()
        .filter(|w| a.iter().any(|wa| wa.name == w.workload))
    {
        println!(
            "bound widened to {:.0}% on {} {}: run-to-run spread measured at {:.1}%",
            w.bound * 100.0,
            w.workload,
            w.metric,
            w.forcing_spread * 100.0
        );
    }
    if count(Verdict::Regressed) > 0 || !rejections.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonOut;
    use crate::result::{PassResult, RepStat};

    /// A results file holding one workload — `thread-fine`, whose time bounds
    /// are ISSUE 12's 10 % — whose reps take `wall_s`, of which `failed`
    /// operations failed.
    fn fixture(wall_s: f64, failed: f64) -> String {
        let pass = PassResult {
            workload: "thread-fine".into(),
            setup_s: 1.0,
            spin_ns_start: 0.37,
            spin_ns_end: 0.37,
            peak_rss_mb: 30.0,
            reps: (0..6)
                .map(|i| RepStat {
                    wall_s: wall_s * (1.0 + 0.004 * f64::from(i)),
                    units: 500_000.0,
                    jobs: 1.0,
                    failed: if i == 0 { failed } else { 0.0 },
                    latency_p50_us: wall_s * 1e6,
                    cpu_s: 2.0 * wall_s,
                })
                .collect(),
            latencies_us: vec![wall_s * 1e6; 6],
            ..PassResult::default()
        };
        let merged = WorkloadResult::merge("thread-fine", &[pass.clone(), pass], vec![]);
        let mut out = JsonOut::new();
        out.begin_obj().key("workloads").begin_arr();
        merged.write_json(&mut out);
        out.end_arr().end_obj();
        out.finish()
    }

    fn verdicts(a: &str, b: &str) -> (Vec<Row>, Vec<String>) {
        compare(&parse_results(a).unwrap(), &parse_results(b).unwrap())
    }

    #[test]
    fn identical_sets_agree_on_every_metric() {
        let (rows, rejections) = verdicts(&fixture(0.7, 0.0), &fixture(0.7, 0.0));
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        assert!(rejections.is_empty());
    }

    #[test]
    fn a_fixture_twenty_percent_slower_is_regressed() {
        let (rows, _) = verdicts(&fixture(0.7, 0.0), &fixture(0.84, 0.0));
        let verdict_of = |metric: &str| {
            rows.iter()
                .find(|r| r.metric == metric)
                .map(|r| r.verdict)
                .unwrap()
        };
        assert_eq!(verdict_of("run_wall_s"), Verdict::Regressed);
        assert_eq!(verdict_of("units_per_s"), Verdict::Regressed);
        assert_eq!(verdict_of("job_latency_us_p50"), Verdict::Regressed);
        // Untouched metrics stay ok, and faster is never a regression.
        assert_eq!(verdict_of("peak_rss_mb"), Verdict::Ok);
        let (rows, _) = verdicts(&fixture(0.84, 0.0), &fixture(0.7, 0.0));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
    }

    #[test]
    fn a_fixture_with_a_failed_operation_is_rejected() {
        let (_, rejections) = verdicts(&fixture(0.7, 0.0), &fixture(0.7, 1.0));
        assert_eq!(rejections.len(), 1, "{rejections:?}");
        assert!(rejections[0].contains("failed 2/12"));
        // The other way round (B fails less) is accepted.
        let (_, rejections) = verdicts(&fixture(0.7, 1.0), &fixture(0.7, 0.0));
        assert!(rejections.is_empty());
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_not_regressed() {
        let mut a = parse_results(&fixture(0.7, 0.0)).unwrap();
        let wall = a[0].metrics.get_mut("run_wall_s").unwrap();
        wall.samples = vec![0.4, 0.5, 0.7, 0.9, 1.1, 1.3];
        let b = parse_results(&fixture(0.98, 0.0)).unwrap();
        let (rows, _) = compare(&a, &b);
        let row = rows.iter().find(|r| r.metric == "run_wall_s").unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved);
    }
}
