//! What a child process reports about one pass over a workload, how the
//! passes of a workload are merged into its metrics, and the JSON both
//! travel in (child → parent on a pipe, parent → results file → `--compare`).

use crate::json::JsonOut;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread, tail_percentile};
use grasp_bench::gate::Json;
use std::collections::BTreeMap;

/// One timed repetition, as reported by the child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepStat {
    pub wall_s: f64,
    pub units: f64,
    pub jobs: f64,
    pub failed: f64,
    /// Median job latency within the repetition.
    pub latency_p50_us: f64,
    /// CPU seconds of the process tree over the repetition.
    pub cpu_s: f64,
}

impl RepStat {
    fn cpu_s_per_kunit(&self) -> f64 {
        self.cpu_s / (self.units / 1000.0).max(1e-9)
    }
}

/// One child process's pass over one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassResult {
    pub workload: String,
    pub setup_s: f64,
    pub spin_ns_start: f64,
    pub spin_ns_end: f64,
    pub peak_rss_mb: f64,
    pub reps: Vec<RepStat>,
    /// Every job latency of every timed repetition.
    pub latencies_us: Vec<f64>,
    /// Per-layer metrics (traced passes only).
    pub layers: BTreeMap<String, f64>,
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn nums(doc: &Json, key: &str) -> Result<Vec<f64>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("non-number in `{key}`")))
        .collect()
}

fn text(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

impl PassResult {
    pub fn to_json(&self) -> String {
        let mut out = JsonOut::new();
        out.begin_obj();
        out.key("workload").str(&self.workload);
        out.key("setup_s").num(self.setup_s);
        out.key("spin_ns_start").num(self.spin_ns_start);
        out.key("spin_ns_end").num(self.spin_ns_end);
        out.key("peak_rss_mb").num(self.peak_rss_mb);
        out.key("reps").begin_arr();
        for r in &self.reps {
            out.nums(&[
                r.wall_s,
                r.units,
                r.jobs,
                r.failed,
                r.latency_p50_us,
                r.cpu_s,
            ]);
        }
        out.end_arr();
        out.key("latencies_us").nums(&self.latencies_us);
        out.key("layers").begin_obj();
        for (name, value) in &self.layers {
            out.key(name).num(*value);
        }
        out.end_obj();
        out.end_obj();
        out.finish()
    }

    pub fn from_json(doc: &Json) -> Result<PassResult, String> {
        let reps = doc
            .get("reps")
            .and_then(Json::as_arr)
            .ok_or("missing array `reps`")?
            .iter()
            .map(|r| match r.as_arr() {
                Some([wall, units, jobs, failed, p50, cpu]) => Some(RepStat {
                    wall_s: wall.as_f64()?,
                    units: units.as_f64()?,
                    jobs: jobs.as_f64()?,
                    failed: failed.as_f64()?,
                    latency_p50_us: p50.as_f64()?,
                    cpu_s: cpu.as_f64()?,
                }),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed entry in `reps`")?;
        let layers = match doc.get("layers") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(PassResult {
            workload: text(doc, "workload")?,
            setup_s: num(doc, "setup_s")?,
            spin_ns_start: num(doc, "spin_ns_start")?,
            spin_ns_end: num(doc, "spin_ns_end")?,
            peak_rss_mb: num(doc, "peak_rss_mb")?,
            reps,
            latencies_us: nums(doc, "latencies_us")?,
            layers,
        })
    }
}

/// One metric of one workload: the reported value and the samples (per
/// repetition or per pass) its run-to-run spread is judged from.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn spread(&self) -> f64 {
        spread(&self.samples)
    }
}

/// A workload's merged result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// `true` when the spin rate moved by more than 5 % within a pass.
    pub drift: bool,
    pub spin_ns_start: f64,
    pub spin_ns_end: f64,
    /// Percentile (0.5–0.99) and sample count behind `job_latency_us_p99`.
    pub tail_percentile: f64,
    pub tail_samples: usize,
    /// Watchdog kills and other child failures, in words.
    pub incidents: Vec<String>,
    pub metrics: BTreeMap<String, Measured>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Fold the passes of one workload into its end-to-end metrics (and,
    /// for traced passes, carry the per-layer metrics through).
    pub fn merge(name: &str, passes: &[PassResult], incidents: Vec<String>) -> WorkloadResult {
        let reps: Vec<&RepStat> = passes.iter().flat_map(|p| &p.reps).collect();
        let per_rep = |f: &dyn Fn(&RepStat) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<_>>();
        let per_pass = |f: &dyn Fn(&PassResult) -> f64| passes.iter().map(f).collect::<Vec<_>>();
        let all_latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latencies_us.iter().copied())
            .collect();
        let (tail, tail_p, tail_n) = tail_percentile(&all_latencies);

        let mut metrics = BTreeMap::new();
        // `value` defaults to the median of the samples the spread is
        // judged from; the latency percentiles and the peak are taken over
        // everything instead.
        let mut put = |name: &str, value: Option<f64>, samples: Vec<f64>| {
            let unit = crate::metrics::end_to_end(name)
                .expect("every merged metric is in the table")
                .unit;
            metrics.insert(
                name.to_string(),
                Measured {
                    value: value.unwrap_or_else(|| median(&samples)),
                    unit: unit.to_string(),
                    samples,
                },
            );
        };
        put("setup_s", None, per_pass(&|p| p.setup_s));
        // Where a repetition is one job, its wall is that job's latency and
        // the median over repetitions is the robust value.  Where it is a
        // batch of many jobs (`proc-jobs`, `service-mix`) the repetition is
        // only a batch boundary: the rates are totals over all timed
        // repetitions.  `service-mix` needs that: its repetitions fall in a
        // fast and a slow scheduling regime that each last seconds, and the
        // median of such a mixture jumps between the two (README.md).
        let total = |f: &dyn Fn(&RepStat) -> f64| reps.iter().map(|r| f(r)).sum::<f64>();
        let wall_s = total(&|r| r.wall_s).max(1e-12);
        let batched = !reps.is_empty() && reps.iter().all(|r| r.jobs > 1.0);
        let over_all = |sum: f64, per: f64| batched.then_some(sum / per);
        put(
            "run_wall_s",
            over_all(wall_s, reps.len() as f64),
            per_rep(&|r| r.wall_s),
        );
        put(
            "units_per_s",
            over_all(total(&|r| r.units), wall_s),
            per_rep(&|r| r.units / r.wall_s),
        );
        put(
            "jobs_per_s",
            over_all(total(&|r| r.jobs), wall_s),
            per_rep(&|r| r.jobs / r.wall_s),
        );
        put(
            "job_latency_us_p50",
            Some(median(&all_latencies)),
            per_rep(&|r| r.latency_p50_us),
        );
        put(
            "job_latency_us_p99",
            Some(tail),
            per_pass(&|p| tail_percentile(&p.latencies_us).0),
        );
        put("cpu_s_per_kunit", None, per_rep(&RepStat::cpu_s_per_kunit));
        let peaks = per_pass(&|p| p.peak_rss_mb);
        put(
            "peak_rss_mb",
            Some(peaks.iter().copied().fold(0.0, f64::max)),
            peaks,
        );
        // Per-layer metrics come from the traced pass (there is one).
        for pass in passes {
            for (layer, value) in &pass.layers {
                let unit = PER_LAYER
                    .iter()
                    .find(|m| m.name == layer)
                    .map_or("", |m| m.unit);
                metrics.insert(
                    layer.clone(),
                    Measured {
                        value: *value,
                        unit: unit.to_string(),
                        samples: vec![*value],
                    },
                );
            }
        }

        let attempted: f64 = reps.iter().map(|r| r.jobs).sum();
        let failed: f64 = reps.iter().map(|r| r.failed).sum();
        let first = passes.first();
        WorkloadResult {
            name: name.to_string(),
            // A child the watchdog killed, or that died, is one failed
            // operation on top of whatever its reps reported.
            attempted: attempted as u64 + incidents.len() as u64,
            failed: failed as u64 + incidents.len() as u64,
            reps: reps.len(),
            drift: passes
                .iter()
                .any(|p| (p.spin_ns_end - p.spin_ns_start).abs() > 0.05 * p.spin_ns_start),
            spin_ns_start: first.map_or(0.0, |p| p.spin_ns_start),
            spin_ns_end: passes.last().map_or(0.0, |p| p.spin_ns_end),
            tail_percentile: tail_p,
            tail_samples: tail_n,
            incidents,
            metrics,
        }
    }

    pub fn write_json(&self, out: &mut JsonOut) {
        out.begin_obj();
        out.key("name").str(&self.name);
        out.key("correct").bool(self.correct());
        out.key("attempted").num(self.attempted as f64);
        out.key("failed").num(self.failed as f64);
        out.key("reps").num(self.reps as f64);
        out.key("drift").bool(self.drift);
        out.key("spin_ns_start").num(self.spin_ns_start);
        out.key("spin_ns_end").num(self.spin_ns_end);
        out.key("tail_percentile").num(self.tail_percentile);
        out.key("tail_samples").num(self.tail_samples as f64);
        out.key("incidents").begin_arr();
        for i in &self.incidents {
            out.str(i);
        }
        out.end_arr();
        out.key("metrics").begin_obj();
        for (name, m) in &self.metrics {
            out.key(name).begin_obj();
            out.key("value").num(m.value);
            out.key("unit").str(&m.unit);
            out.key("samples").nums(&m.samples);
            out.end_obj();
        }
        out.end_obj();
        out.end_obj();
    }

    pub fn from_json(doc: &Json) -> Result<WorkloadResult, String> {
        let flag = |key: &str| matches!(doc.get(key), Some(Json::Bool(true)));
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, m)| {
                    Ok((
                        name.clone(),
                        Measured {
                            value: num(m, "value")?,
                            unit: text(m, "unit")?,
                            samples: nums(m, "samples")?,
                        },
                    ))
                })
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            _ => return Err("missing object `metrics`".into()),
        };
        Ok(WorkloadResult {
            name: text(doc, "name")?,
            attempted: num(doc, "attempted")? as u64,
            failed: num(doc, "failed")? as u64,
            reps: num(doc, "reps")? as usize,
            drift: flag("drift"),
            spin_ns_start: num(doc, "spin_ns_start")?,
            spin_ns_end: num(doc, "spin_ns_end")?,
            tail_percentile: num(doc, "tail_percentile")?,
            tail_samples: num(doc, "tail_samples")? as usize,
            incidents: doc
                .get("incidents")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|i| i.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }

    /// The one-object result line of the driver's contract: end-to-end
    /// metrics for an untraced run, every per-layer metric for a traced one
    /// (0 where the workload's path does not touch the layer).
    pub fn contract_line(&self, traced: bool) -> String {
        let mut out = JsonOut::new();
        out.begin_obj();
        out.key("correct").bool(self.correct());
        out.key("attempted").num(self.attempted.max(1) as f64);
        out.key("failed").num(self.failed as f64);
        out.key("metrics").begin_obj();
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, unit) in names {
            out.key(name).begin_obj();
            out.key("value")
                .num(self.metrics.get(name).map_or(0.0, |m| m.value));
            out.key("unit").str(unit);
            out.end_obj();
        }
        out.end_obj();
        out.end_obj();
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_bench::gate::parse_json;

    pub fn sample_pass(wall_s: f64) -> PassResult {
        PassResult {
            workload: "thread-fine".into(),
            setup_s: 1.25,
            spin_ns_start: 0.37,
            spin_ns_end: 0.371,
            peak_rss_mb: 40.5,
            reps: (0..5)
                .map(|i| RepStat {
                    wall_s: wall_s * (1.0 + 0.01 * f64::from(i)),
                    units: 500_000.0,
                    jobs: 1.0,
                    failed: 0.0,
                    latency_p50_us: wall_s * 1e6,
                    cpu_s: 0.7,
                })
                .collect(),
            latencies_us: (0..5).map(|i| wall_s * 1e6 + f64::from(i)).collect(),
            layers: BTreeMap::from([("core.compile_us".to_string(), 12.5)]),
        }
    }

    #[test]
    fn pass_results_survive_the_pipe() {
        let pass = sample_pass(0.7);
        let doc = parse_json(&pass.to_json()).unwrap();
        assert_eq!(PassResult::from_json(&doc).unwrap(), pass);
    }

    #[test]
    fn merged_results_survive_the_results_file() {
        let merged = WorkloadResult::merge(
            "thread-fine",
            &[sample_pass(0.7), sample_pass(0.72)],
            vec![],
        );
        assert_eq!(merged.reps, 10);
        assert_eq!((merged.attempted, merged.failed), (10, 0));
        assert!(merged.correct() && !merged.drift);
        assert_eq!(merged.metrics["setup_s"].value, 1.25);
        assert_eq!(merged.metrics["peak_rss_mb"].value, 40.5);
        assert_eq!(merged.metrics["cpu_s_per_kunit"].value, 0.7 / 500.0);
        assert_eq!(merged.metrics["core.compile_us"].value, 12.5);
        // Ten single-job latencies: the tail falls back to the median.
        assert_eq!((merged.tail_percentile, merged.tail_samples), (0.5, 10));

        let mut out = JsonOut::new();
        merged.write_json(&mut out);
        let doc = parse_json(&out.finish()).unwrap();
        assert_eq!(WorkloadResult::from_json(&doc).unwrap(), merged);
    }

    #[test]
    fn a_killed_child_is_a_failed_operation() {
        let merged = WorkloadResult::merge(
            "service-mix",
            &[sample_pass(0.7)],
            vec!["killed after 40.0 s".into()],
        );
        assert_eq!((merged.attempted, merged.failed), (6, 1));
        assert!(!merged.correct());
    }

    #[test]
    fn contract_lines_carry_exactly_the_declared_metrics() {
        let merged = WorkloadResult::merge("thread-fine", &[sample_pass(0.7)], vec![]);
        for (traced, expected) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let doc = parse_json(&merged.contract_line(traced)).unwrap();
            let Json::Obj(fields) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics")
            };
            assert_eq!(metrics.len(), expected);
        }
    }
}
