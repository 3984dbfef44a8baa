//! In-memory spans around the calls into each layer.
//!
//! Only the traced run records spans, and only from the benchmark's side of
//! the public API (spans inside the crates are a later change).  Spans are
//! kept in a `Vec` until the run ends, then written as Chrome trace-event
//! JSON (`chrome://tracing`, <https://ui.perfetto.dev>) and folded into the
//! per-layer table.  A span's *self time* is its duration minus what its
//! child spans cover.

use crate::json::JsonOut;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Identifier shared by all spans of one job (0 = not part of a job).
    pub job: u64,
    /// Trace lane: 0 is the generator thread, jobs in flight together take
    /// lanes 1, 2, … so overlapping jobs do not stack on one track.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        lane: u32,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            job,
            lane,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Record a span that was timed elsewhere (before the tracer existed).
    pub fn record(&mut self, name: &'static str, started: Instant, ended: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: None,
            job: 0,
            lane: 0,
            start_ns: at(started),
            end_ns: at(ended),
        });
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`: duration minus the
    /// durations of its direct children.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c) as f64)
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// timestamps in microseconds, one `tid` per lane.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = JsonOut::new();
        out.begin_obj();
        out.key("displayTimeUnit").str("ms");
        out.key("otherData").begin_obj();
        out.key("workload").str(workload);
        out.end_obj();
        out.key("traceEvents").begin_arr();
        for s in &self.spans {
            out.begin_obj();
            out.key("name").str(s.name);
            out.key("cat")
                .str(s.name.split('.').next().unwrap_or("span"));
            out.key("ph").str("X");
            out.key("ts").num(s.start_ns as f64 / 1e3);
            out.key("dur").num(s.duration_ns() as f64 / 1e3);
            out.key("pid").num(1.0);
            out.key("tid").num(f64::from(s.lane));
            out.key("args").begin_obj();
            out.key("job").num(s.job as f64);
            out.end_obj();
            out.end_obj();
        }
        out.end_arr();
        out.end_obj();
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grasp_bench::gate::parse_json;

    #[test]
    fn self_time_is_duration_minus_children_and_the_trace_parses() {
        let mut t = Tracer::new();
        let job = t.begin("job", None, 7, 1);
        let compile = t.begin("compile", Some(job), 7, 1);
        t.end(compile);
        let execute = t.begin("execute", Some(job), 7, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(execute);
        t.end(job);

        let total = t.durations_ns("job")[0];
        let children = t.durations_ns("compile")[0] + t.durations_ns("execute")[0];
        assert_eq!(t.self_times_ns("job")[0], total - children);
        assert!(t.durations_ns("execute")[0] >= 2e6);

        let doc = parse_json(&t.to_chrome_json("unit-test")).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(
            events[2].get("name").and_then(|p| p.as_str()),
            Some("execute")
        );
    }
}
