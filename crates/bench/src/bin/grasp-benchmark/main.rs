//! `grasp-benchmark` — the wall-clock yardstick of this repository.
//!
//! A single-process, seeded load generator that drives the public run
//! surface (`Grasp::run` on the thread, process, socket and simulated
//! backends, and `GraspService::submit` → `JobHandle::wait`) through nine
//! named workloads, checks every output, and prints eight end-to-end
//! metrics per workload — or, with `--trace 1`, the per-layer metrics of a
//! traced run.  README.md in this directory is the manual; `metrics.rs`
//! names every metric; `--compare` judges two result files.

mod child;
mod compare;
mod gen;
mod json;
mod metrics;
mod probes;
mod result;
mod stats;
mod trace;
mod usage;
mod workloads;

use child::PassPlan;
use grasp_bench::gate::parse_json;
use json::JsonOut;
use result::{PassResult, WorkloadResult};
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Workers on every surface (= `nproc` on the build image).  Fixed, so the
/// same inputs mean the same schedule shape on every commit.
pub const WORKERS: usize = 2;

/// Child processes per workload in a full run; each one sets up afresh, so
/// `setup_s` is a median over this many set-ups, and the passes of all
/// workloads are interleaved so slow drift of the machine hits them alike.
const PASSES: usize = 3;

/// Timed repetitions a pass runs at least, however short `--seconds` is.
const MIN_REPS_PER_PASS: usize = 3;

/// ISSUE 12's eight workloads — the names are fixed: later issues refer to
/// them — and `service-serial`, which stands in for `service-mix` in
/// `BENCHMARK.json` (see [`Workload::in_contract`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ThreadFine,
    ThreadSkew,
    ProcStream,
    ProcShm,
    ProcJobs,
    NetStream,
    ServiceMix,
    SimScale,
    ServiceSerial,
}

impl Workload {
    pub const ALL: [Workload; 9] = [
        Workload::ThreadFine,
        Workload::ThreadSkew,
        Workload::ProcStream,
        Workload::ProcShm,
        Workload::ProcJobs,
        Workload::NetStream,
        Workload::ServiceMix,
        Workload::SimScale,
        Workload::ServiceSerial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ThreadFine => "thread-fine",
            Workload::ThreadSkew => "thread-skew",
            Workload::ProcStream => "proc-stream",
            Workload::ProcShm => "proc-shm",
            Workload::ProcJobs => "proc-jobs",
            Workload::NetStream => "net-stream",
            Workload::ServiceMix => "service-mix",
            Workload::SimScale => "sim-scale",
            Workload::ServiceSerial => "service-serial",
        }
    }

    /// Why the workload exists and which layer does the work, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ThreadFine => {
                "500k ~2 us units on 2 threads: the finest grain, where exec-farm dispatch and \
                 core engine/scheduler cost per unit is the largest share of the wall"
            }
            Workload::ThreadSkew => {
                "3k irregular units, worker 0 slowed 8x, stealing+speculation: kernel- and \
                 critical-path-bound, adaptation quality shows, dispatch cost must not"
            }
            Workload::ProcStream => {
                "30k ~47 us units over pipes to 2 worker processes: steady state of the proc \
                 master loop, wire and transport with spawn amortised; kernel-bound, must stay flat"
            }
            Workload::ProcShm => {
                "the proc-stream job over the shared-memory ring: same layer, other transport, \
                 4x slower per unit; a fix for its polling must show here and not on proc-stream"
            }
            Workload::ProcJobs => {
                "200 back-to-back 8-band matmul jobs, fresh worker processes per job, digests \
                 verified: spawn+handshake+calibration+reap are four fifths of a job"
            }
            Workload::NetStream => {
                "the proc-stream job over localhost TCP with Join/Welcome membership: the second \
                 copy of the frame master, measured before the two merge"
            }
            Workload::ServiceMix => {
                "8k mixed-shape small jobs through one resident GraspService, closed loop, four \
                 outstanding: submit, admission, shared rounds and outcome path on WorkerPool"
            }
            Workload::SimScale => {
                "240k units on a simulated 1024-node grid with 32 outages: single-threaded \
                 gridsim + sim farm, the control no thread/process/socket change may move"
            }
            Workload::ServiceSerial => {
                "service-mix with one job outstanding (4k jobs): the same submit, admission, \
                 round and outcome path run strictly in turn, so it repeats from run to run"
            }
        }
    }

    /// Whether `BENCHMARK.json` lists the workload.  The driver's contract
    /// takes at most eight, and only workloads whose metrics spread by no
    /// more than 25 % over ten seeds; with four jobs outstanding on two cores
    /// `service-mix` does not stay inside that (README.md), so its
    /// one-outstanding sibling is listed in its place.  The benchmark itself
    /// runs all nine.
    pub fn in_contract(self) -> bool {
        self != Workload::ServiceMix
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn needs_proc_worker(self) -> bool {
        matches!(
            self,
            Workload::ProcStream | Workload::ProcShm | Workload::ProcJobs
        )
    }
}

const USAGE: &str = "\
usage: grasp-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--quick]
       grasp-benchmark --compare A.json B.json
       grasp-benchmark --describe

  --workload NAME   run only this workload (repeatable; default: all nine)
  --seed N          seed of the generated inputs (default 42)
  --seconds S       timed seconds per workload, split over 3 passes (default 8)
  --trace 1         traced run: spans, probes, per-layer metrics, Chrome trace
  --quick           1 warm-up + 2 reps per workload in one pass (smoke test)
  --compare A B     judge result file B against baseline A with each metric's bound
  --describe        print BENCHMARK.json as generated from the metric tables
";

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// `Some` in a re-exec'd child: the pass to run.
    child: Option<(Workload, usize)>,
}

enum Mode {
    Run(Options),
    Compare(PathBuf, PathBuf),
    Describe,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 8.0,
        trace: false,
        quick: false,
        child: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = |name: &str| {
        Workload::from_name(name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (one of: {})", names.join(", "))
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => opts.workloads.push(workload(&value(&mut it, arg)?)?),
            "--seed" => {
                opts.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value(&mut it, arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                opts.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => opts.quick = true,
            "--child" => {
                let w = workload(&value(&mut it, arg)?)?;
                let min_reps = value(&mut it, "--child")?
                    .parse()
                    .map_err(|e| format!("--child: {e}"))?;
                opts.child = Some((w, min_reps));
            }
            "--compare" => {
                let a = value(&mut it, arg)?;
                let b = value(&mut it, arg)?;
                return Ok(Mode::Compare(a.into(), b.into()));
            }
            "--describe" => return Ok(Mode::Describe),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(Mode::Run(opts))
}

/// `target/benchmark/` beside the profile directory the binary runs from
/// (`<target>/release/grasp-benchmark` → `<target>/benchmark/`).
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// A missing worker binary is a typed refusal that names the fix.
fn check_worker_binaries(workloads: &[Workload]) -> Result<(), String> {
    let missing = |name: &str| {
        format!(
            "worker binary `{name}` not found next to {} — run `cargo build --release` \
             (the workspace builds it), or set its *_WORKER_BIN variable",
            std::env::current_exe()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|_| "this executable".into())
        )
    };
    if workloads.iter().any(|w| w.needs_proc_worker()) && grasp_proc::find_worker_bin().is_none() {
        return Err(missing(grasp_proc::WORKER_BIN_NAME));
    }
    if workloads.contains(&Workload::NetStream) && grasp_net::find_worker_bin().is_none() {
        return Err(missing(grasp_net::WORKER_BIN_NAME));
    }
    Ok(())
}

/// Run one pass in a re-exec'd child under a watchdog; returns the pass's
/// result, if it delivered one, and what went wrong, if anything did.  The
/// child is given four times its expected duration; an overdue child is
/// killed — with its whole process group, so the worker processes it spawned
/// go with it — recorded, and the run carries on.  A child that delivered its
/// result line and *then* hung or died — the known lost wake-up in
/// `GraspService::stop` / `WorkerPool::drop` parks tear-down forever — keeps
/// its result: the trouble is reported on stderr, not inherited.
fn run_pass(plan: PassPlan) -> (Option<PassResult>, Option<String>) {
    let name = plan.workload.name();
    // Set-up and the warm-up repetition, the timed part, the probes.
    let expected_s =
        4.0 + plan.seconds.max(plan.min_reps as f64) + if plan.trace { 12.0 } else { 0.0 };
    let deadline = Duration::from_secs_f64(4.0 * expected_s);
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--child", name, &plan.min_reps.to_string()])
            .args(["--seed", &plan.seed.to_string()])
            .args(["--seconds", &plan.seconds.to_string()])
            .args(["--trace", if plan.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .process_group(0)
            .spawn()
    });
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return (None, Some(format!("{name}: could not start a child: {e}"))),
    };
    let group = child.id();
    // Lines come over a channel, not from a joined thread: worker processes
    // inherit the child's stdout, and one that outlived it would hold the
    // pipe — and a `join` — open.
    let stdout = child.stdout.take().expect("stdout was piped");
    let (line_tx, line_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if line_tx.send(line).is_err() {
                break;
            }
        }
    });

    let started = Instant::now();
    let trouble = loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => break None,
            Ok(Some(status)) => break Some(format!("{name}: child exited with {status}")),
            Ok(None) if started.elapsed() > deadline => {
                usage::kill_group(group);
                let _ = child.wait();
                break Some(format!(
                    "{name}: killed by the watchdog after {:.1} s",
                    started.elapsed().as_secs_f64()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Some(format!("{name}: could not wait for the child: {e}")),
        }
    };
    // Nothing the pass started may run into the next workload.
    usage::kill_group(group);
    // All the child wrote is in the pipe by now, and with the group gone the
    // pipe is closed; the time-out only bounds the wait for a process that
    // left the group and still holds it.
    let lines: Vec<String> =
        std::iter::from_fn(|| line_rx.recv_timeout(Duration::from_millis(500)).ok()).collect();

    // The first line is the pass; `service-mix` adds its shutdown span on a
    // second one, once (and if) the shutdown returns.
    let mut pass: Option<PassResult> = None;
    for line in lines {
        let parsed = parse_json(&line).and_then(|doc| {
            match (doc.get("service.shutdown_ms"), pass.as_mut()) {
                (Some(ms), Some(pass)) => {
                    let ms = ms.as_f64().unwrap_or(0.0);
                    pass.layers.insert("service.shutdown_ms".into(), ms);
                }
                _ => pass = Some(PassResult::from_json(&doc)?),
            }
            Ok(())
        });
        if let Err(e) = parsed {
            eprintln!("{name}: unreadable result line: {e}");
        }
    }
    match (pass, trouble) {
        (Some(pass), Some(trouble)) => {
            eprintln!("{trouble} — after its metrics were written; they are kept");
            (Some(pass), None)
        }
        (None, None) => (None, Some(format!("{name}: child printed no result"))),
        other => other,
    }
}

/// The machine facts every result is stamped with.  `noisy` is set when
/// the 1-minute load average exceeded 1 before the run put any load on.
struct Header {
    commit: String,
    loadavg_1m: f64,
}

impl Header {
    fn noisy(&self) -> bool {
        self.loadavg_1m > 1.0
    }
}

fn print_header(opts: &Options, header: &Header) {
    println!(
        "grasp-benchmark  nproc={} workers={WORKERS} seed={} seconds={} trace={} quick={} \
         commit={} loadavg={:.2}{}",
        usage::nproc(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.quick,
        header.commit,
        header.loadavg_1m,
        if header.noisy() { " NOISY" } else { "" },
    );
}

fn print_workload(result: &WorkloadResult, traced: bool) {
    println!(
        "\n{}  reps={} attempted={} failed={} correct={} spin_ns_per_iter={:.4}->{:.4}{}",
        result.name,
        result.reps,
        result.attempted,
        result.failed,
        result.correct(),
        result.spin_ns_start,
        result.spin_ns_end,
        if result.drift { " DRIFT" } else { "" },
    );
    for incident in &result.incidents {
        println!("  incident: {incident}");
    }
    for m in &metrics::END_TO_END {
        if let Some(measured) = result.metrics.get(m.name) {
            let note = if m.name == "job_latency_us_p99" {
                format!(
                    "  (p{:.2} of {} samples)",
                    result.tail_percentile * 100.0,
                    result.tail_samples
                )
            } else {
                String::new()
            };
            println!(
                "  {:<22} {:>16.6} {:<4} spread {:>5.1}%{note}",
                m.name,
                measured.value,
                m.unit,
                measured.spread() * 100.0
            );
        }
    }
    if traced {
        println!("  -- per-layer (traced run; 0 = layer not on this workload's path) --");
        for m in &metrics::PER_LAYER {
            if let Some(measured) = result.metrics.get(m.name) {
                println!(
                    "  {:<34} {:>16.6} {:<6} [{}] -> {}",
                    m.name,
                    measured.value,
                    m.unit,
                    m.source.name(),
                    m.moves
                );
            }
        }
    }
}

fn write_results(opts: &Options, header: &Header, results: &[WorkloadResult]) -> PathBuf {
    let mut out = JsonOut::new();
    out.begin_obj();
    out.key("header").begin_obj();
    out.key("nproc").num(usage::nproc() as f64);
    out.key("workers").num(WORKERS as f64);
    out.key("seed").num(opts.seed as f64);
    out.key("seconds").num(opts.seconds);
    out.key("trace").bool(opts.trace);
    out.key("quick").bool(opts.quick);
    out.key("commit").str(&header.commit);
    out.key("loadavg_1m").num(header.loadavg_1m);
    out.key("noisy").bool(header.noisy());
    out.end_obj();
    out.key("workloads").begin_arr();
    for r in results {
        r.write_json(&mut out);
    }
    out.end_arr();
    out.end_obj();
    let dir = output_dir();
    let path = dir.join(if opts.trace {
        "results-traced.json"
    } else {
        "results.json"
    });
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out.finish() + "\n"));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    path
}

fn run_parent(opts: &Options) -> ExitCode {
    if let Err(message) = check_worker_binaries(&opts.workloads) {
        eprintln!("grasp-benchmark: {message}");
        return ExitCode::from(2);
    }
    let header = Header {
        commit: usage::commit(),
        loadavg_1m: usage::loadavg_1m(),
    };
    print_header(opts, &header);

    // A traced or quick run is one pass; a full run is PASSES interleaved
    // passes (every workload once, then every workload again, …).
    let (passes, seconds, min_reps) = if opts.quick {
        (1, 0.0, 2)
    } else if opts.trace {
        (1, 0.0, 0)
    } else {
        (PASSES, opts.seconds / PASSES as f64, MIN_REPS_PER_PASS)
    };
    let mut collected: Vec<(Vec<PassResult>, Vec<String>)> =
        opts.workloads.iter().map(|_| Default::default()).collect();
    for _ in 0..passes {
        for (slot, workload) in collected.iter_mut().zip(&opts.workloads) {
            let (pass, incident) = run_pass(PassPlan {
                workload: *workload,
                seed: opts.seed,
                seconds,
                min_reps,
                trace: opts.trace,
            });
            slot.0.extend(pass);
            slot.1.extend(incident);
        }
    }

    let results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .zip(collected)
        .map(|(w, (passes, incidents))| WorkloadResult::merge(w.name(), &passes, incidents))
        .collect();
    for r in &results {
        print_workload(r, opts.trace);
    }
    let path = write_results(opts, &header, &results);
    println!("\nresults: {}", path.display());
    if opts.trace {
        println!(
            "traces:  {}/trace-<workload>.json (open in https://ui.perfetto.dev)",
            output_dir().display()
        );
    }
    // The driver's contract: the last line of stdout is one JSON object per
    // invocation.  With one workload it is that workload's line; a run over
    // several prints one line per workload, in order.
    for r in &results {
        println!("{}", r.contract_line(opts.trace));
    }
    // A failed operation or a killed pass fails the run, so that a smoke
    // step wired to `--quick` can.
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Describe) => {
            print!("{}", metrics::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Mode::Compare(a, b)) => compare::run(Path::new(&a), Path::new(&b)),
        Ok(Mode::Run(opts)) => match opts.child {
            Some((workload, min_reps)) => {
                child::run(
                    PassPlan {
                        workload,
                        seed: opts.seed,
                        seconds: opts.seconds,
                        min_reps,
                        trace: opts.trace,
                    },
                    &output_dir(),
                );
                ExitCode::SUCCESS
            }
            None => run_parent(&opts),
        },
        Err(message) => {
            if !message.is_empty() {
                eprintln!("grasp-benchmark: {message}\n");
            }
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
