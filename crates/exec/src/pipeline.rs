//! A real-thread pipeline.
//!
//! Each stage runs on its own thread; items flow through bounded channels and
//! are re-assembled in submission order at the sink.  Per-stage service times
//! are measured while the stream runs, and the resulting statistics identify
//! the bottleneck stage — the shared-memory analogue of the information the
//! grid pipeline uses to decide remapping.  Each stage worker accumulates its
//! own service-time sum and count and hands them back when it exits, so the
//! hot path takes no statistics lock and memory does not grow with the
//! stream.
//!
//! Stage execution is **fault-isolated**: a panic inside a stage closure is
//! caught with `catch_unwind` and the item is retried in place, bounded by
//! the configured attempt budget (the worker clones the item before an
//! attempt only while a further retry is still permitted — the final attempt
//! moves it).  An item that fails every attempt turns the run into a typed
//! [`GraspError::WorkerFailed`] instead of tearing down the process.  A run
//! is `Ok` only when every item came back exactly once.
//!
//! Mid-run adaptation has one path, through the engine: with
//! [`ThreadPipeline::with_adaptation`] the pipeline runs the shared
//! calibrate→monitor→act loop of
//! [`grasp_core::engine::AdaptationEngine`]: the probe prefix calibrates a
//! per-stage threshold *Zₛ*, stage workers feed wall-clock service times to
//! the engine, and the engine meets a mid-run breach through the stage's
//! [`StageSet`], which **activates the stage's standby** — as one more
//! replica (a thread cannot migrate to a better node, but the stage can be
//! served by one more worker), or, with a [`ThreadPipeline::with_migration`]
//! codec, as the stage's new home.  The engine spends the budget and writes
//! the log.  Primaries and standbys run one stage-worker loop; a standby is
//! a worker that first waits for its activation.  An idle standby holds no
//! channel endpoints (it receives them through its activation message), so
//! it can never keep the pipeline alive: when the last real worker of its
//! stage exits, the activation channel closes and the standby exits too.

use crossbeam::channel::{bounded, Receiver, Sender};
use grasp_core::adaptation::{AdaptationAction, AdaptationLog};
use grasp_core::config::ExecutionConfig;
use grasp_core::engine::{AdaptationEngine, StageRemap, StageSet, WallClock};
use grasp_core::error::GraspError;
use grasp_core::wire::{ByteReader, ByteWriter};
use gridsim::{NodeId, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of the bounded channel in front of each stage and the sink.
const CHANNEL_CAPACITY: usize = 16;

/// Items run sequentially through every stage before the stream starts when
/// the engine is armed: its calibration sample.
const PROBE_ITEMS: usize = 4;

/// A boxed stage function.
pub(crate) type StageFn<T> = Box<dyn Fn(T) -> T + Send + Sync>;

/// Serializes one queued item into a checkpoint buffer (wire payload
/// format) during a live stage migration.
pub(crate) type EncodeItemFn<T> = dyn Fn(&T, &mut ByteWriter) + Send + Sync;

/// Rebuilds one queued item from a checkpoint buffer on the stage's new
/// home.
pub(crate) type DecodeItemFn<T> =
    dyn Fn(&mut ByteReader<'_>) -> Result<T, GraspError> + Send + Sync;

/// The encode/decode pair installed by [`ThreadPipeline::with_migration`].
pub(crate) type MigrationCodec<T> = (Arc<EncodeItemFn<T>>, Arc<DecodeItemFn<T>>);

/// Per-run statistics reported by [`ThreadPipeline::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Mean service time per stage (seconds per item).
    pub(crate) mean_stage_service: Vec<f64>,
    /// Items processed per stage (equals the stream length for every stage).
    pub items_per_stage: Vec<usize>,
    /// Index of the slowest stage.
    pub(crate) bottleneck_stage: usize,
    /// Worker threads used per stage (1 unless the stage was replicated).
    pub(crate) replicas_per_stage: Vec<usize>,
    /// Wall-clock duration of the whole run.
    pub(crate) total: Duration,
    /// Stage panics caught and isolated during the run.
    pub(crate) panics: usize,
    /// Items re-executed after a panicked attempt that ultimately completed.
    pub(crate) retried: usize,
    /// Audit trail of the engine-driven adaptation loop (empty unless
    /// [`ThreadPipeline::with_adaptation`] enabled it): stage replications
    /// or migrations and the threshold context they fired under, in
    /// wall-clock seconds since run start.
    pub(crate) adaptation: AdaptationLog,
}

/// A shared-memory pipeline over stages of type `T -> T`.
pub struct ThreadPipeline<T> {
    stages: Vec<Arc<StageFn<T>>>,
    /// Explicit per-stage worker counts (1 = plain stage).  The skeleton
    /// layer uses this to realise a pipeline-of-farms: a farmed stage gets
    /// its replica count of worker threads.
    stage_replicas: Vec<usize>,
    /// How many times one item may be attempted at one stage before the run
    /// is declared failed.
    max_task_attempts: usize,
    /// Engine-driven mid-run adaptation (see
    /// [`ThreadPipeline::with_adaptation`]); `None` disables it.
    adaptation: Option<ExecutionConfig>,
    /// Checkpoint codec for live stage migration (see
    /// [`ThreadPipeline::with_migration`]); `None` replicates on a breach
    /// instead (items that cannot be serialized cannot move homes).
    migration: Option<MigrationCodec<T>>,
}

impl<T: Send + 'static> ThreadPipeline<T> {
    /// A pipeline with no stages (add them with [`ThreadPipeline::stage`]).
    pub fn new() -> Self {
        ThreadPipeline {
            stages: Vec::new(),
            stage_replicas: Vec::new(),
            max_task_attempts: 3,
            adaptation: None,
            migration: None,
        }
    }

    /// Enable **live stage migration**: when the adaptation engine flags a
    /// sustained stage breach, the breaching worker checkpoints the stage's
    /// queued items — serialized through the wire payload machinery
    /// ([`ByteWriter`]/[`ByteReader`], the same format the process and
    /// network backends frame tasks with) — hands queue and checkpoint to
    /// the stage's standby worker, and **stops serving the stage**.  The
    /// stage is re-homed (logged as `StageMigrated`), not replicated: the
    /// worker count stays the same.  Without a codec a breach activates the
    /// standby as an extra replica.  A checkpoint that does not decode
    /// cleanly fails the run with [`GraspError::WireProtocol`].
    pub fn with_migration(
        mut self,
        encode: impl Fn(&T, &mut ByteWriter) + Send + Sync + 'static,
        decode: impl Fn(&mut ByteReader<'_>) -> Result<T, GraspError> + Send + Sync + 'static,
    ) -> Self {
        self.migration = Some((Arc::new(encode), Arc::new(decode)));
        self
    }

    /// Run the shared Algorithm-2 loop ([`AdaptationEngine`]) over this
    /// pipeline: the probe prefix calibrates a per-stage threshold *Zₛ*
    /// from `exec.threshold`, stage workers report wall-clock service times
    /// to the engine, and a stage whose recent mean (over
    /// `exec.monitor_window` items) breaches *Zₛ* is **replicated** by
    /// activating a standby worker (or re-homed on it, with a
    /// [`ThreadPipeline::with_migration`] codec) — the shared-memory stage
    /// remap, and the pipeline's only mid-run adaptation.  Breaches are
    /// spaced at least `exec.monitor_interval_s` apart on the wall clock, so
    /// scheduler jitter on a shared machine cannot thrash; runs shorter than
    /// one interval never adapt.  A no-op when `exec.adaptive` is false.
    pub fn with_adaptation(mut self, exec: ExecutionConfig) -> Self {
        self.adaptation = Some(exec);
        self
    }

    /// Append a stage.
    pub fn stage(mut self, f: impl Fn(T) -> T + Send + Sync + 'static) -> Self {
        self.stages.push(Arc::new(Box::new(f)));
        self.stage_replicas.push(1);
        self
    }

    /// Append a stage farmed across `replicas` worker threads (clamped to
    /// ≥ 1) — the shared-memory realisation of a nested farm stage inside a
    /// pipeline.  Result order is still preserved by the reordering sink.
    pub(crate) fn stage_replicated(
        mut self,
        f: impl Fn(T) -> T + Send + Sync + 'static,
        replicas: usize,
    ) -> Self {
        self.stages.push(Arc::new(Box::new(f)));
        self.stage_replicas.push(replicas.max(1));
        self
    }

    /// Override how many times one item may be attempted at one stage before
    /// the run fails (clamped to ≥ 1; the default is 3).
    pub(crate) fn with_max_task_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = attempts.max(1);
        self
    }

    /// Run the stream through the pipeline, returning the transformed items
    /// in submission order plus statistics.  An empty stage list returns the
    /// input unchanged.
    ///
    /// Panics (with the [`GraspError`] message) if an item fails a stage on
    /// every allowed attempt; use [`ThreadPipeline::try_run`] for the
    /// fallible path.
    pub fn run(&self, items: Vec<T>) -> (Vec<T>, PipelineStats)
    where
        T: Clone,
    {
        self.try_run(items)
            .unwrap_or_else(|e| panic!("ThreadPipeline::run failed: {e}"))
    }

    /// Run the stream through the pipeline, returning the transformed items
    /// in submission order plus statistics, or a typed error when an item
    /// exhausts its per-stage retry budget
    /// ([`GraspError::WorkerFailed`]), a migration checkpoint does not
    /// decode ([`GraspError::WireProtocol`]), or an item does not come back
    /// exactly once.  An empty stage list returns the input unchanged.
    pub fn try_run(&self, items: Vec<T>) -> Result<(Vec<T>, PipelineStats), GraspError>
    where
        T: Clone,
    {
        let started = Instant::now();
        let n_stages = self.stages.len();
        let n_items = items.len();
        if n_stages == 0 || n_items == 0 {
            return Ok((
                items,
                PipelineStats {
                    mean_stage_service: vec![0.0; n_stages],
                    items_per_stage: vec![0; n_stages],
                    bottleneck_stage: 0,
                    replicas_per_stage: vec![1; n_stages],
                    total: started.elapsed(),
                    panics: 0,
                    retried: 0,
                    adaptation: AdaptationLog::new(),
                },
            ));
        }

        let max_attempts = self.max_task_attempts;
        let panics = AtomicUsize::new(0);
        let retried = AtomicUsize::new(0);
        // Sequence numbers of items that failed a stage on every attempt.
        let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());

        // Execute one stage over one item with panic isolation and bounded
        // in-place retries.  The item is cloned before an attempt only while
        // a further retry is still permitted (a panicking attempt consumes
        // its input); the final attempt moves the item, so a pipeline with
        // `max_task_attempts == 1` never clones at all.  Returns the output
        // and the successful attempt's service time, or `None` when every
        // attempt panicked.
        let apply_stage = |stage: &StageFn<T>, item: T| -> Option<(T, f64)> {
            let mut slot = Some(item);
            for attempt in 0..max_attempts {
                let last = attempt + 1 == max_attempts;
                let input = if last {
                    slot.take()
                        .expect("slot holds the item until the last attempt")
                } else {
                    slot.as_ref()
                        .expect("slot holds the item until the last attempt")
                        .clone()
                };
                let t0 = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| stage(input))) {
                    Ok(out) => {
                        if attempt > 0 {
                            retried.fetch_add(1, Ordering::Relaxed);
                        }
                        return Some((out, t0.elapsed().as_secs_f64()));
                    }
                    Err(_) => {
                        panics.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            None
        };

        // ------------------------------ probe -------------------------------
        // With the engine armed, a short probe prefix of the stream runs
        // sequentially through each stage (cheap relative to the stream):
        // its measured service times are the engine's calibration sample.
        let adapt_cfg = self.adaptation.filter(|e| e.adaptive);
        let mut items = items;
        let mut probe_results: Vec<(usize, T)> = Vec::new();
        let mut probe_samples: Vec<Vec<f64>> = vec![Vec::new(); n_stages];
        if adapt_cfg.is_some() {
            let rest = items.split_off(items.len().min(PROBE_ITEMS));
            'probe: for (seq, item) in items.into_iter().enumerate() {
                let mut current = item;
                for (stage, samples) in self.stages.iter().zip(&mut probe_samples) {
                    match apply_stage(stage, current) {
                        Some((out, service)) => {
                            samples.push(service);
                            current = out;
                        }
                        None => {
                            failed.lock().push(seq);
                            continue 'probe;
                        }
                    }
                }
                probe_results.push((seq, current));
            }
            items = rest;
        }
        let probe_offset = n_items - items.len();

        // --------------------- engine calibration ---------------------
        // The probe's measured service times are the calibration sample:
        // Zₛ = policy over the observed per-stage services.  Breaches are
        // spaced by the monitor interval on the wall clock (the simulated
        // pipeline needs no such gate — its virtual times are noise-free).
        //
        // One single-stage engine **per stage**, not one shared engine:
        // stage windows are independent, so a shared engine would put one
        // global mutex on every stage's per-item hot path and serialise the
        // very parallelism the pipeline provides.  Per-stage engines keep
        // the contention scope to the workers of one stage.  (Consequence:
        // the recalibration budget and the action-spacing gate become
        // per-stage — immaterial here, since a stage activates its standby
        // at most once.)  The per-stage logs are merged time-ordered at the
        // end.
        let engines: Option<Vec<Mutex<AdaptationEngine>>> = adapt_cfg.map(|exec| {
            // Every engine carries the full Zₛ vector (so stage indices in
            // thresholds and log entries line up), but engine i only ever
            // observes stage i.
            let thresholds: Vec<f64> = probe_samples
                .iter()
                .map(|s| exec.threshold.compute(s))
                .collect();
            (0..n_stages)
                .map(|_| {
                    Mutex::new(
                        AdaptationEngine::for_stages(&exec, thresholds.clone())
                            .with_stage_action_interval(exec.monitor_interval_s),
                    )
                })
                .collect()
        });
        let clock = WallClock::start();
        let activated: Vec<AtomicBool> = (0..n_stages).map(|_| AtomicBool::new(false)).collect();

        // ----------------------------- plumbing -----------------------------
        // stage i reads from rx[i] and writes to tx[i+1]; the sink collects
        // (seq, item) pairs and reorders.
        let mut senders: Vec<Sender<(usize, T)>> = Vec::with_capacity(n_stages + 1);
        let mut receivers: Vec<Receiver<(usize, T)>> = Vec::with_capacity(n_stages + 1);
        for _ in 0..=n_stages {
            let (tx, rx) = bounded::<(usize, T)>(CHANNEL_CAPACITY);
            senders.push(tx);
            receivers.push(rx);
        }
        // One standby worker per stage when the engine is on (see
        // `Activation`).
        let (act_txs, act_rxs): (Vec<_>, Vec<_>) = match engines {
            Some(_) => (0..n_stages).map(|_| bounded::<Activation<T>>(1)).unzip(),
            None => (Vec::new(), Vec::new()),
        };

        // Per-stage (service-time sum, item count), seeded with the probe's
        // samples and topped up with what every worker returns.
        let mut service_totals: Vec<(f64, usize)> = probe_samples
            .iter()
            .map(|s| (s.iter().sum(), s.len()))
            .collect();
        // A checkpoint that did not decode: the run's typed failure.
        let mut lost: Option<GraspError> = None;

        // One stage-worker loop for primaries and standbys: replay a
        // migration checkpoint first, then serve the live queue until it
        // closes or the stage is re-homed elsewhere.  A primary carries
        // its stage's activation sender and feeds the stage's engine
        // until the stage is activated; an activated stage skips its
        // engine entirely — no further action is possible for it, so
        // observing on would be pure lock traffic.  Returns the stage
        // index with this worker's (service-time sum, item count).
        let worker = |i: usize,
                      rx: Receiver<(usize, T)>,
                      tx: Sender<(usize, T)>,
                      checkpoint: Option<Vec<u8>>,
                      activation: Option<Sender<Activation<T>>>|
         -> Result<(usize, f64, usize), GraspError> {
            let mut replay = match (checkpoint, &self.migration) {
                (Some(buf), Some((_, decode))) => decode_checkpoint(&buf, &**decode)?,
                _ => Vec::new(),
            }
            .into_iter();
            let (mut sum, mut served) = (0.0f64, 0usize);
            while let Some((seq, item)) = replay.next().or_else(|| rx.recv().ok()) {
                let t0 = Instant::now();
                let Some((out, service)) = apply_stage(&self.stages[i], item) else {
                    // Exhausted attempts: the item is dropped and the run
                    // reports a typed failure; the stream keeps flowing
                    // so other items finish.
                    failed.lock().push(seq);
                    continue;
                };
                sum += service;
                served += 1;
                let mut migrated = false;
                if let (Some(engines), Some(activation)) = (&engines, &activation) {
                    if !activated[i].load(Ordering::Relaxed) {
                        // Wall time of the whole call, retried attempts
                        // included.
                        let observed = t0.elapsed().as_secs_f64();
                        let now = clock.now();
                        let mut standby = Standby {
                            n_stages,
                            replicas: self.stage_replicas[i] + 1,
                            activated: &activated[i],
                            activation,
                            rx: &rx,
                            tx: &tx,
                            encode: self.migration.as_ref().map(|(encode, _)| &**encode),
                            migrated: false,
                        };
                        engines[i]
                            .lock()
                            .observe_stage(now, i, observed, &mut standby)?;
                        migrated = standby.migrated;
                    }
                }
                // Re-homed, not replicated: the old worker stops serving
                // the stage.
                if tx.send((seq, out)).is_err() || migrated {
                    break;
                }
            }
            Ok((i, sum, served))
        };
        let worker = &worker;

        let (collected, arrivals) = std::thread::scope(|scope| {
            // Source: feed the remaining items with sequence numbers.
            let source_tx = senders[0].clone();
            scope.spawn(move || {
                for (seq, item) in items.into_iter().enumerate() {
                    if source_tx.send((probe_offset + seq, item)).is_err() {
                        break;
                    }
                }
            });

            // Stages: each runs its explicit replica count (stage_replicated)
            // of workers.
            let mut workers = Vec::new();
            for (i, &count) in self.stage_replicas.iter().enumerate() {
                for _ in 0..count {
                    let (rx, tx) = (receivers[i].clone(), senders[i + 1].clone());
                    let activation = act_txs.get(i).cloned();
                    workers.push(scope.spawn(move || worker(i, rx, tx, None, activation)));
                }
            }
            // Standbys: a worker that first waits for its activation.
            for (i, act_rx) in act_rxs.into_iter().enumerate() {
                workers.push(scope.spawn(move || match act_rx.recv() {
                    Ok((rx, tx, checkpoint)) => worker(i, rx, tx, checkpoint, None),
                    Err(_) => Ok((i, 0.0, 0)),
                }));
            }

            // Sink: every item that came back, by sequence number, and how
            // many arrived.
            let sink_rx = receivers[n_stages].clone();
            let sink = scope.spawn(move || {
                let mut collected: BTreeMap<usize, T> = probe_results.into_iter().collect();
                let mut arrivals = collected.len();
                while let Ok((seq, item)) = sink_rx.recv() {
                    collected.insert(seq, item);
                    arrivals += 1;
                }
                (collected, arrivals)
            });

            // Drop the original channel endpoints held by this thread so the
            // pipeline drains and every stage thread terminates.  The
            // activation senders go with them: once a stage's real workers
            // exit, its (unactivated) standby sees the closed channel and
            // exits too.
            drop(senders);
            drop(receivers);
            drop(act_txs);

            for worker in workers {
                match worker
                    .join()
                    .expect("stage panics are caught inside the stage call")
                {
                    Ok((i, sum, served)) => {
                        service_totals[i].0 += sum;
                        service_totals[i].1 += served;
                    }
                    Err(e) => lost = Some(e),
                }
            }
            sink.join().expect("the sink does not panic")
        });

        let mean_stage_service: Vec<f64> = service_totals
            .iter()
            .map(|&(sum, count)| if count > 0 { sum / count as f64 } else { 0.0 })
            .collect();
        let items_per_stage: Vec<usize> = service_totals.iter().map(|&(_, count)| count).collect();
        let bottleneck_stage = mean_stage_service
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let failed = failed.into_inner();
        if let Some(&seq) = failed.iter().min() {
            return Err(GraspError::WorkerFailed {
                task: seq,
                attempts: max_attempts,
            });
        }
        if let Some(e) = lost {
            return Err(e);
        }
        // The run is whole only when the sink holds each sequence number
        // 0..n exactly once.
        if let Some(task) = (0..n_items).find(|seq| !collected.contains_key(seq)) {
            return Err(GraspError::TaskLost { task });
        }
        if arrivals != n_items {
            return Err(GraspError::WireProtocol {
                detail: format!("{arrivals} items reached the sink for a stream of {n_items}"),
            });
        }

        // Merge the per-stage engine logs back into one chronological trail;
        // mid-run activations raise the reported worker counts.
        let mut adaptation = AdaptationLog::new();
        let mut replicas_per_stage = self.stage_replicas.clone();
        if let Some(engines) = engines {
            let mut events: Vec<_> = engines
                .into_iter()
                .flat_map(|m| m.into_inner().into_log().events().to_vec())
                .collect();
            events.sort_by(|a, b| {
                a.time
                    .partial_cmp(&b.time)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for e in events {
                if let AdaptationAction::StageReplicated { stage, replicas } = e.action {
                    replicas_per_stage[stage] = replicas;
                }
                adaptation.record(e.time, e.action, e.threshold, e.trigger_value);
            }
        }
        Ok((
            collected.into_values().collect(),
            PipelineStats {
                mean_stage_service,
                items_per_stage,
                bottleneck_stage,
                replicas_per_stage,
                total: started.elapsed(),
                panics: panics.into_inner(),
                retried: retried.into_inner(),
                adaptation,
            },
        ))
    }
}

/// What a primary worker hands its stage's standby on activation: the
/// stage's channel endpoints and, for a migration, the checkpoint — the
/// drained queue in wire payload format (`None` activates the standby as an
/// extra replica).  An idle standby holds no endpoints, so it can never keep
/// the pipeline from draining: when the last real worker of its stage exits,
/// the activation channel closes and the standby exits with it.
type Activation<T> = (Receiver<(usize, T)>, Sender<(usize, T)>, Option<Vec<u8>>);

/// A primary worker's hold on its stage's standby: the [`StageSet`] of the
/// stage's engine.  The first breach activates the standby — as an extra
/// replica, or, with a migration codec, as the stage's new home with the
/// queued items checkpointed — and every later breach declines.
struct Standby<'a, T> {
    n_stages: usize,
    /// Workers serving the stage once the standby joins them.
    replicas: usize,
    activated: &'a AtomicBool,
    activation: &'a Sender<Activation<T>>,
    rx: &'a Receiver<(usize, T)>,
    tx: &'a Sender<(usize, T)>,
    encode: Option<&'a EncodeItemFn<T>>,
    /// Set when this worker handed its stage away and must stop serving it.
    migrated: bool,
}

impl<T> StageSet for Standby<'_, T> {
    fn remap(&mut self, _now: SimTime, stage: usize) -> Result<StageRemap, GraspError> {
        if self.activated.swap(true, Ordering::Relaxed) {
            return Ok(StageRemap::Decline);
        }
        let endpoints = (self.rx.clone(), self.tx.clone());
        let Some(encode) = self.encode else {
            let _ = self.activation.send((endpoints.0, endpoints.1, None));
            return Ok(StageRemap::Replicated {
                replicas: self.replicas,
            });
        };
        // Live migration: checkpoint the queued items through the wire
        // payload format.  The drain frees channel slots, so the source
        // never blocks on a stopped stage.
        let drained: Vec<(usize, T)> = std::iter::from_fn(|| self.rx.try_recv().ok()).collect();
        let mut w = ByteWriter::new();
        w.put_u64(drained.len() as u64);
        for (seq, item) in &drained {
            w.put_u64(*seq as u64);
            encode(item, &mut w);
        }
        let _ = self
            .activation
            .send((endpoints.0, endpoints.1, Some(w.into_vec())));
        self.migrated = true;
        // The standby's home is named after its slot beyond the primary
        // stage ids.
        Ok(StageRemap::Migrated {
            from: NodeId(stage),
            to: NodeId(self.n_stages + stage),
            checkpointed_items: drained.len(),
        })
    }
}

/// The `(seq, item)` pairs of a migration checkpoint, or a
/// [`GraspError::WireProtocol`] when it does not decode cleanly: a short
/// read, a decode error, or bytes left over.
fn decode_checkpoint<T>(
    buf: &[u8],
    decode: &DecodeItemFn<T>,
) -> Result<Vec<(usize, T)>, GraspError> {
    let mut r = ByteReader::new(buf);
    let count = r.take_u64()?;
    let items = (0..count)
        .map(|_| Ok((r.take_u64()? as usize, decode(&mut r)?)))
        .collect::<Result<Vec<_>, GraspError>>()?;
    r.finish()?;
    Ok(items)
}

impl<T: Send + 'static> Default for ThreadPipeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::spin;

    #[test]
    fn items_flow_through_all_stages_in_order() {
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| x + 1)
            .stage(|x: u64| x * 2)
            .stage(|x: u64| x - 3);
        let items: Vec<u64> = (10..110).collect();
        let (out, stats) = pipeline.run(items.clone());
        let expected: Vec<u64> = items.iter().map(|x| (x + 1) * 2 - 3).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.items_per_stage, vec![100, 100, 100]);
        assert_eq!(stats.replicas_per_stage, vec![1, 1, 1]);
    }

    #[test]
    fn empty_stream_and_empty_pipeline_are_noops() {
        let pipeline: ThreadPipeline<u64> = ThreadPipeline::new().stage(|x| x);
        let (out, _) = pipeline.run(Vec::new());
        assert!(out.is_empty());

        let empty: ThreadPipeline<u64> = ThreadPipeline::new();
        let (out, stats) = empty.run(vec![1, 2, 3]);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.bottleneck_stage, 0);
    }

    #[test]
    fn bottleneck_stage_is_identified() {
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| x + 1)
            .stage(|x: u64| spin(20_000) ^ x) // deliberately heavy
            .stage(|x: u64| x | 1);
        let items: Vec<u64> = (0..60).collect();
        let (_, stats) = pipeline.run(items);
        assert_eq!(stats.bottleneck_stage, 1);
        assert!(stats.mean_stage_service[1] >= stats.mean_stage_service[0]);
    }

    #[test]
    fn per_stage_replication_preserves_order_and_reports_workers() {
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| x + 1)
            .stage_replicated(
                |x: u64| {
                    std::hint::black_box(spin(10_000));
                    x * 3
                },
                3,
            )
            .stage(|x: u64| x - 2);
        let items: Vec<u64> = (0..80).collect();
        let expected: Vec<u64> = items.iter().map(|x| (x + 1) * 3 - 2).collect();
        let (out, stats) = pipeline.run(items);
        assert_eq!(out, expected, "farmed stage must preserve stream order");
        assert_eq!(stats.replicas_per_stage, vec![1, 3, 1]);
        assert_eq!(stats.items_per_stage, vec![80, 80, 80]);
    }

    /// A stage body that is healthy (a 2 000-iteration spin) for its first
    /// 30 items and then sleeps 1 ms per item.  Sleeping, not spinning,
    /// degrades the stage without taking a core from the rest of the
    /// pipeline.
    fn degrade_from_item_30(items_seen: &AtomicUsize) {
        if items_seen.fetch_add(1, Ordering::Relaxed) >= 30 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        } else {
            spin(2_000);
        }
    }

    #[test]
    fn engine_breach_activates_the_standby_replica_mid_run() {
        use grasp_core::ThresholdPolicy;
        use std::sync::atomic::AtomicUsize;
        // Stage 1 is healthy while the probe calibrates Zₛ, then sleeps
        // 1 ms per item from item 30 on — the wall-clock analogue of the
        // grid pipeline's mid-run load spike.  The engine must notice the
        // breach and replicate the stage by activating its standby worker.
        // The spacing gate holds every breach until 50 ms in, deep in the
        // degraded phase, so scheduler jitter during the healthy phase
        // cannot stand in for the slowdown.
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let hook = done.clone();
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 3.0 },
            monitor_interval_s: 0.05,
            ..ExecutionConfig::default()
        };
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| {
                spin(2_000);
                x + 1
            })
            .stage(move |x: u64| {
                degrade_from_item_30(&hook);
                x * 2
            })
            .with_adaptation(exec);
        let items: Vec<u64> = (0..150).collect();
        let expected: Vec<u64> = items.iter().map(|x| (x + 1) * 2).collect();
        let (out, stats) = pipeline
            .try_run(items)
            .expect("adaptation must not fail the run");
        assert_eq!(out, expected, "replication preserves order and results");
        assert_eq!(stats.items_per_stage, vec![150, 150]);
        // The degraded stage must have been replicated; a noisy shared
        // machine may additionally replicate the other stage spuriously,
        // which is legal adaptation, so only stage 1 is asserted exactly.
        assert!(
            stats.adaptation.stage_replications() >= 1,
            "{}",
            stats.adaptation.summary()
        );
        assert_eq!(
            stats.replicas_per_stage[1], 2,
            "the degraded stage gained its standby: {:?}",
            stats.replicas_per_stage
        );
    }

    #[test]
    fn engine_breach_migrates_the_stage_when_a_codec_is_configured() {
        use grasp_core::ThresholdPolicy;
        use std::sync::atomic::AtomicUsize;
        // Same breach as the replication test, but the config asks for
        // migration and the pipeline has a checkpoint codec: the degraded
        // stage must be re-homed on its standby (queued items round-tripped
        // through the wire payload), not replicated — the worker count
        // stays 1 and the log says StageMigrated, with a non-empty
        // checkpoint.
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let hook = done.clone();
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 3.0 },
            monitor_interval_s: 0.05,
            migrate_stages: true,
            ..ExecutionConfig::default()
        };
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| {
                spin(2_000);
                x + 1
            })
            .stage(move |x: u64| {
                degrade_from_item_30(&hook);
                x * 2
            })
            .with_adaptation(exec)
            .with_migration(|x, w| w.put_u64(*x), |r| r.take_u64());
        let items: Vec<u64> = (0..150).collect();
        let expected: Vec<u64> = items.iter().map(|x| (x + 1) * 2).collect();
        let (out, stats) = pipeline
            .try_run(items)
            .expect("migration must not fail the run");
        assert_eq!(out, expected, "migration preserves order and results");
        assert_eq!(stats.items_per_stage, vec![150, 150]);
        assert!(
            stats.adaptation.events().iter().any(|e| matches!(
                e.action,
                AdaptationAction::StageMigrated {
                    stage: 1,
                    checkpointed_items,
                    ..
                } if checkpointed_items > 0
            )),
            "stage 1 migrated with its queued items: {:?}",
            stats.adaptation.events()
        );
        assert_eq!(
            stats.adaptation.stage_replications(),
            0,
            "migration replaces replication: {}",
            stats.adaptation.summary()
        );
        assert_eq!(
            stats.replicas_per_stage,
            vec![1, 1],
            "a re-homed stage gains no workers"
        );
    }

    #[test]
    fn migration_config_without_a_codec_falls_back_to_replication() {
        use grasp_core::ThresholdPolicy;
        use std::sync::atomic::AtomicUsize;
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let hook = done.clone();
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 3.0 },
            monitor_interval_s: 0.05,
            migrate_stages: true,
            ..ExecutionConfig::default()
        };
        let pipeline = ThreadPipeline::new()
            .stage(move |x: u64| {
                degrade_from_item_30(&hook);
                x * 2
            })
            .with_adaptation(exec);
        let items: Vec<u64> = (0..120).collect();
        let (out, stats) = pipeline.try_run(items).expect("fallback must not fail");
        assert_eq!(out.len(), 120);
        assert_eq!(
            stats.adaptation.stage_migrations(),
            0,
            "no codec, no checkpoint, no migration: {}",
            stats.adaptation.summary()
        );
        assert!(
            stats.adaptation.stage_replications() >= 1,
            "the breach replicates instead: {}",
            stats.adaptation.summary()
        );
    }

    #[test]
    fn a_checkpoint_that_does_not_decode_fails_the_run() {
        use grasp_core::ThresholdPolicy;
        use std::sync::atomic::AtomicUsize;
        // A migration breach with a codec whose decode reads one u64 where
        // encode wrote two: the checkpoint cannot be rebuilt, so the run
        // must fail typed instead of returning Ok without the checkpointed
        // items.  The spacing gate holds every breach until 50 ms in, deep
        // in the degraded phase, where the sleeping stage has long let the
        // source fill its queue — even on a loaded machine.
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let hook = done.clone();
        let exec = ExecutionConfig {
            threshold: ThresholdPolicy::Factor { factor: 3.0 },
            monitor_interval_s: 0.05,
            migrate_stages: true,
            ..ExecutionConfig::default()
        };
        let pipeline = ThreadPipeline::new()
            .stage(move |x: u64| {
                degrade_from_item_30(&hook);
                x * 2
            })
            .with_adaptation(exec)
            .with_migration(
                |x, w| {
                    w.put_u64(*x);
                    w.put_u64(*x);
                },
                |r| r.take_u64(),
            );
        match pipeline.try_run((0..150).collect()) {
            Err(GraspError::WireProtocol { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok((out, stats)) => panic!(
                "Ok with {} of 150 items: {}",
                out.len(),
                stats.adaptation.summary()
            ),
        }
    }

    #[test]
    fn disabled_adaptation_keeps_the_log_empty_and_spawns_no_replicas() {
        let exec = ExecutionConfig {
            adaptive: false,
            monitor_interval_s: 1e-4,
            ..ExecutionConfig::default()
        };
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| {
                spin(20_000);
                x + 1
            })
            .with_adaptation(exec);
        let (out, stats) = pipeline.run((0..40).collect());
        assert_eq!(out.len(), 40);
        assert!(stats.adaptation.is_empty());
        assert_eq!(stats.replicas_per_stage, vec![1]);
    }

    #[test]
    fn transient_stage_panic_is_retried_in_place() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fail_once = std::sync::Arc::new(AtomicUsize::new(1));
        let hook = fail_once.clone();
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| x + 1)
            .stage(move |x: u64| {
                if x == 31
                    && hook
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected transient stage fault");
                }
                x * 2
            });
        let items: Vec<u64> = (0..80).collect();
        let expected: Vec<u64> = items.iter().map(|x| (x + 1) * 2).collect();
        let (out, stats) = pipeline
            .try_run(items)
            .expect("transient stage fault must be survivable");
        assert_eq!(out, expected, "order and completeness survive the retry");
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retried, 1);
    }

    #[test]
    fn persistent_stage_panic_yields_a_typed_error() {
        let pipeline = ThreadPipeline::new()
            .stage(|x: u64| {
                if x == 5 {
                    panic!("permanently broken item");
                }
                x
            })
            .with_max_task_attempts(2);
        let err = pipeline
            .try_run((0..20).collect())
            .expect_err("an item failing every attempt must error");
        match err {
            grasp_core::error::GraspError::WorkerFailed { task, attempts } => {
                assert_eq!(task, 5);
                assert_eq!(attempts, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
