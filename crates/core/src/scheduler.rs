//! Task-to-worker scheduling policies for the farm.
//!
//! "The key challenges in improving such performance include … the correct
//! adjustment of algorithmic parameters (for example, blocking of
//! communications, granularity)".  In a task farm the visible knob is the
//! *chunk size*: how many tasks the master hands a worker per request.  The
//! classic loop-scheduling spectrum is implemented as baselines, plus GRASP's
//! adaptive policy which weights chunks by the calibrated relative speed of
//! the requesting node.

/// Chunking policy used when a worker requests work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulePolicy {
    /// Split the workload into one equal block per worker up front.  No
    /// adaptation at all — the classic static baseline.
    StaticBlock,
    /// One task per request (pure self-scheduling / demand-driven).
    SelfScheduling,
    /// A fixed number of tasks per request.
    FixedChunk {
        /// Tasks per request (≥ 1).
        chunk: usize,
    },
    /// Guided self-scheduling: each request takes `remaining / workers`,
    /// bounded below by `min_chunk`.
    Guided {
        /// Smallest chunk ever handed out.
        min_chunk: usize,
    },
    /// Factoring: batches of `remaining × factor` split evenly over workers.
    Factoring {
        /// Fraction of the remaining work scheduled per batch (0, 1].
        factor: f64,
    },
    /// GRASP's adaptive policy: like guided, but the chunk is weighted by the
    /// requesting node's calibrated relative speed, so fast nodes receive
    /// proportionally more work per round trip.
    AdaptiveWeighted {
        /// Smallest chunk ever handed out.
        min_chunk: usize,
    },
    /// Work stealing: each worker owns a local deque seeded from a one-shot
    /// partition of the task range and pops rank-weighted chunks from its own
    /// bottom ([`SchedulePolicy::owner_chunk`]); an idle worker steals the top
    /// half of the slowest-ranked victim's deque
    /// ([`SchedulePolicy::steal_share`]).  Backends without per-worker deques
    /// (the sim farm's master-side cursor) degrade to adaptive-weighted
    /// chunking through [`SchedulePolicy::next_chunk_with_total`].
    WorkStealing {
        /// Smallest chunk an owner ever pops from its deque.
        min_chunk: usize,
    },
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy::AdaptiveWeighted { min_chunk: 1 }
    }
}

impl SchedulePolicy {
    /// Decide how many tasks to hand to a worker.
    ///
    /// * `remaining` — tasks still waiting to be dispatched.
    /// * `total` — tasks the whole execution phase started with (`StaticBlock`
    ///   precomputes its per-worker block from this, so every worker receives
    ///   the same `ceil(total / workers)` block instead of a shrinking
    ///   re-split of `remaining`).
    /// * `workers` — number of active workers.
    /// * `weight` — the requesting worker's relative speed (1.0 = pool mean);
    ///   only the adaptive policy uses it.
    ///
    /// Always returns at least 1 when `remaining > 0`, and never more than
    /// `remaining`.
    pub fn next_chunk_with_total(
        &self,
        remaining: usize,
        total: usize,
        workers: usize,
        weight: f64,
    ) -> usize {
        if remaining == 0 {
            return 0;
        }
        let workers = workers.max(1);
        let chunk = match *self {
            SchedulePolicy::StaticBlock => total.max(remaining).div_ceil(workers),
            SchedulePolicy::SelfScheduling => 1,
            SchedulePolicy::FixedChunk { chunk } => chunk.max(1),
            SchedulePolicy::Guided { min_chunk } => (remaining / workers).max(min_chunk.max(1)),
            SchedulePolicy::Factoring { factor } => {
                // Guard non-finite factors (NaN/±inf propagate through
                // `clamp`) before taking the fraction, and clamp the rounded
                // batch share to ≥ 1 so a tail where
                // `remaining < workers / factor` can never emit a zero chunk.
                let f = if factor.is_finite() {
                    factor.clamp(0.05, 1.0)
                } else {
                    1.0
                };
                (((remaining as f64) * f / workers as f64).ceil() as usize).max(1)
            }
            SchedulePolicy::AdaptiveWeighted { min_chunk }
            | SchedulePolicy::WorkStealing { min_chunk } => {
                // Weighted factoring: schedule roughly a quarter of the
                // remaining work per round, split over the workers, scaled by
                // the requesting node's calibrated relative speed.  Small
                // enough that a node degrading mid-run strands little work,
                // large enough to amortise dispatch overhead.
                let base = remaining as f64 / (workers as f64 * 4.0);
                let weighted = (base * weight.clamp(0.1, 10.0)).ceil() as usize;
                weighted.max(min_chunk.max(1))
            }
        };
        chunk.min(remaining)
    }

    /// How many tasks a deque **owner** pops from its own bottom per dispatch.
    ///
    /// The steal-aware sibling of [`next_chunk_with_total`]: `local_remaining`
    /// is the owner's deque length (not the global queue), so the chunk is a
    /// rank-weighted quarter of the *local* backlog — fast-ranked workers
    /// (`weight > 1`) drain their deque in large strides while slow or
    /// demoted workers (`weight < 1`) shrink toward `min_chunk`, leaving the
    /// top of their deque exposed for thieves.  Policies without a deque
    /// notion delegate to [`next_chunk_with_total`] over the local backlog.
    ///
    /// Always returns at least 1 when `local_remaining > 0`, and never more
    /// than `local_remaining`.
    ///
    /// [`next_chunk_with_total`]: SchedulePolicy::next_chunk_with_total
    pub fn owner_chunk(&self, local_remaining: usize, workers: usize, weight: f64) -> usize {
        if local_remaining == 0 {
            return 0;
        }
        match *self {
            SchedulePolicy::WorkStealing { min_chunk } => {
                let base = local_remaining as f64 / 4.0;
                let weight = if weight.is_finite() {
                    weight.clamp(0.1, 10.0)
                } else {
                    1.0
                };
                let weighted = (base * weight).ceil() as usize;
                weighted.max(min_chunk.max(1)).min(local_remaining)
            }
            _ => self.next_chunk_with_total(local_remaining, local_remaining, workers, 1.0),
        }
    }

    /// How many tasks a **thief** may take from a victim deque of length
    /// `victim_remaining`: the top half (THE-protocol style), and nothing at
    /// all from a deque shorter than two — the lone last task stays with its
    /// owner so owner and thief can never contend for the same index.
    pub fn steal_share(victim_remaining: usize) -> usize {
        if victim_remaining >= 2 {
            victim_remaining / 2
        } else {
            0
        }
    }

    /// Whether this policy reacts to calibration weights.
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            SchedulePolicy::AdaptiveWeighted { .. } | SchedulePolicy::WorkStealing { .. }
        )
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::StaticBlock => "static-block",
            SchedulePolicy::SelfScheduling => "self-scheduling",
            SchedulePolicy::FixedChunk { .. } => "fixed-chunk",
            SchedulePolicy::Guided { .. } => "guided",
            SchedulePolicy::Factoring { .. } => "factoring",
            SchedulePolicy::AdaptiveWeighted { .. } => "adaptive-weighted",
            SchedulePolicy::WorkStealing { .. } => "work-stealing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The total-less view used throughout these tests: the dynamic policies
    /// decide purely from `remaining`, so passing `remaining` as the total
    /// is exact for them; only `StaticBlock` genuinely needs the real total
    /// (covered by `static_block_hands_one_equal_block_per_worker`).
    fn chunk(p: SchedulePolicy, remaining: usize, workers: usize, weight: f64) -> usize {
        p.next_chunk_with_total(remaining, remaining, workers, weight)
    }

    #[test]
    fn zero_remaining_gives_zero() {
        for p in [
            SchedulePolicy::StaticBlock,
            SchedulePolicy::SelfScheduling,
            SchedulePolicy::default(),
        ] {
            assert_eq!(chunk(p, 0, 4, 1.0), 0);
        }
    }

    #[test]
    fn chunks_never_exceed_remaining() {
        let policies = [
            SchedulePolicy::StaticBlock,
            SchedulePolicy::SelfScheduling,
            SchedulePolicy::FixedChunk { chunk: 64 },
            SchedulePolicy::Guided { min_chunk: 4 },
            SchedulePolicy::Factoring { factor: 0.5 },
            SchedulePolicy::AdaptiveWeighted { min_chunk: 2 },
            SchedulePolicy::WorkStealing { min_chunk: 2 },
        ];
        for p in policies {
            for remaining in [1usize, 3, 10, 1000] {
                for workers in [1usize, 4, 32] {
                    for weight in [0.2, 1.0, 4.0] {
                        let c = chunk(p, remaining, workers, weight);
                        assert!(c >= 1 && c <= remaining, "{p:?} gave {c} for {remaining}");
                    }
                }
            }
        }
    }

    #[test]
    fn static_block_splits_evenly() {
        assert_eq!(chunk(SchedulePolicy::StaticBlock, 100, 4, 1.0), 25);
        assert_eq!(chunk(SchedulePolicy::StaticBlock, 101, 4, 1.0), 26);
    }

    #[test]
    fn static_block_hands_one_equal_block_per_worker() {
        // The "static" baseline must behave statically: with the job total
        // known, successive requests drain the queue in equal per-worker
        // blocks, not in shrinking re-splits of the remainder.
        let p = SchedulePolicy::StaticBlock;
        let total = 100;
        let mut remaining = total;
        let mut blocks = Vec::new();
        while remaining > 0 {
            let c = p.next_chunk_with_total(remaining, total, 4, 1.0);
            blocks.push(c);
            remaining -= c;
        }
        assert_eq!(blocks, vec![25, 25, 25, 25]);

        // Non-divisible totals: equal ceil-blocks with one short tail block.
        let total = 101;
        let mut remaining = total;
        let mut blocks = Vec::new();
        while remaining > 0 {
            let c = p.next_chunk_with_total(remaining, total, 4, 1.0);
            blocks.push(c);
            remaining -= c;
        }
        assert_eq!(blocks, vec![26, 26, 26, 23]);
    }

    #[test]
    fn self_scheduling_is_one_at_a_time() {
        assert_eq!(chunk(SchedulePolicy::SelfScheduling, 100, 4, 5.0), 1);
    }

    #[test]
    fn guided_shrinks_as_work_drains() {
        let p = SchedulePolicy::Guided { min_chunk: 2 };
        let big = chunk(p, 1000, 10, 1.0);
        let small = chunk(p, 30, 10, 1.0);
        assert!(big > small);
        assert_eq!(chunk(p, 5, 10, 1.0), 2, "bounded below by min_chunk");
    }

    #[test]
    fn factoring_takes_a_fraction_per_worker() {
        let p = SchedulePolicy::Factoring { factor: 0.5 };
        assert_eq!(chunk(p, 100, 5, 1.0), 10);
    }

    #[test]
    fn factoring_tail_never_rounds_to_zero() {
        // remaining × factor / workers < 1 at the tail: the batch share must
        // clamp up to one task, never zero, or the queue would never drain.
        let p = SchedulePolicy::Factoring { factor: 0.05 };
        for remaining in 1..=19usize {
            let c = chunk(p, remaining, 64, 1.0);
            assert!(
                c >= 1 && c <= remaining,
                "factoring gave {c} for remaining={remaining}"
            );
        }
        // And a full drain terminates.
        let mut remaining = 1000usize;
        let mut rounds = 0;
        while remaining > 0 {
            let c = chunk(p, remaining, 64, 1.0);
            assert!(c >= 1);
            remaining -= c;
            rounds += 1;
            assert!(rounds < 10_000, "factoring drain failed to terminate");
        }
    }

    #[test]
    fn factoring_non_finite_factor_degrades_to_full_batches() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = SchedulePolicy::Factoring { factor: bad };
            let c = chunk(p, 100, 4, 1.0);
            assert!(
                (1..=100).contains(&c),
                "non-finite factor {bad} gave invalid chunk {c}"
            );
        }
    }

    #[test]
    fn work_stealing_owner_chunks_scale_with_rank_weight() {
        let p = SchedulePolicy::WorkStealing { min_chunk: 1 };
        let slow = p.owner_chunk(100, 4, 0.25);
        let even = p.owner_chunk(100, 4, 1.0);
        let fast = p.owner_chunk(100, 4, 4.0);
        assert!(slow < even && even < fast, "{slow} {even} {fast}");
        assert_eq!(even, 25, "an even-ranked owner pops a quarter of its deque");
        // Slow owners shrink toward min_chunk but never to zero.
        assert!(p.owner_chunk(3, 4, 0.1) >= 1);
        assert_eq!(p.owner_chunk(0, 4, 1.0), 0);
        // min_chunk is a floor, local_remaining a ceiling.
        let p = SchedulePolicy::WorkStealing { min_chunk: 8 };
        assert_eq!(p.owner_chunk(100, 4, 0.1), 8);
        assert_eq!(p.owner_chunk(5, 4, 0.1), 5);
        // Non-finite weights degrade to the even-rank share.
        let p = SchedulePolicy::WorkStealing { min_chunk: 1 };
        assert_eq!(p.owner_chunk(100, 4, f64::NAN), 25);
    }

    #[test]
    fn owner_chunk_delegates_for_non_stealing_policies() {
        let p = SchedulePolicy::SelfScheduling;
        assert_eq!(p.owner_chunk(10, 4, 1.0), 1);
        let p = SchedulePolicy::Guided { min_chunk: 2 };
        assert_eq!(p.owner_chunk(40, 4, 1.0), 10);
    }

    #[test]
    fn steal_share_takes_the_top_half_and_spares_the_last_task() {
        assert_eq!(SchedulePolicy::steal_share(0), 0);
        assert_eq!(SchedulePolicy::steal_share(1), 0, "lone task stays home");
        assert_eq!(SchedulePolicy::steal_share(2), 1);
        assert_eq!(SchedulePolicy::steal_share(7), 3);
        assert_eq!(SchedulePolicy::steal_share(100), 50);
    }

    #[test]
    fn work_stealing_degrades_to_weighted_chunking_without_deques() {
        // Master-side cursor dispatchers (the sim farm) have no per-worker
        // deques; there the policy chunks like adaptive-weighted.
        let p = SchedulePolicy::WorkStealing { min_chunk: 1 };
        let a = SchedulePolicy::AdaptiveWeighted { min_chunk: 1 };
        for (remaining, workers, weight) in [(1000, 10, 0.5), (1000, 10, 3.0), (7, 4, 1.0)] {
            assert_eq!(
                p.next_chunk_with_total(remaining, remaining, workers, weight),
                a.next_chunk_with_total(remaining, remaining, workers, weight)
            );
        }
        assert!(p.is_adaptive());
    }

    #[test]
    fn adaptive_gives_fast_nodes_bigger_chunks() {
        let p = SchedulePolicy::AdaptiveWeighted { min_chunk: 1 };
        let slow = chunk(p, 1000, 10, 0.5);
        let fast = chunk(p, 1000, 10, 3.0);
        assert!(fast > slow, "fast={fast} slow={slow}");
        assert!(p.is_adaptive());
        assert!(!SchedulePolicy::StaticBlock.is_adaptive());
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> = [
            SchedulePolicy::StaticBlock.name(),
            SchedulePolicy::SelfScheduling.name(),
            SchedulePolicy::FixedChunk { chunk: 2 }.name(),
            SchedulePolicy::Guided { min_chunk: 1 }.name(),
            SchedulePolicy::Factoring { factor: 0.5 }.name(),
            SchedulePolicy::AdaptiveWeighted { min_chunk: 1 }.name(),
            SchedulePolicy::WorkStealing { min_chunk: 1 }.name(),
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        assert_eq!(
            chunk(SchedulePolicy::FixedChunk { chunk: 0 }, 10, 2, 1.0),
            1
        );
        assert_eq!(chunk(SchedulePolicy::Guided { min_chunk: 0 }, 1, 8, 1.0), 1);
        assert!(chunk(SchedulePolicy::Factoring { factor: 0.0 }, 100, 4, 1.0) >= 1);
        assert!(
            chunk(
                SchedulePolicy::AdaptiveWeighted { min_chunk: 0 },
                10,
                100,
                0.0
            ) >= 1
        );
    }
}
