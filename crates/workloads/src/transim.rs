//! Optimistic (Time-Warp) discrete-event transaction simulation.
//!
//! A farm of logical processes in the Jefferson Time-Warp style: each farm
//! task owns one partition of accounts and replays a deterministic stream of
//! timestamped transfer transactions that *arrive out of order* (network
//! skew).  The partition executes events optimistically as they arrive; when
//! a straggler — an event timestamped earlier than the local virtual time —
//! turns up, every speculatively executed event past it is rolled back
//! (undone via its logged delta) and re-executed after the straggler.  The
//! cost of optimism is therefore real re-execution work, and it varies per
//! partition with the seed: rollback-heavy partitions become genuine
//! straggler tasks, which is exactly the tail profile the engine-level
//! speculation of this repo is built to absorb.
//!
//! Transaction effects are order-dependent on purpose (the transferred
//! amount is derived from the source account's *current* balance), so the
//! optimistic execution is only correct because rollback exists: the final
//! state must match a strictly timestamp-ordered sequential execution, and
//! the tests pin that Time-Warp equivalence.

use grasp_core::TaskSpec;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A synthetic Time-Warp transaction-simulation job: `partitions` farm
/// tasks, each replaying `events_per_partition` skewed-arrival transfers
/// over its own `accounts_per_partition` accounts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranSimJob {
    /// Number of account partitions (= number of farm tasks).
    pub partitions: usize,
    /// Accounts per partition (transfers never cross partitions).
    pub accounts_per_partition: usize,
    /// Committed transactions per partition.
    pub events_per_partition: usize,
    /// Arrival skew in virtual-time units: each event arrives displaced by
    /// a uniform jitter in `[0, skew)`.  `0` means in-order arrival — no
    /// rollbacks, pure conservative execution.
    pub skew: f64,
    /// Hash-chain iterations one event execution costs (the validation
    /// kernel; re-executions pay it again).
    pub kernel_iters: u64,
    /// RNG seed for transaction generation and arrival jitter.
    pub seed: u64,
}

impl Default for TranSimJob {
    fn default() -> Self {
        TranSimJob {
            partitions: 64,
            accounts_per_partition: 32,
            events_per_partition: 400,
            skew: 6.0,
            kernel_iters: 32,
            seed: 2007,
        }
    }
}

/// What one partition's optimistic replay produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartitionOutcome {
    /// Committed (distinct) transactions — always `events_per_partition`.
    pub(crate) committed_events: usize,
    /// Event executions paid, including every rollback re-execution; the
    /// ground-truth work of the partition.
    pub(crate) processed_events: usize,
    /// Straggler arrivals that forced a rollback.
    pub(crate) rollbacks: usize,
    /// Deepest single rollback (events undone at once).
    pub(crate) max_rollback_depth: usize,
    /// FNV-1a digest of the final balances (the committed state).
    pub(crate) state_digest: u64,
}

/// One timestamped transfer inside a partition.
#[derive(Debug, Clone, Copy)]
struct Txn {
    timestamp: u64,
    src: usize,
    dst: usize,
    salt: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(mut hash: u64, value: u64) -> u64 {
    hash ^= value;
    hash.wrapping_mul(FNV_PRIME)
}

impl TranSimJob {
    /// The partition's transaction stream in timestamp order, with the
    /// arrival permutation its jitter induces.
    fn generate(&self, partition: usize) -> (Vec<Txn>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(partition as u64 + 1)),
        );
        let accounts = self.accounts_per_partition.max(2);
        let txns: Vec<Txn> = (0..self.events_per_partition)
            .map(|t| {
                let src = rng.gen_range(0..accounts);
                let mut dst = rng.gen_range(0..accounts - 1);
                if dst >= src {
                    dst += 1;
                }
                Txn {
                    timestamp: t as u64,
                    src,
                    dst,
                    salt: rng.next_u64(),
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..txns.len()).collect();
        if self.skew > 0.0 {
            let keys: Vec<f64> = txns
                .iter()
                .map(|t| t.timestamp as f64 + rng.gen_range(0.0..1.0) * self.skew)
                .collect();
            order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("finite arrival keys"));
        }
        (txns, order)
    }

    /// Execute one transaction against the balances, paying the validation
    /// kernel, and return the applied delta (needed to undo it exactly).
    fn execute(&self, balances: &mut [i64], txn: &Txn, kernel_iters: u64) -> i64 {
        let mut hash = fnv_mix(FNV_OFFSET, txn.salt);
        for _ in 0..kernel_iters {
            hash = fnv_mix(hash, txn.timestamp);
        }
        // Order-dependent on purpose: the amount reads the source's current
        // balance, so replaying in the wrong order yields a wrong state.
        let delta = ((balances[txn.src].unsigned_abs() ^ hash) % 97) as i64 + 1;
        balances[txn.src] -= delta;
        balances[txn.dst] += delta;
        delta
    }

    fn undo(balances: &mut [i64], txn: &Txn, delta: i64) {
        balances[txn.src] += delta;
        balances[txn.dst] -= delta;
    }

    fn digest(balances: &[i64]) -> u64 {
        balances
            .iter()
            .fold(FNV_OFFSET, |h, &b| fnv_mix(h, b as u64))
    }

    /// The Time-Warp replay of one partition at a chosen kernel cost.
    fn replay(&self, partition: usize, kernel_iters: u64) -> PartitionOutcome {
        let (txns, order) = self.generate(partition);
        let mut balances = vec![1_000i64; self.accounts_per_partition.max(2)];
        // Executed events with their applied deltas, kept in timestamp
        // order — the incremental state-saving log a straggler rolls back.
        let mut log: Vec<(usize, i64)> = Vec::with_capacity(txns.len());
        let mut processed = 0usize;
        let mut rollbacks = 0usize;
        let mut max_depth = 0usize;
        for &idx in &order {
            let arriving = &txns[idx];
            let keep = log.partition_point(|&(i, _)| txns[i].timestamp < arriving.timestamp);
            let undone: Vec<(usize, i64)> = log.split_off(keep);
            if !undone.is_empty() {
                rollbacks += 1;
                max_depth = max_depth.max(undone.len());
                for &(i, delta) in undone.iter().rev() {
                    Self::undo(&mut balances, &txns[i], delta);
                }
            }
            let delta = self.execute(&mut balances, arriving, kernel_iters);
            log.push((idx, delta));
            processed += 1;
            for (i, _) in undone {
                let delta = self.execute(&mut balances, &txns[i], kernel_iters);
                log.push((i, delta));
                processed += 1;
            }
        }
        PartitionOutcome {
            committed_events: txns.len(),
            processed_events: processed,
            rollbacks,
            max_rollback_depth: max_depth,
            state_digest: Self::digest(&balances),
        }
    }

    /// The committed-state digest of a strictly timestamp-ordered sequential
    /// execution — the ground truth the optimistic replay must match.
    #[cfg(test)]
    pub(crate) fn sequential_digest(&self, partition: usize) -> u64 {
        let (txns, _) = self.generate(partition);
        let mut balances = vec![1_000i64; self.accounts_per_partition.max(2)];
        for txn in &txns {
            self.execute(&mut balances, txn, self.kernel_iters);
        }
        Self::digest(&balances)
    }

    /// Exact processed-event count per partition (rollback re-executions
    /// included), from a kernel-free control-flow pre-pass.
    pub(crate) fn processed_event_counts(&self) -> Vec<usize> {
        (0..self.partitions)
            .map(|p| self.replay(p, 0).processed_events)
            .collect()
    }

    /// The job as abstract farm tasks: one task per partition, declared
    /// work = the partition's *exact* processed-event count (so
    /// rollback-heavy partitions are genuinely bigger tasks — the straggler
    /// tail), input = the transaction stream, output = the balances.
    pub fn as_tasks(&self, events_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = events_per_work_unit.max(1.0);
        self.processed_event_counts()
            .into_iter()
            .enumerate()
            .map(|(id, processed)| {
                TaskSpec::new(
                    id,
                    processed as f64 / scale,
                    (self.events_per_partition * 24) as u64,
                    (self.accounts_per_partition * 8) as u64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small job suitable for unit tests.
    fn small() -> TranSimJob {
        TranSimJob {
            partitions: 6,
            accounts_per_partition: 8,
            events_per_partition: 60,
            skew: 4.0,
            kernel_iters: 8,
            seed: 7,
        }
    }

    #[test]
    fn optimistic_replay_matches_sequential_execution() {
        // The Time-Warp correctness property: whatever the arrival skew and
        // however many rollbacks it forces, the committed state equals the
        // timestamp-ordered sequential execution.
        let job = small();
        for p in 0..job.partitions {
            let outcome = job.replay(p, job.kernel_iters);
            assert_eq!(
                outcome.state_digest,
                job.sequential_digest(p),
                "partition {p} diverged from the sequential ground truth"
            );
            assert_eq!(outcome.committed_events, job.events_per_partition);
        }
    }

    #[test]
    fn skewed_arrivals_pay_for_rollbacks_and_in_order_arrivals_do_not() {
        let skewed = small();
        let ordered = TranSimJob {
            skew: 0.0,
            ..skewed
        };
        let total_rollbacks: usize = (0..skewed.partitions)
            .map(|p| skewed.replay(p, skewed.kernel_iters).rollbacks)
            .sum();
        assert!(total_rollbacks > 0, "skew 4.0 must force some rollbacks");
        for p in 0..ordered.partitions {
            let outcome = ordered.replay(p, ordered.kernel_iters);
            assert_eq!(outcome.rollbacks, 0);
            assert_eq!(outcome.processed_events, outcome.committed_events);
        }
    }

    #[test]
    fn replay_is_deterministic_and_partitions_differ() {
        let job = small();
        assert_eq!(
            job.replay(0, job.kernel_iters),
            job.replay(0, job.kernel_iters)
        );
        assert_ne!(
            job.replay(0, job.kernel_iters).state_digest,
            job.replay(1, job.kernel_iters).state_digest,
            "distinct partitions must carry distinct streams"
        );
    }

    #[test]
    fn tasks_are_sized_by_exact_processed_events_and_are_irregular() {
        let job = small();
        let tasks = job.as_tasks(10.0);
        assert_eq!(tasks.len(), job.partitions);
        let counts = job.processed_event_counts();
        for (task, &processed) in tasks.iter().zip(&counts) {
            assert!((task.work - processed as f64 / 10.0).abs() < 1e-9);
            assert!(processed >= job.events_per_partition);
        }
        assert!(
            counts.iter().any(|&c| c != counts[0]),
            "rollback cost must differ across partitions: {counts:?}"
        );
    }

    #[test]
    fn kernel_cost_does_not_change_the_committed_state_shape() {
        // The sizing pre-pass runs the same control flow with the kernel
        // off; rollback/processed accounting must agree with the real run.
        let job = small();
        for p in 0..job.partitions {
            let real = job.replay(p, job.kernel_iters);
            let sized = job.replay(p, 0);
            assert_eq!(real.processed_events, sized.processed_events);
            assert_eq!(real.rollbacks, sized.rollbacks);
            assert_eq!(real.max_rollback_depth, sized.max_rollback_depth);
        }
    }
}
