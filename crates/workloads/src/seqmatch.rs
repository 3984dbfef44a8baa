//! Synthetic pairwise sequence alignment (Smith–Waterman scoring).
//!
//! The companion task-farm paper motivates GRASP with parameter-sweep
//! bioinformatics searches: a set of query sequences scored against a
//! database of subject sequences.  Real genome databases are not available
//! offline, so this module generates random nucleotide sequences
//! deterministically and scores them with a genuine Smith–Waterman local
//! alignment kernel (linear gap penalty) — the same O(n·m) dynamic-programming
//! cost profile as the real application.

use grasp_core::TaskSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic sequence-matching job: every query is scored against every
/// subject; one farm task = one query against the whole subject set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceMatchJob {
    /// Number of query sequences (= number of farm tasks).
    pub queries: usize,
    /// Number of subject (database) sequences.
    pub subjects: usize,
    /// Length of each query.
    pub query_len: usize,
    /// Length of each subject.
    pub subject_len: usize,
    /// RNG seed for sequence generation.
    pub seed: u64,
}

impl Default for SequenceMatchJob {
    fn default() -> Self {
        SequenceMatchJob {
            queries: 128,
            subjects: 64,
            query_len: 256,
            subject_len: 512,
            seed: 7,
        }
    }
}

const ALPHABET: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Smith–Waterman local-alignment score with match +2, mismatch −1, gap −2.
pub(crate) fn smith_waterman_score(a: &[u8], b: &[u8]) -> i64 {
    const MATCH: i64 = 2;
    const MISMATCH: i64 = -1;
    const GAP: i64 = -2;
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return 0;
    }
    let mut prev = vec![0i64; m + 1];
    let mut curr = vec![0i64; m + 1];
    let mut best = 0i64;
    for i in 1..=n {
        for j in 1..=m {
            let sub = if a[i - 1] == b[j - 1] {
                MATCH
            } else {
                MISMATCH
            };
            let score = (prev[j - 1] + sub)
                .max(prev[j] + GAP)
                .max(curr[j - 1] + GAP)
                .max(0);
            curr[j] = score;
            if score > best {
                best = score;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
        curr.iter_mut().for_each(|c| *c = 0);
    }
    best
}

impl SequenceMatchJob {
    /// A small job suitable for unit tests.
    pub fn small() -> Self {
        SequenceMatchJob {
            queries: 8,
            subjects: 4,
            query_len: 32,
            subject_len: 48,
            seed: 7,
        }
    }

    fn random_sequence(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..4usize)])
            .collect()
    }

    /// Generate the query set deterministically.
    pub fn generate_queries(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.queries)
            .map(|_| Self::random_sequence(&mut rng, self.query_len))
            .collect()
    }

    /// Generate the subject (database) set deterministically.  A fixed seed
    /// offset keeps the subject set distinct from the query set.
    pub fn generate_subjects(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9E37_79B9));
        (0..self.subjects)
            .map(|_| Self::random_sequence(&mut rng, self.subject_len))
            .collect()
    }

    /// Score one query against the whole subject set, returning the best
    /// score per subject (the real per-task kernel).
    pub fn score_query(&self, query: &[u8], subjects: &[Vec<u8>]) -> Vec<i64> {
        subjects
            .iter()
            .map(|s| smith_waterman_score(query, s))
            .collect()
    }

    /// Dynamic-programming cell count per task (query_len × subject_len ×
    /// subjects) — the ground-truth work.
    pub fn cells_per_task(&self) -> f64 {
        self.query_len as f64 * self.subject_len as f64 * self.subjects as f64
    }

    /// The job as abstract farm tasks: uniform work, input = the query
    /// sequence, output = one score per subject.
    pub fn as_tasks(&self, cells_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = cells_per_work_unit.max(1.0);
        (0..self.queries)
            .map(|id| {
                TaskSpec::new(
                    id,
                    self.cells_per_task() / scale,
                    self.query_len as u64,
                    (self.subjects * 8) as u64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_highest() {
        let a = b"ACGTACGTACGT".to_vec();
        let b = b"ACGTACGTACGT".to_vec();
        let c = b"TTTTTTTTTTTT".to_vec();
        assert_eq!(smith_waterman_score(&a, &b), 2 * a.len() as i64);
        assert!(smith_waterman_score(&a, &c) < smith_waterman_score(&a, &b));
    }

    #[test]
    fn score_is_never_negative_and_empty_is_zero() {
        assert_eq!(smith_waterman_score(b"", b"ACGT"), 0);
        assert_eq!(smith_waterman_score(b"ACGT", b""), 0);
        assert!(smith_waterman_score(b"AAAA", b"TTTT") >= 0);
    }

    #[test]
    fn local_alignment_finds_embedded_motif() {
        // The motif ACGTACGT is embedded in a longer unrelated sequence.
        let query = b"ACGTACGT".to_vec();
        let subject = b"TTTTTTTTACGTACGTTTTTTTTT".to_vec();
        assert_eq!(smith_waterman_score(&query, &subject), 16);
    }

    #[test]
    fn generation_is_deterministic_and_differs_between_sets() {
        let job = SequenceMatchJob::small();
        assert_eq!(job.generate_queries(), job.generate_queries());
        assert_eq!(job.generate_subjects(), job.generate_subjects());
        assert_ne!(job.generate_queries()[0], job.generate_subjects()[0]);
        assert_eq!(job.generate_queries().len(), 8);
        assert_eq!(job.generate_subjects()[0].len(), 48);
    }

    #[test]
    fn score_query_returns_one_score_per_subject() {
        let job = SequenceMatchJob::small();
        let queries = job.generate_queries();
        let subjects = job.generate_subjects();
        let scores = job.score_query(&queries[0], &subjects);
        assert_eq!(scores.len(), job.subjects);
        assert!(scores.iter().all(|&s| s >= 0));
    }

    #[test]
    fn tasks_are_uniform_and_sized_by_cells() {
        let job = SequenceMatchJob::small();
        let tasks = job.as_tasks(1000.0);
        assert_eq!(tasks.len(), job.queries);
        assert!((tasks[0].work - job.cells_per_task() / 1000.0).abs() < 1e-9);
        assert!(tasks.windows(2).all(|w| w[0].work == w[1].work));
    }
}
