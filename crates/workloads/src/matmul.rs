//! Blocked dense matrix multiplication: a regular, compute-bound farm.
//!
//! `C = A × B` is decomposed into row-band tasks: each task computes
//! `block_rows` rows of `C`.  Unlike Mandelbrot tiles the tasks are all the
//! same size, so this workload isolates the effect of node heterogeneity and
//! external load from workload irregularity.

use grasp_core::error::GraspError;
use grasp_core::wire::{ByteReader, ByteWriter, Fnv64, PAYLOAD_MATMUL};
use grasp_core::TaskSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A blocked mat-mul job description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatMulJob {
    /// Matrix dimension (square `n × n` matrices).
    pub n: usize,
    /// Rows of `C` computed per task.
    pub block_rows: usize,
    /// Seed used to generate the input matrices.
    pub seed: u64,
}

impl Default for MatMulJob {
    fn default() -> Self {
        MatMulJob {
            n: 512,
            block_rows: 32,
            seed: 1,
        }
    }
}

impl MatMulJob {
    /// A small job suitable for unit tests.
    pub fn small() -> Self {
        MatMulJob {
            n: 64,
            block_rows: 16,
            seed: 1,
        }
    }

    /// Generate the two input matrices (row-major) deterministically.
    pub fn generate_inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let a: Vec<f64> = (0..self.n * self.n)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let b: Vec<f64> = (0..self.n * self.n)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        (a, b)
    }

    /// Number of row-band tasks.
    pub fn task_count(&self) -> usize {
        self.n.div_ceil(self.block_rows.max(1))
    }

    /// Compute rows `[row0, row0+rows)` of `C = A × B` (the real kernel).
    ///
    /// The k dimension is blocked so each stripe of `B` rows stays cache-hot
    /// across every output row of the band, and the inner `j` loop runs over
    /// paired slices — no index arithmetic, no bounds checks — so it
    /// autovectorizes.  Per output element the accumulation order is still
    /// ascending `k` (blocks ascend, `k` ascends within a block), so results
    /// are bit-identical across block sizes and with the naive triple loop.
    pub fn multiply_band(&self, a: &[f64], b: &[f64], row0: usize, rows: usize) -> Vec<f64> {
        const K_BLOCK: usize = 64;
        let n = self.n;
        let rows = rows.min(n.saturating_sub(row0));
        let mut c = vec![0.0; rows * n];
        for k0 in (0..n).step_by(K_BLOCK) {
            let k1 = (k0 + K_BLOCK).min(n);
            for i in 0..rows {
                let arow = &a[(row0 + i) * n..(row0 + i + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for k in k0..k1 {
                    let aik = arow[k];
                    let brow = &b[k * n..(k + 1) * n];
                    for (cj, bj) in crow.iter_mut().zip(brow) {
                        *cj += aik * bj;
                    }
                }
            }
        }
        c
    }

    /// Floating-point operations per row-band task (2·rows·n²).
    pub(crate) fn flops_per_task(&self) -> f64 {
        2.0 * self.block_rows as f64 * (self.n * self.n) as f64
    }

    /// The job as abstract farm tasks: identical work per band, input = the
    /// band of `A` plus all of `B` is amortised as just the band (B is
    /// broadcast once in practice), output = the band of `C`.
    pub fn as_tasks(&self, flops_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = flops_per_work_unit.max(1.0);
        let band_bytes = (self.block_rows * self.n * 8) as u64;
        (0..self.task_count())
            .map(|id| TaskSpec::new(id, self.flops_per_task() / scale, band_bytes, band_bytes))
            .collect()
    }

    /// The self-contained, serializable representation of band `index` —
    /// what a process-isolated worker receives over the wire.
    pub fn band_task(&self, index: usize) -> MatMulBandTask {
        MatMulBandTask {
            job: *self,
            row0: index * self.block_rows,
            rows: self.block_rows,
        }
    }

    /// Wire payloads for every band task, keyed by the farm unit id that
    /// [`MatMulJob::as_tasks`] assigns: hand these to a process-isolated
    /// backend so workers execute the *real* kernel instead of a synthetic
    /// spin.
    pub fn wire_payloads(&self) -> Vec<(usize, u32, Vec<u8>)> {
        (0..self.task_count())
            .map(|id| (id, PAYLOAD_MATMUL, self.band_task(id).encode()))
            .collect()
    }
}

/// One serializable, self-contained mat-mul band computation: the job
/// parameters plus the band coordinates.  Inputs are *derived* (regenerated
/// from the job seed), not shipped — the grid model this reproduces
/// broadcasts descriptors, not matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatMulBandTask {
    /// The enclosing job (dimension, blocking, input seed).
    pub(crate) job: MatMulJob,
    /// First row of `C` this task computes.
    pub(crate) row0: usize,
    /// Number of rows computed (the final band may cover fewer).
    pub(crate) rows: usize,
}

impl MatMulBandTask {
    /// Serialize for the worker wire protocol.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.job.n as u64);
        w.put_u64(self.job.block_rows as u64);
        w.put_u64(self.job.seed);
        w.put_u64(self.row0 as u64);
        w.put_u64(self.rows as u64);
        w.into_vec()
    }

    /// Deserialize a task produced by [`MatMulBandTask::encode`]; malformed
    /// bytes yield a typed [`GraspError`] instead of panicking.
    pub fn decode(bytes: &[u8]) -> Result<Self, GraspError> {
        let mut r = ByteReader::new(bytes);
        let task = MatMulBandTask {
            job: MatMulJob {
                n: r.take_u64()? as usize,
                block_rows: r.take_u64()? as usize,
                seed: r.take_u64()?,
            },
            row0: r.take_u64()? as usize,
            rows: r.take_u64()? as usize,
        };
        r.finish()?;
        // The dimension cap bounds what a decoded frame can make the worker
        // allocate (generate_inputs builds two n×n f64 matrices: 2 × 32 MiB
        // at the cap) — a corrupted-but-checksum-valid frame must not OOM
        // the worker.  Legitimate jobs use n ≤ 512; the cap leaves 4×
        // headroom.
        if task.job.n == 0 || task.job.n > 2048 || task.row0 >= task.job.n {
            return Err(GraspError::WireProtocol {
                detail: format!(
                    "mat-mul band out of range: n={}, row0={}",
                    task.job.n, task.row0
                ),
            });
        }
        Ok(task)
    }

    /// Execute the band locally (regenerates the inputs from the job seed).
    pub fn execute(&self) -> Vec<f64> {
        let (a, b) = self.job.generate_inputs();
        self.job.multiply_band(&a, &b, self.row0, self.rows)
    }

    /// Deterministic digest of the band result, computed over the exact
    /// IEEE-754 bit patterns — identical wherever the kernel runs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for v in self.execute() {
            h.update(&v.to_bits().to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_multiplication_matches_naive_full_product() {
        let job = MatMulJob {
            n: 16,
            block_rows: 8,
            seed: 3,
        };
        let (a, b) = job.generate_inputs();
        // Naive reference.
        let mut expected = vec![0.0; 16 * 16];
        for i in 0..16 {
            for k in 0..16 {
                for j in 0..16 {
                    expected[i * 16 + j] += a[i * 16 + k] * b[k * 16 + j];
                }
            }
        }
        let band0 = job.multiply_band(&a, &b, 0, 8);
        let band1 = job.multiply_band(&a, &b, 8, 8);
        let got: Vec<f64> = band0.into_iter().chain(band1).collect();
        for (g, e) in got.iter().zip(&expected) {
            // Blocking only regroups the loop nest; per-element accumulation
            // order is unchanged, so the results are bit-identical.
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn digest_folds_identically_to_hashing_the_concatenated_bytes() {
        let task = MatMulJob::small().band_task(2);
        let band = task.execute();
        let mut bytes = Vec::with_capacity(band.len() * 8);
        for v in &band {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(task.digest(), grasp_core::wire::fnv1a_64(&bytes));
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let job = MatMulJob::small();
        assert_eq!(job.generate_inputs(), job.generate_inputs());
        let other = MatMulJob {
            seed: 2,
            ..MatMulJob::small()
        };
        assert_ne!(job.generate_inputs().0, other.generate_inputs().0);
    }

    #[test]
    fn task_count_covers_all_rows() {
        let job = MatMulJob {
            n: 100,
            block_rows: 32,
            seed: 0,
        };
        assert_eq!(job.task_count(), 4);
        assert_eq!(MatMulJob::small().task_count(), 4);
    }

    #[test]
    fn tasks_are_uniform() {
        let job = MatMulJob::small();
        let tasks = job.as_tasks(1e6);
        assert_eq!(tasks.len(), 4);
        assert!(tasks
            .windows(2)
            .all(|w| (w[0].work - w[1].work).abs() < 1e-12));
        assert!(tasks[0].work > 0.0);
    }

    #[test]
    fn band_tasks_round_trip_and_digest_deterministically() {
        let job = MatMulJob::small();
        for (id, kind, payload) in job.wire_payloads() {
            assert_eq!(kind, PAYLOAD_MATMUL);
            let back = MatMulBandTask::decode(&payload).unwrap();
            assert_eq!(back, job.band_task(id));
            // The decoded task computes exactly what the local kernel does.
            let local = job.multiply_band(
                &job.generate_inputs().0,
                &job.generate_inputs().1,
                back.row0,
                back.rows,
            );
            assert_eq!(back.execute(), local);
            assert_eq!(back.digest(), job.band_task(id).digest());
        }
        // Different bands produce different digests.
        assert_ne!(job.band_task(0).digest(), job.band_task(1).digest());
    }

    #[test]
    fn malformed_band_payloads_are_rejected_without_panicking() {
        let good = MatMulJob::small().band_task(0).encode();
        assert!(MatMulBandTask::decode(&good[..good.len() - 1]).is_err());
        assert!(MatMulBandTask::decode(&[]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(MatMulBandTask::decode(&trailing).is_err());
        // A band whose coordinates lie outside the matrix is rejected (a
        // hostile or corrupted frame must not allocate n² doubles).
        let bad = MatMulBandTask {
            job: MatMulJob {
                n: usize::MAX,
                block_rows: 1,
                seed: 0,
            },
            row0: 0,
            rows: 1,
        };
        assert!(MatMulBandTask::decode(&bad.encode()).is_err());
    }

    #[test]
    fn partial_last_band_is_handled() {
        let job = MatMulJob {
            n: 10,
            block_rows: 8,
            seed: 5,
        };
        let (a, b) = job.generate_inputs();
        let band = job.multiply_band(&a, &b, 8, 8);
        assert_eq!(band.len(), 2 * 10, "only two rows remain");
    }
}
