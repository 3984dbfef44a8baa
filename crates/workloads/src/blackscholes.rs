//! Black–Scholes option-pricing sweep: a fine-grained farm workload.
//!
//! Each task prices a batch of European options with the closed-form
//! Black–Scholes formula.  Individual option evaluations are tiny, which
//! makes this the *fine-grained* end of the computation/communication
//! spectrum — the regime where chunking and granularity adaptation matter
//! most.  The sweep is a descriptor generator only: it turns the batches
//! into abstract farm tasks for the simulated grid.

use grasp_core::TaskSpec;

/// A sweep over many options, batched into farm tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackScholesSweep {
    /// Total number of options priced.
    pub options: usize,
    /// Options per farm task.
    pub batch_size: usize,
}

impl BlackScholesSweep {
    /// Number of farm tasks (batches).
    pub(crate) fn task_count(&self) -> usize {
        self.options.div_ceil(self.batch_size.max(1))
    }

    /// The sweep as abstract farm tasks: uniform work per batch, tiny
    /// parameter input, one `f64` per option back.
    pub fn as_tasks(&self, options_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = options_per_work_unit.max(1.0);
        (0..self.task_count())
            .map(|id| {
                let start = id * self.batch_size;
                let count = self.batch_size.min(self.options.saturating_sub(start));
                TaskSpec::new(
                    id,
                    count as f64 / scale,
                    (count * 48) as u64,
                    (count * 8) as u64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_final_batch_is_handled() {
        let sweep = BlackScholesSweep {
            options: 105,
            batch_size: 50,
        };
        assert_eq!(sweep.task_count(), 3);
        let tasks = sweep.as_tasks(10.0);
        assert!(tasks[2].work < tasks[0].work);
    }
}
