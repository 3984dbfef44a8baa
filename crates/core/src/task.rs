//! Tasks: the unit of work a task farm distributes.
//!
//! The programming phase parameterises the skeleton "with correct meaning for
//! the given problem instance"; for a farm that means describing each task's
//! computational weight and the size of the data shipped to and from the
//! worker, which together fix the computation/communication ratio GRASP's
//! pragmatic rules depend on.

use gridsim::{NodeId, SimTime};

/// Static description of one farm task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Task identifier, unique within a job.
    pub id: usize,
    /// Computational weight in abstract work units (a node of base speed `s`
    /// needs `work / s` dedicated seconds).
    pub work: f64,
    /// Bytes shipped from the master to the worker before computing.
    pub input_bytes: u64,
    /// Bytes shipped back from the worker after computing.
    pub output_bytes: u64,
}

impl TaskSpec {
    /// Create a task.
    pub fn new(id: usize, work: f64, input_bytes: u64, output_bytes: u64) -> Self {
        TaskSpec {
            id,
            work: work.max(0.0),
            input_bytes,
            output_bytes,
        }
    }

    /// `n` identical tasks.
    pub fn uniform(n: usize, work: f64, input_bytes: u64, output_bytes: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|id| TaskSpec::new(id, work, input_bytes, output_bytes))
            .collect()
    }

    /// Total bytes moved for this task (input + output).
    pub(crate) fn total_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes
    }
}

/// Convert an observed duration into seconds per work unit.  Zero-work tasks
/// are pure communication: their duration carries no per-work-unit meaning,
/// so it is reported unnormalised rather than divided by an epsilon (which
/// would inflate it by ~10⁹ and poison the monitor and calibration ranking).
/// Callers comparing against a per-work-unit threshold should skip zero-work
/// observations entirely (the farm's monitor does).
pub(crate) fn normalize_time(work: f64, seconds: f64) -> f64 {
    if work > 0.0 {
        seconds / work
    } else {
        seconds
    }
}

/// Sum of work units over a set of tasks.
pub fn total_work(tasks: &[TaskSpec]) -> f64 {
    tasks.iter().map(|t| t.work).sum()
}

/// The record of one completed task, as logged by the execution phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOutcome {
    /// Which task completed.
    pub task: usize,
    /// Node it ran on.
    pub(crate) node: NodeId,
    /// Computational weight of the task (copied from its [`TaskSpec`]), so
    /// observed times can be normalised per work unit when tasks are
    /// irregular.
    pub(crate) work: f64,
    /// Dispatch time (input transfer begins).
    pub(crate) dispatched: SimTime,
    /// Completion time (output transfer finished at the master).
    pub(crate) completed: SimTime,
    /// Whether the task was executed as part of the calibration sample
    /// ("the processing performed during the calibration contributes to the
    /// overall job").
    pub during_calibration: bool,
}

impl TaskOutcome {
    /// Wall-clock (virtual) duration from dispatch to completion.
    pub(crate) fn duration(&self) -> SimTime {
        self.completed - self.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tasks_share_parameters() {
        let tasks = TaskSpec::uniform(5, 10.0, 100, 200);
        assert_eq!(tasks.len(), 5);
        assert!(tasks.iter().enumerate().all(|(i, t)| t.id == i));
        assert!(tasks
            .iter()
            .all(|t| t.work == 10.0 && t.total_bytes() == 300));
        assert_eq!(total_work(&tasks), 50.0);
    }

    #[test]
    fn negative_work_is_clamped() {
        assert_eq!(TaskSpec::new(0, -5.0, 0, 0).work, 0.0);
    }

    #[test]
    fn outcome_duration() {
        let o = TaskOutcome {
            task: 1,
            node: NodeId(2),
            work: 9.0,
            dispatched: SimTime::new(3.0),
            completed: SimTime::new(7.5),
            during_calibration: false,
        };
        assert!((o.duration().as_secs() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn zero_work_tasks_report_raw_duration() {
        let o = TaskOutcome {
            task: 0,
            node: NodeId(0),
            work: 0.0,
            dispatched: SimTime::new(1.0),
            completed: SimTime::new(1.25),
            during_calibration: false,
        };
        // Pure-communication task: no epsilon-division blow-up.
        assert!((normalize_time(o.work, o.duration().as_secs()) - 0.25).abs() < 1e-12);
    }
}
