//! Error type for task-model construction and validation.

use core::fmt;

/// Errors produced while building or validating real-time task models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtError {
    /// A task was given a zero (or missing) period.
    ZeroPeriod {
        /// Human-readable task name.
        task: String,
    },
    /// A task was given a zero total WCET.
    ZeroWcet {
        /// Human-readable task name.
        task: String,
    },
    /// A relative deadline of zero was supplied.
    ZeroDeadline {
        /// Human-readable task name.
        task: String,
    },
    /// A stage DAG edge referenced a stage index that does not exist.
    DanglingStageEdge {
        /// Human-readable task name.
        task: String,
        /// The out-of-range stage index.
        stage: usize,
    },
    /// The stage graph contains a cycle, so it is not a DAG.
    CyclicStageGraph {
        /// Human-readable task name.
        task: String,
    },
    /// A task with no stages was supplied where at least one is required.
    EmptyStageList {
        /// Human-readable task name.
        task: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::ZeroPeriod { task } => write!(f, "task `{task}` has a zero period"),
            RtError::ZeroWcet { task } => write!(f, "task `{task}` has a zero WCET"),
            RtError::ZeroDeadline { task } => write!(f, "task `{task}` has a zero deadline"),
            RtError::DanglingStageEdge { task, stage } => {
                write!(f, "task `{task}` references missing stage index {stage}")
            }
            RtError::CyclicStageGraph { task } => {
                write!(f, "task `{task}` has a cyclic stage graph")
            }
            RtError::EmptyStageList { task } => {
                write!(f, "task `{task}` declares no stages")
            }
        }
    }
}

impl std::error::Error for RtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = RtError::ZeroPeriod { task: "cam".into() };
        let msg = e.to_string();
        assert!(msg.contains("cam"));
        assert!(msg.starts_with(char::is_lowercase) || msg.starts_with("task"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtError>();
    }
}
