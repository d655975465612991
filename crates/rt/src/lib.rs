//! Real-time foundation for the SGPRS reproduction.
//!
//! This crate provides the domain-neutral building blocks that both the
//! GPU simulator ([`sgprs-gpu-sim`]) and the schedulers ([`sgprs-core`])
//! are built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time.
//! * [`PeriodicTaskSpec`] / [`StageSpec`] — the paper's task model: a
//!   periodic DNN task `τi`, a DAG of stages `τi^j` with WCETs `Ci^j` and
//!   virtual relative deadlines `Di^j`.
//! * [`PriorityAssignment`] — the offline two-level stage priorities.
//! * [`Job`] / [`StageInstance`] — a job released every period: its
//!   release index, release and completion instants, and each stage's
//!   absolute deadline and DAG readiness.
//! * [`PriorityLevel`] — the three-level (high/medium/low) priority space of
//!   SGPRS's stage queuing.
//! * [`EdfQueue`] / [`PriorityBands`] — an earliest-deadline-first ready
//!   queue with FIFO tie-breaking, one per priority band.
//! * [`ReleaseTemplate`] / [`ReleaseGenerator`] — periodic job release.
//!
//! # Example
//!
//! ```
//! use sgprs_rt::{PeriodicTaskSpec, PriorityAssignment, PriorityLevel, SimDuration};
//!
//! // A 33 ms camera task split into three equal stages.
//! let mut task = PeriodicTaskSpec::builder("camera")
//!     .period(SimDuration::from_millis(33))
//!     .equal_stage_chain(3, SimDuration::from_millis(9))
//!     .build()
//!     .expect("valid task");
//! assert_eq!(task.deadline, task.period);
//! assert!(task.utilization() < 1.0);
//! // The offline phase marks only the last stage high priority.
//! PriorityAssignment::assign(&mut task);
//! assert_eq!(task.stages[0].priority, PriorityLevel::Low);
//! assert_eq!(task.stages[2].priority, PriorityLevel::High);
//! ```
//!
//! [`sgprs-gpu-sim`]: https://example.invalid/sgprs
//! [`sgprs-core`]: https://example.invalid/sgprs

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod job;
mod priority;
mod queue;
mod task;
mod time;

pub use error::RtError;
pub use job::{Job, ReleaseGenerator, ReleaseTemplate, StageInstance, StageState};
pub use priority::{PriorityAssignment, PriorityLevel};
pub use queue::{EdfEntry, EdfQueue, PriorityBands};
pub use task::{PeriodicTaskSpec, PeriodicTaskSpecBuilder, StageSpec};
pub use time::{SimDuration, SimTime};
