//! Real-time foundation for the SGPRS reproduction.
//!
//! This crate provides the domain-neutral building blocks that both the
//! GPU simulator ([`sgprs-gpu-sim`]) and the schedulers ([`sgprs-core`])
//! are built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time.
//! * [`PeriodicTaskSpec`] / [`StageSpec`] / [`TaskSet`] — the paper's task
//!   model: a task set `S = {τ1..τ|S|}` of periodic DNN tasks, each a DAG of
//!   stages `τi^j` with WCETs `Ci^j` and virtual relative deadlines `Di^j`.
//! * [`Job`] / [`StageInstance`] — run-time instances released every period.
//! * [`PriorityLevel`] — the three-level (high/medium/low) priority space of
//!   SGPRS's stage queuing.
//! * [`EdfQueue`] — an earliest-deadline-first ready queue with FIFO
//!   tie-breaking, used inside every priority band.
//! * [`analysis`] — classic schedulability analysis (utilisation bounds,
//!   hyperperiods, demand-bound functions) used by tests and by the
//!   experiment harness to sanity-check generated task sets.
//!
//! # Example
//!
//! ```
//! use sgprs_rt::{PeriodicTaskSpec, SimDuration, TaskSet};
//!
//! let task = PeriodicTaskSpec::builder("camera")
//!     .period(SimDuration::from_millis(33))
//!     .wcet(SimDuration::from_millis(8))
//!     .build()
//!     .expect("valid task");
//! let mut set = TaskSet::new();
//! set.push(task);
//! assert!(set.total_utilization() < 1.0);
//! ```
//!
//! [`sgprs-gpu-sim`]: https://example.invalid/sgprs
//! [`sgprs-core`]: https://example.invalid/sgprs

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod error;
mod job;
mod priority;
mod queue;
mod task;
mod time;

pub use error::RtError;
pub use job::{
    Job, JobId, JobOutcome, ReleaseGenerator, ReleaseTemplate, StageInstance, StageState,
};
pub use priority::{PriorityAssignment, PriorityLevel};
pub use queue::{EdfEntry, EdfQueue, PriorityBands};
pub use task::{PeriodicTaskSpec, PeriodicTaskSpecBuilder, StageId, StageSpec, TaskId, TaskSet};
pub use time::{SimDuration, SimTime};
