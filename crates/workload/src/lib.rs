//! Workloads, experiment sweeps, and report rendering for the SGPRS
//! reproduction.
//!
//! This crate turns the schedulers in [`sgprs_core`] into the paper's
//! experiments:
//!
//! * [`ScenarioSpec`] — one curve of Figures 3/4: a scheduler variant
//!   (naive, or SGPRS at a given over-subscription) on a context pool,
//!   driven by `n` identical ResNet18@30fps tasks split into six stages.
//! * [`sweep`] — runs a scenario across task counts (in parallel) and
//!   extracts the paper's metrics: total FPS, DMR, and the *pivot point*.
//! * [`fig1`] — regenerates the speedup-gain analysis of Figure 1.
//! * [`fleet`] — multi-GPU fleet scenarios (heterogeneous devices, tenant
//!   churn, placement-policy comparisons) over `sgprs-cluster`.
//! * [`report`] — fixed-width tables and CSV for every figure.
//! * [`generator`] — synthetic task-set generators (UUniFast, model mixes)
//!   for extension experiments beyond the paper's identical-task setup.
//!
//! # Example
//!
//! ```
//! use sgprs_workload::{scenario1_variants, sweep::run_sweeps};
//!
//! let variants = scenario1_variants(1); // 1-second simulations for the doctest
//! let series = run_sweeps(&variants[1..2], &[1, 2]);
//! assert_eq!(series[0].points.len(), 2);
//! assert!(series[0].points[0].total_fps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig1;
pub mod fleet;
pub mod generator;
pub mod latency;
pub mod report;
mod scenario;
pub mod sensitivity;
pub mod sweep;

pub use fleet::{FleetScenario, TenantLoad};
pub use scenario::{scenario1_variants, scenario2_variants, ScenarioSpec, PAPER_FPS, PAPER_STAGES};
pub use sgprs_core::SchedulerKind;
