//! SGPRS — Seamless GPU Partitioning Real-Time Scheduler.
//!
//! This crate implements the paper's contribution (Babaei & Chantem,
//! DATE 2024): a real-time scheduler for periodic deep-learning workloads
//! on a spatially + temporally partitioned GPU, with *zero-configuration
//! partition switching*. It also implements the paper's *naive* baseline
//! (pure spatial partitioning) that SGPRS is evaluated against.
//!
//! # Architecture
//!
//! * [`SchedulerKind`] and [`Scheduler`] — which scheduler runs (naive,
//!   or SGPRS at an `os`), and the one place that builds it.
//! * [`ContextPoolSpec`] — describes the context pool: `np` contexts and an
//!   over-subscription factor `os` (Σ SM allocations = `os` × physical SMs).
//! * [`offline`] — the offline phase (§IV-A): per-stage WCET profiling,
//!   virtual-deadline assignment proportional to WCET, and two-level
//!   priority assignment. Produces [`CompiledTask`]s.
//! * [`SgprsScheduler`] — the online phase (§IV-B): absolute stage
//!   deadlines at release, the three-rule context assignment, per-context
//!   three-band EDF stage queues with 2 high + 2 low priority streams, and
//!   medium-priority promotion after an upstream virtual-deadline miss.
//! * [`NaiveScheduler`] — the baseline: static task→partition assignment,
//!   sequential FIFO execution of whole networks, and a partition
//!   reconfiguration cost whenever a context switches tenants (the cost
//!   SGPRS's seamless switching eliminates).
//! * The release driver (crate-private) — the periodic release loop,
//!   [`Admission`] rule and job-completion bookkeeping both schedulers
//!   share; each supplies only its queueing and dispatch.
//! * [`analysis`] — offline capacity analysis: a pool's predicted pivot
//!   point, from the occupancy fold the fleet's admission also reads.
//! * [`RunMetrics`] — total-FPS / deadline-miss-rate accounting shared by
//!   both schedulers (the paper's two evaluation metrics).
//!
//! # Example
//!
//! ```
//! use sgprs_core::{offline, ContextPoolSpec, SgprsConfig, SgprsScheduler};
//! use sgprs_dnn::{models, CostModel};
//! use sgprs_rt::{SimDuration, SimTime};
//!
//! // Two contexts, 1.5x over-subscribed, on the paper's 68-SM GPU.
//! let pool = ContextPoolSpec::new(2, 1.5);
//! let net = models::resnet18(1, 224);
//! let task = offline::compile_network_task(
//!     "cam0",
//!     &net,
//!     &CostModel::calibrated(),
//!     6,                                  // six stages, as in the paper
//!     sgprs_rt::SimDuration::from_micros(33_333),   // 30 fps
//!     &pool,
//! )
//! .expect("resnet18 splits into 6 stages");
//! let mut sched = SgprsScheduler::new(SgprsConfig::new(pool), vec![task; 4]);
//! let metrics = sched.run(SimTime::ZERO + SimDuration::from_secs(2));
//! assert!(metrics.total_fps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod compiled;
mod config;
mod metrics;
mod naive;
pub mod offline;
mod release;
mod scheduler;
mod sgprs;

pub use compiled::CompiledTask;
pub use config::{
    Admission, ContextPoolSpec, NaiveConfig, QueueOrder, SchedulerKind, SgprsConfig, DEFAULT_WARMUP,
};
pub use metrics::{MetricsCollector, RunMetrics, TaskMetrics};
pub use naive::NaiveScheduler;
pub use scheduler::Scheduler;
pub use sgprs::SgprsScheduler;
