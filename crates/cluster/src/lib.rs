//! `sgprs-cluster` — a simulated multi-GPU fleet over the SGPRS stack.
//!
//! The paper (Babaei & Chantem, DATE 2024) schedules periodic DNN tasks
//! on *one* partitioned GPU. This crate scales that out: a [`Fleet`] of
//! per-GPU nodes — each wrapping an [`sgprs_core::SgprsScheduler`] (or
//! the naive baseline) over a possibly heterogeneous
//! [`sgprs_gpu_sim::GpuSpec`] — fronted by a dispatcher that admits,
//! places, and migrates tenants.
//!
//! # Architecture
//!
//! * [`TenantSpec`] / [`ModelKind`] — node-independent descriptions of
//!   periodic inference services; compiled per node pool on placement
//!   (heterogeneous nodes profile different WCETs).
//! * [`NodeSpec`] / [`FleetNode`] — one simulated GPU, its context pool,
//!   and the scheduler variant driving it.
//! * [`AdmissionController`] — utilisation-bound admission built on the
//!   fluid occupancy argument of [`sgprs_core::analysis`] plus a
//!   best-case latency check: infeasible tenants are rejected (queued)
//!   instead of silently missing deadlines.
//! * [`Placer`] / [`PlacementPolicy`] — round-robin, least-utilisation,
//!   and best-fit placement over admissible nodes.
//! * [`policy`] — the **dispatch-policy kernel**: one backend-agnostic
//!   home for admission+placement planning (flat, shard-scan, or
//!   power-of-two-choices), the re-pricing ladder walk, queue
//!   feasibility, upgrade candidates, and
//!   migration victim (the most recently placed) / destination choice
//!   — consumed identically by the epoch path, the event engine, and
//!   sharded dispatch, so the engines cannot fork on decisions.
//! * [`ChurnTrace`] / [`ChurnConfig`] — deterministic arrival/departure
//!   traces driven by [`sgprs_rt::SimTime`]; [`ArrivalStream`] delivers
//!   the identical event sequence *lazily* (generator-driven, holding
//!   only live tenants' pending departures), so a run's churn memory is
//!   O(active tenants) instead of O(trace) — millions of tenants stream
//!   through without materialising.
//! * [`TenantInterner`] / [`TenantId`] — tenant names are interned to
//!   dense `u32` ids at the fleet boundary (first-appearance order,
//!   LIFO slot recycling): residents, queue entries, the degraded table,
//!   and event payloads are all id-indexed, with names resolved back
//!   only at the JSON/telemetry render edge.
//! * [`Fleet`] / [`FleetConfig`] — the epoch-driven dispatcher, with
//!   optional migration off overloaded nodes. Each occupied node keeps
//!   one paper-layer scheduler for the whole run; tenants attach and
//!   detach at their instants, and each epoch's run to the boundary fans
//!   out over scoped worker threads with bit-identical metrics (see the
//!   determinism contract in the `fleet` module docs). The
//!   fleet module itself is orchestration only: every decision routes
//!   through [`policy`], and every decision's outcome is recorded once,
//!   through one recording point both engines share.
//! * [`event`] — the discrete-event core behind [`Fleet::run_events`]:
//!   a monotonic `(time, node, seq)` event queue driving a fluid
//!   execution model with no epoch grid; like the epoch path it
//!   truncates no in-flight job and applies departures at exact
//!   instants, and DMR-triggered migration fires at job-release
//!   boundaries, paying a fixed 100 ms state-transfer stall that
//!   re-pricing partition switches never pay. The queue is a
//!   `std::collections::BinaryHeap` over events whose derived order is
//!   the unique `(time, node, seq)` key (pinned by a tuple-heap
//!   equivalence proptest); the execution model reads each node's own
//!   cached capacity and best-case tables, which only resident/price
//!   mutations reset, and keeps each tenant run's release constants
//!   while its node's version counter holds.
//! * [`QueuePolicy`] / [`QueueConfig`] — the wait queue's retry order
//!   (FIFO or earliest queue deadline) and the fps re-pricing ladder:
//!   admit at a degraded [`TenantSpec::fps_ladder`] step instead of
//!   rejecting, upgrade back in place when capacity frees — both
//!   directions are SGPRS partition switches, never migrations.
//! * [`ShardConfig`] / [`ShardRouter`] — two-level dispatch
//!   ([`FleetConfig::with_sharding`] /
//!   [`FleetConfig::with_p2c_sharding`]): cached per-shard capacity
//!   summaries route each arrival to a shard, the placement policy
//!   runs inside it — O(shards + nodes/shard) under the ordered
//!   [`ShardRouter::Scan`],
//!   or O(1) in the shard count under power-of-two-choices
//!   ([`ShardRouter::P2c`]: probe two seeded shards, take the better,
//!   sweep exhaustively only when both refuse), the regime
//!   512–1024-node metro fleets dispatch in.
//! * [`FleetMetrics`] — per-node and fleet-level FPS, miss rate,
//!   rejection rate, and a utilisation histogram, aggregated from the
//!   nodes' [`sgprs_core::RunMetrics`] and rendered as JSON. Its
//!   dispatch counters come from one [`DispatchCounts`] block, the same
//!   definition each telemetry window carries. [`Fleet::replay_dispatch`]
//!   reports the same metrics from a run with no executor.
//! * [`telemetry`] — opt-in observability over both engines: windowed
//!   time-series of dispatch activity, mergeable deterministic
//!   [`QuantileSketch`]es for queue-wait and job-latency percentiles
//!   (folded in node-index order, byte-identical across worker counts),
//!   and a ring-buffered decision trace of the recorded decisions with
//!   hot-path profile counters. Span call counts
//!   ([`Fleet::span_calls`]) are always on. Off by default
//!   ([`TelemetryConfig::disabled`]) with a byte-identical schema-v2
//!   export; enabling bumps the export to schema v3 with a `telemetry`
//!   block.
//!
//! # Example
//!
//! ```
//! use sgprs_cluster::{
//!     ChurnTrace, Fleet, FleetConfig, ModelKind, NodeSpec, TenantSpec,
//! };
//! use sgprs_gpu_sim::GpuSpec;
//! use sgprs_rt::SimDuration;
//!
//! // Two 2080 Ti nodes serving four ResNet18 camera feeds at 30 fps.
//! let mut fleet = Fleet::new(FleetConfig::new(vec![
//!     NodeSpec::sgprs("gpu0", GpuSpec::rtx_2080_ti()),
//!     NodeSpec::sgprs("gpu1", GpuSpec::rtx_2080_ti()),
//! ]));
//! let tenants =
//!     (0..4).map(|i| TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0));
//! let metrics = fleet.run(
//!     ChurnTrace::static_population(tenants),
//!     SimDuration::from_secs(1),
//! );
//! assert!(metrics.total_fps > 0.0);
//! assert_eq!(metrics.rejected, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod churn;
mod config;
pub mod event;
mod fleet;
mod hash;
mod interner;
mod json;
mod metrics;
mod node;
mod placement;
pub mod policy;
mod queue;
mod shard;
mod stream;
pub mod telemetry;
mod tenant;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, RejectReason};
pub use churn::{ChurnConfig, ChurnEvent, ChurnTrace};
pub use config::FleetConfig;
pub use fleet::{DispatchOutcome, Fleet};
pub use interner::{TenantId, TenantInterner};
pub use metrics::{
    DispatchCounts, FleetMetrics, FleetMetricsBuilder, NodeReport, BASE_SCHEMA_VERSION,
    METRICS_SCHEMA_VERSION, UTILIZATION_BINS,
};
pub use node::{Aggregates, FleetNode, NodeSpec};
pub use placement::{PlacementPolicy, Placer};
pub use policy::FleetState;
pub use queue::{QueueConfig, QueuePolicy};
pub use shard::{ShardConfig, ShardRouter};
pub use stream::ArrivalStream;
pub use telemetry::{
    ProfileReport, QuantileSketch, SketchSummary, Span, SpanProfile, SpanStats, TelemetryConfig,
    TelemetryReport, WindowReport, DEFAULT_SKETCH_CAPACITY, PLAN_LATENCY_BINS,
    RANK_ERROR_NUMERATOR, SPAN_COUNT,
};
pub use tenant::{ModelKind, TenantSpec};
