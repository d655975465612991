//! Umbrella crate for the SGPRS reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples under
//! `examples/` and the integration tests under `tests/` can use a single
//! dependency. Library users should depend on the individual crates
//! (`sgprs-core`, `sgprs-gpu-sim`, ...) directly.
//!
//! # Layer map
//!
//! * [`rt`] — simulated time, the periodic task model, EDF queues, and
//!   periodic job release.
//! * [`gpu_sim`] — the discrete-event GPU: contexts, prioritised
//!   streams, calibrated speedup curves, contention, tracing.
//! * [`dnn`] — the model zoo (ResNet18/34, VGG-16, AlexNet, MobileNet),
//!   the cost model, and stage partitioning.
//! * [`core`] — the SGPRS scheduler itself plus the paper's naive
//!   baseline, with shared metrics.
//! * [`cluster`] — the multi-GPU fleet: generator-driven arrival
//!   streams (`cluster::ArrivalStream`, lazy pull in O(active-tenants)
//!   memory, byte-identical to the materialised trace) feeding
//!   dispatching (flat, or two-level
//!   sharded via `FleetConfig::with_sharding`, with `cluster::ShardRouter`
//!   choosing the ordered shard scan or O(1) power-of-two-choices
//!   routing for 512–1024-node fleets), utilisation-bound admission
//!   control, placement policies, policy-ordered wait queueing
//!   (`cluster::QueuePolicy`: FIFO or earliest queue deadline) with an
//!   fps re-pricing ladder
//!   (admit degraded instead of rejecting, upgrade back in place as
//!   capacity frees), tenant churn with names interned to dense `u32` ids
//!   at the fleet boundary (`cluster::TenantInterner`: first-appearance
//!   order, LIFO slot recycling, names resolved only at the JSON render
//!   edge — the id table stays sized by the peak active population,
//!   millions of tenants per run), migration (the most recently placed
//!   tenant leaves), parallel per-epoch node execution with deterministic
//!   metrics, and fleet-level metrics with a golden-pinned,
//!   schema-versioned JSON export. Every dispatch decision lives in the
//!   shared `cluster::policy` kernel and is recorded once, into one
//!   `cluster::DispatchCounts` block shared by the run totals and the
//!   telemetry windows, by both execution modes: the classic epoch
//!   grid, and the `cluster::event`
//!   discrete-event core (`Fleet::run_events`) — exact
//!   release/departure boundaries, zero epoch truncation, and mid-epoch
//!   migration paying an explicit state-transfer stall while re-pricing
//!   switches stay free, all driven by one binary-heap event queue
//!   ordered by `(time, node, seq)`, with versioned per-node capacity
//!   caches. The opt-in `cluster::telemetry` layer observes
//!   both engines without steering either: windowed time-series,
//!   mergeable deterministic quantile sketches (p50/p90/p99 queue wait
//!   and job latency in O(1) memory per node), an opt-in decision-trace
//!   ring, and hot-path profile counters — exported as schema v3 when
//!   enabled, byte-identical to the base schema v2 export when off.
//! * [`workload`] — scenarios and sweeps reproducing the paper's figures
//!   and the fleet-serving experiments beyond them.

pub use sgprs_cluster as cluster;
pub use sgprs_core as core;
pub use sgprs_dnn as dnn;
pub use sgprs_gpu_sim as gpu_sim;
pub use sgprs_rt as rt;
pub use sgprs_workload as workload;
