//! Fleet configuration: the nodes, policies, and execution-mode knobs a
//! [`crate::Fleet`] is built from.
//!
//! Carved out of the fleet module so the dispatcher file holds
//! orchestration only; every knob here is consumed by the shared policy
//! kernel ([`crate::policy`]) or by one of the execution engines.
//! Migration is a single optional DMR threshold: the victim is always
//! the most recently placed tenant and the event engine's stall is a
//! fixed 100 ms.

use crate::telemetry::TelemetryConfig;
use crate::{AdmissionConfig, PlacementPolicy, QueueConfig, ShardConfig, ShardRouter};
use crate::{NodeSpec, QueuePolicy};
use sgprs_gpu_sim::DEFAULT_SEED;
use sgprs_rt::SimDuration;

/// Configuration of a [`crate::Fleet`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The nodes, in dispatch order.
    pub nodes: Vec<NodeSpec>,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Epoch length (the dispatch/re-evaluation granularity).
    pub epoch: SimDuration,
    /// Migration off overloaded nodes: `Some(threshold)` sheds one
    /// tenant (the most recently placed) from a node whose epoch
    /// deadline-miss rate exceeds `threshold`; `None` never migrates.
    pub migration: Option<f64>,
    /// Base seed for the nodes' execution jitter.
    pub seed: u64,
    /// Worker-thread count for the per-epoch node fan-out; `None` uses
    /// every available core and `Some(1)` runs the nodes one after
    /// another on the calling thread. Results are bit-identical for
    /// every count (see the fleet module docs).
    pub workers: Option<usize>,
    /// Optional two-level sharded dispatch (see [`crate::ShardConfig`]).
    pub sharding: Option<ShardConfig>,
    /// Wait-queue policy and re-pricing knobs (see [`crate::QueuePolicy`]).
    pub queue: QueueConfig,
    /// Run in event-driven mode ([`crate::Fleet::run_events`]) instead
    /// of the epoch grid when dispatched through
    /// [`crate::Fleet::run_configured`]: a fluid execution model in
    /// place of the paper's schedulers, and migration at any release
    /// with an explicit stall cost. Off by default: the epoch path runs
    /// the paper's schedulers.
    pub event_driven: bool,
    /// Observability knobs (see [`crate::telemetry`]). Disabled by
    /// default; enabling never changes simulation decisions, only what
    /// gets recorded and exported (schema v3 with a `telemetry` block).
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A fleet over `nodes` with least-utilisation placement, default
    /// admission control, one-second epochs, and no migration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    #[must_use]
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "a fleet needs at least one node");
        FleetConfig {
            nodes,
            placement: PlacementPolicy::LeastUtilization,
            admission: AdmissionConfig::default(),
            epoch: SimDuration::from_secs(1),
            migration: None,
            seed: DEFAULT_SEED,
            workers: None,
            sharding: None,
            queue: QueueConfig::default(),
            event_driven: false,
            telemetry: TelemetryConfig::disabled(),
        }
    }

    /// Replaces the telemetry configuration (see [`crate::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables telemetry with time-series windows of the given length
    /// (and no decision trace); shorthand for
    /// [`TelemetryConfig::windowed`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_telemetry_window(mut self, window: SimDuration) -> Self {
        self.telemetry = TelemetryConfig::windowed(window);
        self
    }

    /// Arms the span-scoped hot-path profiler for the run (see
    /// [`crate::SpanProfile`] and [`crate::Fleet::span_profile`]).
    /// Independent of telemetry: the simulated-fleet telemetry may stay
    /// off while the simulator profiles itself. Off by default, and
    /// provably zero-cost when off — the profiler is never constructed
    /// and no wall clock is read. The deterministic JSON export is
    /// byte-identical either way.
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.telemetry.profiling = true;
        self
    }

    /// Enables two-level sharded dispatch with shards of `shard_size`
    /// nodes (see [`crate::ShardConfig`]), routed by the default
    /// ordered spare-budget scan. Sharding only changes *which*
    /// admissible node an arrival lands on, never admission itself.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    #[must_use]
    pub fn with_sharding(mut self, shard_size: usize) -> Self {
        self.sharding = Some(ShardConfig::new(shard_size));
        self
    }

    /// Enables two-level sharded dispatch with shards of `shard_size`
    /// nodes routed by power-of-two-choices ([`ShardRouter::P2c`]):
    /// per-arrival routing cost independent of the shard count, the
    /// regime 512-node-and-up fleets need.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    #[must_use]
    pub fn with_p2c_sharding(mut self, shard_size: usize) -> Self {
        self.sharding = Some(ShardConfig::new(shard_size).with_router(ShardRouter::P2c));
        self
    }

    /// Replaces the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Enables migration with the given epoch-DMR threshold.
    #[must_use]
    pub fn with_migration(mut self, dmr_threshold: f64) -> Self {
        self.migration = Some(dmr_threshold);
        self
    }

    /// Selects the event-driven execution mode for
    /// [`crate::Fleet::run_configured`] (see
    /// [`crate::Fleet::run_events`]).
    #[must_use]
    pub fn with_event_driven(mut self) -> Self {
        self.event_driven = true;
        self
    }

    /// Replaces the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Forces the per-epoch fan-out onto exactly `workers` threads; one
    /// worker is the sequential path (metrics are bit-identical for
    /// every count; the knob exists for determinism tests and for
    /// capping thread pressure).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the fan-out needs at least one worker");
        self.workers = Some(workers);
        self
    }

    /// Replaces the wait-queue policy (FIFO is the default).
    #[must_use]
    pub fn with_queue_policy(mut self, policy: QueuePolicy) -> Self {
        self.queue.policy = policy;
        self
    }

    /// Enables the fps re-pricing ladder (see
    /// [`QueueConfig::repricing`]).
    #[must_use]
    pub fn with_repricing(mut self) -> Self {
        self.queue.repricing = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_gpu_sim::GpuSpec;

    #[test]
    fn p2c_sharding_builder_sets_the_router() {
        let cfg = FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
            .with_p2c_sharding(4);
        let shard = cfg.sharding.expect("sharding configured");
        assert_eq!(shard.shard_size, 4);
        assert_eq!(shard.router, ShardRouter::P2c);
        // The classic builder keeps the ordered scan.
        let scan =
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())]).with_sharding(4);
        assert_eq!(scan.sharding.expect("sharding").router, ShardRouter::Scan);
    }
}
