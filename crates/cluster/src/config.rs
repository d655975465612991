//! Fleet configuration: the nodes, policies, and execution-mode knobs a
//! [`crate::Fleet`] is built from.
//!
//! Carved out of the fleet module so the dispatcher file holds
//! orchestration only; every knob here is consumed by the shared policy
//! kernel ([`crate::policy`]) or by one of the execution engines.

use crate::policy::MigrationVictimPolicy;
use crate::telemetry::TelemetryConfig;
use crate::{AdmissionConfig, PlacementPolicy, QueueConfig, ShardConfig, ShardRouter};
use crate::{NodeSpec, QueuePolicy};
use sgprs_rt::SimDuration;

/// Migration knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationConfig {
    /// Enable migration off overloaded nodes.
    pub enabled: bool,
    /// Epoch deadline-miss rate above which a node sheds one tenant.
    pub dmr_threshold: f64,
    /// The state-transfer stall a migration pays in event-driven mode
    /// ([`crate::Fleet::run_events`]): the migrant serves nothing while
    /// its weights and context state move, roughly a reconfiguration
    /// window (the default matches `sgprs_core::ReconfigConfig`'s 100 ms
    /// repartition stall). Re-pricing degrade/upgrade switches are SGPRS
    /// partition switches and never pay it. The epoch path models
    /// migration as free (its pre-existing contract) and ignores this
    /// field.
    pub cost: SimDuration,
    /// How the shedding node chooses its victim (see
    /// [`MigrationVictimPolicy`]); LIFO — the most recently placed
    /// tenant — is the default and the classic behaviour.
    pub victim: MigrationVictimPolicy,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            enabled: false,
            dmr_threshold: 0.2,
            cost: SimDuration::from_millis(100),
            victim: MigrationVictimPolicy::Lifo,
        }
    }
}

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
    /// Migration knobs.
    pub migration: MigrationConfig,
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
    /// [`crate::Fleet::run_configured`]: exact release/departure
    /// boundaries, no epoch truncation, migration with an explicit stall
    /// cost. Off by default — the epoch path stays bit-for-bit the
    /// classic semantics.
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
            migration: MigrationConfig::default(),
            seed: 0x5672_5053,
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

    /// Enables migration with the given epoch-DMR threshold. The stall
    /// cost and victim policy keep whatever earlier builder calls set
    /// (or the defaults), regardless of call order.
    #[must_use]
    pub fn with_migration(mut self, dmr_threshold: f64) -> Self {
        self.migration.enabled = true;
        self.migration.dmr_threshold = dmr_threshold;
        self
    }

    /// Replaces the migration state-transfer stall charged in
    /// event-driven mode (see [`MigrationConfig::cost`]).
    #[must_use]
    pub fn with_migration_cost(mut self, cost: SimDuration) -> Self {
        self.migration.cost = cost;
        self
    }

    /// Replaces the migration victim-selection policy (see
    /// [`MigrationVictimPolicy`]; LIFO is the default).
    #[must_use]
    pub fn with_victim_policy(mut self, victim: MigrationVictimPolicy) -> Self {
        self.migration.victim = victim;
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

    /// Enables demand-aware queue expiry (see
    /// [`QueueConfig::demand_aware_expiry`]): waiters that provably can
    /// never be admitted — no node could carry them even fully drained,
    /// at any ladder step — are expired before their patience elapses
    /// and counted in [`crate::FleetMetrics::expired_hopeless`].
    #[must_use]
    pub fn with_demand_aware_expiry(mut self) -> Self {
        self.queue.demand_aware_expiry = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_gpu_sim::GpuSpec;

    #[test]
    fn migration_cost_survives_builder_order() {
        // Regression: `with_migration` used to rebuild the whole
        // MigrationConfig from its default, silently resetting a cost
        // set earlier in the chain.
        let cost = SimDuration::from_millis(500);
        let early = FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
            .with_migration_cost(cost)
            .with_migration(0.1);
        let late = FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
            .with_migration(0.1)
            .with_migration_cost(cost);
        assert_eq!(early.migration.cost, cost, "cost set before with_migration");
        assert_eq!(
            early.migration, late.migration,
            "builder order is irrelevant"
        );
        assert!(early.migration.enabled);
    }

    #[test]
    fn victim_policy_survives_builder_order() {
        let early = FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
            .with_victim_policy(MigrationVictimPolicy::DemandAware)
            .with_migration(0.1);
        let late = FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
            .with_migration(0.1)
            .with_victim_policy(MigrationVictimPolicy::DemandAware);
        assert_eq!(early.migration, late.migration);
        assert_eq!(early.migration.victim, MigrationVictimPolicy::DemandAware);
        // And the default stays LIFO — the classic bit-identical path.
        assert_eq!(
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
                .migration
                .victim,
            MigrationVictimPolicy::Lifo
        );
    }

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
