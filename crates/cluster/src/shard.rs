//! Two-level sharded dispatch: shards of nodes behind a summary router.
//!
//! A flat [`crate::Fleet`] pays O(nodes) admission evaluations per
//! arrival (~40 µs at 64 nodes), which caps how fast the front door can
//! go exactly where the fleet gets interesting. Sharding splits the
//! nodes into contiguous groups and keeps one cached [`ShardSummary`]
//! per group:
//!
//! * **spare budget** — the summed admission headroom (budget − demand,
//!   clamped at zero) of the shard's nodes, decremented incrementally on
//!   placement and recomputed lazily after removals and migrations;
//! * **latency lower bound inputs** — the largest context allocation and
//!   smallest launch overhead in the shard, from which the router
//!   derives a best-case latency no node in the shard can beat.
//!
//! How an arrival picks a shard is the [`ShardRouter`] strategy:
//!
//! * [`ShardRouter::Scan`] (the default) orders *every* shard —
//!   provably latency-infeasible shards are skipped outright; shards
//!   whose spare budget covers the tenant's demand come first,
//!   most-spare first — then the regular [`crate::PlacementPolicy`]
//!   runs inside the chosen shard only: O(shards + nodes/shard) per
//!   arrival.
//! * [`ShardRouter::P2c`] probes **two** deterministically chosen
//!   shards (a seeded hash of the tenant name and a routing serial) and
//!   tries the one with more spare budget first — O(1) in the shard
//!   count, the difference between 64 shards and 128 shards vanishing
//!   from the arrival hot path. Only when both probes refuse does the
//!   planner fall back to an exhaustive sweep, so two-choice routing
//!   can narrow *where* placement looks but never *whether* a feasible
//!   node is found.
//!
//! The summaries are heuristics, not admission decisions: real admission
//! always re-runs inside the shard, and when it disagrees the router
//! simply falls through to the next candidate, degrading to the flat
//! scan in the worst case rather than rejecting wrongly.

use crate::{AdmissionController, FleetNode, TenantSpec};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The first-level routing strategy of a sharded fleet: how an arrival
/// picks which shard to try (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardRouter {
    /// Order every shard by cached spare budget, feasibility-filtered —
    /// O(shards) per arrival, the classic behaviour and the default.
    #[default]
    Scan,
    /// Power-of-two-choices: probe two deterministically chosen shards
    /// and take the better, falling back to an exhaustive sweep only
    /// when both refuse — O(1) per arrival in the shard count.
    P2c,
}

impl core::fmt::Display for ShardRouter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShardRouter::Scan => f.write_str("scan"),
            ShardRouter::P2c => f.write_str("p2c"),
        }
    }
}

/// Sharding knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Nodes per shard (the last shard may be smaller).
    pub shard_size: usize,
    /// First-level routing strategy ([`ShardRouter::Scan`] by default).
    pub router: ShardRouter,
}

impl ShardConfig {
    /// Shards of `shard_size` nodes routed by the ordered scan.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    #[must_use]
    pub fn new(shard_size: usize) -> Self {
        assert!(shard_size > 0, "a shard needs at least one node");
        ShardConfig {
            shard_size,
            router: ShardRouter::Scan,
        }
    }

    /// Replaces the routing strategy.
    #[must_use]
    pub fn with_router(mut self, router: ShardRouter) -> Self {
        self.router = router;
        self
    }
}

/// Cached capacity summary of one shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardSummary {
    /// Σ over the shard's nodes of `max(budget − demand, 0)`.
    spare_budget: f64,
    /// Largest single-context SM allocation of any node in the shard.
    max_context_sm: u32,
    /// Smallest per-stage launch overhead of any node in the shard.
    min_launch_overhead_ns: u64,
}

/// The first routing level: contiguous shards of node indices with
/// lazily maintained [`ShardSummary`]s, consulted through the
/// configured [`ShardRouter`] strategy.
#[derive(Debug)]
pub(crate) struct ShardDirectory {
    shard_size: usize,
    n_nodes: usize,
    router: ShardRouter,
    summaries: Vec<Option<ShardSummary>>,
    /// Serial mixed into the P2c probe hash so repeated routing attempts
    /// for the same tenant spread over different shard pairs
    /// (deterministic: it advances once per routing decision).
    probe_serial: u64,
}

impl ShardDirectory {
    /// A directory over `n_nodes` nodes in shards of `cfg.shard_size`.
    pub(crate) fn new(n_nodes: usize, cfg: &ShardConfig) -> Self {
        let shards = n_nodes.div_ceil(cfg.shard_size).max(1);
        ShardDirectory {
            shard_size: cfg.shard_size,
            n_nodes,
            router: cfg.router,
            summaries: vec![None; shards],
            probe_serial: 0,
        }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.summaries.len()
    }

    /// Whether [`ShardDirectory::route`] already covered every feasible
    /// shard (the ordered scan does; P2c returns two probes and relies
    /// on the caller's fallback sweep).
    pub(crate) fn is_exhaustive(&self) -> bool {
        matches!(self.router, ShardRouter::Scan)
    }

    /// The node-index range shard `shard` covers.
    pub(crate) fn range(&self, shard: usize) -> Range<usize> {
        let start = shard * self.shard_size;
        start..((start + self.shard_size).min(self.n_nodes))
    }

    /// The shard holding node `node_idx`.
    pub(crate) fn shard_of(&self, node_idx: usize) -> usize {
        node_idx / self.shard_size
    }

    /// Drops the cached summary of the shard holding `node_idx`; it is
    /// recomputed on the next routing decision.
    pub(crate) fn invalidate_node(&mut self, node_idx: usize) {
        let shard = self.shard_of(node_idx);
        self.summaries[shard] = None;
    }

    /// Accounts a committed placement on `node_idx` incrementally: the
    /// shard's spare budget shrinks by the tenant's demand. (The true
    /// budget also shifts with the resident mix; the summary is a
    /// routing heuristic, so the cheap update is preferred over a
    /// recompute.)
    pub(crate) fn note_place(&mut self, node_idx: usize, demand: f64) {
        let shard = self.shard_of(node_idx);
        if let Some(summary) = self.summaries[shard].as_mut() {
            summary.spare_budget = (summary.spare_budget - demand).max(0.0);
        }
    }

    /// The summary of `shard`, recomputing it from the nodes when the
    /// cache was invalidated.
    fn summary(
        &mut self,
        shard: usize,
        nodes: &[FleetNode],
        admission: &AdmissionController,
    ) -> ShardSummary {
        if self.summaries[shard].is_none() {
            let mut spare_budget = 0.0;
            let mut max_context_sm = 0u32;
            let mut min_launch_overhead_ns = u64::MAX;
            for node in &nodes[self.range(shard)] {
                spare_budget += (admission.budget(node, None) - node.total_demand()).max(0.0);
                max_context_sm = max_context_sm.max(node.max_context_sm());
                min_launch_overhead_ns =
                    min_launch_overhead_ns.min(node.spec.gpu.launch_overhead_ns);
            }
            self.summaries[shard] = Some(ShardSummary {
                spare_budget,
                max_context_sm,
                min_launch_overhead_ns: if min_launch_overhead_ns == u64::MAX {
                    0
                } else {
                    min_launch_overhead_ns
                },
            });
        }
        self.summaries[shard].expect("invariant: summary just refreshed above")
    }

    /// The summary of `shard` when its best-case latency lower bound
    /// admits `tenant` (`None`: no node inside can ever admit it).
    fn feasible_summary(
        &mut self,
        shard: usize,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> Option<ShardSummary> {
        let summary = self.summary(shard, nodes, admission);
        let bound = admission.best_case_latency_at(
            summary.max_context_sm,
            summary.min_launch_overhead_ns,
            tenant,
        );
        (bound <= tenant.period()).then_some(summary)
    }

    /// Whether the shard's best-case latency lower bound already rules
    /// `tenant` out (no node inside can ever admit it).
    pub(crate) fn latency_infeasible(
        &mut self,
        shard: usize,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> bool {
        self.feasible_summary(shard, nodes, admission, tenant)
            .is_none()
    }

    /// The shards to try for `tenant`, in order, under the configured
    /// strategy. [`ShardRouter::Scan`] ranks every shard;
    /// [`ShardRouter::P2c`] ranks at most two probes — the caller sweeps
    /// the rest only if both refuse (see
    /// [`ShardDirectory::is_exhaustive`]).
    pub(crate) fn route(
        &mut self,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> Vec<usize> {
        match self.router {
            ShardRouter::Scan => self.rank(0..self.shard_count(), nodes, admission, tenant),
            ShardRouter::P2c => self.route_p2c(nodes, admission, tenant),
        }
    }

    /// The ranking both routers share: latency-infeasible `shards` are
    /// dropped, then demand-covering shards come first, most spare
    /// budget first, shard index as the deterministic tie-break.
    fn rank(
        &mut self,
        shards: impl ExactSizeIterator<Item = usize>,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> Vec<usize> {
        let demand = tenant.demand_sm_equivalents();
        let mut order: Vec<(usize, f64, bool)> = Vec::with_capacity(shards.len());
        for shard in shards {
            if let Some(summary) = self.feasible_summary(shard, nodes, admission, tenant) {
                order.push((shard, summary.spare_budget, summary.spare_budget >= demand));
            }
        }
        order.sort_by(|a, b| b.2.cmp(&a.2).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0)));
        order.into_iter().map(|(shard, _, _)| shard).collect()
    }

    /// The power-of-two-choices probe (see [`ShardDirectory::route`]):
    /// two distinct shards drawn from a deterministic hash of the tenant
    /// name and the routing serial, ranked like the scan. Touches
    /// exactly two summaries, so the routing cost is independent of how
    /// many shards the fleet has.
    fn route_p2c(
        &mut self,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        tenant: &TenantSpec,
    ) -> Vec<usize> {
        let n = self.shard_count();
        if n == 1 {
            return vec![0];
        }
        let h = splitmix64(fnv1a(&tenant.name) ^ self.probe_serial.wrapping_mul(0x9E37_79B9));
        self.probe_serial = self.probe_serial.wrapping_add(1);
        let a = (h % n as u64) as usize;
        let b = {
            let b = ((h >> 32) % (n as u64 - 1)) as usize;
            if b >= a {
                b + 1
            } else {
                b
            }
        };
        self.rank([a, b].into_iter(), nodes, admission, tenant)
    }
}

/// FNV-1a over the tenant name: a stable, dependency-free string hash
/// (the std hasher is seeded per process and would break determinism).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The splitmix64 finalizer: spreads the probe hash over both halves so
/// the two shard draws are decorrelated.
fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DispatchOutcome, Fleet, FleetConfig, ModelKind, NodeSpec, PlacementPolicy};
    use sgprs_gpu_sim::GpuSpec;
    use sgprs_rt::SimDuration;

    fn nodes(n: usize) -> Vec<NodeSpec> {
        (0..n)
            .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
            .collect()
    }

    fn tenant(i: usize) -> TenantSpec {
        TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0)
    }

    /// A fleet over `specs` in shards of `shard_size`, scan-routed.
    fn scan_fleet(specs: Vec<NodeSpec>, shard_size: usize) -> Fleet {
        Fleet::new(FleetConfig::new(specs).with_sharding(shard_size))
    }

    /// A fleet over `specs` in shards of `shard_size`, p2c-routed.
    fn p2c_fleet(specs: Vec<NodeSpec>, shard_size: usize) -> Fleet {
        Fleet::new(FleetConfig::new(specs).with_p2c_sharding(shard_size))
    }

    /// The node-index ranges of every shard, in order.
    fn shard_ranges(fleet: &Fleet) -> Vec<Range<usize>> {
        let router = fleet.router().expect("sharding is configured");
        (0..router.shard_count()).map(|s| router.range(s)).collect()
    }

    #[test]
    fn shards_partition_the_nodes() {
        let fleet = scan_fleet(nodes(10), 4);
        assert_eq!(shard_ranges(&fleet), vec![0..4, 4..8, 8..10]);
        let covered: usize = shard_ranges(&fleet).iter().map(|r| r.len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn sharded_dispatch_places_and_saturates_like_flat() {
        let mut flat = Fleet::new(FleetConfig::new(nodes(8)));
        let mut sharded = scan_fleet(nodes(8), 4);
        let mut flat_placed = 0;
        let mut sharded_placed = 0;
        for i in 0..300 {
            if matches!(flat.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
                flat_placed += 1;
            }
            if matches!(sharded.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
                sharded_placed += 1;
            }
        }
        // Identical per-tenant admission maths on both sides: the same
        // total population fits, whatever route it took.
        assert_eq!(flat_placed, sharded_placed, "same capacity either way");
        assert!(sharded.queued() > 0, "and then saturation queues");
    }

    #[test]
    fn p2c_dispatch_saturates_at_the_same_population_as_flat() {
        let mut flat = Fleet::new(FleetConfig::new(nodes(8)));
        let mut p2c = p2c_fleet(nodes(8), 2);
        let mut flat_placed = 0;
        let mut p2c_placed = 0;
        for i in 0..300 {
            if matches!(flat.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
                flat_placed += 1;
            }
            if matches!(p2c.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
                p2c_placed += 1;
            }
        }
        // The fallback sweep guarantees p2c never strands capacity the
        // flat scan would use.
        assert_eq!(flat_placed, p2c_placed, "same capacity either way");
        assert!(p2c.queued() > 0);
    }

    #[test]
    fn p2c_spreads_load_across_every_shard() {
        let mut fleet = p2c_fleet(nodes(8), 2);
        for i in 0..32 {
            assert!(matches!(
                fleet.dispatch(tenant(i)),
                DispatchOutcome::Placed(_)
            ));
        }
        for range in shard_ranges(&fleet) {
            let resident: usize = fleet.nodes()[range.clone()]
                .iter()
                .map(|n| n.tenants.len())
                .sum();
            assert!(resident > 0, "shard {range:?} left idle");
        }
    }

    #[test]
    fn p2c_routing_is_deterministic() {
        let run_once = || {
            let mut fleet = p2c_fleet(nodes(12), 3);
            (0..24)
                .map(|i| match fleet.dispatch(tenant(i)) {
                    DispatchOutcome::Placed(idx) => idx,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once(), "same seq of routing decisions");
    }

    #[test]
    fn routing_spreads_load_across_shards() {
        let mut fleet = Fleet::new(
            FleetConfig::new(nodes(8))
                .with_placement(PlacementPolicy::LeastUtilization)
                .with_sharding(2),
        );
        for i in 0..16 {
            assert!(matches!(
                fleet.dispatch(tenant(i)),
                DispatchOutcome::Placed(_)
            ));
        }
        // Spare-budget routing must not dogpile one shard: every shard
        // carries something.
        for range in shard_ranges(&fleet) {
            let resident: usize = fleet.nodes()[range.clone()]
                .iter()
                .map(|n| n.tenants.len())
                .sum();
            assert!(resident > 0, "shard {range:?} left idle");
        }
    }

    #[test]
    fn latency_infeasible_shards_are_skipped() {
        // Shard 0 holds tiny devices that can never meet a ResNet34@60fps
        // deadline; shard 1 holds full devices that can. The router must
        // land the tenant in shard 1 without ever scanning shard 0's
        // nodes through the placement policy.
        let mut specs = vec![
            NodeSpec::sgprs("tiny0", GpuSpec::synthetic(12)),
            NodeSpec::sgprs("tiny1", GpuSpec::synthetic(12)),
        ];
        specs.extend(nodes(2));
        let mut fleet = scan_fleet(specs, 2);
        let heavy = TenantSpec::new("r34", ModelKind::ResNet34, 60.0);
        match fleet.dispatch(heavy) {
            DispatchOutcome::Placed(idx) => assert!(idx >= 2, "placed on a full device"),
            other => panic!("expected placement, got {other:?}"),
        }
    }

    #[test]
    fn p2c_fallback_finds_the_only_feasible_shard() {
        // Three of four shards hold tiny devices a ResNet34@60fps tenant
        // can never run on; whatever pair p2c probes, the fallback sweep
        // must land it in the single feasible shard.
        let mut specs: Vec<NodeSpec> = (0..6)
            .map(|i| NodeSpec::sgprs(format!("tiny{i}"), GpuSpec::synthetic(12)))
            .collect();
        specs.extend(nodes(2));
        let mut fleet = p2c_fleet(specs, 2);
        for k in 0..8 {
            let heavy = TenantSpec::new(format!("r34-{k}"), ModelKind::ResNet34, 60.0);
            match fleet.dispatch(heavy) {
                DispatchOutcome::Placed(idx) => assert!(idx >= 6, "full device only"),
                DispatchOutcome::Queued => {} // the feasible shard saturated
                other => panic!("expected placement or queue, got {other:?}"),
            }
        }
    }

    #[test]
    fn summaries_survive_remove_and_requeue_cycles() {
        let mut fleet = scan_fleet(nodes(4), 2);
        let mut names = Vec::new();
        let mut i = 0;
        loop {
            let t = tenant(i);
            let name = t.name.clone();
            match fleet.dispatch(t) {
                DispatchOutcome::Placed(_) => names.push(name),
                DispatchOutcome::Queued => break,
                other => panic!("unexpected {other:?}"),
            }
            i += 1;
        }
        assert_eq!(fleet.queued(), 1);
        // A departure invalidates the shard summary; the queued tenant
        // must still find the freed room.
        assert!(fleet.remove(&names[0]));
        assert_eq!(fleet.drain_queue(), 1);
        assert_eq!(fleet.queued(), 0);
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let run_once = || {
            let mut fleet = Fleet::new(FleetConfig::new(nodes(6)).with_seed(11).with_sharding(2));
            let trace = crate::ChurnTrace::generate(
                &crate::ChurnConfig::default(),
                SimDuration::from_secs(3),
                5,
            );
            fleet.run(trace, SimDuration::from_secs(3))
        };
        assert_eq!(run_once(), run_once());
    }
}
