//! The dispatch-policy kernel: backend-agnostic decision logic shared by
//! every fleet execution engine.
//!
//! The fleet simulates time two ways — the epoch grid ([`crate::Fleet::run`])
//! and the discrete-event engine ([`crate::Fleet::run_events`]) — flat or
//! shard-routed ([`crate::FleetConfig::with_sharding`]). Both engines
//! must *decide* identically: who is admitted and where, in what order
//! the wait queue drains, which ladder step a re-priced tenant serves at,
//! which tenant a hot node sheds, and where the migrant lands. This
//! module is the single home of those decisions; the engines own only
//! *when* a decision instant occurs, and [`crate::Fleet`] records each
//! outcome once for both.
//!
//! The kernel sees the fleet through a [`FleetState`] view — the nodes
//! with their residents plus the admission controller — and through the
//! [`DispatchPlanner`], which carries the only mutable policy state
//! (the placement cursor and the shard directory with its cached
//! summaries). Everything else is a pure function of the view:
//!
//! * [`DispatchPlanner::plan`] / [`DispatchPlanner::plan_repriced`] —
//!   admission + placement planning, flat or shard-routed
//!   ([`crate::ShardRouter::Scan`] orders every shard;
//!   [`crate::ShardRouter::P2c`] probes two and falls back to a sweep
//!   only when both refuse), with the re-pricing ladder walked best
//!   step first.
//! * [`queue_feasible`] — whether queueing a tenant can ever pay off
//!   (load-independent latency feasibility at any admissible price).
//! * [`upgrade_candidates`] — the ladder steps an upgrade pass tries,
//!   best first.
//! * [`select_migration_victim`] — which resident a shedding node gives
//!   up: the most recently placed.
//! * [`migration_destination`] — where the victim lands: the least
//!   loaded node at or under the DMR threshold that admits it.
//!
//! Both engines call these through [`crate::Fleet`]'s orchestration
//! methods, so a policy change lands in the epoch path, the event path,
//! and sharded dispatch at once — the determinism matrices in
//! `tests/fleet_end_to_end.rs` and the kernel-parity property tests in
//! `tests/fleet_invariants.rs` pin that they can no longer drift.

use crate::shard::{ShardConfig, ShardDirectory};
use crate::{AdmissionController, FleetNode, PlacementPolicy, Placer, TenantSpec};
use sgprs_rt::SimDuration;

/// A read-only view of the fleet the policy kernel decides over: the
/// nodes (with their resident tenants) and the admission controller.
/// Both execution engines build the same view, flat or sharded, so a
/// decision is a function of fleet *state*, never of the engine driving
/// it.
#[derive(Debug, Clone, Copy)]
pub struct FleetState<'a> {
    /// The nodes, in dispatch order, with their resident tenants.
    pub nodes: &'a [FleetNode],
    /// The admission controller every decision consults.
    pub admission: &'a AdmissionController,
}

impl<'a> FleetState<'a> {
    /// A view over `nodes` judged by `admission`.
    #[must_use]
    pub fn new(nodes: &'a [FleetNode], admission: &'a AdmissionController) -> Self {
        FleetState { nodes, admission }
    }
}

/// Where the re-pricing ladder found room for a tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PricedPlan {
    /// Fits at its requested rate on this node.
    Full(usize),
    /// Fits only at the given degraded ladder step on this node.
    Degraded(usize, f64),
}

/// One admission out of the wait queue: who got in (by interned id), at
/// what price, after how long a wait, and whether it was queued before
/// the current run began.
#[derive(Debug, Clone)]
pub(crate) struct QueueAdmission {
    pub(crate) id: crate::interner::TenantId,
    pub(crate) degraded: bool,
    pub(crate) waited: SimDuration,
    pub(crate) carried_over: bool,
}

/// The mutable half of the kernel: the placement cursor plus the shard
/// directory with its cached summaries. [`crate::Fleet`] owns exactly
/// one, and both execution engines plan through it — there is no other
/// path from an arrival to a node.
#[derive(Debug)]
pub(crate) struct DispatchPlanner {
    placer: Placer,
    router: Option<ShardDirectory>,
    /// Cumulative placement-scan probes across all plans: one per
    /// per-shard placement attempt, and one per flat whole-fleet scan —
    /// so a single shard covering the fleet costs exactly what flat
    /// dispatch does. Telemetry reads deltas around a dispatch to cost
    /// individual arrivals.
    probes: u64,
}

impl DispatchPlanner {
    /// A planner over `n_nodes` nodes with the given placement policy,
    /// shard-routed when `sharding` is configured.
    pub(crate) fn new(
        policy: PlacementPolicy,
        n_nodes: usize,
        sharding: Option<&ShardConfig>,
    ) -> Self {
        DispatchPlanner {
            placer: Placer::new(policy),
            router: sharding.map(|cfg| ShardDirectory::new(n_nodes, cfg)),
            probes: 0,
        }
    }

    /// Cumulative shard probes spent planning so far (see the field
    /// docs); monotonic, so callers cost a dispatch by delta.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// The shard directory, when sharding is configured.
    #[cfg(test)]
    pub(crate) fn router(&self) -> Option<&ShardDirectory> {
        self.router.as_ref()
    }

    /// Accounts a committed placement on `node_idx` (incremental shard
    /// summary update).
    pub(crate) fn note_place(&mut self, node_idx: usize, demand: f64) {
        if let Some(router) = self.router.as_mut() {
            router.note_place(node_idx, demand);
        }
    }

    /// Drops the cached summary of the shard holding `node_idx` (a
    /// removal, migration, or price change touched it).
    pub(crate) fn invalidate_node(&mut self, node_idx: usize) {
        if let Some(router) = self.router.as_mut() {
            router.invalidate_node(node_idx);
        }
    }

    /// Chooses a node for `tenant` without committing the placement —
    /// the per-arrival hot path the placement benches measure. Flat
    /// fleets scan every node through the placement policy; sharded
    /// fleets route to a shard first and fall back shard by shard when
    /// summaries prove stale. Under [`crate::ShardRouter::P2c`] only two
    /// deterministically chosen shards are probed — O(1) in the shard
    /// count — with the exhaustive sweep reserved for the rare case
    /// where both probes refuse, so routing never destroys feasibility.
    pub(crate) fn plan(&mut self, state: &FleetState<'_>, tenant: &TenantSpec) -> Option<usize> {
        let Some(router) = self.router.as_mut() else {
            self.probes += 1;
            return self.placer.place(state.nodes, tenant, state.admission);
        };
        let probes = router.route(state.nodes, state.admission, tenant);
        for &shard in &probes {
            let range = router.range(shard);
            self.probes += 1;
            if let Some(rel) =
                self.placer
                    .place(&state.nodes[range.clone()], tenant, state.admission)
            {
                return Some(range.start + rel);
            }
        }
        if !router.is_exhaustive() {
            // P2c probed two shards and both refused: sweep the rest in
            // index order (skipping shards the latency lower bound rules
            // out) so the two-choice fast path can narrow *where* the
            // policy looks but never *whether* a feasible node is found.
            for shard in 0..router.shard_count() {
                if probes.contains(&shard)
                    || router.latency_infeasible(shard, state.nodes, state.admission, tenant)
                {
                    continue;
                }
                let range = router.range(shard);
                self.probes += 1;
                if let Some(rel) =
                    self.placer
                        .place(&state.nodes[range.clone()], tenant, state.admission)
                {
                    return Some(range.start + rel);
                }
            }
        }
        None
    }

    /// Plans `tenant` at its requested rate, then — with re-pricing on —
    /// down its degrade ladder, best step first. The single definition of
    /// the ladder walk, shared by arrival dispatch and the queue drain in
    /// both execution engines.
    pub(crate) fn plan_repriced(
        &mut self,
        state: &FleetState<'_>,
        tenant: &TenantSpec,
        repricing: bool,
    ) -> Option<PricedPlan> {
        if let Some(idx) = self.plan(state, tenant) {
            return Some(PricedPlan::Full(idx));
        }
        if !repricing {
            return None;
        }
        first_degraded(tenant, |probe| self.plan(state, probe))
            .map(|(idx, fps)| PricedPlan::Degraded(idx, fps))
    }
}

/// Walks `tenant`'s degrade ladder best step first, returning the first
/// step `at_step` answers for, with its rate. One re-priced probe serves
/// the whole walk: only its rate changes from rung to rung.
fn first_degraded<R>(
    tenant: &TenantSpec,
    mut at_step: impl FnMut(&TenantSpec) -> Option<R>,
) -> Option<(R, f64)> {
    let mut steps = tenant.degrade_steps();
    let mut probe = tenant.at_fps(steps.next()?);
    loop {
        if let Some(found) = at_step(&probe) {
            return Some((found, probe.fps));
        }
        probe.fps = steps.next()?;
    }
}

/// Whether some node could ever carry `tenant` once load drains — at its
/// requested rate or, under re-pricing, at any ladder step. Best-case
/// latency is load-independent, so a tenant failing the gate everywhere
/// at every price can never fit and queueing it would only block the
/// queue.
#[must_use]
pub fn queue_feasible(state: &FleetState<'_>, tenant: &TenantSpec, repricing: bool) -> bool {
    let fits = |t: &TenantSpec| {
        state
            .nodes
            .iter()
            .any(|node| node.best_case_latency(t.model, t.stages) <= t.period())
    };
    if fits(tenant) {
        return true;
    }
    repricing && first_degraded(tenant, |probe| fits(probe).then_some(())).is_some()
}

/// Candidate prices an upgrade pass tries for a degraded resident, best
/// first: the requested rate, then every ladder step below it, keeping
/// only steps strictly above the currently served rate.
#[must_use]
pub fn upgrade_candidates(resident: &TenantSpec, requested: f64) -> Vec<f64> {
    std::iter::once(requested)
        .chain(
            resident
                .fps_ladder
                .iter()
                .copied()
                .filter(|&s| s < requested),
        )
        .filter(|&s| s > resident.fps)
        .collect()
}

/// Chooses which resident of `node` a migration sheds, as a slot index
/// into `node.tenants()`: the most recently placed, or `None` when the
/// node has no residents. One definition shared by the epoch path's
/// boundary sweep and the event engine's release-boundary migration.
#[must_use]
pub fn select_migration_victim(node: &FleetNode) -> Option<usize> {
    node.tenants().len().checked_sub(1)
}

/// Chooses the destination for migrating a victim off `src`: among the
/// *other* nodes, those whose miss estimate is at or under `threshold`
/// (admission alone would happily bounce a tenant between two hot nodes
/// forever) and that admit the victim, the least loaded by
/// demand/budget. `admits(j)` answers whether node `j` admits the
/// victim; it is asked only of cool nodes, in index order. One policy
/// shared by the epoch path's per-boundary sweep and the event engine's
/// release-boundary migration, so the two modes cannot silently fork.
#[must_use]
pub fn migration_destination(
    state: &FleetState<'_>,
    src: usize,
    node_dmr: &[f64],
    threshold: f64,
    mut admits: impl FnMut(usize) -> bool,
) -> Option<usize> {
    (0..state.nodes.len())
        .filter(|&j| j != src)
        .filter(|&j| node_dmr[j] <= threshold)
        .filter(|&j| admits(j))
        .min_by(|&a, &b| {
            let load = |j: usize| {
                let budget = state.admission.budget(&state.nodes[j], None);
                if budget > 0.0 {
                    state.nodes[j].total_demand() / budget
                } else {
                    f64::INFINITY
                }
            };
            load(a).total_cmp(&load(b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, NodeSpec};
    use sgprs_gpu_sim::GpuSpec;

    fn tenant(name: &str, fps: f64) -> TenantSpec {
        TenantSpec::new(name, ModelKind::ResNet18, fps)
    }

    fn node(sms: u32) -> FleetNode {
        FleetNode::new(NodeSpec::sgprs(
            format!("gpu-{sms}"),
            GpuSpec::synthetic(sms),
        ))
    }

    #[test]
    fn lifo_victim_is_the_most_recent_placement() {
        let mut n = node(68);
        for i in 0..4 {
            n.push_tenant(tenant(&format!("t{i}"), 30.0));
        }
        assert_eq!(select_migration_victim(&n), Some(3));
        assert_eq!(select_migration_victim(&node(68)), None);
    }

    #[test]
    fn upgrade_candidates_walk_the_ladder_best_first() {
        let t = tenant("t", 60.0).with_fps_ladder([30.0, 24.0, 15.0]);
        let degraded = t.at_fps(15.0);
        assert_eq!(upgrade_candidates(&degraded, 60.0), vec![60.0, 30.0, 24.0]);
        let half = t.at_fps(30.0);
        assert_eq!(upgrade_candidates(&half, 60.0), vec![60.0]);
        let full = t.clone();
        assert!(upgrade_candidates(&full, 60.0).is_empty());
    }

    #[test]
    fn migration_destination_prefers_cool_admissible_nodes() {
        let ctl = AdmissionController::default();
        let mut nodes = vec![node(68), node(68), node(68)];
        nodes[2].push_tenant(tenant("busy", 30.0));
        let state = FleetState::new(&nodes, &ctl);
        let victim = tenant("victim", 30.0);
        let admits = |j: usize| ctl.evaluate(&nodes[j], &victim).is_admit();
        // Node 1 is empty and cool: the least-loaded admissible choice.
        assert_eq!(
            migration_destination(&state, 0, &[0.5, 0.0, 0.0], 0.2, admits),
            Some(1)
        );
        // A hot estimate excludes a destination outright.
        assert_eq!(
            migration_destination(&state, 0, &[0.5, 0.9, 0.0], 0.2, admits),
            Some(2)
        );
        assert_eq!(
            migration_destination(&state, 0, &[0.5, 0.9, 0.9], 0.2, admits),
            None
        );
        // A node that refuses the victim is skipped, however cool.
        assert_eq!(
            migration_destination(&state, 0, &[0.5, 0.0, 0.0], 0.2, |j| j != 1),
            Some(2)
        );
    }
}
