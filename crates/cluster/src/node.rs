//! Fleet nodes: one simulated GPU plus the scheduler that drives it.
//!
//! [`FleetNode`] owns its resident list and everything derived from it:
//! the [`Aggregates`] (summed demand and resident work mix) and a
//! version counter. The list is private and changes only through the
//! node's mutators, which update the aggregates and bump the version, so
//! admission probes read them in O(1). The node also keeps the
//! capacities every admission probe, utilisation sample and fluid
//! release reads: best-case compute latency per model (static), the
//! capacity of its residents, and their capacity with one more tenant
//! of each model (both reset by every mutation), all filled on first
//! use. Outside the node, only per-tenant memos (a run's release
//! constants, a degraded resident's failed upgrade) revalidate against
//! [`FleetNode::version`].

use crate::admission::{self, CONCURRENCY};
use crate::{ModelKind, TenantSpec};
use serde::{Deserialize, Serialize};
use sgprs_core::{analysis, ContextPoolSpec, Scheduler, SchedulerKind};
use sgprs_gpu_sim::{GpuSpec, SpeedupModel, WorkProfile};
use sgprs_rt::SimDuration;
use std::cell::Cell;

/// Static description of one fleet node: the device, how it is
/// partitioned, and which scheduler runs on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node name for reports (e.g. `"gpu0"`).
    pub name: String,
    /// The simulated device (heterogeneous fleets mix SM counts).
    pub gpu: GpuSpec,
    /// Number of contexts the pool is split into.
    pub contexts: usize,
    /// The scheduler variant.
    pub scheduler: SchedulerKind,
}

impl NodeSpec {
    /// A node running SGPRS at the paper's `np = 3`, `os = 1.5` sweet
    /// spot on the given device.
    #[must_use]
    pub fn sgprs(name: impl Into<String>, gpu: GpuSpec) -> Self {
        NodeSpec {
            name: name.into(),
            gpu,
            contexts: 3,
            scheduler: SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
        }
    }

    /// Overrides the context count.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    #[must_use]
    pub fn with_contexts(mut self, contexts: usize) -> Self {
        assert!(contexts > 0, "a node needs at least one context");
        self.contexts = contexts;
        self
    }

    /// Overrides the scheduler variant.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The context pool this node partitions its device into.
    #[must_use]
    pub fn pool(&self) -> ContextPoolSpec {
        ContextPoolSpec::new(self.contexts, self.scheduler.oversubscription())
            .with_gpu(self.gpu.clone())
    }

    /// This node's scheduler with no tenant yet, its device seeded with
    /// `seed`, measuring every window from time zero (no warm-up: the
    /// fleet accounts windows itself).
    pub(crate) fn scheduler(&self, seed: u64) -> Scheduler {
        let (kind, gpu) = (self.scheduler, self.gpu.clone());
        Scheduler::new(kind, self.contexts, gpu, seed, SimDuration::ZERO, vec![])
    }
}

/// What every admission probe reads of a node's residents: their
/// summed demand and their merged work mix, both folded in slot order.
#[derive(Debug, Clone, Copy)]
pub struct Aggregates {
    /// `Σ demand_sm_equivalents` of the residents, in SM-equivalents.
    pub demand: f64,
    /// The merged work profile of the residents.
    pub mix: WorkProfile,
}

impl Aggregates {
    /// The aggregates of `tenants`, folded from scratch in slot order.
    #[must_use]
    pub fn of(tenants: &[TenantSpec]) -> Self {
        Aggregates::fold(tenants.iter())
    }

    /// Folds `tenants` in iteration order: the one definition of the
    /// aggregate arithmetic, so two folds over the same sequence agree
    /// bit for bit.
    fn fold<'a>(tenants: impl Iterator<Item = &'a TenantSpec>) -> Self {
        let mut acc = Aggregates {
            // The empty `f64` sum, sign bit included: pushing demands
            // one by one then adds exactly what `Iterator::sum` would.
            demand: std::iter::empty::<f64>().sum(),
            mix: WorkProfile::new(),
        };
        for t in tenants {
            acc.push(t);
        }
        acc
    }

    /// Folds one more tenant in after the others: one step of
    /// [`Self::fold`].
    fn push(&mut self, tenant: &TenantSpec) {
        self.demand += tenant.demand_sm_equivalents();
        self.mix.merge(tenant.model.work_profile());
    }

    /// The resident mix plus an optional candidate of model
    /// `candidate` — the mix the capacity estimate is taken at.
    #[must_use]
    pub(crate) fn mix_with(&self, candidate: Option<ModelKind>) -> WorkProfile {
        let mut mix = self.mix;
        if let Some(model) = candidate {
            mix.merge(model.work_profile());
        }
        mix
    }
}

/// Run-time state of a node inside a [`crate::Fleet`]: the spec plus the
/// tenants currently placed on it.
///
/// The node owns its resident list and the [`Aggregates`] every
/// admission probe reads. [`Self::push_tenant`] folds the new resident
/// onto them; [`Self::remove_tenant`] and [`Self::replace_tenant`]
/// refold them in slot order. Either way they carry the float
/// operations a from-scratch fold performs, so a probe reads them in
/// O(1) with the same bits. Each mutator also bumps [`Self::version`]
/// and resets the capacity caches.
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// The static description.
    pub spec: NodeSpec,
    /// Tenants resident on this node, in placement order.
    tenants: Vec<TenantSpec>,
    /// The aggregates of `tenants`, folded in slot order.
    aggregates: Aggregates,
    /// Bumped by every mutation of `tenants`.
    version: u64,
    /// The pool's per-context SM allocations, computed once here: the
    /// spec is immutable after construction, and materialising the pool
    /// on demand allocates (name strings + the allocation Vec) on paths
    /// admission probes per candidate.
    sm_allocs: Vec<u32>,
    /// `max(sm_allocs)` — the biggest context, the capacity side of
    /// every best-case-latency gate.
    max_context_sm: u32,
    /// Per-model ([`ModelKind::index`]) best-case compute latency at
    /// `max_context_sm`, `None` until first asked. Static: the spec
    /// never changes.
    best_case: [Cell<Option<SimDuration>>; ModelKind::ALL.len()],
    /// Capacity of the residents alone, NaN until first asked since the
    /// last mutation.
    capacity: Cell<f64>,
    /// Per-model capacity of the residents plus one tenant of that
    /// model, NaN until first asked since the last mutation.
    capacity_with: [Cell<f64>; ModelKind::ALL.len()],
}

impl FleetNode {
    /// A node with no tenants.
    #[must_use]
    pub fn new(spec: NodeSpec) -> Self {
        let sm_allocs = spec.pool().sm_allocations();
        let max_context_sm = sm_allocs.iter().copied().max().unwrap_or(0);
        FleetNode {
            spec,
            tenants: Vec::new(),
            aggregates: Aggregates::fold(std::iter::empty()),
            version: 1,
            sm_allocs,
            max_context_sm,
            // Filled lazily: most nodes never see most models.
            best_case: [const { Cell::new(None) }; ModelKind::ALL.len()],
            capacity: Cell::new(f64::NAN),
            capacity_with: [const { Cell::new(f64::NAN) }; ModelKind::ALL.len()],
        }
    }

    /// The resident tenants, in placement order.
    #[must_use]
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// The mutation counter: strictly increases with every change to the
    /// resident list, so an unchanged version pins unchanged aggregates.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The aggregates the node would have after
    /// [`Self::remove_tenant`]`(slot)`: the same fold over the other
    /// residents, in slot order, so the bits match; the node itself is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn aggregates_without(&self, slot: usize) -> Aggregates {
        assert!(slot < self.tenants.len(), "slot {slot} out of bounds");
        Aggregates::fold(
            self.tenants
                .iter()
                .enumerate()
                .filter(move |&(i, _)| i != slot)
                .map(|(_, t)| t),
        )
    }

    /// Appends a resident, folding it onto the cached aggregates (the
    /// last step a from-scratch fold would take).
    pub fn push_tenant(&mut self, tenant: TenantSpec) {
        self.aggregates.push(&tenant);
        self.tenants.push(tenant);
        self.touch();
    }

    /// Removes and returns the resident at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn remove_tenant(&mut self, slot: usize) -> TenantSpec {
        let tenant = self.tenants.remove(slot);
        self.refold();
        tenant
    }

    /// Replaces the resident at `slot` (a re-price keeps its slot),
    /// returning the old spec.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn replace_tenant(&mut self, slot: usize, tenant: TenantSpec) -> TenantSpec {
        let old = std::mem::replace(&mut self.tenants[slot], tenant);
        self.refold();
        old
    }

    /// Recomputes the cached aggregates from scratch, in slot order.
    fn refold(&mut self) {
        self.aggregates = Aggregates::of(&self.tenants);
        self.touch();
    }

    /// Bumps the version and resets the capacity caches after a change
    /// to the resident list.
    fn touch(&mut self) {
        self.version += 1;
        for entry in std::iter::once(&self.capacity).chain(&self.capacity_with) {
            entry.set(f64::NAN);
        }
    }

    /// The pool's per-context SM allocations (cached at construction;
    /// identical to `spec.pool().sm_allocations()`).
    #[must_use]
    pub fn sm_allocs(&self) -> &[u32] {
        &self.sm_allocs
    }

    /// SMs of the biggest context (cached at construction).
    #[must_use]
    pub fn max_context_sm(&self) -> u32 {
        self.max_context_sm
    }

    /// Optimistic latency of one inference of `model` in `stages` stages:
    /// the whole network at the biggest context, plus one launch
    /// overhead per stage. No schedule can beat this, so a tenant whose
    /// bound exceeds its deadline is hopeless on this node. The compute
    /// part is read from the node's per-model table.
    #[must_use]
    pub fn best_case_latency(&self, model: ModelKind, stages: usize) -> SimDuration {
        let entry = &self.best_case[model.index()];
        let compute = entry.get().unwrap_or_else(|| {
            let compute = admission::best_case_compute(self.max_context_sm, model);
            entry.set(Some(compute));
            compute
        });
        admission::with_launches(compute, self.spec.gpu.launch_overhead_ns, stages)
    }

    /// Capacity in SM-equivalents of the residents alone — the side of
    /// every utilisation sample, shard summary and SGPRS fluid release.
    /// Cached, filled on the first ask after a mutation.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.cached_capacity(&self.capacity, None)
    }

    /// Capacity in SM-equivalents of the residents plus one tenant of
    /// `model` — the capacity side of every admission probe of that
    /// model against this node's own residents. Read from the node's
    /// per-model table, filled on the first ask after a mutation.
    #[must_use]
    pub fn capacity_with(&self, model: ModelKind) -> f64 {
        self.cached_capacity(&self.capacity_with[model.index()], Some(model))
    }

    /// `entry`, or — when a mutation reset it — the capacity at the
    /// residents' mix plus `candidate`, stored there.
    fn cached_capacity(&self, entry: &Cell<f64>, candidate: Option<ModelKind>) -> f64 {
        if entry.get().is_nan() {
            entry.set(self.capacity_of(&self.aggregates.mix_with(candidate)));
        }
        entry.get()
    }

    /// Capacity in SM-equivalents for work mix `mix` at [`CONCURRENCY`]
    /// stages per context, or the physical SM count when `mix` carries
    /// no work (an empty node admits against its physical size).
    #[must_use]
    pub(crate) fn capacity_of(&self, mix: &WorkProfile) -> f64 {
        if mix.is_empty() {
            return f64::from(self.spec.gpu.total_sms);
        }
        self.capacity_sm_equivalents(mix, CONCURRENCY)
    }

    /// Fluid-model capacity in SM-equivalents for work with op mix
    /// `profile` at `concurrency` stages resident per context: the
    /// [`analysis::delivered_sm_equivalents`] fold over the cached
    /// allocations.
    #[must_use]
    pub(crate) fn capacity_sm_equivalents(&self, profile: &WorkProfile, concurrency: f64) -> f64 {
        analysis::delivered_sm_equivalents(
            SpeedupModel::rtx_2080_ti(),
            &self.sm_allocs,
            self.spec.gpu.total_sms,
            profile,
            concurrency,
        )
    }

    /// Total steady-state demand of the resident tenants, in
    /// SM-equivalents (cached; see the type docs).
    #[must_use]
    pub fn total_demand(&self) -> f64 {
        self.aggregates.demand
    }

    /// The demand-weighted work profile of the resident tenants plus an
    /// optional candidate ([`Aggregates::mix_with`] of the cached
    /// aggregates).
    #[must_use]
    pub fn mixed_profile(&self, candidate: Option<&TenantSpec>) -> WorkProfile {
        self.aggregates.mix_with(candidate.map(|c| c.model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use sgprs_rt::SimTime;
    use std::sync::Arc;

    #[test]
    fn pool_reflects_scheduler_and_device() {
        let node = NodeSpec::sgprs("g", GpuSpec::synthetic(34));
        let pool = node.pool();
        assert_eq!(pool.contexts, 3);
        assert_eq!(pool.gpu.total_sms, 34);
        assert!((pool.oversubscription - 1.5).abs() < 1e-12);
        let naive = node.with_scheduler(SchedulerKind::Naive);
        assert!((naive.pool().oversubscription - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_bounded_by_physical_sms() {
        let tenant = TenantSpec::new("t", ModelKind::ResNet18, 30.0);
        let profile = tenant
            .model
            .network()
            .work_profile(&sgprs_dnn::CostModel::calibrated());
        for sms in [16u32, 34, 68] {
            let node = FleetNode::new(NodeSpec::sgprs("g", GpuSpec::synthetic(sms)));
            let cap = node.capacity_sm_equivalents(&profile, 4.0);
            assert!(cap > 0.0 && cap <= f64::from(sms) + 1e-9, "{sms}: {cap}");
        }
    }

    #[test]
    fn bigger_devices_have_more_capacity() {
        let profile = ModelKind::ResNet18
            .network()
            .work_profile(&sgprs_dnn::CostModel::calibrated());
        let small = FleetNode::new(NodeSpec::sgprs("s", GpuSpec::synthetic(23)));
        let large = FleetNode::new(NodeSpec::sgprs("l", GpuSpec::synthetic(68)));
        assert!(
            large.capacity_sm_equivalents(&profile, 4.0)
                > small.capacity_sm_equivalents(&profile, 4.0)
        );
    }

    #[test]
    fn node_schedulers_serve_attached_tenants_for_each_scheduler() {
        for scheduler in [
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
            SchedulerKind::Naive,
        ] {
            let node = NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti()).with_scheduler(scheduler);
            let tenant = TenantSpec::new("cam", ModelKind::ResNet18, 30.0);
            let mut exec = node.scheduler(7);
            for at in [0, 5] {
                let at = SimTime::ZERO + SimDuration::from_millis(at);
                exec.attach(Arc::new(tenant.compile_for(&node.pool())), at);
            }
            let m = exec.run(SimTime::ZERO + SimDuration::from_secs(1));
            assert!(m.total_fps > 0.0, "{scheduler:?}: {m:?}");
        }
    }

    #[test]
    fn cached_pool_statics_match_the_spec_recompute() {
        // The determinism stake: the cached fold must be *bit*-identical
        // to the on-demand pool math it replaced on the admission path.
        let profile = ModelKind::ResNet18
            .network()
            .work_profile(&sgprs_dnn::CostModel::calibrated());
        for sms in [16u32, 34, 68] {
            let spec = NodeSpec::sgprs("g", GpuSpec::synthetic(sms));
            let node = FleetNode::new(spec.clone());
            assert_eq!(node.sm_allocs(), spec.pool().sm_allocations().as_slice());
            assert_eq!(
                Some(node.max_context_sm()),
                spec.pool().sm_allocations().into_iter().max()
            );
            let pool = spec.pool();
            assert_eq!(
                node.capacity_sm_equivalents(&profile, 4.0).to_bits(),
                analysis::delivered_sm_equivalents(
                    SpeedupModel::rtx_2080_ti(),
                    &pool.sm_allocations(),
                    pool.gpu.total_sms,
                    &profile,
                    4.0
                )
                .to_bits()
            );
        }
    }

    #[test]
    fn fleet_node_accumulates_demand() {
        let mut node = FleetNode::new(NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti()));
        assert_eq!(node.total_demand(), 0.0);
        node.push_tenant(TenantSpec::new("a", ModelKind::ResNet18, 30.0));
        node.push_tenant(TenantSpec::new("b", ModelKind::MobileNet, 30.0));
        let d = node.total_demand();
        assert!(d > 0.0);
        assert!(!node.mixed_profile(None).is_empty());
    }
}
