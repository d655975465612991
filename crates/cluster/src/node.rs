//! Fleet nodes: one simulated GPU plus the scheduler that drives it.
//!
//! [`FleetNode`] owns its resident list and everything derived from it:
//! the [`Aggregates`] (summed demand and resident work mix) and a
//! version counter. The list is private and changes only through the
//! node's mutators, which refold the aggregates and bump the version, so
//! admission probes read them in O(1) and the fleet's caches (fluid
//! load, utilisation samples, admission verdicts) revalidate against
//! [`FleetNode::version`].

use crate::TenantSpec;
use serde::{Deserialize, Serialize};
use sgprs_core::{
    ContextPoolSpec, NaiveConfig, NaiveScheduler, RunMetrics, SgprsConfig, SgprsScheduler,
};
use sgprs_gpu_sim::{GpuSpec, SpeedupModel, WorkProfile};
use sgprs_rt::{SimDuration, SimTime};

/// Which scheduler a node runs over its context pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeScheduler {
    /// SGPRS with the given over-subscription factor (the fleet default).
    Sgprs {
        /// The `os` level (1.5 is the paper's sweet spot at `np = 3`).
        oversubscription: f64,
    },
    /// The naive static spatial partitioner.
    Naive,
}

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
    pub scheduler: NodeScheduler,
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
            scheduler: NodeScheduler::Sgprs {
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
    pub fn with_scheduler(mut self, scheduler: NodeScheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The context pool this node partitions its device into.
    #[must_use]
    pub fn pool(&self) -> ContextPoolSpec {
        ContextPoolSpec::new(self.contexts, self.oversubscription()).with_gpu(self.gpu.clone())
    }

    /// The pool's over-subscription factor: the SGPRS `os`, or 1.0 (an
    /// exact partition) for the naive scheduler.
    #[must_use]
    pub(crate) fn oversubscription(&self) -> f64 {
        match self.scheduler {
            NodeScheduler::Sgprs { oversubscription } => oversubscription,
            NodeScheduler::Naive => 1.0,
        }
    }

    /// Fluid-model capacity of this node in SM-equivalents for work with
    /// the given effective speedup curve sample: each context keeps
    /// `concurrency` stages resident on even SM shares, and the device
    /// never delivers more than its physical SMs (the same occupancy
    /// argument as [`sgprs_core::analysis::estimate_capacity`]).
    #[must_use]
    pub fn capacity_sm_equivalents(&self, profile: &WorkProfile, concurrency: f64) -> f64 {
        let speedup = SpeedupModel::rtx_2080_ti();
        let demand: f64 = self
            .pool()
            .sm_allocations()
            .iter()
            .map(|&sm| {
                let m_eff = f64::from(sm) / concurrency;
                concurrency * profile.effective_speedup(speedup, m_eff)
            })
            .sum();
        demand.min(f64::from(self.gpu.total_sms))
    }

    /// Runs this node's scheduler over `tenants` compiled against the
    /// node pool, from time zero to `horizon`, with metrics over the whole
    /// window (no warm-up: the fleet driver accounts epochs itself).
    #[must_use]
    pub fn run_epoch(
        &self,
        tasks: Vec<sgprs_core::CompiledTask>,
        horizon: SimDuration,
        seed: u64,
    ) -> RunMetrics {
        let end = SimTime::ZERO + horizon;
        match self.scheduler {
            NodeScheduler::Sgprs { .. } => {
                let mut cfg = SgprsConfig::new(self.pool()).with_seed(seed);
                cfg.warmup = SimDuration::ZERO;
                SgprsScheduler::new(cfg, tasks).run(end)
            }
            NodeScheduler::Naive => {
                let mut cfg = NaiveConfig::new(self.contexts).with_seed(seed);
                cfg.gpu = self.gpu.clone();
                cfg.warmup = SimDuration::ZERO;
                NaiveScheduler::new(cfg, tasks).run(end)
            }
        }
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
    /// Folds `tenants` in iteration order: the one definition of the
    /// aggregate arithmetic, so two folds over the same sequence agree
    /// bit for bit.
    fn fold<'a>(tenants: impl Iterator<Item = &'a TenantSpec> + Clone) -> Self {
        let demand = tenants.clone().map(TenantSpec::demand_sm_equivalents).sum();
        let mut mix = WorkProfile::new();
        for t in tenants {
            mix.merge(t.model.work_profile());
        }
        Aggregates { demand, mix }
    }

    /// The resident mix plus an optional candidate — the mix the
    /// capacity estimate is taken at.
    #[must_use]
    pub(crate) fn mix_with(&self, candidate: Option<&TenantSpec>) -> WorkProfile {
        let mut mix = self.mix;
        if let Some(c) = candidate {
            mix.merge(c.model.work_profile());
        }
        mix
    }
}

/// Run-time state of a node inside a [`crate::Fleet`]: the spec plus the
/// tenants currently placed on it.
///
/// The node owns its resident list and the [`Aggregates`] every
/// admission probe reads. Each mutator ([`Self::push_tenant`],
/// [`Self::remove_tenant`], [`Self::replace_tenant`]) refolds them in
/// slot order, the float operations a from-scratch fold performs, so a
/// probe reads them in O(1) with the same bits. Each mutator also bumps [`Self::version`],
/// the key of every cache that is a pure function of the node's state.
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

    /// The residents' aggregates (cached; see the type docs).
    #[must_use]
    pub(crate) fn aggregates(&self) -> &Aggregates {
        &self.aggregates
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

    /// Appends a resident.
    pub fn push_tenant(&mut self, tenant: TenantSpec) {
        self.tenants.push(tenant);
        self.refold();
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

    /// Recomputes the cached aggregates from scratch, in slot order, and
    /// bumps the version.
    fn refold(&mut self) {
        self.aggregates = Aggregates::fold(self.tenants.iter());
        self.version += 1;
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

    /// [`NodeSpec::capacity_sm_equivalents`] over the cached
    /// allocations: the identical fold in the identical order, without
    /// materialising the pool per call.
    #[must_use]
    pub fn capacity_sm_equivalents(&self, profile: &WorkProfile, concurrency: f64) -> f64 {
        let speedup = SpeedupModel::rtx_2080_ti();
        let demand: f64 = self
            .sm_allocs
            .iter()
            .map(|&sm| {
                let m_eff = f64::from(sm) / concurrency;
                concurrency * profile.effective_speedup(speedup, m_eff)
            })
            .sum();
        demand.min(f64::from(self.spec.gpu.total_sms))
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
        self.aggregates.mix_with(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;

    #[test]
    fn pool_reflects_scheduler_and_device() {
        let node = NodeSpec::sgprs("g", GpuSpec::synthetic(34));
        let pool = node.pool();
        assert_eq!(pool.contexts, 3);
        assert_eq!(pool.gpu.total_sms, 34);
        assert!((pool.oversubscription - 1.5).abs() < 1e-12);
        let naive = node.with_scheduler(NodeScheduler::Naive);
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
            let node = NodeSpec::sgprs("g", GpuSpec::synthetic(sms));
            let cap = node.capacity_sm_equivalents(&profile, 4.0);
            assert!(cap > 0.0 && cap <= f64::from(sms) + 1e-9, "{sms}: {cap}");
        }
    }

    #[test]
    fn bigger_devices_have_more_capacity() {
        let profile = ModelKind::ResNet18
            .network()
            .work_profile(&sgprs_dnn::CostModel::calibrated());
        let small = NodeSpec::sgprs("s", GpuSpec::synthetic(23));
        let large = NodeSpec::sgprs("l", GpuSpec::synthetic(68));
        assert!(
            large.capacity_sm_equivalents(&profile, 4.0)
                > small.capacity_sm_equivalents(&profile, 4.0)
        );
    }

    #[test]
    fn run_epoch_produces_throughput_for_each_scheduler() {
        for scheduler in [
            NodeScheduler::Sgprs {
                oversubscription: 1.5,
            },
            NodeScheduler::Naive,
        ] {
            let node = NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti()).with_scheduler(scheduler);
            let tenant = TenantSpec::new("cam", ModelKind::ResNet18, 30.0);
            let tasks = vec![tenant.compile_for(&node.pool()); 2];
            let m = node.run_epoch(tasks, SimDuration::from_secs(1), 7);
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
            assert_eq!(
                node.capacity_sm_equivalents(&profile, 4.0),
                spec.capacity_sm_equivalents(&profile, 4.0)
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
