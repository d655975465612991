//! Fleet nodes: one simulated GPU plus the scheduler that drives it.

use crate::TenantSpec;
use serde::{Deserialize, Serialize};
use sgprs_core::{
    ContextPoolSpec, NaiveConfig, NaiveScheduler, ReconfigConfig, ReconfigScheduler, RunMetrics,
    SgprsConfig, SgprsScheduler,
};
use sgprs_gpu_sim::{GpuSpec, SpeedupModel};
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
    /// The reconfiguring partitioner (repartitions on tenant churn).
    Reconfig,
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
        let os = match self.scheduler {
            NodeScheduler::Sgprs { oversubscription } => oversubscription,
            NodeScheduler::Naive | NodeScheduler::Reconfig => 1.0,
        };
        ContextPoolSpec::new(self.contexts, os).with_gpu(self.gpu.clone())
    }

    /// Fluid-model capacity of this node in SM-equivalents for work with
    /// the given effective speedup curve sample: each context keeps
    /// `concurrency` stages resident on even SM shares, and the device
    /// never delivers more than its physical SMs (the same occupancy
    /// argument as [`sgprs_core::analysis::estimate_capacity`]).
    #[must_use]
    pub fn capacity_sm_equivalents(
        &self,
        profile: &sgprs_gpu_sim::WorkProfile,
        concurrency: f64,
    ) -> f64 {
        let speedup = SpeedupModel::calibrated_rtx_2080_ti();
        let demand: f64 = self
            .pool()
            .sm_allocations()
            .iter()
            .map(|&sm| {
                let m_eff = f64::from(sm) / concurrency;
                concurrency * profile.effective_speedup(&speedup, m_eff)
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
            NodeScheduler::Reconfig => {
                let mut cfg = ReconfigConfig::new();
                cfg.base = NaiveConfig::new(self.contexts).with_seed(seed);
                cfg.base.gpu = self.gpu.clone();
                cfg.base.warmup = SimDuration::ZERO;
                ReconfigScheduler::new(cfg, tasks).run(end)
            }
        }
    }
}

/// Run-time state of a node inside a [`crate::Fleet`]: the spec plus the
/// tenants currently placed on it.
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// The static description.
    pub spec: NodeSpec,
    /// Tenants resident on this node, in placement order.
    pub tenants: Vec<TenantSpec>,
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
            sm_allocs,
            max_context_sm,
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

    /// [`NodeSpec::capacity_sm_equivalents`] over the cached
    /// allocations: the identical fold in the identical order, without
    /// materialising the pool per call.
    #[must_use]
    pub fn capacity_sm_equivalents(
        &self,
        profile: &sgprs_gpu_sim::WorkProfile,
        concurrency: f64,
    ) -> f64 {
        let speedup = SpeedupModel::calibrated_rtx_2080_ti();
        let demand: f64 = self
            .sm_allocs
            .iter()
            .map(|&sm| {
                let m_eff = f64::from(sm) / concurrency;
                concurrency * profile.effective_speedup(&speedup, m_eff)
            })
            .sum();
        demand.min(f64::from(self.spec.gpu.total_sms))
    }

    /// Total steady-state demand of the resident tenants, in
    /// SM-equivalents.
    #[must_use]
    pub fn total_demand(&self) -> f64 {
        self.tenants
            .iter()
            .map(TenantSpec::demand_sm_equivalents)
            .sum()
    }

    /// The demand-weighted work profile of the resident tenants plus an
    /// optional candidate — the mix the capacity estimate is taken at.
    #[must_use]
    pub fn mixed_profile(&self, candidate: Option<&TenantSpec>) -> sgprs_gpu_sim::WorkProfile {
        let mut mix = sgprs_gpu_sim::WorkProfile::new();
        for t in self.tenants.iter().chain(candidate) {
            mix.merge(t.model.work_profile());
        }
        mix
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
            NodeScheduler::Reconfig,
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
        node.tenants
            .push(TenantSpec::new("a", ModelKind::ResNet18, 30.0));
        node.tenants
            .push(TenantSpec::new("b", ModelKind::MobileNet, 30.0));
        let d = node.total_demand();
        assert!(d > 0.0);
        assert!(!node.mixed_profile(None).is_empty());
    }
}
