//! Utilisation-bound admission control.
//!
//! The dispatcher must not place a tenant on a node that cannot carry it:
//! the paper's schedulers degrade gracefully under overload, but a
//! serving fleet should *reject or queue* work it cannot finish rather
//! than silently miss deadlines. Admission combines two gates:
//!
//! 1. **Latency feasibility**: one inference alone on the node's largest
//!    context must finish within the tenant's deadline.
//! 2. **Fluid occupancy bound** (the argument behind
//!    [`sgprs_core::analysis::estimate_capacity`], generalised to mixed
//!    tenants): the summed steady-state demand `Σ fpsᵢ·T₁ᵢ` in
//!    SM-equivalents must stay below `bound × capacity`, where the
//!    capacity is sampled at the node's pool layout and the resident op
//!    mix.

use crate::{Aggregates, FleetNode, TenantSpec};
use serde::{Deserialize, Serialize};
use sgprs_gpu_sim::SpeedupModel;

/// Knobs of the admission controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Fraction of the fluid capacity tenants may occupy (< 1 keeps
    /// headroom for jitter and stage imbalance).
    pub utilization_bound: f64,
    /// Stages assumed resident per context when sampling capacity (the
    /// paper's stream layout sustains 3–4; 4.0 matches
    /// `sgprs_core::analysis`'s calibration).
    pub concurrency: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            utilization_bound: 0.9,
            concurrency: 4.0,
        }
    }
}

/// Why a tenant was turned away.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Even alone on the node's largest context, one inference cannot
    /// finish within the tenant's deadline — no schedule can serve it.
    LatencyInfeasible {
        /// Best-case single-inference latency on this node.
        best_case: sgprs_rt::SimDuration,
        /// The tenant's relative deadline (its period).
        deadline: sgprs_rt::SimDuration,
    },
    /// The fluid occupancy bound would be exceeded.
    OverUtilization {
        /// Demand including the candidate, in SM-equivalents.
        demand: f64,
        /// Admissible demand (`bound × capacity`).
        budget: f64,
    },
}

/// Outcome of an admission test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// The node can carry the tenant.
    Admit {
        /// Demand including the candidate, in SM-equivalents.
        demand: f64,
        /// Admissible demand (`bound × capacity`).
        budget: f64,
    },
    /// The node cannot carry the tenant.
    Reject(RejectReason),
}

impl AdmissionDecision {
    /// `true` when the decision admits the tenant.
    #[must_use]
    pub fn is_admit(&self) -> bool {
        matches!(self, AdmissionDecision::Admit { .. })
    }

    /// Remaining admissible demand after this decision (zero when
    /// rejected).
    #[must_use]
    pub fn headroom(&self) -> f64 {
        match self {
            AdmissionDecision::Admit { demand, budget } => (budget - demand).max(0.0),
            AdmissionDecision::Reject(_) => 0.0,
        }
    }
}

/// The admission controller: pure functions of node state, shared by
/// every placement policy.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
}

impl AdmissionController {
    /// A controller with the given configuration.
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// The admissible demand budget of `node` for its current mix plus
    /// `candidate`, in SM-equivalents.
    #[must_use]
    pub fn budget(&self, node: &FleetNode, candidate: Option<&TenantSpec>) -> f64 {
        self.budget_against(node, node.aggregates(), candidate)
    }

    /// [`Self::budget`] with the residents given as explicit aggregates.
    fn budget_against(
        &self,
        node: &FleetNode,
        residents: &Aggregates,
        candidate: Option<&TenantSpec>,
    ) -> f64 {
        let mix = residents.mix_with(candidate);
        if mix.is_empty() {
            // An empty node admits against its physical size.
            return self.cfg.utilization_bound * f64::from(node.spec.gpu.total_sms);
        }
        // The cached-allocation fold: identical math to
        // `node.spec.capacity_sm_equivalents`, no pool materialisation
        // per admission probe.
        self.cfg.utilization_bound * node.capacity_sm_equivalents(&mix, self.cfg.concurrency)
    }

    /// Optimistic single-inference latency of `candidate` on `node`: the
    /// whole network at the node's largest context allocation, plus one
    /// launch overhead per stage. No schedule can beat this, so a tenant
    /// whose bound exceeds its deadline is hopeless on this node.
    #[must_use]
    pub fn best_case_latency(
        &self,
        node: &FleetNode,
        candidate: &TenantSpec,
    ) -> sgprs_rt::SimDuration {
        self.best_case_latency_at(
            node.max_context_sm(),
            node.spec.gpu.launch_overhead_ns,
            candidate,
        )
    }

    /// [`Self::best_case_latency`] evaluated at an explicit context size
    /// and launch overhead instead of a concrete node. Feeding it the
    /// *largest* context allocation and *smallest* launch overhead found
    /// across a group of nodes yields a sound lower bound over the whole
    /// group — the shard router's cheap feasibility pre-filter.
    #[must_use]
    pub fn best_case_latency_at(
        &self,
        context_sms: u32,
        launch_overhead_ns: u64,
        candidate: &TenantSpec,
    ) -> sgprs_rt::SimDuration {
        let compute_ns = candidate
            .model
            .work_profile()
            .duration_ns_at(SpeedupModel::rtx_2080_ti(), f64::from(context_sms));
        let overhead_ns = launch_overhead_ns * candidate.stages as u64;
        sgprs_rt::SimDuration::from_nanos(compute_ns as u64)
            + sgprs_rt::SimDuration::from_nanos(overhead_ns)
    }

    /// Tests whether `candidate` fits on `node` alongside its resident
    /// tenants.
    #[must_use]
    pub fn evaluate(&self, node: &FleetNode, candidate: &TenantSpec) -> AdmissionDecision {
        self.evaluate_against(node, node.aggregates(), candidate)
    }

    /// Tests whether `candidate` fits on `node` alongside residents whose
    /// aggregates are `residents` — the node's own, or those it would
    /// have without one of them ([`FleetNode::aggregates_without`]). The
    /// one copy of the admission arithmetic; [`Self::evaluate`] calls it.
    #[must_use]
    pub fn evaluate_against(
        &self,
        node: &FleetNode,
        residents: &Aggregates,
        candidate: &TenantSpec,
    ) -> AdmissionDecision {
        let best_case = self.best_case_latency(node, candidate);
        let deadline = candidate.period();
        if best_case > deadline {
            return AdmissionDecision::Reject(RejectReason::LatencyInfeasible {
                best_case,
                deadline,
            });
        }
        let demand = residents.demand + candidate.demand_sm_equivalents();
        let budget = self.budget_against(node, residents, Some(candidate));
        if demand > budget {
            return AdmissionDecision::Reject(RejectReason::OverUtilization { demand, budget });
        }
        AdmissionDecision::Admit { demand, budget }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, NodeSpec};
    use sgprs_gpu_sim::GpuSpec;

    fn node() -> FleetNode {
        FleetNode::new(NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti()))
    }

    fn resnet_tenant(i: usize) -> TenantSpec {
        TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0)
    }

    #[test]
    fn empty_node_admits_a_tenant() {
        let ctl = AdmissionController::default();
        let d = ctl.evaluate(&node(), &resnet_tenant(0));
        assert!(d.is_admit(), "{d:?}");
        assert!(d.headroom() > 0.0);
    }

    /// The acceptance-criterion proof: a task set whose fluid demand
    /// exceeds the utilisation bound is rejected, exactly at the
    /// crossover predicted by the bound.
    #[test]
    fn rejects_task_sets_exceeding_the_utilization_bound() {
        let ctl = AdmissionController::default();
        let mut n = node();
        let mut admitted = 0usize;
        // Keep offering tenants until the controller says no.
        for i in 0..200 {
            let t = resnet_tenant(i);
            match ctl.evaluate(&n, &t) {
                AdmissionDecision::Admit { demand, budget } => {
                    assert!(demand <= budget, "admitted within budget");
                    n.push_tenant(t);
                    admitted += 1;
                }
                AdmissionDecision::Reject(RejectReason::OverUtilization { demand, budget }) => {
                    assert!(demand > budget, "rejected because over budget");
                    // The crossover must match the closed-form bound.
                    let per_tenant = resnet_tenant(0).demand_sm_equivalents();
                    let expected = (budget / per_tenant).floor() as usize;
                    assert_eq!(admitted, expected, "pivot at the fluid bound");
                    return;
                }
                AdmissionDecision::Reject(r) => panic!("unexpected rejection {r:?}"),
            }
        }
        panic!("the controller admitted 200 ResNet18@30fps tenants on one GPU");
    }

    #[test]
    fn admitted_count_tracks_the_paper_pivot_ballpark() {
        // Scenario-2 measured pivot is ~24 tasks; the bound at 0.9 must
        // land in the same region, not at 5 and not at 100.
        let ctl = AdmissionController::default();
        let mut n = node();
        while ctl
            .evaluate(&n, &resnet_tenant(n.tenants().len()))
            .is_admit()
        {
            let i = n.tenants().len();
            n.push_tenant(resnet_tenant(i));
        }
        assert!(
            (15..=30).contains(&n.tenants().len()),
            "admitted {} tenants",
            n.tenants().len()
        );
    }

    #[test]
    fn smaller_devices_admit_fewer_tenants() {
        let ctl = AdmissionController::default();
        let count_for = |sms: u32| {
            let mut n = FleetNode::new(NodeSpec::sgprs("g", GpuSpec::synthetic(sms)));
            while ctl
                .evaluate(&n, &resnet_tenant(n.tenants().len()))
                .is_admit()
            {
                let i = n.tenants().len();
                n.push_tenant(resnet_tenant(i));
            }
            n.tenants().len()
        };
        assert!(count_for(23) < count_for(68));
    }

    #[test]
    fn latency_infeasible_tenants_are_rejected_outright() {
        // VGG-16 at 30 fps cannot finish one inference inside 33 ms even
        // on the full device — utilisation looks fine, latency does not.
        let ctl = AdmissionController::default();
        let hopeless = TenantSpec::new("vgg-fast", ModelKind::Vgg16, 30.0);
        let d = ctl.evaluate(&node(), &hopeless);
        assert!(
            matches!(
                d,
                AdmissionDecision::Reject(RejectReason::LatencyInfeasible { .. })
            ),
            "{d:?}"
        );
        // The same model at a relaxed rate is admissible.
        let relaxed = TenantSpec::new("vgg-slow", ModelKind::Vgg16, 15.0);
        assert!(ctl.evaluate(&node(), &relaxed).is_admit());
    }

    #[test]
    fn heterogeneous_nodes_disagree_on_latency_feasibility() {
        // ResNet-34 at 60 fps fits a big device but not a tiny one.
        let ctl = AdmissionController::default();
        let tenant = TenantSpec::new("r34", ModelKind::ResNet34, 60.0);
        let big = FleetNode::new(NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()));
        let tiny = FleetNode::new(NodeSpec::sgprs("tiny", GpuSpec::synthetic(12)));
        assert!(ctl.evaluate(&big, &tenant).is_admit());
        assert!(
            matches!(
                ctl.evaluate(&tiny, &tenant),
                AdmissionDecision::Reject(RejectReason::LatencyInfeasible { .. })
            ),
            "a 12-SM device cannot make 16.7 ms deadlines for resnet34"
        );
    }
}
