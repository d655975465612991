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
//!    mix, with [`CONCURRENCY`] stages resident per context.
//!
//! Both gates' node-side inputs depend only on the candidate's model:
//! its best-case compute latency at the node's largest context, and the
//! capacity of "residents + one tenant of that model". The node keeps
//! both in per-model tables ([`FleetNode::best_case_latency`],
//! [`FleetNode::capacity_with`]), so a probe against a node's own
//! residents is a few comparisons; its budget with no candidate reads
//! the node's cached [`FleetNode::capacity`].

use crate::{Aggregates, FleetNode, ModelKind, TenantSpec};
use serde::{Deserialize, Serialize};
use sgprs_gpu_sim::SpeedupModel;
use sgprs_rt::SimDuration;

/// Stages assumed resident per context when sampling an SGPRS node's
/// capacity: the paper's stream layout sustains 3–4, and 4.0 matches
/// `sgprs_core::analysis`'s calibration.
pub(crate) const CONCURRENCY: f64 = 4.0;

/// Knobs of the admission controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Fraction of the fluid capacity tenants may occupy (< 1 keeps
    /// headroom for jitter and stage imbalance).
    pub utilization_bound: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            utilization_bound: 0.9,
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

    /// The admissible demand budget of `node` for its current mix plus
    /// `candidate`, in SM-equivalents.
    #[must_use]
    pub fn budget(&self, node: &FleetNode, candidate: Option<&TenantSpec>) -> f64 {
        let capacity = match candidate {
            Some(c) => node.capacity_with(c.model),
            None => node.capacity(),
        };
        self.cfg.utilization_bound * capacity
    }

    /// [`FleetNode::best_case_latency`] evaluated at an explicit context size
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
    ) -> SimDuration {
        with_launches(
            best_case_compute(context_sms, candidate.model),
            launch_overhead_ns,
            candidate.stages,
        )
    }

    /// Tests whether `candidate` fits on `node` alongside its resident
    /// tenants, reading the node's per-model tables.
    #[must_use]
    pub fn evaluate(&self, node: &FleetNode, candidate: &TenantSpec) -> AdmissionDecision {
        self.decide(node, node.total_demand(), candidate, || {
            node.capacity_with(candidate.model)
        })
    }

    /// Tests whether `candidate` fits on `node` alongside residents whose
    /// aggregates are `residents` — those it would have without one of
    /// them ([`FleetNode::aggregates_without`]). The capacity is sampled
    /// afresh at that mix; the comparison is [`Self::evaluate`]'s.
    #[must_use]
    pub fn evaluate_against(
        &self,
        node: &FleetNode,
        residents: &Aggregates,
        candidate: &TenantSpec,
    ) -> AdmissionDecision {
        self.decide(node, residents.demand, candidate, || {
            node.capacity_of(&residents.mix_with(Some(candidate.model)))
        })
    }

    /// The one copy of the admission comparison: the latency gate, then
    /// `residents_demand + fps·T₁ ≤ bound × capacity`. `capacity` is the
    /// node's capacity at the residents' mix plus the candidate, asked
    /// only once the latency gate passes.
    fn decide(
        &self,
        node: &FleetNode,
        residents_demand: f64,
        candidate: &TenantSpec,
        capacity: impl FnOnce() -> f64,
    ) -> AdmissionDecision {
        let best_case = node.best_case_latency(candidate.model, candidate.stages);
        let deadline = candidate.period();
        if best_case > deadline {
            return AdmissionDecision::Reject(RejectReason::LatencyInfeasible {
                best_case,
                deadline,
            });
        }
        let demand = residents_demand + candidate.demand_sm_equivalents();
        let budget = self.cfg.utilization_bound * capacity();
        if demand > budget {
            return AdmissionDecision::Reject(RejectReason::OverUtilization { demand, budget });
        }
        AdmissionDecision::Admit { demand, budget }
    }
}

/// One inference of `model` computed on a `context_sms`-SM context, with
/// no launch overhead: the load-independent part of every best-case
/// latency bound.
pub(crate) fn best_case_compute(context_sms: u32, model: ModelKind) -> SimDuration {
    let compute_ns = model
        .work_profile()
        .duration_ns_at(SpeedupModel::rtx_2080_ti(), f64::from(context_sms));
    SimDuration::from_nanos(compute_ns as u64)
}

/// `compute` plus one launch overhead per stage.
pub(crate) fn with_launches(
    compute: SimDuration,
    launch_overhead_ns: u64,
    stages: usize,
) -> SimDuration {
    compute + SimDuration::from_nanos(launch_overhead_ns * stages as u64)
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
