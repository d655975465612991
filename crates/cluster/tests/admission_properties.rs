//! Property-based tests of the admission controller: whatever the fleet
//! shape and offered load, an admitted set stays within the utilisation
//! bound, and rejected tenants get in once departures free capacity. The
//! node-owned aggregates every admission probe reads match a from-scratch
//! fold after any sequence of resident-list edits, and judging a tenant
//! against the aggregates without one resident is bit-identical to
//! judging it after removing that resident.

use proptest::prelude::*;
use sgprs_cluster::{
    AdmissionController, AdmissionDecision, FleetNode, ModelKind, NodeSpec, PlacementPolicy,
    Placer, RejectReason, TenantSpec,
};
use sgprs_gpu_sim::{GpuSpec, WorkProfile};

/// A decision with every float as its bits, so equality is bit
/// equality.
fn decision_bits(d: &AdmissionDecision) -> (u8, u64, u64) {
    match d {
        AdmissionDecision::Admit { demand, budget } => (0, demand.to_bits(), budget.to_bits()),
        AdmissionDecision::Reject(RejectReason::OverUtilization { demand, budget }) => {
            (1, demand.to_bits(), budget.to_bits())
        }
        AdmissionDecision::Reject(RejectReason::LatencyInfeasible {
            best_case,
            deadline,
        }) => (2, best_case.as_nanos(), deadline.as_nanos()),
    }
}

fn model_of(tag: u8) -> ModelKind {
    match tag % 5 {
        0 => ModelKind::ResNet18,
        1 => ModelKind::ResNet34,
        2 => ModelKind::Vgg16,
        3 => ModelKind::AlexNet,
        _ => ModelKind::MobileNet,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Safety: after any sequence of admissions, every node's resident
    /// demand is within its admission budget.
    #[test]
    fn admitted_sets_always_satisfy_the_utilization_bound(
        offers in prop::collection::vec((0u8..5, 5.0f64..60.0), 1..40),
        sms in prop::collection::vec(16u32..69, 1..5),
        policy_tag in 0u8..3,
    ) {
        let policy = match policy_tag {
            0 => PlacementPolicy::RoundRobin,
            1 => PlacementPolicy::LeastUtilization,
            _ => PlacementPolicy::BestFit,
        };
        let mut nodes: Vec<FleetNode> = sms
            .iter()
            .enumerate()
            .map(|(i, &sm)| FleetNode::new(NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::synthetic(sm))))
            .collect();
        let ctl = AdmissionController::default();
        let mut placer = Placer::new(policy);
        for (i, &(tag, fps)) in offers.iter().enumerate() {
            let tenant = TenantSpec::new(format!("t-{i}"), model_of(tag), fps);
            if let Some(idx) = placer.place(&nodes, &tenant, &ctl) {
                nodes[idx].push_tenant(tenant);
            }
        }
        for node in &nodes {
            let budget = ctl.budget(node, None);
            prop_assert!(
                node.total_demand() <= budget + 1e-9,
                "node {} demand {} exceeds budget {}",
                node.spec.name,
                node.total_demand(),
                budget
            );
        }
    }

    /// Liveness: a tenant rejected at saturation is admitted again after
    /// enough departures free capacity.
    #[test]
    fn rejected_tenants_are_admitted_after_departures(
        sm in 23u32..69,
        fps in 10.0f64..40.0,
        tag in 0u8..5,
    ) {
        let ctl = AdmissionController::default();
        let mut node = FleetNode::new(NodeSpec::sgprs("gpu", GpuSpec::synthetic(sm)));
        // Fill the node with copies of the tenant until it rejects.
        let tenant = |i: usize| TenantSpec::new(format!("t-{i}"), model_of(tag), fps);
        // Latency-infeasible combinations (heavy model, fast rate, small
        // device) are rejected outright and never admitted; the
        // readmission property only concerns the utilisation bound.
        prop_assume!(ctl.evaluate(&node, &tenant(0)).is_admit());
        let mut i = 0;
        while ctl.evaluate(&node, &tenant(i)).is_admit() {
            node.push_tenant(tenant(i));
            i += 1;
            prop_assert!(i < 10_000, "saturation must be reached");
        }
        let rejected = tenant(i);
        prop_assert!(!ctl.evaluate(&node, &rejected).is_admit());
        // Departures free capacity one by one; eventually the rejected
        // tenant fits again (it is identical to the ones leaving).
        let mut readmitted = false;
        while !node.tenants().is_empty() {
            node.remove_tenant(node.tenants().len() - 1);
            if ctl.evaluate(&node, &rejected).is_admit() {
                readmitted = true;
                break;
            }
        }
        prop_assert!(readmitted, "an emptied node must re-admit");
        // And exactly one departure suffices for identical tenants.
        prop_assert_eq!(node.tenants().len() + 1, i, "one slot was enough");
    }

    /// The budget is monotone in device size: a strictly bigger GPU never
    /// offers less admissible demand for the same mix.
    #[test]
    fn budget_is_monotone_in_device_size(
        small_sm in 16u32..40,
        extra in 1u32..29,
        tag in 0u8..5,
        fps in 5.0f64..60.0,
    ) {
        let ctl = AdmissionController::default();
        let tenant = TenantSpec::new("t", model_of(tag), fps);
        let mut small = FleetNode::new(NodeSpec::sgprs("s", GpuSpec::synthetic(small_sm)));
        let mut large = FleetNode::new(NodeSpec::sgprs("l", GpuSpec::synthetic(small_sm + extra)));
        small.push_tenant(tenant.clone());
        large.push_tenant(tenant);
        prop_assert!(ctl.budget(&large, None) >= ctl.budget(&small, None) - 1e-9);
    }

    /// The cached demand and work mix equal a from-scratch fold over the
    /// residents in slot order, bit for bit, after every push, remove
    /// and replace; every edit moves the version forward.
    #[test]
    fn node_aggregates_match_a_from_scratch_fold(
        edits in prop::collection::vec((0u8..3, 0usize..64, (0u8..5, 5.0f64..60.0)), 1..48),
        candidate_tag in 0u8..5,
        candidate_fps in 5.0f64..60.0,
    ) {
        let mut node = FleetNode::new(NodeSpec::sgprs("gpu", GpuSpec::rtx_2080_ti()));
        let candidate = TenantSpec::new("candidate", model_of(candidate_tag), candidate_fps);
        let mut version = node.version();
        for (i, &(kind, seed, (tag, fps))) in edits.iter().enumerate() {
            let tenant = TenantSpec::new(format!("t-{i}"), model_of(tag), fps);
            let len = node.tenants().len();
            match kind {
                1 if len > 0 => {
                    node.remove_tenant(seed % len);
                }
                2 if len > 0 => {
                    node.replace_tenant(seed % len, tenant);
                }
                _ => node.push_tenant(tenant),
            }
            prop_assert!(node.version() > version, "edit {} kept the version", i);
            version = node.version();

            let demand: f64 = node
                .tenants()
                .iter()
                .map(TenantSpec::demand_sm_equivalents)
                .sum();
            prop_assert_eq!(node.total_demand().to_bits(), demand.to_bits());
            let mut mix = WorkProfile::new();
            for t in node.tenants().iter().chain(Some(&candidate)) {
                mix.merge(t.model.work_profile());
            }
            let cached = node.mixed_profile(Some(&candidate));
            prop_assert_eq!(cached.segments().len(), mix.segments().len());
            for (got, want) in cached.segments().iter().zip(mix.segments()) {
                prop_assert_eq!(got.op, want.op);
                prop_assert_eq!(got.single_sm_ns.to_bits(), want.single_sm_ns.to_bits());
            }
        }
    }

    /// Evaluating against [`FleetNode::aggregates_without`] gives the
    /// bit-identical decision to evaluating after
    /// [`FleetNode::remove_tenant`] at the same slot — the upgrade pass's
    /// exactness argument — and leaves the node untouched.
    #[test]
    fn evaluating_without_a_resident_matches_removing_it(
        residents in prop::collection::vec((0u8..5, 5.0f64..60.0), 1..24),
        slot_seed in 0usize..64,
        sms in 12u32..69,
        candidate_tag in 0u8..5,
        candidate_fps in 5.0f64..60.0,
    ) {
        let ctl = AdmissionController::default();
        let mut node = FleetNode::new(NodeSpec::sgprs("gpu", GpuSpec::synthetic(sms)));
        for (i, &(tag, fps)) in residents.iter().enumerate() {
            node.push_tenant(TenantSpec::new(format!("t-{i}"), model_of(tag), fps));
        }
        let slot = slot_seed % residents.len();
        let candidate = TenantSpec::new("candidate", model_of(candidate_tag), candidate_fps);
        let version = node.version();
        let others = node.aggregates_without(slot);
        let judged = ctl.evaluate_against(&node, &others, &candidate);
        prop_assert_eq!(node.version(), version, "the node was not touched");
        let mut removed = node.clone();
        removed.remove_tenant(slot);
        prop_assert_eq!(decision_bits(&judged), decision_bits(&ctl.evaluate(&removed, &candidate)));
        prop_assert_eq!(others.demand.to_bits(), removed.total_demand().to_bits());
    }
}
