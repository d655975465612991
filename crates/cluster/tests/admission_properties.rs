//! Property-based tests of the admission controller: whatever the fleet
//! shape and offered load, an admitted set stays within the utilisation
//! bound, and rejected tenants get in once departures free capacity.

use proptest::prelude::*;
use sgprs_cluster::{
    AdmissionController, FleetNode, ModelKind, NodeSpec, PlacementPolicy, Placer, TenantSpec,
};
use sgprs_gpu_sim::GpuSpec;

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
                nodes[idx].tenants.push(tenant);
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
            node.tenants.push(tenant(i));
            i += 1;
            prop_assert!(i < 10_000, "saturation must be reached");
        }
        let rejected = tenant(i);
        prop_assert!(!ctl.evaluate(&node, &rejected).is_admit());
        // Departures free capacity one by one; eventually the rejected
        // tenant fits again (it is identical to the ones leaving).
        let mut readmitted = false;
        while !node.tenants.is_empty() {
            node.tenants.pop();
            if ctl.evaluate(&node, &rejected).is_admit() {
                readmitted = true;
                break;
            }
        }
        prop_assert!(readmitted, "an emptied node must re-admit");
        // And exactly one departure suffices for identical tenants.
        prop_assert_eq!(node.tenants.len() + 1, i, "one slot was enough");
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
        small.tenants.push(tenant.clone());
        large.tenants.push(tenant);
        prop_assert!(ctl.budget(&large, None) >= ctl.budget(&small, None) - 1e-9);
    }
}
