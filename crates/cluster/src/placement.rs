//! Placement policies: choosing which node a tenant lands on.
//!
//! Every policy consults the same [`AdmissionController`]; they differ
//! only in which *admissible* node they prefer. The policies are the
//! classic trio:
//!
//! * [`PlacementPolicy::RoundRobin`] — rotate through nodes; cheapest
//!   decision, blind to load.
//! * [`PlacementPolicy::LeastUtilization`] — pick the admissible node
//!   with the lowest demand/budget ratio (spreads load; best tail
//!   latencies under skew).
//! * [`PlacementPolicy::BestFit`] — pick the admissible node with the
//!   *least* remaining headroom by SM demand (packs nodes tightly,
//!   keeping whole nodes free for heavy tenants).

use crate::{AdmissionController, AdmissionDecision, FleetNode, TenantSpec};
use serde::{Deserialize, Serialize};

/// The placement policy a fleet dispatches with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Rotate through nodes in order, taking the first that admits.
    RoundRobin,
    /// Prefer the node with the lowest utilisation ratio.
    LeastUtilization,
    /// Prefer the admissible node with the smallest remaining headroom.
    BestFit,
}

impl core::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlacementPolicy::RoundRobin => f.write_str("round-robin"),
            PlacementPolicy::LeastUtilization => f.write_str("least-utilization"),
            PlacementPolicy::BestFit => f.write_str("best-fit"),
        }
    }
}

/// Stateful placer: the policy plus its round-robin cursor.
#[derive(Debug, Clone)]
pub struct Placer {
    policy: PlacementPolicy,
    cursor: usize,
}

impl Placer {
    /// A placer for the given policy.
    #[must_use]
    pub fn new(policy: PlacementPolicy) -> Self {
        Placer { policy, cursor: 0 }
    }

    /// The policy in use.
    #[must_use]
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Chooses a node for `tenant`, or `None` when no node admits it.
    /// Does not mutate the nodes; the caller commits the placement.
    #[must_use]
    pub fn place(
        &mut self,
        nodes: &[FleetNode],
        tenant: &TenantSpec,
        admission: &AdmissionController,
    ) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        match self.policy {
            PlacementPolicy::RoundRobin => {
                for offset in 0..nodes.len() {
                    let idx = (self.cursor + offset) % nodes.len();
                    if admission.evaluate(&nodes[idx], tenant).is_admit() {
                        self.cursor = (idx + 1) % nodes.len();
                        return Some(idx);
                    }
                }
                None
            }
            PlacementPolicy::LeastUtilization => {
                self.pick_by(nodes, tenant, admission, |node, d| {
                    // Lowest demand/budget ratio wins.
                    match d {
                        AdmissionDecision::Admit { demand, budget } if *budget > 0.0 => {
                            Some(demand / budget)
                        }
                        _ => None,
                    }
                    .map(|score| (score, node.tenants.len()))
                })
            }
            PlacementPolicy::BestFit => self.pick_by(nodes, tenant, admission, |node, d| {
                // Smallest headroom that still fits wins.
                d.is_admit().then(|| (d.headroom(), node.tenants.len()))
            }),
        }
    }

    fn pick_by<F>(
        &mut self,
        nodes: &[FleetNode],
        tenant: &TenantSpec,
        admission: &AdmissionController,
        score: F,
    ) -> Option<usize>
    where
        F: Fn(&FleetNode, &AdmissionDecision) -> Option<(f64, usize)>,
    {
        let mut best: Option<(usize, (f64, usize))> = None;
        for (idx, node) in nodes.iter().enumerate() {
            let decision = admission.evaluate(node, tenant);
            if !decision.is_admit() {
                continue;
            }
            if let Some(s) = score(node, &decision) {
                let better = match &best {
                    None => true,
                    Some((_, cur)) => s.0 < cur.0 || (s.0 == cur.0 && s.1 < cur.1),
                };
                if better {
                    best = Some((idx, s));
                }
            }
        }
        best.map(|(idx, _)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, NodeSpec};
    use sgprs_gpu_sim::GpuSpec;

    fn fleet(sms: &[u32]) -> Vec<FleetNode> {
        sms.iter()
            .enumerate()
            .map(|(i, &sm)| {
                FleetNode::new(NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::synthetic(sm)))
            })
            .collect()
    }

    fn tenant(i: usize) -> TenantSpec {
        TenantSpec::new(format!("t-{i}"), ModelKind::ResNet18, 30.0)
    }

    #[test]
    fn round_robin_rotates_over_admissible_nodes() {
        let mut nodes = fleet(&[68, 68, 68]);
        let ctl = AdmissionController::default();
        let mut placer = Placer::new(PlacementPolicy::RoundRobin);
        let mut seen = Vec::new();
        for i in 0..6 {
            let t = tenant(i);
            let idx = placer.place(&nodes, &t, &ctl).expect("capacity available");
            nodes[idx].tenants.push(t);
            seen.push(idx);
        }
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_utilization_prefers_the_empty_node() {
        let mut nodes = fleet(&[68, 68]);
        let ctl = AdmissionController::default();
        let mut placer = Placer::new(PlacementPolicy::LeastUtilization);
        for i in 0..4 {
            let t = tenant(i);
            let idx = placer.place(&nodes, &t, &ctl).expect("capacity");
            nodes[idx].tenants.push(t);
        }
        assert_eq!(nodes[0].tenants.len(), 2);
        assert_eq!(nodes[1].tenants.len(), 2, "load spread evenly");
    }

    #[test]
    fn best_fit_packs_the_smaller_device_first() {
        let nodes = fleet(&[68, 23]);
        let ctl = AdmissionController::default();
        let mut placer = Placer::new(PlacementPolicy::BestFit);
        let idx = placer.place(&nodes, &tenant(0), &ctl).expect("capacity");
        assert_eq!(idx, 1, "tightest admissible node wins");
    }

    #[test]
    fn full_fleet_places_nothing() {
        let ctl = AdmissionController::default();
        let mut nodes = fleet(&[23]);
        // Saturate the single small node.
        while ctl
            .evaluate(&nodes[0], &tenant(nodes[0].tenants.len()))
            .is_admit()
        {
            let i = nodes[0].tenants.len();
            nodes[0].tenants.push(tenant(i));
        }
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastUtilization,
            PlacementPolicy::BestFit,
        ] {
            let mut placer = Placer::new(policy);
            assert!(
                placer.place(&nodes, &tenant(99), &ctl).is_none(),
                "{policy}"
            );
        }
    }

    #[test]
    fn empty_node_list_is_handled() {
        let mut placer = Placer::new(PlacementPolicy::RoundRobin);
        let ctl = AdmissionController::default();
        assert!(placer.place(&[], &tenant(0), &ctl).is_none());
    }
}
