//! Property-based fleet invariants: the sharded dispatch plan (ordered
//! scan *and* power-of-two-choices) and the flat placement scan must
//! agree on feasibility over random fleets and tenants, planned nodes
//! must always pass admission, queue policies must keep their ordering
//! guarantees, and — since every decision now routes through the shared
//! `cluster::policy` kernel — the epoch and event engines must make
//! identical admission/placement decisions at matching decision
//! instants for any trace.
//!
//! Case counts are deliberately small (each case builds a fleet and runs
//! admission maths); CI pins `PROPTEST_CASES` for reproducibility.

use proptest::prelude::*;
use sgprs_suite::cluster::{
    ChurnEvent, ChurnTrace, DispatchOutcome, Fleet, FleetConfig, ModelKind, NodeSpec,
    PlacementPolicy, Placer, QueuePolicy, TenantSpec,
};
use sgprs_suite::gpu_sim::GpuSpec;
use sgprs_suite::rt::{SimDuration, SimTime};

const SM_SIZES: [u32; 5] = [12, 23, 34, 46, 68];
const FPS_STEPS: [f64; 4] = [15.0, 24.0, 30.0, 60.0];

fn node(i: usize, size_idx: usize) -> NodeSpec {
    let sm = SM_SIZES[size_idx % SM_SIZES.len()];
    let gpu = if sm == 68 {
        GpuSpec::rtx_2080_ti()
    } else {
        GpuSpec::synthetic(sm)
    };
    NodeSpec::sgprs(format!("gpu{i}-{sm}sm"), gpu)
}

fn tenant(i: usize, model_idx: usize, fps_idx: usize) -> TenantSpec {
    TenantSpec::new(
        format!("t-{i}"),
        ModelKind::ALL[model_idx % ModelKind::ALL.len()],
        FPS_STEPS[fps_idx % FPS_STEPS.len()],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any tenant the flat O(nodes) scan can place on the current fleet
    /// state, the sharded router (including its stale-summary fallback)
    /// also places — and vice versa: routing through shard summaries
    /// never invents or destroys feasibility, it only narrows where the
    /// placement policy looks first.
    #[test]
    fn sharded_plan_and_flat_scan_agree_on_feasibility(
        size_idxs in prop::collection::vec(0usize..5, 1..10),
        shard_size in 1usize..5,
        preload in 0usize..48,
        probes in prop::collection::vec((0usize..5, 0usize..4), 1..6),
    ) {
        let nodes: Vec<NodeSpec> = size_idxs
            .iter()
            .enumerate()
            .map(|(i, &s)| node(i, s))
            .collect();
        let mut fleet = Fleet::new(FleetConfig::new(nodes).with_sharding(shard_size));
        // Load the fleet into an arbitrary mid-life state (queued and
        // infeasible outcomes are fine — they leave residents behind).
        for i in 0..preload {
            let _ = fleet.dispatch(tenant(i, i, i / 2));
        }
        for (k, &(model_idx, fps_idx)) in probes.iter().enumerate() {
            let probe = TenantSpec::new(
                format!("probe-{k}"),
                ModelKind::ALL[model_idx],
                FPS_STEPS[fps_idx],
            );
            let flat_choice =
                Placer::new(PlacementPolicy::LeastUtilization)
                    .place(fleet.nodes(), &probe, fleet.admission());
            let sharded_choice = fleet.plan(&probe);
            prop_assert_eq!(
                flat_choice.is_some(),
                sharded_choice.is_some(),
                "flat {:?} vs sharded {:?} for {:?}",
                flat_choice,
                sharded_choice,
                &probe
            );
            // A planned node always passes real admission.
            if let Some(idx) = sharded_choice {
                prop_assert!(
                    fleet.admission().evaluate(&fleet.nodes()[idx], &probe).is_admit(),
                    "planned node {} rejects {:?}",
                    idx,
                    &probe
                );
            }
        }
    }

    /// Power-of-two-choices routing agrees with the flat scan on
    /// feasibility for any fleet state: probing two shards (plus the
    /// exhaustive fallback sweep when both refuse) narrows where the
    /// placement policy looks, never whether a feasible node is found —
    /// and a planned node always passes real admission.
    #[test]
    fn p2c_plan_and_flat_scan_agree_on_feasibility(
        size_idxs in prop::collection::vec(0usize..5, 1..10),
        shard_size in 1usize..5,
        preload in 0usize..48,
        probes in prop::collection::vec((0usize..5, 0usize..4), 1..6),
    ) {
        let nodes: Vec<NodeSpec> = size_idxs
            .iter()
            .enumerate()
            .map(|(i, &s)| node(i, s))
            .collect();
        let mut fleet = Fleet::new(FleetConfig::new(nodes).with_p2c_sharding(shard_size));
        for i in 0..preload {
            let _ = fleet.dispatch(tenant(i, i, i / 2));
        }
        for (k, &(model_idx, fps_idx)) in probes.iter().enumerate() {
            let probe = TenantSpec::new(
                format!("probe-{k}"),
                ModelKind::ALL[model_idx],
                FPS_STEPS[fps_idx],
            );
            let flat_choice =
                Placer::new(PlacementPolicy::LeastUtilization)
                    .place(fleet.nodes(), &probe, fleet.admission());
            let p2c_choice = fleet.plan(&probe);
            prop_assert_eq!(
                flat_choice.is_some(),
                p2c_choice.is_some(),
                "flat {:?} vs p2c {:?} for {:?}",
                flat_choice,
                p2c_choice,
                &probe
            );
            if let Some(idx) = p2c_choice {
                prop_assert!(
                    fleet.admission().evaluate(&fleet.nodes()[idx], &probe).is_admit(),
                    "planned node {} rejects {:?}",
                    idx,
                    &probe
                );
            }
        }
    }

    /// Both execution engines make identical kernel decisions at
    /// matching decision instants: over an arbitrary arrivals-at-zero
    /// trace (no departures, so both engines face the same fleet state
    /// at every dispatch), the epoch run and the event run must admit,
    /// defer, degrade, and place *identically* — same per-node resident
    /// (name, fps) lists, same queue, same dispatch counters — under
    /// any routing (flat, shard-scan, p2c) and with or without the
    /// re-pricing ladder. This is the pin that the engines consume the
    /// shared `cluster::policy` kernel and cannot silently fork.
    #[test]
    fn epoch_and_event_engines_make_identical_kernel_decisions(
        size_idxs in prop::collection::vec(0usize..5, 1..6),
        dispatch in 0usize..4,
        repricing in any::<bool>(),
        arrivals in prop::collection::vec((0usize..5, 0usize..4), 1..24),
    ) {
        let nodes: Vec<NodeSpec> = size_idxs
            .iter()
            .enumerate()
            .map(|(i, &s)| node(i, s))
            .collect();
        let cfg = || {
            let mut c = FleetConfig::new(nodes.clone());
            c = match dispatch {
                0 => c,
                1 => c.with_sharding(2),
                2 => c.with_p2c_sharding(2),
                _ => c.with_sharding(3),
            };
            if repricing {
                c = c.with_repricing();
            }
            c
        };
        let trace = || {
            let mut t = ChurnTrace::new();
            for (i, &(model_idx, fps_idx)) in arrivals.iter().enumerate() {
                let spec = tenant(i, model_idx, fps_idx)
                    .with_fps_ladder([12.0, 6.0, 3.0]);
                t.push(SimTime::ZERO, ChurnEvent::Arrival(spec));
            }
            t
        };
        // A short horizon keeps the scheduler simulation cheap; the
        // decisions under test all happen at t = 0.
        let horizon = SimDuration::from_millis(200);
        let mut epoch = Fleet::new(cfg());
        let epoch_m = epoch.run(trace(), horizon);
        let mut event = Fleet::new(cfg());
        let event_m = event.run_events(trace(), horizon);
        prop_assert_eq!(epoch_m.admitted, event_m.admitted, "admitted");
        prop_assert_eq!(epoch_m.deferred, event_m.deferred, "deferred");
        prop_assert_eq!(epoch_m.infeasible, event_m.infeasible, "infeasible");
        prop_assert_eq!(epoch_m.duplicates, event_m.duplicates, "duplicates");
        prop_assert_eq!(epoch_m.degraded, event_m.degraded, "degraded");
        let residents = |f: &Fleet| -> Vec<Vec<(String, u64)>> {
            f.nodes()
                .iter()
                .map(|n| {
                    n.tenants()
                        .iter()
                        .map(|t| (t.name.clone(), t.fps.to_bits()))
                        .collect()
                })
                .collect()
        };
        prop_assert_eq!(
            residents(&epoch),
            residents(&event),
            "identical placement decisions node by node"
        );
        prop_assert_eq!(
            epoch.queued_names(),
            event.queued_names(),
            "identical queue contents and order"
        );
        prop_assert_eq!(
            epoch.degraded_residents(),
            event.degraded_residents(),
            "identical re-pricing state"
        );
    }

    /// The wait queue's drain order honours its policy for any arrival
    /// pattern: FIFO keeps arrival order; earliest-deadline sorts by the
    /// absolute queue deadline (enqueue + `max_wait`), puts tenants
    /// without one last, and keeps arrival order on ties; nothing is
    /// lost or duplicated.
    #[test]
    fn queue_policies_keep_their_ordering_guarantees(
        // Whole-second patience per tenant; 0 means no deadline. The
        // narrow range makes equal deadlines common.
        waits in prop::collection::vec(0u64..5, 1..12),
    ) {
        // One tiny saturated node: everything after saturation queues.
        let saturate = |policy: QueuePolicy| {
            let cfg = FleetConfig::new(vec![NodeSpec::sgprs(
                "small",
                GpuSpec::synthetic(12),
            )])
            .with_queue_policy(policy);
            let mut fleet = Fleet::new(cfg);
            let mut i = 0;
            while matches!(
                fleet.dispatch(
                    TenantSpec::new(format!("filler-{i}"), ModelKind::MobileNet, 30.0)
                ),
                DispatchOutcome::Placed(_)
            ) {
                i += 1;
            }
            // The saturating filler itself queued; drop it for a clean slate.
            fleet.remove(&format!("filler-{i}"));
            fleet
        };
        let max_wait = |w: u64| (w > 0).then(|| SimDuration::from_secs(w));
        let mut fifo = saturate(QueuePolicy::Fifo);
        let mut edf = saturate(QueuePolicy::EarliestDeadline);
        for (i, &w) in waits.iter().enumerate() {
            let mut t = TenantSpec::new(format!("w{i}"), ModelKind::MobileNet, 30.0);
            t.max_wait = max_wait(w);
            prop_assert_eq!(fifo.dispatch(t.clone()), DispatchOutcome::Queued);
            prop_assert_eq!(edf.dispatch(t), DispatchOutcome::Queued);
        }
        let arrival_order: Vec<String> =
            (0..waits.len()).map(|i| format!("w{i}")).collect();
        prop_assert_eq!(fifo.queued_names(), arrival_order.clone());
        let edf_names = edf.queued_names();
        prop_assert_eq!(edf_names.len(), waits.len(), "nothing lost");
        // Every tenant queued before any run, i.e. at instant zero, so
        // its absolute queue deadline is its `max_wait`; `None` sorts
        // after every deadline.
        let index_of = |name: &str| name[1..].parse::<usize>().expect("wN name");
        let deadline_of = |name: &str| max_wait(waits[index_of(name)]).unwrap_or(SimDuration::MAX);
        for pair in edf_names.windows(2) {
            let (a, b) = (deadline_of(&pair[0]), deadline_of(&pair[1]));
            prop_assert!(a <= b, "ascending deadlines, deadline-less last: {:?}", edf_names);
            if a == b {
                prop_assert!(
                    index_of(&pair[0]) < index_of(&pair[1]),
                    "arrival order on ties: {:?}",
                    edf_names
                );
            }
        }
    }

    /// Re-pricing never breaks the admission bound: after any dispatch
    /// sequence with ladders armed, every node's resident demand stays
    /// within its admission budget.
    #[test]
    fn repricing_respects_the_admission_budget(
        size_idxs in prop::collection::vec(0usize..5, 1..6),
        n_tenants in 1usize..40,
        fps_idx in 0usize..4,
    ) {
        let nodes: Vec<NodeSpec> = size_idxs
            .iter()
            .enumerate()
            .map(|(i, &s)| node(i, s))
            .collect();
        let mut fleet = Fleet::new(FleetConfig::new(nodes).with_repricing());
        for i in 0..n_tenants {
            let t = tenant(i, i, fps_idx).with_fps_ladder([12.0, 6.0, 3.0]);
            let _ = fleet.dispatch(t);
        }
        for node in fleet.nodes() {
            let budget = fleet.admission().budget(node, None);
            prop_assert!(
                node.total_demand() <= budget + 1e-9,
                "{}: demand {:.2} exceeds budget {:.2}",
                &node.spec.name,
                node.total_demand(),
                budget
            );
        }
    }
}
