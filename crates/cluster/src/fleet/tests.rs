//! Fleet orchestration tests: dispatch outcomes, epoch accounting,
//! determinism across execution strategies, migration, queueing, and
//! re-pricing — the behavioural pins that the policy-kernel refactor
//! must keep bit-identical.

use super::*;
use crate::{ChurnConfig, ChurnTrace, FleetConfig, ModelKind, NodeSpec};
use sgprs_core::SchedulerKind;
use sgprs_gpu_sim::GpuSpec;

fn three_node_fleet() -> FleetConfig {
    FleetConfig::new(vec![
        NodeSpec::sgprs("gpu0", GpuSpec::rtx_2080_ti()),
        NodeSpec::sgprs("gpu1", GpuSpec::rtx_2080_ti()),
        NodeSpec::sgprs("gpu2", GpuSpec::rtx_2080_ti()),
    ])
}

fn tenant(i: usize) -> TenantSpec {
    TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0)
}

#[test]
fn dispatch_places_until_saturation_then_queues() {
    let mut fleet = Fleet::new(three_node_fleet());
    let mut placed = 0;
    let mut queued = 0;
    for i in 0..100 {
        match fleet.dispatch(tenant(i)) {
            DispatchOutcome::Placed(_) => placed += 1,
            DispatchOutcome::Queued => queued += 1,
            other => panic!("resnet18@30fps with a fresh name always dispatches: {other:?}"),
        }
    }
    assert!(placed >= 45, "3 GPUs take ≥ 15 tenants each, got {placed}");
    assert!(queued > 0, "admission control must eventually say no");
    assert_eq!(fleet.queued(), queued);
}

#[test]
fn infeasible_tenants_are_dropped_not_queued() {
    let mut fleet = Fleet::new(three_node_fleet());
    // VGG-16 at 30 fps cannot meet its period on any node: dropping
    // it keeps the wait queue's head from blocking forever.
    let hopeless = TenantSpec::new("vgg", ModelKind::Vgg16, 30.0);
    assert_eq!(fleet.dispatch(hopeless), DispatchOutcome::Infeasible);
    assert_eq!(fleet.queued(), 0);
    // And a run over a trace containing one reports it as such.
    let mut trace = ChurnTrace::new();
    trace.push(
        sgprs_rt::SimTime::ZERO,
        crate::ChurnEvent::Arrival(TenantSpec::new("vgg", ModelKind::Vgg16, 30.0)),
    );
    trace.push(
        sgprs_rt::SimTime::ZERO,
        crate::ChurnEvent::Arrival(tenant(0)),
    );
    let m = fleet.run(trace, SimDuration::from_secs(1));
    assert_eq!(m.infeasible, 1);
    assert_eq!(m.admitted, 1);
    assert_eq!(m.still_queued, 0);
    assert!((m.rejection_rate - 0.5).abs() < 1e-9);
}

#[test]
fn departures_take_effect_at_their_instant() {
    let mut fleet = Fleet::new(three_node_fleet());
    let mut trace = ChurnTrace::new();
    let t = tenant(0);
    let name = t.name.clone();
    trace.push(sgprs_rt::SimTime::ZERO, crate::ChurnEvent::Arrival(t));
    // Departs mid-second-epoch: it serves exactly its 1.5 s stay.
    trace.push(
        sgprs_rt::SimTime::ZERO + SimDuration::from_millis(1_500),
        crate::ChurnEvent::Departure(name),
    );
    let m = fleet.run(trace, SimDuration::from_secs(3));
    assert_eq!(m.departures, 1);
    assert!(fleet.nodes().iter().all(|n| n.tenants().is_empty()));
    // 1.5 s at 30 fps is 45 frames; the period rounds down to
    // 33,333,333 ns, so a 46th release lands just before the departure.
    // None follows it, and every one is served.
    let released: u64 = m.nodes.iter().map(|n| n.released).sum();
    let completed: u64 = m.nodes.iter().map(|n| n.completed).sum();
    assert!((45..=46).contains(&released), "{m:?}");
    assert_eq!(completed, released, "{m:?}");
    assert_eq!(m.truncated_jobs, 0);
}

#[test]
fn epoch_churn_across_boundaries_truncates_nothing() {
    // An overloaded small SGPRS node (migration sheds it at the
    // boundaries), a naive node, and re-priced churn whose stays
    // straddle the one-second boundaries: jobs are in flight at every
    // boundary, at every departure and at every re-price.
    let cfg = FleetConfig::new(vec![
        NodeSpec::sgprs("small", GpuSpec::synthetic(16)),
        NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
        NodeSpec::sgprs("naive", GpuSpec::synthetic(34)).with_scheduler(SchedulerKind::Naive),
    ])
    .with_placement(crate::PlacementPolicy::RoundRobin)
    .with_migration(0.05)
    .with_repricing();
    let mut fleet = Fleet::new(cfg);
    for i in 0..6 {
        fleet.seed_resident(0, tenant(100 + i));
    }
    let churn = ChurnConfig {
        mean_interarrival: SimDuration::from_millis(30),
        min_lifetime: SimDuration::from_millis(300),
        max_lifetime: SimDuration::from_millis(1_700),
        fps_ladder: vec![20.0, 10.0],
        ..ChurnConfig::default()
    };
    let horizon = SimDuration::from_secs(4);
    let m = fleet.run(ChurnTrace::generate(&churn, horizon, 5), horizon);
    assert!(
        m.departures > 10 && m.migrations > 0 && m.degraded > 0,
        "{m:?}"
    );
    // `Fleet::run` itself asserts, node by node, that every released
    // frame was completed or skipped once the horizon drained.
    assert_eq!(m.truncated_jobs, 0, "{m:?}");
    assert!(m.nodes.iter().all(|n| n.released > 0), "{m:?}");

    // A re-price mid-run: a tenant admitted degraded is upgraded at the
    // 2 s boundary, after two fillers left at 1.3 s.
    let cfg =
        FleetConfig::new(vec![NodeSpec::sgprs("gpu", GpuSpec::rtx_2080_ti())]).with_repricing();
    let mut fleet = Fleet::new(cfg);
    let mut fillers = Vec::new();
    for i in 0.. {
        let t = tenant(i);
        let name = t.name.clone();
        if fleet.dispatch(t) == DispatchOutcome::Queued {
            assert!(fleet.remove(&name));
            break;
        }
        fillers.push(name);
    }
    assert!(fleet.remove(&fillers[0]));
    let elastic =
        TenantSpec::new("elastic", ModelKind::ResNet18, 60.0).with_fps_ladder([30.0, 24.0, 15.0]);
    assert!(matches!(
        fleet.dispatch(elastic),
        DispatchOutcome::PlacedDegraded { .. }
    ));
    let mut trace = ChurnTrace::new();
    for name in &fillers[1..3] {
        trace.push(
            sgprs_rt::SimTime::ZERO + SimDuration::from_millis(1_300),
            crate::ChurnEvent::Departure(name.clone()),
        );
    }
    let m = fleet.run(trace, SimDuration::from_secs(3));
    assert_eq!((m.departures, m.upgrades), (2, 1), "{m:?}");
    assert_eq!(m.truncated_jobs, 0, "{m:?}");
}

#[test]
fn departures_let_queued_tenants_in() {
    let mut fleet = Fleet::new(three_node_fleet());
    let mut names = Vec::new();
    // Saturate, then one more that must queue.
    let mut i = 0;
    loop {
        let t = tenant(i);
        let name = t.name.clone();
        match fleet.dispatch(t) {
            DispatchOutcome::Placed(_) => names.push(name),
            DispatchOutcome::Queued => break,
            other => panic!("resnet18@30fps with a fresh name always dispatches: {other:?}"),
        }
        i += 1;
    }
    assert_eq!(fleet.queued(), 1);
    assert!(fleet.remove(&names[0]), "departure frees capacity");
    assert_eq!(fleet.drain_queue(), 1, "queued tenant admitted");
    assert_eq!(fleet.queued(), 0);
}

#[test]
fn static_population_run_produces_fleet_throughput() {
    let mut fleet = Fleet::new(three_node_fleet());
    let trace = ChurnTrace::static_population((0..6).map(tenant));
    let m = fleet.run(trace, SimDuration::from_secs(2));
    assert!(m.total_fps > 150.0, "6 × 30 fps: {m:?}");
    assert_eq!(m.arrivals, 6);
    assert_eq!(m.admitted, 6);
    assert_eq!(m.rejection_rate, 0.0);
    let node_sum: f64 = m.nodes.iter().map(|n| n.fps).sum();
    assert!((node_sum - m.total_fps).abs() < 1e-6);
}

#[test]
fn churn_run_reports_rejections_under_pressure() {
    // One small GPU, heavy arrivals: rejections are inevitable.
    let cfg = FleetConfig::new(vec![NodeSpec::sgprs("small", GpuSpec::synthetic(23))]);
    let mut fleet = Fleet::new(cfg);
    let churn = ChurnConfig {
        mean_interarrival: SimDuration::from_millis(50),
        min_lifetime: SimDuration::from_secs(2),
        max_lifetime: SimDuration::from_secs(4),
        ..ChurnConfig::default()
    };
    let horizon = SimDuration::from_secs(4);
    let trace = ChurnTrace::generate(&churn, horizon, 11);
    let m = fleet.run(trace, horizon);
    assert!(m.arrivals > 10);
    assert!(m.rejected > 0, "{m:?}");
    assert!(m.rejection_rate > 0.0 && m.rejection_rate <= 1.0);
    assert!(m.total_fps > 0.0);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run_once = || {
        let mut fleet = Fleet::new(three_node_fleet().with_seed(99));
        let churn = ChurnConfig::default();
        let horizon = SimDuration::from_secs(3);
        let trace = ChurnTrace::generate(&churn, horizon, 5);
        fleet.run(trace, horizon)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn queued_then_admitted_tenants_are_not_rejections() {
    // Regression: `rejection_rate` used to count a queued-then-
    // admitted tenant as rejected forever. Saturate one small node,
    // queue one extra arrival, then free room with a departure: the
    // waiter is admitted and must not appear as a rejection.
    let cfg = || FleetConfig::new(vec![NodeSpec::sgprs("small", GpuSpec::synthetic(23))]);
    let mut scratch = Fleet::new(cfg());
    let mut fit = 0;
    while matches!(scratch.dispatch(tenant(fit)), DispatchOutcome::Placed(_)) {
        fit += 1;
    }
    assert!(fit >= 2, "a 23-SM node takes a few tenants");
    let mut trace = ChurnTrace::new();
    for i in 0..=fit {
        trace.push(
            sgprs_rt::SimTime::ZERO,
            crate::ChurnEvent::Arrival(tenant(i)),
        );
    }
    trace.push(
        sgprs_rt::SimTime::ZERO + SimDuration::from_millis(500),
        crate::ChurnEvent::Departure(tenant(0).name),
    );
    let mut fleet = Fleet::new(cfg());
    let m = fleet.run(trace, SimDuration::from_secs(3));
    assert_eq!(m.arrivals as usize, fit + 1);
    assert_eq!(m.deferred, 1, "one arrival had to wait");
    assert_eq!(m.admitted_after_wait, 1, "and got in after the departure");
    assert_eq!(
        m.rejected, 0,
        "eventual admission is not a rejection: {m:?}"
    );
    assert_eq!(m.rejection_rate, 0.0);
    assert_eq!(m.still_queued, 0);
}

#[test]
fn pre_run_queue_admissions_do_not_mask_in_run_rejections() {
    // Regression: a tenant queued via `dispatch` *before* `run` and
    // admitted mid-run used to cancel out one genuinely-rejected
    // in-run deferral in the eventual accounting.
    let mut fleet = Fleet::new(FleetConfig::new(vec![NodeSpec::sgprs(
        "small",
        GpuSpec::synthetic(23),
    )]));
    let mut i = 0;
    let resident = loop {
        match fleet.dispatch(tenant(i)) {
            DispatchOutcome::Placed(_) => i += 1,
            DispatchOutcome::Queued => break i,
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(fleet.queued(), 1, "tenant {resident} waits pre-run");
    let mut trace = ChurnTrace::new();
    // An in-run arrival that must also wait, behind the pre-run one…
    trace.push(
        sgprs_rt::SimTime::ZERO + SimDuration::from_millis(200),
        crate::ChurnEvent::Arrival(tenant(resident + 1)),
    );
    // …and one departure, freeing room for exactly one of them.
    trace.push(
        sgprs_rt::SimTime::ZERO + SimDuration::from_millis(500),
        crate::ChurnEvent::Departure(tenant(0).name),
    );
    let m = fleet.run(trace, SimDuration::from_secs(3));
    assert_eq!(m.deferred, 1, "the in-run arrival waited");
    assert_eq!(
        m.admitted_after_wait, 0,
        "the freed slot went to the pre-run tenant, which is not this run's deferral"
    );
    assert_eq!(m.rejected, 1, "the in-run arrival was never served: {m:?}");
    assert_eq!(m.still_queued, 1);
}

#[test]
fn still_waiting_arrivals_do_count_as_rejections() {
    // The flip side: with no departures the deferred tenant never
    // gets in, and the eventual accounting reports it rejected.
    let cfg = FleetConfig::new(vec![NodeSpec::sgprs("small", GpuSpec::synthetic(23))]);
    let mut scratch = Fleet::new(cfg.clone());
    let mut fit = 0;
    while matches!(scratch.dispatch(tenant(fit)), DispatchOutcome::Placed(_)) {
        fit += 1;
    }
    let trace = ChurnTrace::static_population((0..=fit).map(tenant));
    let m = Fleet::new(cfg).run(trace, SimDuration::from_secs(2));
    assert_eq!(m.deferred, 1);
    assert_eq!(m.admitted_after_wait, 0);
    assert_eq!(m.rejected, 1);
    assert_eq!(m.still_queued, 1);
    assert!((m.rejection_rate - 1.0 / (fit as f64 + 1.0)).abs() < 1e-9);
}

#[test]
fn duplicate_active_names_are_rejected() {
    let mut fleet = Fleet::new(three_node_fleet());
    assert!(matches!(
        fleet.dispatch(tenant(0)),
        DispatchOutcome::Placed(_)
    ));
    assert_eq!(fleet.dispatch(tenant(0)), DispatchOutcome::Duplicate);
    let resident: usize = fleet.nodes().iter().map(|n| n.tenants().len()).sum();
    assert_eq!(resident, 1, "no ghost twin was placed");
    // Departure frees the name for reuse.
    assert!(fleet.remove(&tenant(0).name));
    assert!(matches!(
        fleet.dispatch(tenant(0)),
        DispatchOutcome::Placed(_)
    ));
    // Queued names are active too: a duplicate of a waiting tenant
    // would equally confuse removal.
    let mut small = Fleet::new(FleetConfig::new(vec![NodeSpec::sgprs(
        "small",
        GpuSpec::synthetic(23),
    )]));
    let mut i = 0;
    while matches!(small.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
        i += 1;
    }
    assert_eq!(small.queued(), 1, "tenant {i} waits");
    assert_eq!(small.dispatch(tenant(i)), DispatchOutcome::Duplicate);
}

#[test]
fn duplicate_arrivals_in_a_trace_are_counted_not_served() {
    let mut fleet = Fleet::new(three_node_fleet());
    let mut trace = ChurnTrace::new();
    trace.push(
        sgprs_rt::SimTime::ZERO,
        crate::ChurnEvent::Arrival(tenant(1)),
    );
    trace.push(
        sgprs_rt::SimTime::ZERO,
        crate::ChurnEvent::Arrival(tenant(1)),
    );
    let m = fleet.run(trace, SimDuration::from_secs(1));
    assert_eq!(m.arrivals, 2);
    assert_eq!(m.admitted, 1);
    assert_eq!(m.duplicates, 1);
    assert_eq!(
        m.rejection_rate, 0.0,
        "duplicates are not capacity rejections"
    );
    let resident: usize = fleet.nodes().iter().map(|n| n.tenants().len()).sum();
    assert_eq!(resident, 1);
}

#[test]
fn parallel_and_sequential_epochs_are_bit_identical() {
    // Heterogeneous devices *and* schedulers under churn plus
    // migration — the worst case for accidental order dependence.
    let nodes = || {
        vec![
            NodeSpec::sgprs("a", GpuSpec::rtx_2080_ti()),
            NodeSpec::sgprs("b", GpuSpec::synthetic(34)).with_scheduler(SchedulerKind::Naive),
            NodeSpec::sgprs("c", GpuSpec::synthetic(23)),
        ]
    };
    let run_with = |cfg: FleetConfig| {
        let churn = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(120),
            ..ChurnConfig::default()
        };
        let horizon = SimDuration::from_secs(4);
        let trace = ChurnTrace::generate(&churn, horizon, 17);
        Fleet::new(cfg).run(trace, horizon)
    };
    let par = run_with(FleetConfig::new(nodes()).with_migration(0.1));
    let seq = run_with(
        FleetConfig::new(nodes())
            .with_migration(0.1)
            .with_workers(1),
    );
    assert_eq!(par, seq, "parallelism must never change results");
    assert_eq!(par.to_json(), seq.to_json());
}

#[test]
fn migration_moves_load_off_an_overloaded_node() {
    // Two nodes, round-robin placement is blind to the size gap, so
    // the small node overloads and migration must bail it out.
    let cfg = FleetConfig::new(vec![
        NodeSpec::sgprs("small", GpuSpec::synthetic(16)),
        NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
    ])
    .with_placement(crate::PlacementPolicy::RoundRobin)
    .with_migration(0.05);
    // Force-load the small node beyond its means.
    let mut fleet = Fleet::new(cfg);
    for i in 0..6 {
        fleet.seed_resident(0, tenant(i));
    }
    let m = fleet.run(ChurnTrace::new(), SimDuration::from_secs(3));
    assert!(m.migrations > 0, "{m:?}");
    assert!(
        fleet.nodes()[0].tenants().len() < 6,
        "the small node shed load"
    );
    assert!(
        !fleet.nodes()[1].tenants().is_empty(),
        "the big node absorbed it"
    );
}

#[test]
fn lifo_victim_sheds_the_last_placed_tenant() {
    // A mixed-demand overload: one heavy 60 fps tenant placed first,
    // light 15 fps fillers after. The victim is the most recent
    // placement, a light filler, whatever its demand.
    let mut fleet = Fleet::new(
        FleetConfig::new(vec![
            NodeSpec::sgprs("small", GpuSpec::synthetic(16)),
            NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
        ])
        .with_migration(0.05),
    );
    fleet.seed_resident(0, TenantSpec::new("heavy", ModelKind::ResNet18, 60.0));
    for i in 0..4 {
        fleet.seed_resident(
            0,
            TenantSpec::new(format!("light-{i}"), ModelKind::ResNet18, 15.0),
        );
    }
    let m = fleet.run(ChurnTrace::new(), SimDuration::from_secs(2));
    assert!(m.migrations > 0, "the overloaded node sheds");
    // Observable as who ended up on the big node.
    assert!(
        fleet.nodes()[1]
            .tenants()
            .iter()
            .any(|t| t.name.starts_with("light")),
        "LIFO sheds the last-placed light tenant: {:?}",
        fleet.nodes()[1]
            .tenants()
            .iter()
            .map(|t| &t.name)
            .collect::<Vec<_>>()
    );
}

#[test]
fn forced_multi_worker_fanout_matches_inline_execution() {
    // `available_parallelism()` is 1 in small CI containers, which
    // would leave the scoped-thread path untested: drive
    // `run_node_epochs` with an explicit worker count instead. Nine
    // nodes of mixed sizes and schedulers carry one to three tasks
    // each, so the jobs are uneven and the workers pull them in a
    // thread-timing-dependent interleaving.
    let sizes = [68u32, 46, 34, 23];
    let nodes: Vec<FleetNode> = (0..9)
        .map(|i| {
            let sm = sizes[i % sizes.len()];
            let spec = NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::synthetic(sm));
            let spec = match i % 3 {
                0 => spec,
                1 => spec.with_contexts(2),
                _ => spec.with_scheduler(SchedulerKind::Naive),
            };
            FleetNode::new(spec)
        })
        .collect();
    // Every fourth node never took a tenant, so it has no scheduler.
    let execs = || -> Vec<Option<Scheduler>> {
        (0..nodes.len())
            .map(|idx| {
                (idx % 4 != 3).then(|| {
                    let spec = &nodes[idx].spec;
                    let mut exec = spec.scheduler(42 + idx as u64);
                    for j in 0..1 + idx % 3 {
                        let at = SimTime::ZERO + SimDuration::from_millis(7 * j as u64);
                        let task = tenant(idx * 3 + j).compile_for(&spec.pool());
                        exec.attach(Arc::new(task), at);
                    }
                    exec
                })
            })
            .collect()
    };
    let boundary = SimTime::ZERO + SimDuration::from_secs(1);
    // Two windows of the same schedulers: an epoch, then the horizon
    // drain.
    let windows = |workers: usize| {
        let mut execs = execs();
        let mut out = run_node_epochs(&mut execs, workers, |n| n.run(boundary));
        out.extend(run_node_epochs(&mut execs, workers, |n| n.finish(boundary)));
        out
    };
    let inline = windows(1);
    let occupied: Vec<usize> = (0..nodes.len()).filter(|idx| idx % 4 != 3).collect();
    assert_eq!(inline.len(), 2 * occupied.len());
    assert!(inline[..occupied.len()].iter().all(|(_, m)| m.released > 0));
    assert!(inline[..occupied.len()]
        .iter()
        .map(|(idx, _)| *idx)
        .eq(occupied.iter().copied()));
    for workers in [2, 3, 8, 32] {
        assert_eq!(
            inline,
            windows(workers),
            "{workers} workers: thread count must never change results"
        );
    }
}

/// A fleet over `specs` with one ResNet18@30 resident per node, each
/// compiled through the fleet's cache.
fn compiled_fleet(specs: Vec<NodeSpec>) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig::new(specs));
    for idx in 0..fleet.nodes.len() {
        fleet.seed_resident(idx, tenant(idx));
        fleet.ensure_compiled(idx, 0);
    }
    fleet
}

/// The cached compile of node `idx`'s first resident.
fn cached_compile(fleet: &Fleet, idx: usize) -> &CompiledTask {
    let key = fleet.compile_key(&fleet.nodes[idx].tenants()[0], idx);
    &fleet.compiled[&key]
}

#[test]
fn equal_pools_share_one_compile_per_price_point() {
    // Names differ; device, contexts and `os` do not.
    let mut fleet = Fleet::new(three_node_fleet());
    for idx in 0..3 {
        for j in 0..3 {
            fleet.seed_resident(idx, tenant(idx * 3 + j));
        }
    }
    let m = fleet.run(ChurnTrace::new(), SimDuration::from_secs(1));
    assert!(m.nodes.iter().all(|n| n.released > 0));
    assert_eq!(fleet.pool_class, [0, 0, 0]);
    assert_eq!(fleet.compiled.len(), 1, "nine residents, one price point");
    let own = tenant(0).compile_for(&fleet.nodes[2].spec.pool());
    assert_eq!(cached_compile(&fleet, 2).spec.stages, own.spec.stages);
    assert_eq!(cached_compile(&fleet, 2).spec.wcet, own.spec.wcet);
}

#[test]
fn pools_that_differ_never_share_a_compile() {
    let base = NodeSpec::sgprs("base", GpuSpec::rtx_2080_ti());
    let fleet = compiled_fleet(vec![
        base.clone(),
        NodeSpec::sgprs("fewer-sms", GpuSpec::synthetic(46)),
        base.clone().with_contexts(2),
        base.with_scheduler(SchedulerKind::Sgprs {
            oversubscription: 2.0,
        }),
    ]);
    assert_eq!(fleet.pool_class, [0, 1, 2, 3]);
    assert_eq!(fleet.compiled.len(), 4, "one entry per distinct pool");
    let base_wcet = cached_compile(&fleet, 0).spec.wcet;
    for idx in 1..4 {
        let task = cached_compile(&fleet, idx);
        assert_ne!(task.spec.wcet, base_wcet, "node {idx}");
        let own = tenant(idx).compile_for(&fleet.nodes[idx].spec.pool());
        assert_eq!(task.spec.wcet, own.spec.wcet, "node {idx}");
    }
}

#[test]
fn naive_nodes_on_one_device_share_a_compile() {
    let gpu = GpuSpec::synthetic(34);
    let fleet = compiled_fleet(vec![
        NodeSpec::sgprs("naive-a", gpu.clone()).with_scheduler(SchedulerKind::Naive),
        NodeSpec::sgprs("naive-b", gpu).with_scheduler(SchedulerKind::Naive),
    ]);
    assert_eq!(fleet.nodes[0].spec.pool(), fleet.nodes[1].spec.pool());
    assert_eq!(fleet.pool_class, [0, 0]);
    assert_eq!(fleet.compiled.len(), 1);
}

#[test]
fn migration_never_targets_a_node_over_the_dmr_threshold() {
    // Regression: the destination filter used to check admission
    // only. A naive-scheduler node sized well under its *fluid*
    // budget still misses deadlines (the budget is calibrated for
    // SGPRS), so admission would happily accept a migrant onto a
    // node that is itself hot — and two such nodes ping-pong the
    // same tenant forever. Destinations past the DMR threshold are
    // now excluded.
    let cfg = FleetConfig::new(vec![
        NodeSpec::sgprs("src", GpuSpec::synthetic(16)),
        NodeSpec::sgprs("hot-dest", GpuSpec::rtx_2080_ti()).with_scheduler(SchedulerKind::Naive),
    ])
    .with_migration(0.05);
    let mut fleet = Fleet::new(cfg);
    // Overload the small source node outright.
    for i in 0..6 {
        fleet.seed_resident(0, tenant(i));
    }
    // Load the naive node under its admission budget but past what
    // it can actually serve.
    for i in 6..24 {
        fleet.seed_resident(1, tenant(i));
    }
    let migrant = fleet.nodes[0].tenants().last().cloned().expect("loaded");
    assert!(
        fleet
            .admission()
            .evaluate(&fleet.nodes()[1], &migrant)
            .is_admit(),
        "the destination must look admissible (that is the trap)"
    );
    let m = fleet.run(ChurnTrace::new(), SimDuration::from_secs(3));
    assert!(
        m.nodes[1].dmr > 0.05,
        "the naive node must actually be hot: {m:?}"
    );
    assert_eq!(
        m.migrations, 0,
        "no tenant may migrate onto a node over the DMR threshold: {m:?}"
    );
    assert_eq!(
        fleet.nodes()[0].tenants().len(),
        6,
        "source population intact"
    );
    assert_eq!(
        fleet.nodes()[1].tenants().len(),
        18,
        "destination untouched"
    );
}

/// A 16-SM source node overloaded with six residents, beside `dest`.
fn overloaded_pair(dest: NodeSpec) -> Fleet {
    let cfg = FleetConfig::new(vec![NodeSpec::sgprs("src", GpuSpec::synthetic(16)), dest])
        .with_migration(0.05)
        .with_telemetry(
            crate::TelemetryConfig::windowed(SimDuration::from_millis(250)).with_trace(8),
        );
    let mut fleet = Fleet::new(cfg);
    for i in 0..6 {
        fleet.seed_resident(0, tenant(i));
    }
    fleet
}

#[test]
fn a_failed_migration_has_no_side_effects() {
    // The only other node is as full as the source: the victim fits
    // nowhere, so the attempt must leave the source exactly as it was.
    let mut fleet = overloaded_pair(NodeSpec::sgprs("full", GpuSpec::synthetic(16)));
    for i in 6..12 {
        fleet.seed_resident(1, tenant(i));
    }
    let horizon = SimDuration::from_secs(1);
    fleet.open_run(horizon);
    let state = |f: &Fleet| {
        let node = &f.nodes()[0];
        let ids = f.node_ids[0].clone();
        let index: Vec<_> = ids.iter().map(|&id| f.resident_node_of(id)).collect();
        (node.tenants().to_vec(), node.version(), ids, index)
    };
    let before = state(&fleet);
    let (victim, dest) = fleet
        .migrate_one(0, &[1.0, 0.0], SimDuration::from_millis(5))
        .expect("the source has a victim");
    assert_eq!(dest, None, "the victim fits nowhere");
    assert_eq!(victim, before.2[5], "LIFO sheds the last placement");
    assert_eq!(
        state(&fleet),
        before,
        "tenants, version and index unchanged"
    );
    let m = fleet.close_run(horizon);
    assert_eq!(m.migrations, 0);
    assert_eq!(
        m.telemetry.expect("telemetry is armed").trace,
        vec!["0.000s migrate cam-5: node 0 -> nowhere (failed)".to_string()],
        "the attempt is still recorded"
    );
}

#[test]
fn a_successful_migration_moves_one_tenant_and_bumps_both_versions() {
    let mut fleet = overloaded_pair(NodeSpec::sgprs("cool", GpuSpec::rtx_2080_ti()));
    let versions = |f: &Fleet| (f.nodes()[0].version(), f.nodes()[1].version());
    let before = versions(&fleet);
    let (victim, dest) = fleet
        .migrate_one(0, &[1.0, 0.0], SimDuration::ZERO)
        .expect("the source has a victim");
    assert_eq!(dest, Some(1));
    assert_eq!(fleet.nodes()[0].tenants().len(), 5);
    assert_eq!(fleet.nodes()[1].tenants().len(), 1);
    assert_eq!(fleet.nodes()[1].tenants()[0].name, "cam-5");
    assert_eq!(fleet.node_ids[1], vec![victim]);
    assert_eq!(fleet.resident_node_of(victim), Some(1));
    let after = versions(&fleet);
    assert!(
        after.0 > before.0 && after.1 > before.1,
        "{before:?} -> {after:?}"
    );
}

#[test]
fn a_repeat_migration_search_agrees_with_a_direct_one_and_touches_no_node() {
    let mut fleet = overloaded_pair(NodeSpec::sgprs("full", GpuSpec::synthetic(16)));
    for i in 6..12 {
        fleet.seed_resident(1, tenant(i));
    }
    fleet.open_run(SimDuration::from_secs(1));
    let dmr = [1.0, 0.0];
    let direct = |f: &Fleet| {
        let victim = f.nodes[0]
            .tenants()
            .last()
            .expect("the source has residents");
        policy::migration_destination(
            &FleetState::new(&f.nodes, &f.admission),
            0,
            &dmr,
            0.05,
            |j| f.admission.evaluate(&f.nodes[j], victim).is_admit(),
        )
    };
    let expected = direct(&fleet);
    assert_eq!(expected, None, "the full node refuses the victim");
    let dest = |f: &mut Fleet| f.migrate_one(0, &dmr, SimDuration::ZERO).map(|(_, d)| d);
    let versions = |f: &Fleet| f.nodes.iter().map(FleetNode::version).collect::<Vec<_>>();
    let before = versions(&fleet);
    for attempt in 0..2 {
        assert_eq!(dest(&mut fleet), Some(expected), "attempt {attempt}");
        assert_eq!(versions(&fleet), before, "attempt {attempt} touched a node");
    }
    // Emptying the destination moves its version: the next search reads
    // its refilled tables and agrees with a direct search again.
    for i in 6..12 {
        assert!(fleet.remove(&tenant(i).name));
    }
    let expected = direct(&fleet);
    assert_eq!(expected, Some(1), "the emptied node admits the victim");
    assert_eq!(dest(&mut fleet), Some(expected));
}

#[test]
fn a_failed_upgrade_pass_changes_no_node_version() {
    let cfg =
        FleetConfig::new(vec![NodeSpec::sgprs("gpu", GpuSpec::rtx_2080_ti())]).with_repricing();
    let mut fleet = Fleet::new(cfg);
    let mut i = 0;
    let mut fillers = Vec::new();
    while let DispatchOutcome::Placed(_) = fleet.dispatch(tenant(i)) {
        fillers.push(tenant(i).name);
        i += 1;
    }
    assert!(fleet.remove(&tenant(i).name), "scaffolding waiter removed");
    // Headroom in [d, 2d): the 60 fps request degrades to 30 fps and
    // has no room left to climb back.
    assert!(fleet.remove(&fillers[0]));
    let priced =
        TenantSpec::new("elastic", ModelKind::ResNet18, 60.0).with_fps_ladder([30.0, 24.0, 15.0]);
    assert!(matches!(
        fleet.dispatch(priced),
        DispatchOutcome::PlacedDegraded { .. }
    ));
    let versions = |f: &Fleet| f.nodes.iter().map(FleetNode::version).collect::<Vec<_>>();
    let before = versions(&fleet);
    for pass in 0..2 {
        fleet.upgrade_degraded();
        assert_eq!(versions(&fleet), before, "pass {pass} touched a node");
        assert_eq!(fleet.degraded_residents(), 1);
    }
    // A departure moves the version: the next pass tries again, and
    // now the requested rate fits.
    assert!(fleet.remove(&fillers[1]));
    fleet.upgrade_degraded();
    assert_eq!(
        fleet.degraded_residents(),
        0,
        "upgraded once the node changed"
    );
}

#[test]
fn drain_skips_the_scan_until_capacity_is_released() {
    // Regression for the epoch-drain hot path: once a pass leaves the
    // head unplaced, further drains are O(1) until a departure (or
    // migration) frees node capacity.
    let mut fleet = Fleet::new(FleetConfig::new(vec![NodeSpec::sgprs(
        "small",
        GpuSpec::synthetic(23),
    )]));
    let mut i = 0;
    let mut names = Vec::new();
    loop {
        let t = tenant(i);
        let name = t.name.clone();
        match fleet.dispatch(t) {
            DispatchOutcome::Placed(_) => names.push(name),
            DispatchOutcome::Queued => break,
            other => panic!("unexpected {other:?}"),
        }
        i += 1;
    }
    // Queue one more waiter behind the first.
    assert_eq!(fleet.dispatch(tenant(i + 1)), DispatchOutcome::Queued);
    let before = fleet.span_calls(Span::DrainScan);
    assert_eq!(fleet.drain_queue(), 0, "nothing departed yet");
    assert_eq!(
        fleet.span_calls(Span::DrainScan),
        before + 1,
        "first pass scans"
    );
    for _ in 0..5 {
        assert_eq!(fleet.drain_queue(), 0);
    }
    assert_eq!(
        fleet.span_calls(Span::DrainScan),
        before + 1,
        "no release, no further scans"
    );
    // Ordering is preserved across the skipped passes: the departure
    // admits the first-queued tenant, not the later one.
    assert_eq!(
        fleet.queued_names(),
        vec![tenant(i).name, tenant(i + 1).name]
    );
    assert!(fleet.remove(&names[0]));
    assert_eq!(fleet.drain_queue(), 1);
    assert_eq!(
        fleet.span_calls(Span::DrainScan),
        before + 2,
        "release re-arms the scan"
    );
    assert_eq!(fleet.queued_names(), vec![tenant(i + 1).name]);
}

#[test]
fn queued_departure_releases_no_capacity() {
    // Regression: a *queued* tenant departing frees no node capacity —
    // it was never resident — so it must not re-arm the drain scan. If
    // it did, every impatient waiter giving up would trigger a futile
    // O(queue) scan of a still-full fleet.
    let mut fleet = Fleet::new(FleetConfig::new(vec![NodeSpec::sgprs(
        "small",
        GpuSpec::synthetic(23),
    )]));
    let mut i = 0;
    while matches!(fleet.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
        i += 1;
    }
    // tenant(i) waits; queue one more behind it.
    assert_eq!(fleet.dispatch(tenant(i + 1)), DispatchOutcome::Queued);
    assert_eq!(fleet.drain_queue(), 0, "fleet is full");
    assert!(!fleet.capacity_released, "the failed pass disarms the scan");
    let scans = fleet.span_calls(Span::DrainScan);
    // The first waiter gives up: removed from the queue, nothing freed.
    assert!(fleet.remove(&tenant(i).name));
    assert!(
        !fleet.capacity_released,
        "a queued departure must not report released node capacity"
    );
    assert_eq!(fleet.drain_queue(), 0);
    assert_eq!(
        fleet.span_calls(Span::DrainScan),
        scans,
        "no release, no scan"
    );
    assert_eq!(fleet.queued_names(), vec![tenant(i + 1).name]);
    // A *resident* departure, by contrast, re-arms it.
    assert!(fleet.remove(&tenant(0).name));
    assert!(fleet.capacity_released);
    assert_eq!(fleet.drain_queue(), 1, "the survivor is admitted");
}

#[test]
fn earliest_deadline_policy_admits_tighter_waiters_first() {
    let cfg = FleetConfig::new(vec![NodeSpec::sgprs("small", GpuSpec::synthetic(23))])
        .with_queue_policy(crate::QueuePolicy::EarliestDeadline);
    let mut fleet = Fleet::new(cfg);
    let mut i = 0;
    let mut resident = Vec::new();
    loop {
        let t = tenant(i);
        let name = t.name.clone();
        match fleet.dispatch(t) {
            DispatchOutcome::Placed(_) => resident.push(name),
            DispatchOutcome::Queued => break,
            other => panic!("unexpected {other:?}"),
        }
        i += 1;
    }
    // The saturating arrival queued without a deadline; add a later
    // waiter with one that must overtake it in drain order.
    let vip =
        TenantSpec::new("vip", ModelKind::ResNet18, 30.0).with_max_wait(SimDuration::from_secs(60));
    assert_eq!(fleet.dispatch(vip), DispatchOutcome::Queued);
    assert_eq!(fleet.queued_names()[0], "vip");
    assert!(fleet.remove(&resident[0]));
    assert_eq!(fleet.drain_queue(), 1);
    assert!(
        fleet.queued_names().iter().all(|n| n != "vip"),
        "the waiter with a deadline was admitted first"
    );
}

#[test]
fn repricing_admits_degraded_then_upgrades_after_departures() {
    let cfg =
        FleetConfig::new(vec![NodeSpec::sgprs("gpu", GpuSpec::rtx_2080_ti())]).with_repricing();
    let mut fleet = Fleet::new(cfg);
    // Saturate at 30 fps with no-ladder fillers: leftover headroom is
    // strictly below one filler demand `d`.
    let mut i = 0;
    let mut fillers = Vec::new();
    loop {
        let t = tenant(i);
        let name = t.name.clone();
        match fleet.dispatch(t) {
            DispatchOutcome::Placed(_) => fillers.push(name),
            DispatchOutcome::Queued => {
                assert!(fleet.remove(&name), "scaffolding waiter removed");
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
        i += 1;
    }
    // One departure lifts headroom into [d, 2d): a 60 fps request
    // (demand exactly 2d) cannot fit, its 30 fps ladder step (demand
    // exactly d) must.
    assert!(fleet.remove(&fillers[0]));
    let priced =
        TenantSpec::new("elastic", ModelKind::ResNet18, 60.0).with_fps_ladder([30.0, 24.0, 15.0]);
    let outcome = fleet.dispatch(priced);
    let DispatchOutcome::PlacedDegraded { fps, .. } = outcome else {
        panic!("expected a degraded admission, got {outcome:?}");
    };
    assert!((fps - 30.0).abs() < 1e-12, "top viable step wins: {fps}");
    assert_eq!(fleet.degraded_residents(), 1);
    // Two more departures free 2d; a run over an empty trace upgrades
    // the tenant back to its requested rate (one more d) at the next
    // epoch boundary.
    assert!(fleet.remove(&fillers[1]));
    assert!(fleet.remove(&fillers[2]));
    let m = fleet.run(ChurnTrace::new(), SimDuration::from_secs(2));
    assert!(m.upgrades >= 1, "{m:?}");
    assert_eq!(fleet.degraded_residents(), 0, "fully restored");
    let restored = fleet
        .nodes()
        .iter()
        .flat_map(|n| n.tenants().iter())
        .find(|t| t.name == "elastic")
        .expect("still resident");
    assert!((restored.fps - 60.0).abs() < 1e-12, "{}", restored.fps);
}

#[test]
fn repricing_keeps_infeasible_models_out_unless_a_step_fits() {
    // VGG-16@30fps is latency-infeasible everywhere; with a ladder
    // step at 15 fps (feasible on a full device) re-pricing admits it
    // degraded instead of dropping it.
    let mut fleet = Fleet::new(
        FleetConfig::new(vec![NodeSpec::sgprs("gpu", GpuSpec::rtx_2080_ti())]).with_repricing(),
    );
    let vgg = TenantSpec::new("vgg", ModelKind::Vgg16, 30.0).with_fps_ladder([15.0]);
    match fleet.dispatch(vgg) {
        DispatchOutcome::PlacedDegraded { fps, .. } => {
            assert!((fps - 15.0).abs() < 1e-12);
        }
        other => panic!("expected degraded admission, got {other:?}"),
    }
    // Without a ladder the same model is still dropped outright.
    let hopeless = TenantSpec::new("vgg2", ModelKind::Vgg16, 30.0);
    assert_eq!(fleet.dispatch(hopeless), DispatchOutcome::Infeasible);
}

#[test]
fn expired_waiters_count_as_rejections() {
    // One saturated small node; a waiter with a 1-epoch patience
    // gives up and is accounted as an eventual rejection.
    let cfg = || FleetConfig::new(vec![NodeSpec::sgprs("small", GpuSpec::synthetic(23))]);
    let mut scratch = Fleet::new(cfg());
    let mut fit = 0;
    while matches!(scratch.dispatch(tenant(fit)), DispatchOutcome::Placed(_)) {
        fit += 1;
    }
    let mut trace = ChurnTrace::new();
    for i in 0..fit {
        trace.push(
            sgprs_rt::SimTime::ZERO,
            crate::ChurnEvent::Arrival(tenant(i)),
        );
    }
    trace.push(
        sgprs_rt::SimTime::ZERO,
        crate::ChurnEvent::Arrival(
            TenantSpec::new("impatient", ModelKind::ResNet18, 30.0)
                .with_max_wait(SimDuration::from_secs(1)),
        ),
    );
    let mut fleet = Fleet::new(cfg());
    let m = fleet.run(trace, SimDuration::from_secs(4));
    assert_eq!(m.deferred, 1);
    assert_eq!(m.expired, 1, "{m:?}");
    assert_eq!(m.rejected, 1, "an expired waiter was never served");
    assert_eq!(m.still_queued, 0, "it left the queue");
    assert_eq!(fleet.queued(), 0);
}

#[test]
fn a_waiter_no_departure_can_admit_stays_queued() {
    // Conservative admission (utilisation bound 0.3 keeps heavy
    // headroom): a ResNet18@60fps feed passes the latency gate on a
    // 16-SM node — so it queues — but its steady-state demand exceeds
    // the node's admission budget *even empty* (≈5.4 vs ≈4.8
    // SM-equivalents): no departure pattern can ever admit it. With no
    // patience it leaves the queue only by admission or departure, so
    // it waits out the run in both engines.
    let trace = || {
        let mut trace = ChurnTrace::new();
        trace.push(
            sgprs_rt::SimTime::ZERO,
            crate::ChurnEvent::Arrival(TenantSpec::new("doomed", ModelKind::ResNet18, 60.0)),
        );
        trace
    };
    let horizon = SimDuration::from_secs(2);
    for event_driven in [false, true] {
        let mut cfg = FleetConfig::new(vec![NodeSpec::sgprs("small", GpuSpec::synthetic(16))]);
        cfg.admission.utilization_bound = 0.3;
        let mut fleet = Fleet::new(cfg);
        let m = if event_driven {
            fleet.run_events(trace(), horizon)
        } else {
            fleet.run(trace(), horizon)
        };
        assert_eq!(m.deferred, 1, "event={event_driven}: {m:?}");
        assert_eq!(m.still_queued, 1, "event={event_driven}: {m:?}");
        assert_eq!(m.expired, 0, "event={event_driven}: no patience, no expiry");
    }
}

#[test]
fn second_run_restarts_the_queue_clock_for_carried_over_waiters() {
    // Regression: a waiter surviving run 1 used to keep its absolute
    // enqueue stamp, so run 2 (whose clock restarts at zero) measured
    // nonsense waits and stretched the patience window far past
    // `max_wait`. Each run now re-stamps carried-over waiters at its
    // own start.
    let mut fleet = Fleet::new(FleetConfig::new(vec![NodeSpec::sgprs(
        "small",
        GpuSpec::synthetic(23),
    )]));
    let mut fit = 0;
    while matches!(fleet.dispatch(tenant(fit)), DispatchOutcome::Placed(_)) {
        fit += 1;
    }
    assert!(fleet.remove(&tenant(fit).name), "scaffolding waiter out");
    let mut trace = ChurnTrace::new();
    trace.push(
        sgprs_rt::SimTime::ZERO + SimDuration::from_millis(3_500),
        crate::ChurnEvent::Arrival(
            TenantSpec::new("patient", ModelKind::ResNet18, 30.0)
                .with_max_wait(SimDuration::from_secs(2)),
        ),
    );
    let m1 = fleet.run(trace, SimDuration::from_secs(4));
    assert_eq!(m1.deferred, 1);
    assert_eq!(m1.expired, 0, "deadline 5.5s is past run 1's horizon");
    assert_eq!(m1.still_queued, 1);
    // Run 2 is short: the re-based 2-second patience does not elapse.
    let m2 = fleet.run(ChurnTrace::new(), SimDuration::from_secs(2));
    assert_eq!(m2.expired, 0, "patience restarted, not inherited");
    assert_eq!(m2.still_queued, 1);
    // Run 3 is long enough for the re-based patience to elapse.
    let m3 = fleet.run(ChurnTrace::new(), SimDuration::from_secs(4));
    assert_eq!(m3.expired, 1, "{m3:?}");
    assert_eq!(m3.still_queued, 0);
}

#[test]
fn fifo_default_metrics_are_bit_identical_to_the_pre_queue_dispatcher() {
    // The default config must not change behaviour: same run, same
    // JSON, with the new counters pinned at zero.
    let run_once = || {
        let mut fleet = Fleet::new(three_node_fleet().with_seed(7));
        let churn = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(150),
            ..ChurnConfig::default()
        };
        let horizon = SimDuration::from_secs(3);
        let trace = ChurnTrace::generate(&churn, horizon, 3);
        fleet.run(trace, horizon)
    };
    let m = run_once();
    assert_eq!(m.degraded, 0);
    assert_eq!(m.upgrades, 0);
    assert_eq!(m.expired, 0);
    assert_eq!(m, run_once());
}

#[test]
fn event_runs_are_deterministic_and_truncation_free() {
    let run_once = || {
        let mut fleet = Fleet::new(three_node_fleet().with_seed(99));
        let churn = ChurnConfig::default();
        let horizon = SimDuration::from_secs(3);
        let trace = ChurnTrace::generate(&churn, horizon, 5);
        fleet.run_events(trace, horizon)
    };
    let m = run_once();
    assert_eq!(m, run_once(), "event runs are deterministic per seed");
    assert_eq!(m.truncated_jobs, 0, "{m:?}");
    assert!(m.total_fps > 0.0);
    // Telemetry is off by default, so the export stays on the base schema.
    assert_eq!(m.schema_version, crate::BASE_SCHEMA_VERSION);
}

#[test]
fn event_departures_apply_at_their_exact_instant() {
    // The epoch path serves a departing tenant through the end of
    // its final partial epoch; the event path stops its releases at
    // the departure instant exactly. One 30 fps tenant departing at
    // 1.5 s into a 3 s run: ~45 releases, not ~60 and not ~90.
    let mut fleet = Fleet::new(three_node_fleet());
    let t = tenant(0);
    let name = t.name.clone();
    let mut trace = ChurnTrace::new();
    trace.push(sgprs_rt::SimTime::ZERO, crate::ChurnEvent::Arrival(t));
    trace.push(
        sgprs_rt::SimTime::ZERO + SimDuration::from_millis(1_500),
        crate::ChurnEvent::Departure(name),
    );
    let m = fleet.run_events(trace, SimDuration::from_secs(3));
    assert_eq!(m.departures, 1);
    assert!(fleet.nodes().iter().all(|n| n.tenants().is_empty()));
    let released: u64 = m.nodes.iter().map(|n| n.released).sum();
    assert!(
        (44..=46).contains(&released),
        "30 fps × 1.5 s at the exact boundary: {released}"
    );
    assert_eq!(m.truncated_jobs, 0, "the final in-flight job completed");
}

#[test]
fn event_migration_pays_the_configured_stall() {
    // Force-overload the small node (mirroring the epoch-path
    // migration test): event mode must shed load at a release
    // boundary and charge the state-transfer stall for it.
    let cfg = FleetConfig::new(vec![
        NodeSpec::sgprs("small", GpuSpec::synthetic(16)),
        NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
    ])
    .with_migration(0.05);
    let mut fleet = Fleet::new(cfg);
    for i in 0..6 {
        fleet.seed_resident(0, tenant(i));
    }
    let m = fleet.run_events(ChurnTrace::new(), SimDuration::from_secs(3));
    assert!(m.migrations > 0, "{m:?}");
    assert!(
        (m.migration_stall_secs - 0.1 * m.migrations as f64).abs() < 1e-9,
        "each migration stalls for exactly the fixed 100 ms cost: {m:?}"
    );
    assert!(
        fleet.nodes()[0].tenants().len() < 6,
        "the small node shed load"
    );
    assert!(
        !fleet.nodes()[1].tenants().is_empty(),
        "the big node absorbed it"
    );
    assert_eq!(m.truncated_jobs, 0);
}

#[test]
fn reused_tenant_name_is_immune_to_its_predecessors_stale_events() {
    // A departed tenant's frame in flight was decided at its release,
    // and its run entry (busy-until instant, release clock, deadline
    // samples' incarnation) dies at the departure. A same-named
    // successor gets the recycled id but a fresh run: it is not busy
    // with its predecessor's job, and the predecessor's stale release
    // is dropped by the generation guard. Overload one node past its
    // period (admission bound deliberately past capacity), churn the
    // same name out and back in while the first incarnation's job is
    // still running, and pin the deterministic outcome.
    let cfg = || {
        let mut c = FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::synthetic(34))]);
        c.admission.utilization_bound = 1.5;
        c
    };
    let trace = || {
        let mut trace = ChurnTrace::new();
        for i in 0..16 {
            trace.push(
                sgprs_rt::SimTime::ZERO,
                crate::ChurnEvent::Arrival(tenant(i)),
            );
        }
        // Depart while cam-15's stretched first job is still
        // running (arrivals interleave with releases, so the LAST
        // arrival's first job is the one admitted at full load and
        // still in flight here)…
        trace.push(
            sgprs_rt::SimTime::ZERO + SimDuration::from_millis(38),
            crate::ChurnEvent::Departure(tenant(15).name),
        );
        // …and reuse the name before that job finishes.
        trace.push(
            sgprs_rt::SimTime::ZERO + SimDuration::from_millis(40),
            crate::ChurnEvent::Arrival(tenant(15)),
        );
        trace
    };
    let horizon = SimDuration::from_secs(2);
    let m = Fleet::new(cfg()).run_events(trace(), horizon);
    assert_eq!(m.departures, 1);
    assert_eq!(m.admitted, 17, "the reused name is re-admitted: {m:?}");
    assert_eq!(m.truncated_jobs, 0);
    // The pinned totals lock the deterministic outcome of this
    // interleaving.
    assert_eq!(m, Fleet::new(cfg()).run_events(trace(), horizon));
    let node = &m.nodes[0];
    assert_eq!(
        (node.released, node.completed, node.missed),
        (976, 496, 964),
        "stale-event immunity changed the served-frame accounting: {m:?}"
    );
}

#[test]
fn departed_pre_run_waiter_does_not_shadow_a_reused_name() {
    // Regression (both paths): a pre-run waiter departing mid-run
    // used to leave its name in the pre-run set, so a later
    // same-named deferred arrival that was eventually admitted
    // matched the stale entry and was reported rejected.
    let saturated = || {
        let mut fleet = Fleet::new(FleetConfig::new(vec![NodeSpec::sgprs(
            "small",
            GpuSpec::synthetic(23),
        )]));
        let mut i = 0;
        while matches!(fleet.dispatch(tenant(i)), DispatchOutcome::Placed(_)) {
            i += 1;
        }
        // tenant(i) queued pre-run under the name the trace reuses.
        (fleet, i)
    };
    let trace = |i: usize| {
        let mut trace = ChurnTrace::new();
        // The pre-run waiter departs while still queued (the epoch
        // path applies this at the 1 s boundary — the granularity
        // contract — so the name reuse below waits past it)…
        trace.push(
            sgprs_rt::SimTime::ZERO + SimDuration::from_millis(100),
            crate::ChurnEvent::Departure(tenant(i).name),
        );
        // …a fresh arrival reuses its name and must wait too…
        trace.push(
            sgprs_rt::SimTime::ZERO + SimDuration::from_millis(1_200),
            crate::ChurnEvent::Arrival(tenant(i)),
        );
        // …until a resident departs (applied at the 2 s boundary on
        // the epoch path) and frees one slot.
        trace.push(
            sgprs_rt::SimTime::ZERO + SimDuration::from_millis(1_400),
            crate::ChurnEvent::Departure(tenant(0).name),
        );
        trace
    };
    for event_driven in [false, true] {
        let (mut fleet, i) = saturated();
        let horizon = SimDuration::from_secs(3);
        let m = if event_driven {
            fleet.run_events(trace(i), horizon)
        } else {
            fleet.run(trace(i), horizon)
        };
        assert_eq!(m.deferred, 1, "event={event_driven}: {m:?}");
        assert_eq!(
            m.admitted_after_wait, 1,
            "event={event_driven}: the reused name is this run's deferral, \
             not the departed pre-run waiter: {m:?}"
        );
        assert_eq!(m.rejected, 0, "event={event_driven}: {m:?}");
        assert!(m.queue_wait_mean_secs > 0.0, "event={event_driven}: {m:?}");
    }
}

#[test]
fn run_configured_dispatches_on_the_event_flag() {
    let trace = || ChurnTrace::static_population((0..3).map(tenant));
    let horizon = SimDuration::from_secs(2);
    let mut epoch_fleet = Fleet::new(three_node_fleet());
    let epoch = epoch_fleet.run_configured(trace(), horizon);
    let mut event_fleet = Fleet::new(three_node_fleet().with_event_driven());
    let event = event_fleet.run_configured(trace(), horizon);
    // Only the event engine pops release events.
    assert_eq!(epoch_fleet.event_counts().release, 0);
    assert!(event_fleet.event_counts().release > 0);
    // Neither engine truncates; the flag picks the engine bit for bit.
    assert_eq!(epoch.truncated_jobs, 0, "{epoch:?}");
    assert_eq!(event.truncated_jobs, 0, "{event:?}");
    assert_eq!(
        epoch,
        Fleet::new(three_node_fleet()).run(trace(), horizon),
        "default mode is the epoch path, bit for bit"
    );
    assert_eq!(
        event,
        Fleet::new(three_node_fleet()).run_events(trace(), horizon),
        "the flag selects the event engine, bit for bit"
    );
}

#[test]
fn heterogeneous_nodes_and_schedulers_coexist() {
    let cfg = FleetConfig::new(vec![
        NodeSpec::sgprs("sgprs", GpuSpec::rtx_2080_ti()),
        NodeSpec::sgprs("naive", GpuSpec::synthetic(34)).with_scheduler(SchedulerKind::Naive),
    ]);
    let mut fleet = Fleet::new(cfg);
    let trace = ChurnTrace::static_population((0..4).map(tenant));
    let m = fleet.run(trace, SimDuration::from_secs(2));
    assert!(m.total_fps > 0.0);
    assert_eq!(m.nodes.len(), 2);
    assert!(m.nodes.iter().all(|n| n.released > 0));
}
