//! Criterion bench for fleet **scale-out**: the per-arrival planning
//! hot path at 256–1024 nodes — flat O(nodes) scan vs the ordered
//! shard scan vs power-of-two-choices routing (whose cost is
//! independent of the shard count, so its `dispatch_plan` line should
//! stay flat from 256 to 1024 nodes while the flat scan grows
//! linearly) — plus sequential vs parallel per-epoch node execution
//! (the per-epoch wall-clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgprs_cluster::{
    ChurnTrace, DispatchOutcome, Fleet, FleetConfig, ModelKind, NodeSpec, ShardRouter, TenantSpec,
};
use sgprs_gpu_sim::GpuSpec;
use sgprs_rt::SimDuration;
use std::hint::black_box;

fn node_specs(n_nodes: usize) -> Vec<NodeSpec> {
    (0..n_nodes)
        .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
        .collect()
}

/// How the benched fleet routes arrivals.
#[derive(Clone, Copy)]
enum Dispatch {
    Flat,
    Sharded(usize, ShardRouter),
}

/// A fleet pre-loaded through its own dispatcher so shard summaries and
/// resident populations match a live serving state.
fn loaded_fleet(n_nodes: usize, resident_per_node: usize, dispatch: Dispatch) -> Fleet {
    let mut cfg = FleetConfig::new(node_specs(n_nodes));
    cfg = match dispatch {
        Dispatch::Flat => cfg,
        Dispatch::Sharded(size, ShardRouter::Scan) => cfg.with_sharding(size),
        Dispatch::Sharded(size, ShardRouter::P2c) => cfg.with_p2c_sharding(size),
    };
    let mut fleet = Fleet::new(cfg);
    for i in 0..n_nodes * resident_per_node {
        let outcome = fleet.dispatch(TenantSpec::new(format!("t-{i}"), ModelKind::ResNet18, 30.0));
        assert!(
            matches!(outcome, DispatchOutcome::Placed(_)),
            "pre-load stays under admission capacity"
        );
    }
    fleet
}

/// The per-arrival placement decision (no commit): flat O(nodes) scan
/// vs the ordered shard scan vs power-of-two-choices routing, at the
/// 256/512/1024-node sizes the metro scenario dispatches in.
fn bench_dispatch_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_plan");
    group.sample_size(10);
    let candidate = TenantSpec::new("probe", ModelKind::ResNet18, 30.0);
    for n_nodes in [256usize, 512, 1024] {
        for (label, dispatch) in [
            ("flat", Dispatch::Flat),
            ("sharded8", Dispatch::Sharded(8, ShardRouter::Scan)),
            ("p2c8", Dispatch::Sharded(8, ShardRouter::P2c)),
        ] {
            let mut fleet = loaded_fleet(n_nodes, 8, dispatch);
            group.bench_with_input(BenchmarkId::new(label, n_nodes), &n_nodes, |b, _| {
                b.iter(|| black_box(fleet.plan(black_box(&candidate))))
            });
        }
    }
    group.finish();
}

/// One simulated epoch over a 16-node fleet: sequential node loop vs the
/// scoped-thread fan-out (results are bit-identical; only wall-clock
/// differs).
fn bench_epoch_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_epoch");
    group.sample_size(10);
    for (label, parallel) in [("sequential", false), ("parallel", true)] {
        let mut cfg = FleetConfig::new(node_specs(16));
        if !parallel {
            cfg = cfg.with_workers(1);
        }
        let mut fleet = Fleet::new(cfg);
        for i in 0..16 * 8 {
            let outcome =
                fleet.dispatch(TenantSpec::new(format!("t-{i}"), ModelKind::ResNet18, 30.0));
            assert!(matches!(outcome, DispatchOutcome::Placed(_)));
        }
        group.bench_function(label, |b| {
            b.iter(|| black_box(fleet.run(ChurnTrace::new(), SimDuration::from_secs(1))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_plan, bench_epoch_execution);
criterion_main!(benches);
