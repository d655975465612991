//! Criterion bench for the fleet **dispatch hot path**: admission
//! evaluation and placement over many nodes — the per-arrival cost a
//! serving front-end pays before any GPU work happens.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgprs_cluster::{
    AdmissionController, FleetNode, ModelKind, NodeSpec, PlacementPolicy, Placer, TenantSpec,
};
use sgprs_gpu_sim::GpuSpec;
use std::hint::black_box;

fn fleet(n_nodes: usize, resident_per_node: usize) -> Vec<FleetNode> {
    (0..n_nodes)
        .map(|i| {
            let mut node =
                FleetNode::new(NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()));
            for j in 0..resident_per_node {
                node.tenants.push(TenantSpec::new(
                    format!("t-{i}-{j}"),
                    ModelKind::ResNet18,
                    30.0,
                ));
            }
            node
        })
        .collect()
}

fn bench_admission(c: &mut Criterion) {
    let ctl = AdmissionController::default();
    let node = &fleet(1, 12)[0];
    let candidate = TenantSpec::new("new", ModelKind::MobileNet, 30.0);
    c.bench_function("admission_evaluate_12_resident", |b| {
        b.iter(|| black_box(ctl.evaluate(black_box(node), black_box(&candidate))))
    });
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.sample_size(10);
    for n_nodes in [4usize, 16, 64] {
        let nodes = fleet(n_nodes, 8);
        let ctl = AdmissionController::default();
        let candidate = TenantSpec::new("new", ModelKind::ResNet18, 30.0);
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastUtilization,
            PlacementPolicy::BestFit,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{policy}"), n_nodes),
                &n_nodes,
                |b, _| {
                    let mut placer = Placer::new(policy);
                    b.iter(|| black_box(placer.place(&nodes, &candidate, &ctl)))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_admission, bench_placement);
criterion_main!(benches);
