//! Criterion bench for the **event-driven fleet core**: the same
//! serving scenario executed on the epoch grid vs the discrete-event
//! engine (`Fleet::run_events`). The event path replaces per-epoch
//! scheduler reconstruction with a fluid job model on a binary-heap
//! event queue, so its wall-clock scales with event volume (releases ×
//! tenants) instead of epoch count × scheduler state — this bench keeps
//! both on the same trace so the trade is visible.

use criterion::{criterion_group, criterion_main, Criterion};
use sgprs_cluster::{
    ChurnTrace, DispatchOutcome, Fleet, FleetConfig, ModelKind, NodeSpec, TenantSpec,
};
use sgprs_gpu_sim::GpuSpec;
use sgprs_rt::SimDuration;
use std::hint::black_box;

fn loaded_fleet() -> Fleet {
    let cfg = FleetConfig::new(
        (0..4)
            .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
            .collect(),
    );
    let mut fleet = Fleet::new(cfg);
    for i in 0..4 * 8 {
        let outcome = fleet.dispatch(TenantSpec::new(format!("t-{i}"), ModelKind::ResNet18, 30.0));
        assert!(matches!(outcome, DispatchOutcome::Placed(_)));
    }
    fleet
}

/// One simulated second of a 4-node, 32-tenant fleet: epoch grid vs
/// event queue.
fn bench_event_vs_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_events");
    group.sample_size(10);
    group.bench_function("epoch_1s", |b| {
        let mut fleet = loaded_fleet();
        b.iter(|| black_box(fleet.run(ChurnTrace::new(), SimDuration::from_secs(1))));
    });
    group.bench_function("event_1s", |b| {
        let mut fleet = loaded_fleet();
        b.iter(|| black_box(fleet.run_events(ChurnTrace::new(), SimDuration::from_secs(1))));
    });
    group.finish();
}

criterion_group!(benches, bench_event_vs_epoch);
criterion_main!(benches);
