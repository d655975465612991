//! Criterion bench for **Figure 3** (Scenario 1, `np = 2`): measures the
//! cost of representative sweep points for every curve. The companion
//! binary `fig3_scenario1` regenerates the full figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgprs_workload::{ScenarioSpec, SchedulerKind};
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_scenario1");
    group.sample_size(10);
    for (label, kind) in [
        ("naive", SchedulerKind::Naive),
        (
            "sgprs_1.5",
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
        ),
    ] {
        for n_tasks in [8usize, 24] {
            let spec = ScenarioSpec::new(2, kind, 1);
            group.bench_with_input(BenchmarkId::new(label, n_tasks), &n_tasks, |b, &n| {
                b.iter(|| black_box(spec.run(n)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
