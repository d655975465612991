//! Criterion bench for **Figure 4** (Scenario 2, `np = 3`): measures
//! representative sweep points, including the paper's os=1.5 vs os=2.0
//! sweet-spot pair at full load. The companion binary `fig4_scenario2`
//! regenerates the full figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgprs_workload::{ScenarioSpec, SchedulerKind};
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_scenario2");
    group.sample_size(10);
    for (label, kind) in [
        ("naive", SchedulerKind::Naive),
        (
            "sgprs_1.5",
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
        ),
        (
            "sgprs_2.0",
            SchedulerKind::Sgprs {
                oversubscription: 2.0,
            },
        ),
    ] {
        for n_tasks in [15usize, 30] {
            let spec = ScenarioSpec::new(3, kind, 1);
            group.bench_with_input(BenchmarkId::new(label, n_tasks), &n_tasks, |b, &n| {
                b.iter(|| black_box(spec.run(n)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
