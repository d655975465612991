//! Microbenchmarks of the scheduler's hot paths: EDF queues, job release
//! with absolute-deadline stamping, kernel submission + processor-sharing
//! reflow, and offline compilation.

use criterion::{criterion_group, criterion_main, Criterion};
use sgprs_core::{offline, ContextPoolSpec};
use sgprs_dnn::{models, CostModel};
use sgprs_gpu_sim::{
    ContentionModel, ContextConfig, ContextId, GpuEngine, GpuSpec, KernelDesc, OpClass,
    StreamClass, WorkProfile,
};
use sgprs_rt::{EdfQueue, PriorityBands, PriorityLevel, ReleaseTemplate, SimDuration, SimTime};
use std::hint::black_box;

fn bench_queues(c: &mut Criterion) {
    c.bench_function("hot/edf_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EdfQueue::new();
            for i in 0u64..1_000 {
                q.push(i, SimTime::from_nanos((i * 2_654_435_761) % 1_000_000));
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.item);
            }
            black_box(acc)
        })
    });

    c.bench_function("hot/priority_bands_mixed_1k", |b| {
        b.iter(|| {
            let mut bands = PriorityBands::new();
            for i in 0u64..1_000 {
                let level = match i % 3 {
                    0 => PriorityLevel::High,
                    1 => PriorityLevel::Medium,
                    _ => PriorityLevel::Low,
                };
                bands.push(level, i, SimTime::from_nanos(i * 7 % 50_000));
            }
            let mut acc = 0u64;
            while let Some((_, e)) = bands.pop() {
                acc = acc.wrapping_add(e.item);
            }
            black_box(acc)
        })
    });
}

fn bench_release(c: &mut Criterion) {
    let pool = ContextPoolSpec::new(2, 1.5);
    let task = offline::compile_network_task(
        "t",
        &models::resnet18(1, 224),
        &CostModel::calibrated(),
        6,
        SimDuration::from_micros(33_333),
        &pool,
    )
    .expect("six stages");
    let template = ReleaseTemplate::new(&task.spec);
    c.bench_function("hot/job_release_with_deadlines", |b| {
        b.iter(|| black_box(template.release(0, SimTime::from_nanos(12345), Vec::new())))
    });
    c.bench_function("hot/offline_compile_resnet18_6_stages", |b| {
        b.iter(|| {
            black_box(
                offline::compile_network_task(
                    "t",
                    &models::resnet18(1, 224),
                    &CostModel::calibrated(),
                    6,
                    SimDuration::from_micros(33_333),
                    &pool,
                )
                .expect("six stages"),
            )
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("hot/engine_submit_drain_256", |b| {
        b.iter(|| {
            let mut e = GpuEngine::builder(GpuSpec::rtx_2080_ti())
                .contention_model(ContentionModel::ideal())
                .context(ContextConfig::new(34))
                .context(ContextConfig::new(34))
                .build();
            let mut done = 0;
            for i in 0..256 {
                let ctx = ContextId(i % 2);
                let class = if i % 4 < 2 {
                    StreamClass::High
                } else {
                    StreamClass::Low
                };
                let desc =
                    KernelDesc::new("k", WorkProfile::single(OpClass::Convolution, 100_000.0));
                while e.submit(ctx, class, desc.clone()).is_err() {
                    e.run_next();
                    done += 1;
                }
            }
            done += e.drain().len();
            black_box(done)
        })
    });
}

criterion_group!(benches, bench_queues, bench_release, bench_engine);
criterion_main!(benches);
