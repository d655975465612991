//! Multi-tenant inference: a heterogeneous model zoo (ResNet18, MobileNet,
//! AlexNet) sharing one GPU, comparing SGPRS against the naive spatial
//! partitioner — the paper's motivating deployment, §I.
//!
//! Run with: `cargo run --release --example multi_tenant_inference`

use sgprs_suite::core::{ContextPoolSpec, RunMetrics};
use sgprs_suite::core::{NaiveConfig, NaiveScheduler, SgprsConfig, SgprsScheduler};
use sgprs_suite::rt::{SimDuration, SimTime};
use sgprs_suite::workload::generator;

fn print_metrics(label: &str, m: &RunMetrics) {
    println!(
        "{label:<8} total FPS = {:>6.1}   DMR = {:>5.1}%   p95 response = {}",
        m.total_fps,
        m.dmr * 100.0,
        m.response_p95
    );
    for t in &m.per_task {
        println!(
            "  {:<14} {:>5.1} fps  ({} completed, {} missed)",
            t.name, t.fps, t.completed, t.missed
        );
    }
}

fn main() {
    let pool = ContextPoolSpec::new(3, 1.5);
    // Twelve tenants cycling through three architectures at 30 fps, each
    // split into four stages.
    let tasks = generator::mixed_model_tasks(12, 30.0, 4, &pool);
    let end = SimTime::ZERO + SimDuration::from_secs(3);

    let mut sgprs = SgprsScheduler::new(SgprsConfig::new(pool.clone()), tasks.clone());
    let sgprs_metrics = sgprs.run(end);
    print_metrics("SGPRS", &sgprs_metrics);

    println!();
    let mut naive = NaiveScheduler::new(NaiveConfig::new(3), tasks);
    let naive_metrics = naive.run(end);
    print_metrics("naive", &naive_metrics);

    println!();
    println!(
        "SGPRS misses {} deadlines, the naive spatial partitioner misses {}",
        sgprs_metrics.late + sgprs_metrics.skipped + sgprs_metrics.dropped,
        naive_metrics.late + naive_metrics.skipped + naive_metrics.dropped,
    );
}
