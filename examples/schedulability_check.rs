//! Schedulability check: predict — without simulating — how many 30-fps
//! ResNet18 tasks a pool configuration can sustain, then verify the
//! prediction with a short simulation.
//!
//! Run with: `cargo run --release --example schedulability_check`

use sgprs_suite::core::{analysis, offline, ContextPoolSpec, SgprsConfig, SgprsScheduler};
use sgprs_suite::dnn::{models, CostModel};
use sgprs_suite::rt::{SimDuration, SimTime};

fn main() {
    println!(
        "{:>4} {:>5} {:>14} {:>12} {:>16}",
        "np", "os", "capacity(fps)", "fluid bound", "bound holds?"
    );
    for (np, os) in [
        (2usize, 1.0f64),
        (2, 1.5),
        (2, 2.0),
        (3, 1.0),
        (3, 1.5),
        (3, 2.0),
    ] {
        let pool = ContextPoolSpec::new(np, os);
        let task = offline::compile_network_task(
            "t",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &pool,
        )
        .expect("six stages");
        let est = analysis::estimate_capacity(&task, &pool, 30.0, 4.0);

        // The fluid estimate ignores queueing and jitter, so it is an
        // *upper bound* on the real pivot: above it the set must miss
        // deadlines, and a 15% margin below it should be safe.
        let above_misses = !run(&pool, &task, est.pivot_tasks + 2);
        let margin_clean = run(&pool, &task, ((est.pivot_tasks as f64) * 0.85) as usize);
        let verdict = match (above_misses, margin_clean) {
            (true, true) => "yes",
            (true, false) => "margin tight",
            _ => "VIOLATED",
        };
        println!(
            "{np:>4} {os:>5.1} {:>14.0} {:>12} {verdict:>16}",
            est.max_fps, est.pivot_tasks
        );
    }
    println!();
    println!("fluid bound = upper bound on the pivot point: loads above it must miss,");
    println!("and 85% of it is expected to be schedulable");
}

fn run(pool: &ContextPoolSpec, task: &sgprs_suite::core::CompiledTask, n: usize) -> bool {
    let mut s = SgprsScheduler::new(SgprsConfig::new(pool.clone()), vec![task.clone(); n]);
    let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
    m.is_miss_free()
}
