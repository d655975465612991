//! Quickstart: schedule a handful of 30-fps ResNet18 cameras with SGPRS.
//!
//! Run with: `cargo run --release --example quickstart`

use sgprs_suite::core::{offline, ContextPoolSpec, SgprsConfig, SgprsScheduler};
use sgprs_suite::dnn::{models, CostModel};
use sgprs_suite::rt::{SimDuration, SimTime};

fn main() {
    // 1. The device partitioning: two CUDA contexts, 1.5x over-subscribed
    //    (each context gets 51 of the RTX 2080 Ti's 68 SMs).
    let pool = ContextPoolSpec::new(2, 1.5);
    println!("context pool: {:?} SMs", pool.sm_allocations());

    // 2. The offline phase: split ResNet18 into the paper's six stages,
    //    profile per-stage WCETs, assign virtual deadlines and the
    //    two-level priorities.
    let net = models::resnet18(1, 224);
    let task = offline::compile_network_task(
        "camera",
        &net,
        &CostModel::calibrated(),
        6,
        SimDuration::from_micros(33_333), // 30 fps, implicit deadline
        &pool,
    )
    .expect("resnet18 splits into six stages");
    println!(
        "task WCET: {} over {} stages",
        task.spec.total_stage_wcet(),
        task.stage_count()
    );
    for (j, s) in task.spec.stages.iter().enumerate() {
        println!(
            "  stage {j}: wcet={} virtual-deadline={} priority={}",
            s.wcet, s.virtual_deadline, s.priority
        );
    }

    // 3. The online phase: eight identical cameras for two simulated
    //    seconds.
    let tasks = vec![task; 8];
    let mut scheduler = SgprsScheduler::new(SgprsConfig::new(pool), tasks);
    let metrics = scheduler.run(SimTime::ZERO + SimDuration::from_secs(2));

    println!();
    println!("total FPS:          {:.1}", metrics.total_fps);
    println!("deadline miss rate: {:.2}%", metrics.dmr * 100.0);
    println!("median response:    {}", metrics.response_p50);
    println!("p95 response:       {}", metrics.response_p95);
    assert!(
        metrics.is_miss_free(),
        "8 cameras fit comfortably at np=2, os=1.5"
    );
    println!("all deadlines met");
}
