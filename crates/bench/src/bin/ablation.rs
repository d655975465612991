//! **Ablation study** (beyond the paper): how much each SGPRS design
//! choice contributes. Runs Scenario 2's best configuration (np=3,
//! os=1.5) with individual features disabled:
//!
//! * `no-medium` — disable the medium-priority promotion rule (§IV-B3).
//! * `fifo` — replace EDF with FIFO inside each priority band.
//! * `1-stage` — no stage splitting (whole network as one sub-task).
//!
//! Usage: `cargo run --release -p sgprs-bench --bin ablation [--sim-secs N]`

use sgprs_core::{QueueOrder, RunMetrics, SgprsConfig, SgprsScheduler};
use sgprs_dnn::models;
use sgprs_rt::{SimDuration, SimTime};
use sgprs_workload::generator::compile_model_task;
use sgprs_workload::{ScenarioSpec, SchedulerKind};

fn run_with(
    label: &str,
    stages: usize,
    tweak: impl Fn(&mut SgprsConfig),
    n_tasks: usize,
    sim_secs: u64,
) -> (String, RunMetrics) {
    let spec = ScenarioSpec::new(
        3,
        SchedulerKind::Sgprs {
            oversubscription: 1.5,
        },
        sim_secs,
    );
    let net = models::resnet18(1, 224);
    let task = compile_model_task("resnet18", &net, spec.fps, stages, &spec.pool());
    let mut cfg = SgprsConfig::new(spec.pool());
    tweak(&mut cfg);
    let mut sched = SgprsScheduler::new(cfg, vec![task; n_tasks]);
    let m = sched.run(SimTime::ZERO + SimDuration::from_secs(sim_secs));
    (label.to_owned(), m)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sim_secs, _) = sgprs_bench::parse_args(&args);
    println!("== Ablation: SGPRS np=3 os=1.5, 26 tasks (just past the pivot) ==");
    println!(
        "{:<12} {:>10} {:>8} {:>8} {:>8}",
        "variant", "total FPS", "DMR", "late", "skipped"
    );
    let n = 26;
    let variants: Vec<(String, RunMetrics)> = vec![
        run_with("full", 6, |_| {}, n, sim_secs),
        run_with("no-medium", 6, |c| c.medium_promotion = false, n, sim_secs),
        run_with("fifo", 6, |c| c.queue_order = QueueOrder::Fifo, n, sim_secs),
        run_with("1-stage", 1, |_| {}, n, sim_secs),
    ];
    for (label, m) in &variants {
        println!(
            "{:<12} {:>10.1} {:>7.1}% {:>8} {:>8}",
            label,
            m.total_fps,
            m.dmr * 100.0,
            m.late,
            m.skipped
        );
    }
}
