//! Over-subscription tuning: sweep the `os` factor to find the sweet spot
//! for a given context count — reproducing the paper's §V observation
//! that "the highest over-subscription will not [always] lead to the best
//! performance".
//!
//! Run with: `cargo run --release --example oversubscription_tuning`

use sgprs_suite::workload::{ScenarioSpec, SchedulerKind};

fn main() {
    let n_tasks = 26; // just past the paper's Scenario-2 pivot point
    println!("np=3 contexts, {n_tasks} ResNet18 tasks at 30 fps, 5-second runs");
    println!("{:>5}  {:>10}  {:>8}", "os", "total FPS", "DMR");
    let mut best = (0.0f64, 0.0f64);
    for os in [1.0, 1.25, 1.5, 1.75, 2.0] {
        let spec = ScenarioSpec::new(
            3,
            SchedulerKind::Sgprs {
                oversubscription: os,
            },
            5,
        );
        let m = spec.run(n_tasks);
        println!("{os:>5.2}  {:>10.1}  {:>7.1}%", m.total_fps, m.dmr * 100.0);
        if m.total_fps > best.1 {
            best = (os, m.total_fps);
        }
    }
    println!();
    println!(
        "sweet spot: os = {:.2} ({:.0} fps) — more over-subscription is not always better",
        best.0, best.1
    );
}
