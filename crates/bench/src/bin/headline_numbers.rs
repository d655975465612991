//! Regenerates the **§V prose numbers**: per-scenario pivot points,
//! plateau FPS at 30 tasks, the naive baseline's FPS drop against the best
//! SGPRS variant, and the Scenario-2 os=1.5 vs os=2.0 comparison.
//!
//! Paper values for reference:
//! * best-case pivot points: 23 tasks (Scenario 1) and 24 tasks (Scenario 2)
//! * naive plateau: 468 fps (S1) and 459 fps (S2) — a 38 % / 36 % drop
//!   versus the best SGPRS variants
//! * Scenario 2: SGPRS 1.5 reaches 741 fps, above SGPRS 2.0 at 731 fps
//!
//! Usage: `cargo run --release -p sgprs-bench --bin headline_numbers [--sim-secs N]`

use sgprs_bench::{paper_task_counts, parse_args};
use sgprs_workload::{report, scenario1_variants, scenario2_variants, sweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sim_secs, _) = parse_args(&args);
    let counts = paper_task_counts();

    for (name, variants, paper_pivot, paper_naive, paper_drop) in [
        (
            "Scenario 1 (np=2)",
            scenario1_variants(sim_secs),
            23,
            468.0,
            38.0,
        ),
        (
            "Scenario 2 (np=3)",
            scenario2_variants(sim_secs),
            24,
            459.0,
            36.0,
        ),
    ] {
        println!("== {name} ==");
        let series = sweep::run_sweeps(&variants, &counts);
        print!("{}", report::headline_summary(&series));
        let best_pivot = series
            .iter()
            .filter(|s| !s.label.starts_with("naive"))
            .map(sgprs_workload::sweep::SweepSeries::pivot_point)
            .max()
            .unwrap_or(0);
        println!(
            "paper: best pivot {paper_pivot} tasks, naive plateau {paper_naive:.0} fps ({paper_drop:.0}% below best SGPRS)"
        );
        println!("measured best pivot: {best_pivot} tasks");
        if name.starts_with("Scenario 2") {
            let fps_of = |needle: &str| {
                series
                    .iter()
                    .find(|s| s.label.starts_with(needle))
                    .map(sgprs_workload::sweep::SweepSeries::final_fps)
                    .unwrap_or(0.0)
            };
            let f15 = fps_of("SGPRS 1.5");
            let f20 = fps_of("SGPRS 2.0");
            println!(
                "over-subscription sweet spot: SGPRS 1.5 = {f15:.0} fps vs SGPRS 2.0 = {f20:.0} fps (paper: 741 vs 731)"
            );
        }
        println!();
    }
}
