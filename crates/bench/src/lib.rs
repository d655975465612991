//! Shared helpers for the SGPRS benchmark binaries and Criterion benches.
//!
//! The binaries regenerate the paper's figures:
//!
//! * `fig1_speedup` — Figure 1 (per-operation speedup vs SM count).
//! * `fig3_scenario1` — Figure 3 (total FPS and DMR, `np = 2`).
//! * `fig4_scenario2` — Figure 4 (total FPS and DMR, `np = 3`).
//! * `headline_numbers` — the §V prose numbers (pivot points, plateaus,
//!   FPS-drop percentages).
//! * `ablation` — design-choice ablations beyond the paper.
//!
//! The fleet-scale bins (`fleet`, `fleet_stream`) print each run's
//! wall-clock next to its deterministic results. The [`report`] module
//! holds the counting allocator that the pinned-counter tests
//! (`tests/paper_layer_allocs.rs`, `tests/event_engine_counters.rs`)
//! and the repository benchmark install.

// `deny`, not `forbid`: the counting global allocator in [`report`]
// carries the one justified `#[allow(unsafe_code)]` in this crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use sgprs_workload::sweep::SweepSeries;

/// The task counts swept in Figures 3 and 4 (1..=30).
#[must_use]
pub fn paper_task_counts() -> Vec<usize> {
    (1..=30).collect()
}

/// Default simulated seconds per sweep point for binaries. Ten simulated
/// seconds ≈ 300 releases per task, enough for stable FPS/DMR estimates.
pub const DEFAULT_SIM_SECS: u64 = 10;

/// Parses a `--sim-secs N` / `--csv` style argument list shared by the
/// figure binaries. Returns `(sim_secs, csv)`.
#[must_use]
pub fn parse_args(args: &[String]) -> (u64, bool) {
    let mut sim_secs = DEFAULT_SIM_SECS;
    let mut csv = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sim-secs" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    sim_secs = v;
                    i += 1;
                }
            }
            "--csv" => csv = true,
            _ => {}
        }
        i += 1;
    }
    (sim_secs, csv)
}

/// Emits a sweep in the selected format on stdout, FPS table first, then
/// DMR (the `a` and `b` halves of the paper's figures).
pub fn print_sweep(series: &[SweepSeries], csv: bool, figure: &str) {
    use sgprs_workload::report;
    if csv {
        print!("{}", report::sweep_csv(series));
        return;
    }
    println!("== {figure}a: total FPS ==");
    println!(
        "{}",
        report::sweep_table(series, report::SweepMetric::TotalFps)
    );
    println!("== {figure}b: deadline miss rate ==");
    println!("{}", report::sweep_table(series, report::SweepMetric::Dmr));
    println!("== summary ==");
    print!("{}", report::headline_summary(series));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_cover_one_to_thirty() {
        let c = paper_task_counts();
        assert_eq!(c.first(), Some(&1));
        assert_eq!(c.last(), Some(&30));
        assert_eq!(c.len(), 30);
    }

    #[test]
    fn parse_args_defaults_and_overrides() {
        assert_eq!(parse_args(&[]), (DEFAULT_SIM_SECS, false));
        let args: Vec<String> = ["--sim-secs", "3", "--csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&args), (3, true));
        let junk: Vec<String> = ["--sim-secs", "abc"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&junk), (DEFAULT_SIM_SECS, false));
    }
}
