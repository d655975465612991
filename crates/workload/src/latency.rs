//! Response-time distribution experiments.
//!
//! The paper evaluates FPS and DMR; production users also care *how* late
//! the late frames are. This module runs one scenario point and extracts
//! a response-time CDF plus summary percentiles for each scheduler.

use crate::scenario::variants_for;
use serde::{Deserialize, Serialize};
use sgprs_core::RunMetrics;
use sgprs_rt::SimDuration;

/// Summary of one scheduler's response-time behaviour at a load point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Curve label.
    pub label: String,
    /// Number of tasks.
    pub tasks: usize,
    /// Total FPS (context for the latency numbers).
    pub total_fps: f64,
    /// Median response.
    pub p50: SimDuration,
    /// 95th percentile response.
    pub p95: SimDuration,
    /// Worst observed response.
    pub max: SimDuration,
    /// Fraction of completed jobs that finished within the period.
    pub on_time_fraction: f64,
}

impl LatencySummary {
    /// Builds the summary from run metrics.
    #[must_use]
    pub fn from_metrics(label: &str, tasks: usize, m: &RunMetrics) -> Self {
        LatencySummary {
            label: label.to_owned(),
            tasks,
            total_fps: m.total_fps,
            p50: m.response_p50,
            p95: m.response_p95,
            max: m.response_max,
            on_time_fraction: if m.completed > 0 {
                m.met as f64 / m.completed as f64
            } else {
                0.0
            },
        }
    }
}

/// Runs every scheduler variant at one task count and summarises
/// response-time behaviour.
#[must_use]
pub fn compare_at(contexts: usize, tasks: usize, sim_secs: u64) -> Vec<LatencySummary> {
    variants_for(contexts, sim_secs)
        .iter()
        .map(|spec| {
            let m = spec.run(tasks);
            LatencySummary::from_metrics(&spec.label, tasks, &m)
        })
        .collect()
}

/// Renders latency summaries as a fixed-width table.
#[must_use]
pub fn render(summaries: &[LatencySummary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>6} {:>10} {:>12} {:>12} {:>12} {:>9}\n",
        "scheduler", "tasks", "FPS", "p50", "p95", "max", "on-time"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<22} {:>6} {:>10.1} {:>12} {:>12} {:>12} {:>8.1}%\n",
            s.label,
            s.tasks,
            s.total_fps,
            s.p50.to_string(),
            s.p95.to_string(),
            s.max.to_string(),
            s.on_time_fraction * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_cover_all_variants() {
        let s = compare_at(2, 4, 1);
        assert_eq!(s.len(), 4);
        assert!(s[0].label.starts_with("naive"));
        assert!(s.iter().all(|x| x.tasks == 4));
    }

    #[test]
    fn light_load_is_all_on_time() {
        let s = compare_at(2, 2, 1);
        for x in &s {
            assert!(
                (x.on_time_fraction - 1.0).abs() < 1e-9,
                "{}: {:.3}",
                x.label,
                x.on_time_fraction
            );
            assert!(x.p50 <= x.p95);
            assert!(x.p95 <= x.max);
        }
    }

    #[test]
    fn render_is_one_row_per_summary() {
        let s = compare_at(2, 2, 1);
        let table = render(&s);
        assert_eq!(table.lines().count(), 1 + s.len());
        assert!(table.contains("on-time"));
    }

    #[test]
    fn overloaded_naive_has_worse_tail_than_sgprs() {
        let s = compare_at(2, 24, 2);
        let naive = &s[0];
        let best_sgprs = &s[3];
        assert!(
            naive.on_time_fraction <= best_sgprs.on_time_fraction + 1e-9,
            "naive on-time {:.2} vs sgprs {:.2}",
            naive.on_time_fraction,
            best_sgprs.on_time_fraction
        );
    }
}
