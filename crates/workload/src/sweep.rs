//! Task-count sweeps: one scenario evaluated at many task counts.
//!
//! Figures 3 and 4 plot total FPS and DMR against the number of tasks.
//! [`run_sweeps`] produces those curves for several scenarios, fanned out
//! over worker threads.

use crate::ScenarioSpec;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sgprs_core::RunMetrics;

/// One point of a sweep curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Number of concurrent tasks.
    pub tasks: usize,
    /// Total frames per second achieved.
    pub total_fps: f64,
    /// Deadline-miss rate in `[0, 1]`.
    pub dmr: f64,
    /// Raw released/completed/missed counters for deeper analysis.
    pub released: u64,
    /// Completed jobs inside the window.
    pub completed: u64,
    /// Late completions plus skipped releases.
    pub missed: u64,
}

impl SweepPoint {
    /// Builds a point from run metrics.
    #[must_use]
    pub fn from_metrics(tasks: usize, m: &RunMetrics) -> Self {
        SweepPoint {
            tasks,
            total_fps: m.total_fps,
            dmr: m.dmr,
            released: m.released,
            completed: m.completed,
            missed: m.late + m.skipped,
        }
    }
}

/// A full sweep curve for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSeries {
    /// Curve label (from the scenario).
    pub label: String,
    /// Points in ascending task count.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// The paper's *pivot point*: the largest task count handled without a
    /// single deadline miss. Returns 0 when even one task misses.
    #[must_use]
    pub fn pivot_point(&self) -> usize {
        let mut pivot = 0;
        for p in &self.points {
            if p.missed == 0 {
                pivot = pivot.max(p.tasks);
            } else {
                break;
            }
        }
        pivot
    }

    /// FPS at the largest task count in the sweep (the right edge of the
    /// figures, where the paper quotes its plateau numbers).
    #[must_use]
    pub fn final_fps(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.total_fps)
    }

    /// DMR at the largest task count.
    #[must_use]
    pub fn final_dmr(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.dmr)
    }
}

/// Runs several scenarios over the same task counts, parallelising across
/// (scenario, task-count) pairs with scoped worker threads.
///
/// Results are returned in the scenarios' input order with points sorted
/// by task count, so output is deterministic regardless of thread timing.
#[must_use]
pub fn run_sweeps(scenarios: &[ScenarioSpec], task_counts: &[usize]) -> Vec<SweepSeries> {
    let jobs: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|s| task_counts.iter().map(move |&n| (s, n)))
        .collect();
    let next = Mutex::new(0usize);
    let results: Mutex<Vec<(usize, SweepPoint)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(jobs.len().max(1));
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let job = {
                    let mut guard = next.lock();
                    if *guard >= jobs.len() {
                        break;
                    }
                    let j = jobs[*guard];
                    *guard += 1;
                    j
                };
                let (scenario_idx, n) = job;
                let metrics = scenarios[scenario_idx].run(n);
                results
                    .lock()
                    .push((scenario_idx, SweepPoint::from_metrics(n, &metrics)));
            });
        }
    })
    .expect("sweep workers never panic");
    let mut series: Vec<SweepSeries> = scenarios
        .iter()
        .map(|s| SweepSeries {
            label: s.label.clone(),
            points: Vec::new(),
        })
        .collect();
    for (idx, point) in results.into_inner() {
        series[idx].points.push(point);
    }
    for s in &mut series {
        s.points.sort_by_key(|p| p.tasks);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario1_variants, ScenarioSpec, SchedulerKind};

    #[test]
    fn pivot_point_is_last_clean_count() {
        let series = SweepSeries {
            label: "x".into(),
            points: vec![
                SweepPoint {
                    tasks: 1,
                    total_fps: 30.0,
                    dmr: 0.0,
                    released: 30,
                    completed: 30,
                    missed: 0,
                },
                SweepPoint {
                    tasks: 2,
                    total_fps: 60.0,
                    dmr: 0.0,
                    released: 60,
                    completed: 60,
                    missed: 0,
                },
                SweepPoint {
                    tasks: 3,
                    total_fps: 80.0,
                    dmr: 0.1,
                    released: 90,
                    completed: 85,
                    missed: 9,
                },
            ],
        };
        assert_eq!(series.pivot_point(), 2);
        assert!((series.final_fps() - 80.0).abs() < 1e-9);
        assert!((series.final_dmr() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn pivot_point_zero_when_first_point_misses() {
        let series = SweepSeries {
            label: "x".into(),
            points: vec![SweepPoint {
                tasks: 1,
                total_fps: 10.0,
                dmr: 0.5,
                released: 30,
                completed: 20,
                missed: 15,
            }],
        };
        assert_eq!(series.pivot_point(), 0);
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let s = ScenarioSpec::new(
            2,
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
            1,
        );
        let counts = [1, 3, 5];
        let seq: Vec<SweepPoint> = counts
            .iter()
            .map(|&n| SweepPoint::from_metrics(n, &s.run(n)))
            .collect();
        let par = run_sweeps(std::slice::from_ref(&s), &counts);
        assert_eq!(
            seq, par[0].points,
            "determinism across execution strategies"
        );
    }

    #[test]
    fn sweeps_keep_scenario_order() {
        let variants = scenario1_variants(1);
        let series = run_sweeps(&variants[..2], &[1]);
        assert_eq!(series[0].label, variants[0].label);
        assert_eq!(series[1].label, variants[1].label);
        assert_eq!(series[0].points.len(), 1);
    }
}
