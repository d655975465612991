//! Evaluation metrics: total FPS and deadline-miss rate (§V).
//!
//! The paper compares schedulers on two metrics over a measurement window:
//!
//! * **Total FPS** — completed inferences per second across all tasks.
//! * **DMR** — the fraction of releases that missed their deadline, where
//!   a *skipped* release (the previous job was still in flight, so the
//!   frame was dropped) counts as a miss, and a job that completes after
//!   its absolute deadline counts as a miss.

use serde::{Deserialize, Serialize};
use sgprs_rt::{SimDuration, SimTime};

/// Aggregated results of one scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Length of the measurement window (excluding warm-up).
    pub window: SimDuration,
    /// Releases inside the window (including skipped ones).
    pub released: u64,
    /// Jobs completed inside the window.
    pub completed: u64,
    /// Completed jobs that met their deadline.
    pub met: u64,
    /// Completed jobs that missed their deadline.
    pub late: u64,
    /// Releases skipped because the previous job was still in flight.
    pub skipped: u64,
    /// Admitted jobs aborted because their deadline passed before they
    /// finished (SGPRS drops hopeless frames instead of serving stale
    /// work; the naive baseline never does — the domino effect).
    pub dropped: u64,
    /// Total frames per second: `completed / window`.
    pub total_fps: f64,
    /// Deadline-miss rate: `(late + skipped + dropped) / released`.
    pub dmr: f64,
    /// Median response time of completed jobs.
    pub response_p50: SimDuration,
    /// 95th-percentile response time of completed jobs.
    pub response_p95: SimDuration,
    /// Worst observed response time.
    pub response_max: SimDuration,
    /// Every completed job's response time in nanoseconds, sorted
    /// ascending — the raw distribution behind the percentile fields,
    /// kept so downstream aggregators (the fleet's telemetry sketches)
    /// can fold full distributions instead of re-deriving them from
    /// three points.
    pub response_samples_ns: Vec<u64>,
    /// Per-task breakdown, indexed by task position in the input set.
    pub per_task: Vec<TaskMetrics>,
}

impl RunMetrics {
    /// `true` when not a single release missed its deadline — the
    /// condition defining the paper's *pivot point* (the largest task
    /// count for which this still holds).
    #[must_use]
    pub fn is_miss_free(&self) -> bool {
        self.late == 0 && self.skipped == 0 && self.dropped == 0
    }
}

/// Per-task slice of [`RunMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskMetrics {
    /// Task name.
    pub name: String,
    /// Releases inside the window.
    pub released: u64,
    /// Completions inside the window.
    pub completed: u64,
    /// Deadline misses (late + skipped).
    pub missed: u64,
    /// Achieved frames per second.
    pub fps: f64,
}

/// Streaming collector turning per-job outcomes into [`RunMetrics`].
///
/// All three schedulers (SGPRS, the naive baseline and the reconfiguring
/// partitioner) feed it the same four event kinds — release, skip, drop,
/// completion — through the shared release driver, so the paper's metrics
/// are computed identically for each.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    warmup_end: SimTime,
    task_names: Vec<String>,
    released: Vec<u64>,
    completed: Vec<u64>,
    met: Vec<u64>,
    late: Vec<u64>,
    skipped: Vec<u64>,
    dropped: Vec<u64>,
    responses_ns: Vec<u64>,
}

impl MetricsCollector {
    /// Creates a collector for tasks named `task_names`; jobs released
    /// before `warmup_end` are ignored entirely.
    #[must_use]
    pub fn new(task_names: Vec<String>, warmup_end: SimTime) -> Self {
        let n = task_names.len();
        MetricsCollector {
            warmup_end,
            task_names,
            released: vec![0; n],
            completed: vec![0; n],
            met: vec![0; n],
            late: vec![0; n],
            skipped: vec![0; n],
            dropped: vec![0; n],
            responses_ns: Vec::new(),
        }
    }

    /// `true` if a release at `t` falls inside the measurement window.
    #[must_use]
    pub fn in_window(&self, release: SimTime) -> bool {
        release >= self.warmup_end
    }

    /// Records a release (admitted or not) of task `task` at `release`.
    pub fn record_release(&mut self, task: usize, release: SimTime) {
        if self.in_window(release) {
            self.released[task] += 1;
        }
    }

    /// Records a skipped release (frame drop) of task `task`.
    pub fn record_skip(&mut self, task: usize, release: SimTime) {
        if self.in_window(release) {
            self.skipped[task] += 1;
        }
    }

    /// Records an admitted job of `task` (released at `release`) that was
    /// aborted because its deadline passed before it could finish.
    pub fn record_drop(&mut self, task: usize, release: SimTime) {
        if self.in_window(release) {
            self.dropped[task] += 1;
        }
    }

    /// Records a completion of a job of `task` released at `release` with
    /// the given completion instant and absolute deadline.
    pub fn record_completion(
        &mut self,
        task: usize,
        release: SimTime,
        completed: SimTime,
        deadline: SimTime,
    ) {
        if !self.in_window(release) {
            return;
        }
        self.completed[task] += 1;
        if completed <= deadline {
            self.met[task] += 1;
        } else {
            self.late[task] += 1;
        }
        self.responses_ns
            .push(completed.duration_since(release).as_nanos());
    }

    /// Finalises the metrics for a run that ended at `end`.
    #[must_use]
    pub fn finish(mut self, end: SimTime) -> RunMetrics {
        self.take(end)
    }

    /// Finalises the metrics for a run that ended at `end` and clears the
    /// counters, so the collector measures the next run afresh with the
    /// same task names and warm-up.
    pub(crate) fn take(&mut self, end: SimTime) -> RunMetrics {
        let window = end.duration_since(self.warmup_end);
        let window_s = window.as_secs_f64();
        let released: u64 = self.released.iter().sum();
        let completed: u64 = self.completed.iter().sum();
        let met: u64 = self.met.iter().sum();
        let late: u64 = self.late.iter().sum();
        let skipped: u64 = self.skipped.iter().sum();
        let dropped: u64 = self.dropped.iter().sum();
        let mut responses_ns = std::mem::take(&mut self.responses_ns);
        responses_ns.sort_unstable();
        let pct = |p: f64| -> SimDuration {
            if responses_ns.is_empty() {
                return SimDuration::ZERO;
            }
            let idx = ((responses_ns.len() as f64 - 1.0) * p).round() as usize;
            SimDuration::from_nanos(responses_ns[idx])
        };
        let per_task = self
            .task_names
            .iter()
            .enumerate()
            .map(|(i, name)| TaskMetrics {
                name: name.clone(),
                released: self.released[i],
                completed: self.completed[i],
                missed: self.late[i] + self.skipped[i] + self.dropped[i],
                fps: if window_s > 0.0 {
                    self.completed[i] as f64 / window_s
                } else {
                    0.0
                },
            })
            .collect();
        *self = Self::new(std::mem::take(&mut self.task_names), self.warmup_end);
        RunMetrics {
            window,
            released,
            completed,
            met,
            late,
            skipped,
            dropped,
            total_fps: if window_s > 0.0 {
                completed as f64 / window_s
            } else {
                0.0
            },
            dmr: if released > 0 {
                (late + skipped + dropped) as f64 / released as f64
            } else {
                0.0
            },
            response_p50: pct(0.50),
            response_p95: pct(0.95),
            response_max: pct(1.0),
            response_samples_ns: responses_ns,
            per_task,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn collector() -> MetricsCollector {
        MetricsCollector::new(vec!["a".into(), "b".into()], t(100))
    }

    #[test]
    fn warmup_releases_are_ignored() {
        let mut c = collector();
        c.record_release(0, t(50));
        c.record_completion(0, t(50), t(60), t(80));
        let m = c.finish(t(1_100));
        assert_eq!(m.released, 0);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn fps_and_dmr_are_computed_over_the_window() {
        let mut c = collector();
        for i in 0..10 {
            let rel = t(100 + i * 100);
            c.record_release(0, rel);
            // Every second job is late.
            let deadline = rel + SimDuration::from_millis(50);
            let completed = if i % 2 == 0 {
                rel + SimDuration::from_millis(40)
            } else {
                rel + SimDuration::from_millis(60)
            };
            c.record_completion(0, rel, completed, deadline);
        }
        let m = c.finish(t(1_100)); // 1-second window
        assert_eq!(m.released, 10);
        assert_eq!(m.completed, 10);
        assert_eq!(m.met, 5);
        assert_eq!(m.late, 5);
        assert!((m.total_fps - 10.0).abs() < 1e-9);
        assert!((m.dmr - 0.5).abs() < 1e-9);
        assert!(!m.is_miss_free());
    }

    #[test]
    fn skips_count_as_misses() {
        let mut c = collector();
        c.record_release(1, t(200));
        c.record_skip(1, t(200));
        let m = c.finish(t(1_100));
        assert_eq!(m.released, 1);
        assert_eq!(m.skipped, 1);
        assert!((m.dmr - 1.0).abs() < 1e-9);
        assert_eq!(m.per_task[1].missed, 1);
        assert_eq!(m.per_task[0].missed, 0);
    }

    #[test]
    fn percentiles_track_the_response_distribution() {
        let mut c = collector();
        for i in 1..=100u64 {
            let rel = t(100);
            c.record_release(0, rel);
            c.record_completion(
                0,
                rel,
                rel + SimDuration::from_millis(i),
                rel + SimDuration::from_secs(1),
            );
        }
        let m = c.finish(t(1_100));
        // Nearest-rank convention: index = round((n-1)·p).
        assert_eq!(m.response_p50, SimDuration::from_millis(51));
        assert_eq!(m.response_p95, SimDuration::from_millis(95));
        assert_eq!(m.response_max, SimDuration::from_millis(100));
        assert_eq!(m.response_samples_ns.len(), 100);
        assert!(
            m.response_samples_ns.windows(2).all(|w| w[0] <= w[1]),
            "the raw distribution is exported sorted"
        );
    }

    #[test]
    fn miss_free_run_is_reported() {
        let mut c = collector();
        c.record_release(0, t(200));
        c.record_completion(0, t(200), t(210), t(233));
        let m = c.finish(t(1_100));
        assert!(m.is_miss_free());
        assert_eq!(m.met, 1);
    }

    #[test]
    fn empty_run_has_zero_metrics() {
        let m = collector().finish(t(1_100));
        assert_eq!(m.total_fps, 0.0);
        assert_eq!(m.dmr, 0.0);
        assert_eq!(m.response_max, SimDuration::ZERO);
    }

    #[test]
    fn drops_count_as_misses_but_not_completions() {
        let mut c = collector();
        c.record_release(0, t(200));
        c.record_drop(0, t(200));
        let m = c.finish(t(1_100));
        assert_eq!(m.dropped, 1);
        assert_eq!(m.completed, 0);
        assert!((m.dmr - 1.0).abs() < 1e-9);
        assert!(!m.is_miss_free());
        assert_eq!(m.per_task[0].missed, 1);
    }

    #[test]
    fn drops_outside_the_window_are_ignored() {
        let mut c = collector();
        c.record_drop(0, t(50)); // before warm-up
        let m = c.finish(t(1_100));
        assert_eq!(m.dropped, 0);
        assert!(m.is_miss_free());
    }

    #[test]
    fn take_restarts_the_window_with_the_same_names() {
        let mut c = collector();
        c.record_release(0, t(200));
        c.record_completion(0, t(200), t(210), t(233));
        assert_eq!(c.take(t(1_100)).completed, 1);
        let m = c.take(t(1_100));
        assert_eq!((m.released, m.completed), (0, 0));
        assert!(m.response_samples_ns.is_empty());
        assert_eq!(m.per_task[1].name, "b");
    }

    #[test]
    fn per_task_fps_sums_to_total() {
        let mut c = collector();
        for task in 0..2 {
            for i in 0..5 {
                let rel = t(100 + i * 100);
                c.record_release(task, rel);
                c.record_completion(
                    task,
                    rel,
                    rel + SimDuration::from_millis(10),
                    rel + SimDuration::from_millis(33),
                );
            }
        }
        let m = c.finish(t(1_100));
        let sum: f64 = m.per_task.iter().map(|t| t.fps).sum();
        assert!((sum - m.total_fps).abs() < 1e-9);
    }
}
