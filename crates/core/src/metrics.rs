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
    /// Always 0: neither paper-layer scheduler aborts an admitted job, so
    /// every admitted job completes. The field stays only because
    /// perfbench hashes it into its `paper-sweep` digest; it goes with the
    /// next change to perfbench.
    pub dropped: u64,
    /// Total frames per second: `completed / window`.
    pub total_fps: f64,
    /// Deadline-miss rate: `(late + skipped) / released`.
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
        self.late == 0 && self.skipped == 0
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

/// One task's name and outcome counts in the current window.
#[derive(Debug, Clone, Default)]
struct TaskCounts {
    name: String,
    released: u64,
    completed: u64,
    met: u64,
    late: u64,
    skipped: u64,
}

/// Streaming collector turning per-job outcomes into [`RunMetrics`].
///
/// Both schedulers (SGPRS and the naive baseline) feed it the same three
/// event kinds — release, skip, completion — through the shared
/// release driver, so the paper's metrics are computed identically for
/// each.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    warmup_end: SimTime,
    /// Start of the current window: the warm-up end, then the end of the
    /// last [`Self::take`].
    window_start: SimTime,
    /// Per task slot: its name and counts.
    tasks: Vec<TaskCounts>,
    responses_ns: Vec<u64>,
    /// Response samples of the last finished window: the next window's
    /// buffer is sized by it on its first sample.
    last_samples: usize,
}

impl MetricsCollector {
    /// Creates a collector for tasks named `task_names`; jobs released
    /// before `warmup_end` are ignored entirely.
    #[must_use]
    pub fn new(task_names: Vec<String>, warmup_end: SimTime) -> Self {
        MetricsCollector {
            warmup_end,
            window_start: warmup_end,
            tasks: task_names
                .into_iter()
                .map(|name| TaskCounts {
                    name,
                    ..TaskCounts::default()
                })
                .collect(),
            responses_ns: Vec::new(),
            last_samples: 0,
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
            self.tasks[task].released += 1;
        }
    }

    /// Records a skipped release (frame drop) of task `task`.
    pub fn record_skip(&mut self, task: usize, release: SimTime) {
        if self.in_window(release) {
            self.tasks[task].skipped += 1;
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
        let counts = &mut self.tasks[task];
        counts.completed += 1;
        if completed <= deadline {
            counts.met += 1;
        } else {
            counts.late += 1;
        }
        if self.responses_ns.capacity() == 0 {
            self.responses_ns.reserve(self.last_samples);
        }
        self.responses_ns
            .push(completed.duration_since(release).as_nanos());
    }

    /// Finalises the metrics for a run that ended at `end`.
    #[must_use]
    pub fn finish(mut self, end: SimTime) -> RunMetrics {
        self.take(end)
    }

    /// Makes room for `slots` more slots.
    pub(crate) fn reserve(&mut self, slots: usize) {
        self.tasks.reserve(slots);
    }

    /// Names slot `slot` `name`: appends a zeroed slot when `slot` is
    /// one past the last, else renames a recycled slot in place (reusing
    /// its name's buffer), whose counters keep the current window's
    /// counts under the new name.
    pub(crate) fn name_slot(&mut self, slot: usize, name: &str) {
        if slot == self.tasks.len() {
            self.tasks.push(TaskCounts {
                name: name.to_owned(),
                ..TaskCounts::default()
            });
        } else {
            name.clone_into(&mut self.tasks[slot].name);
        }
    }

    /// Finalises the metrics of the window that ends at `end` and zeroes
    /// the counters in place, so the collector measures the next window
    /// afresh, from `end`, with the same task names and warm-up. A job is
    /// counted in the window where each of its outcomes happens: its
    /// release in one, its completion in a later one if it was in flight
    /// at the cut.
    pub(crate) fn take(&mut self, end: SimTime) -> RunMetrics {
        let window = end.duration_since(self.window_start);
        self.window_start = end.max(self.warmup_end);
        let window_s = window.as_secs_f64();
        let total = |count: fn(&TaskCounts) -> u64| self.tasks.iter().map(count).sum::<u64>();
        let released = total(|t| t.released);
        let completed = total(|t| t.completed);
        let met = total(|t| t.met);
        let late = total(|t| t.late);
        let skipped = total(|t| t.skipped);
        let mut responses_ns = std::mem::take(&mut self.responses_ns);
        responses_ns.sort_unstable();
        self.last_samples = responses_ns.len();
        let pct = |p: f64| -> SimDuration {
            if responses_ns.is_empty() {
                return SimDuration::ZERO;
            }
            let idx = ((responses_ns.len() as f64 - 1.0) * p).round() as usize;
            SimDuration::from_nanos(responses_ns[idx])
        };
        let per_task = self
            .tasks
            .iter()
            .map(|t| TaskMetrics {
                name: t.name.clone(),
                released: t.released,
                completed: t.completed,
                missed: t.late + t.skipped,
                fps: if window_s > 0.0 {
                    t.completed as f64 / window_s
                } else {
                    0.0
                },
            })
            .collect();
        for t in &mut self.tasks {
            let name = std::mem::take(&mut t.name);
            *t = TaskCounts {
                name,
                ..TaskCounts::default()
            };
        }
        RunMetrics {
            window,
            released,
            completed,
            met,
            late,
            skipped,
            dropped: 0,
            total_fps: if window_s > 0.0 {
                completed as f64 / window_s
            } else {
                0.0
            },
            dmr: if released > 0 {
                (late + skipped) as f64 / released as f64
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
    fn consecutive_windows_split_a_job_at_the_cut() {
        let mut c = collector();
        c.record_release(0, t(900));
        let first = c.take(t(1_000));
        assert_eq!((first.released, first.completed), (1, 0));
        assert_eq!(first.window, SimDuration::from_millis(900));
        c.record_completion(0, t(900), t(1_020), t(933));
        let second = c.take(t(1_500));
        assert_eq!((second.released, second.completed, second.late), (0, 1, 1));
        assert_eq!(second.window, SimDuration::from_millis(500));
        assert_eq!(second.response_samples_ns, vec![120_000_000]);
    }

    #[test]
    fn a_named_slot_appends_or_renames() {
        let mut c = collector();
        c.name_slot(2, "c");
        c.record_release(2, t(200));
        c.name_slot(0, "a2");
        let m = c.take(t(1_100));
        let names: Vec<&str> = m.per_task.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["a2", "b", "c"]);
        assert_eq!(m.per_task[2].released, 1);
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
