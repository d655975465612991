//! The release-and-admission driver shared by the paper-layer schedulers.
//!
//! SGPRS, the naive partitioner and the reconfiguring partitioner release
//! frames on the same periodic grid, admit them under the same
//! [`Admission`] rule and account finished jobs identically; they differ
//! only in what they do with an admitted job. [`Driver`] owns everything
//! they share — release generators, in-flight counts, frame buffers,
//! admission sequence numbers, the metrics collector — and runs the one
//! event loop. Each scheduler supplies its own [`Policy`]: queueing,
//! context assignment and dispatch.

use crate::{Admission, CompiledTask, MetricsCollector, RunMetrics};
use sgprs_gpu_sim::{ContentionModel, ContextConfig, DeviceEvent, GpuEngine, GpuSpec};
use sgprs_rt::{ReleaseGenerator, SimDuration, SimTime};

/// What a scheduler does with the jobs [`Driver`] releases.
pub(crate) trait Policy {
    /// The device the policy dispatches onto.
    fn engine(&mut self) -> &mut GpuEngine;

    /// Admission test for a frame of `task` about to become a job, at
    /// release or when grabbed from the frame buffer; a declined frame
    /// counts as skipped.
    fn accept(&self, _task: usize) -> bool {
        true
    }

    /// Takes job `index` of `task`, released (or grabbed) at `release`,
    /// into the policy's queues.
    fn admit(&mut self, task: usize, index: u64, release: SimTime);

    /// Handles one kernel completion, reporting finished jobs back through
    /// [`Driver::complete`].
    fn on_event(&mut self, driver: &mut Driver, ev: &DeviceEvent);

    /// Dispatches queued work at `now`, after the releases due then.
    fn dispatch(&mut self, driver: &mut Driver, now: SimTime);
}

/// Per-task release and admission state, plus the metrics collector.
#[derive(Debug)]
pub(crate) struct Driver {
    admission: Admission,
    gens: Vec<ReleaseGenerator>,
    /// Jobs in flight per task.
    outstanding: Vec<u64>,
    /// Frame buffer per task: the release boundary of the freshest frame
    /// waiting while a job is in flight ([`Admission::FrameBuffer`]).
    buffered: Vec<Option<SimTime>>,
    /// Per-task monotone admission counter (job ids stay unique even when
    /// grabbed frames are admitted off the period grid).
    admit_seq: Vec<u64>,
    /// The earliest pending release across tasks; the generators advance
    /// only in [`Driver::release_due`], which refreshes it.
    next_release: SimTime,
    collector: MetricsCollector,
    /// Completions of the current step (reused across steps).
    events: Vec<DeviceEvent>,
}

impl Driver {
    /// Releases for `tasks` from their phases; jobs released before
    /// `warmup` are left out of the metrics.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub(crate) fn new(tasks: &[CompiledTask], admission: Admission, warmup: SimDuration) -> Self {
        assert!(!tasks.is_empty(), "need at least one task");
        let n = tasks.len();
        let gens: Vec<ReleaseGenerator> = tasks
            .iter()
            .map(|t| ReleaseGenerator::new(SimTime::ZERO + t.spec.phase, t.spec.period))
            .collect();
        Driver {
            admission,
            next_release: earliest_release(&gens),
            gens,
            outstanding: vec![0; n],
            buffered: vec![None; n],
            admit_seq: vec![0; n],
            collector: MetricsCollector::new(
                tasks.iter().map(|t| t.spec.name.clone()).collect(),
                SimTime::ZERO + warmup,
            ),
            events: Vec::new(),
        }
    }

    /// Number of tasks that have released at least one frame.
    pub(crate) fn released_tasks(&self) -> usize {
        self.gens.iter().filter(|g| g.next_index() > 0).count()
    }

    /// Runs until `end`: each step takes the earlier of the next release
    /// and the next device event, handles completions, releases due
    /// frames, then lets the policy dispatch. Returns the metrics of the
    /// measurement window and restarts the collector.
    pub(crate) fn run<P: Policy>(&mut self, policy: &mut P, end: SimTime) -> RunMetrics {
        loop {
            let next_release = self.next_release;
            let next = match policy.engine().next_event_time() {
                Some(d) if d < next_release => d,
                _ => next_release,
            };
            if next > end {
                break;
            }
            self.advance(policy, next);
            if next_release == next {
                self.release_due(policy, next);
            }
            policy.dispatch(self, next);
        }
        self.advance(policy, end);
        self.collector.take(end)
    }

    fn advance<P: Policy>(&mut self, policy: &mut P, to: SimTime) {
        let mut events = std::mem::take(&mut self.events);
        policy.engine().advance_into(to, &mut events);
        for ev in &events {
            policy.on_event(self, ev);
        }
        events.clear();
        self.events = events;
    }

    /// Releases every frame due at `now` under the [`Admission`] rule.
    fn release_due<P: Policy>(&mut self, policy: &mut P, now: SimTime) {
        for task in 0..self.gens.len() {
            while self.gens[task].next_release() <= now {
                let release = self.gens[task].next_release();
                self.gens[task].advance();
                self.collector.record_release(task, release);
                if self.outstanding[task] > 0 {
                    match self.admission {
                        Admission::SkipIfBusy => {
                            self.collector.record_skip(task, release);
                            continue;
                        }
                        Admission::FrameBuffer => {
                            // Newest frame wins: replacing a staler
                            // buffered frame drops it (a miss).
                            if let Some(stale) = self.buffered[task].replace(release) {
                                self.collector.record_skip(task, stale);
                            }
                            continue;
                        }
                        Admission::QueueAll => {}
                    }
                }
                if !policy.accept(task) {
                    // Declined up front: the frame is dropped before any
                    // GPU time is spent on it.
                    self.collector.record_skip(task, release);
                    continue;
                }
                self.admit(policy, task, release);
            }
        }
        self.next_release = earliest_release(&self.gens);
    }

    fn admit<P: Policy>(&mut self, policy: &mut P, task: usize, release: SimTime) {
        let index = self.admit_seq[task];
        self.admit_seq[task] += 1;
        self.outstanding[task] += 1;
        policy.admit(task, index, release);
    }

    /// Accounts a job of `task` released at `release` that finished at
    /// `done` against `deadline`.
    pub(crate) fn complete<P: Policy>(
        &mut self,
        policy: &mut P,
        task: usize,
        release: SimTime,
        done: SimTime,
        deadline: SimTime,
    ) {
        self.collector
            .record_completion(task, release, done, deadline);
        self.retire(policy, task, done);
    }

    /// Accounts a job of `task` released at `release` that was aborted at
    /// `now`.
    pub(crate) fn abort<P: Policy>(
        &mut self,
        policy: &mut P,
        task: usize,
        release: SimTime,
        now: SimTime,
    ) {
        self.collector.record_drop(task, release);
        self.retire(policy, task, now);
    }

    /// Frees a job slot of `task` at `at`. Frame-buffer admission then
    /// grabs the freshest buffered frame right away (its deadline starts
    /// at the grab), keeping the device work-conserving under overload.
    fn retire<P: Policy>(&mut self, policy: &mut P, task: usize, at: SimTime) {
        self.outstanding[task] = self.outstanding[task].saturating_sub(1);
        let Some(boundary) = self.buffered[task].take() else {
            return;
        };
        if policy.accept(task) {
            self.admit(policy, task, at);
        } else {
            self.collector.record_skip(task, boundary);
        }
    }
}

/// The earliest pending release of `gens`.
fn earliest_release(gens: &[ReleaseGenerator]) -> SimTime {
    gens.iter()
        .map(ReleaseGenerator::next_release)
        .min()
        .expect("invariant: the driver has at least one task")
}

/// Builds a device with one context per entry of `sm_allocs`, each with
/// `streams = (high, low)` streams.
pub(crate) fn build_engine(
    gpu: &GpuSpec,
    contention: ContentionModel,
    seed: u64,
    tracing: bool,
    sm_allocs: &[u32],
    (high, low): (usize, usize),
) -> GpuEngine {
    sm_allocs
        .iter()
        .fold(
            GpuEngine::builder(gpu.clone())
                .contention_model(contention)
                .seed(seed)
                .tracing(tracing),
            |b, &sm| b.context(ContextConfig::new(sm).with_streams(high, low)),
        )
        .build()
}
