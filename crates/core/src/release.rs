//! The release-and-admission driver shared by the paper-layer schedulers.
//!
//! SGPRS and the naive partitioner release frames on the same periodic
//! grid, admit them under the same [`Admission`] rule and account
//! finished jobs identically; they differ only in what they do with an
//! admitted job. [`Driver`] owns everything they share — release
//! generators, in-flight flags, frame buffers, admission sequence
//! numbers, the metrics collector — and runs the one event loop. Each
//! scheduler supplies its own [`Policy`]: queueing, context assignment
//! and dispatch.
//!
//! The task set may change while the driver runs. [`Driver::attach`]
//! gives a task a slot and its first release instant; [`Driver::detach`]
//! stops a slot's releases at an instant, lets its job in flight
//! finish, then vacates the slot for the next attach. A scheduler built
//! with tasks is the empty scheduler with each task attached at its
//! phase, so construction and attach are one code path.

use crate::{Admission, CompiledTask, MetricsCollector, RunMetrics};
use sgprs_gpu_sim::{ContentionModel, ContextConfig, DeviceEvent, GpuEngine, GpuSpec};
use sgprs_rt::{ReleaseGenerator, SimDuration, SimTime};
use std::ops::Deref;
use std::sync::Arc;

/// A slot's compiled task: owned when the scheduler was built with it,
/// shared when attached from a caller's cache (so an attach copies
/// nothing).
// Owned tasks sit inline: boxing them would cost every constructed task
// an allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum TaskRef {
    Owned(CompiledTask),
    Shared(Arc<CompiledTask>),
}

impl Deref for TaskRef {
    type Target = CompiledTask;

    fn deref(&self) -> &CompiledTask {
        match self {
            TaskRef::Owned(task) => task,
            TaskRef::Shared(task) => task,
        }
    }
}

/// What a scheduler does with the jobs [`Driver`] releases.
pub(crate) trait Policy {
    /// The device the policy dispatches onto.
    fn engine(&mut self) -> &mut GpuEngine;

    /// Takes `task` into slot `slot`: one past the last slot, or a slot
    /// [`Policy::vacate`] freed earlier.
    fn attach(&mut self, slot: usize, task: TaskRef);

    /// Slot `slot` was detached and has gone idle: no job of it is in
    /// flight and none will be released. The slot is recycled by a later
    /// [`Policy::attach`].
    fn vacate(&mut self, _slot: usize) {}

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

    /// Dispatches queued work, after the releases due at the device's
    /// current instant.
    fn dispatch(&mut self);
}

/// Where a task slot is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Releasing frames on its period grid.
    Attached,
    /// Releasing only the frames due before the instant; the slot
    /// becomes vacant once the last of them has finished.
    Detached(SimTime),
    /// Idle and free for the next attach.
    Vacant,
}

/// One task slot's release and admission state.
#[derive(Debug)]
struct ReleaseSlot {
    /// The occupant's release grid.
    gen: ReleaseGenerator,
    phase: Phase,
    /// A job of the slot is in flight. A task has at most one: a frame is
    /// admitted only while this is unset, at its release or from
    /// [`Driver::complete`] right after the job in flight cleared it. The
    /// SGPRS task slot relies on this invariant to hold a single job.
    in_flight: bool,
    /// Frame buffer: the release boundary of the freshest frame waiting
    /// while a job is in flight ([`Admission::FrameBuffer`]).
    buffered: Option<SimTime>,
    /// Monotone admission counter: the next job's index. It runs on
    /// across occupants, and grabbed frames are admitted off the period
    /// grid, so job indices are not release counts.
    admit_seq: u64,
}

/// Per-slot release and admission state, plus the metrics collector.
///
/// A slot holds one task from [`Driver::attach`] until it goes idle after
/// [`Driver::detach`]; then the next attach reuses it, the most recently
/// vacated slot first. Per-slot admission counters run on across
/// occupants, so a job index (the `#n` of a trace label) names one job of
/// its slot over the whole run.
#[derive(Debug)]
pub(crate) struct Driver {
    admission: Admission,
    slots: Vec<ReleaseSlot>,
    /// Vacant slots, reused last-freed first.
    vacant: Vec<usize>,
    /// The earliest pending release across slots; the generators advance
    /// only in [`Driver::release_due`], which refreshes it.
    next_release: SimTime,
    collector: MetricsCollector,
    /// Completions of the current step (reused across steps).
    events: Vec<DeviceEvent>,
}

impl Driver {
    /// A driver with no task; jobs released before `warmup` are left out
    /// of the metrics.
    pub(crate) fn new(admission: Admission, warmup: SimDuration) -> Self {
        Driver {
            admission,
            slots: Vec::new(),
            vacant: Vec::new(),
            next_release: SimTime::MAX,
            collector: MetricsCollector::new(Vec::new(), SimTime::ZERO + warmup),
            events: Vec::new(),
        }
    }

    /// Attaches each of `tasks` at its phase, in order: the slots are the
    /// task indices.
    pub(crate) fn attach_all<P: Policy>(&mut self, policy: &mut P, tasks: Vec<CompiledTask>) {
        self.slots.reserve(tasks.len());
        self.collector.reserve(tasks.len());
        for task in tasks {
            let first = SimTime::ZERO + task.spec.phase;
            self.attach(policy, TaskRef::Owned(task), first);
        }
    }

    /// Attaches `task`, its first frame released at `at`, and returns its
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before the device clock.
    pub(crate) fn attach<P: Policy>(
        &mut self,
        policy: &mut P,
        task: TaskRef,
        at: SimTime,
    ) -> usize {
        assert!(
            at >= policy.engine().now(),
            "attach at {at} lies in the past"
        );
        let gen = ReleaseGenerator::new(at, task.spec.period);
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.slots[slot].gen = gen;
                self.slots[slot].phase = Phase::Attached;
                slot
            }
            None => {
                self.slots.push(ReleaseSlot {
                    gen,
                    phase: Phase::Attached,
                    in_flight: false,
                    buffered: None,
                    admit_seq: 0,
                });
                self.slots.len() - 1
            }
        };
        self.collector.name_slot(slot, &task.spec.name);
        self.next_release = self.next_release.min(at);
        policy.attach(slot, task);
        slot
    }

    /// Detaches slot `slot` at `at`: frames due before `at` are still
    /// released, none after, and the job in flight finishes. The slot is
    /// vacated once it is idle.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no attached task.
    pub(crate) fn detach<P: Policy>(&mut self, policy: &mut P, slot: usize, at: SimTime) {
        assert_eq!(
            self.slots.get(slot).map(|s| s.phase),
            Some(Phase::Attached),
            "slot {slot} holds no attached task"
        );
        self.slots[slot].phase = Phase::Detached(at);
        self.settle(policy, slot);
        self.next_release = self.earliest_release();
    }

    /// Runs until `end`: each step takes the earlier of the next release
    /// and the next device event, handles completions, releases due
    /// frames, then lets the policy dispatch. Returns the metrics of the
    /// measurement window and restarts the collector.
    pub(crate) fn run<P: Policy>(&mut self, policy: &mut P, end: SimTime) -> RunMetrics {
        self.step_until(policy, end);
        self.advance(policy, end);
        self.collector.take(end)
    }

    /// Detaches every attached slot at `at`, then runs until the last job
    /// in flight has finished. Returns the metrics of the window that
    /// ends at `at` or at the last completion, whichever is later.
    pub(crate) fn finish<P: Policy>(&mut self, policy: &mut P, at: SimTime) -> RunMetrics {
        for slot in 0..self.slots.len() {
            if self.slots[slot].phase == Phase::Attached {
                self.detach(policy, slot, at);
            }
        }
        self.step_until(policy, SimTime::MAX);
        let end = policy.engine().now().max(at);
        self.run(policy, end)
    }

    /// Steps through every release and device event due by `end`.
    fn step_until<P: Policy>(&mut self, policy: &mut P, end: SimTime) {
        loop {
            let next_release = self.next_release;
            let next = match policy.engine().next_event_time() {
                Some(d) if d < next_release => d,
                _ => next_release,
            };
            // `SimTime::MAX` stands for "nothing pending".
            if next > end || next == SimTime::MAX {
                break;
            }
            self.advance(policy, next);
            if next_release == next {
                self.release_due(policy, next);
            }
            policy.dispatch();
        }
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

    /// The next frame slot `slot` will release: `SimTime::MAX` once its
    /// releases have stopped.
    fn pending_release(&self, slot: usize) -> SimTime {
        let ReleaseSlot { gen, phase, .. } = &self.slots[slot];
        let next = gen.next_release();
        let stop = match *phase {
            Phase::Attached => return next,
            Phase::Detached(at) => at,
            Phase::Vacant => SimTime::ZERO,
        };
        if next < stop {
            next
        } else {
            SimTime::MAX
        }
    }

    /// The earliest pending release across slots.
    fn earliest_release(&self) -> SimTime {
        (0..self.slots.len())
            .map(|slot| self.pending_release(slot))
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// Releases every frame due at `now` under the [`Admission`] rule.
    fn release_due<P: Policy>(&mut self, policy: &mut P, now: SimTime) {
        for task in 0..self.slots.len() {
            while self.pending_release(task) <= now {
                let release = self.slots[task].gen.next_release();
                self.slots[task].gen.advance();
                self.collector.record_release(task, release);
                if self.slots[task].in_flight {
                    match self.admission {
                        Admission::SkipIfBusy => self.collector.record_skip(task, release),
                        Admission::FrameBuffer => {
                            // Newest frame wins: replacing a staler
                            // buffered frame drops it (a miss).
                            if let Some(stale) = self.slots[task].buffered.replace(release) {
                                self.collector.record_skip(task, stale);
                            }
                        }
                    }
                    continue;
                }
                if !policy.accept(task) {
                    // Declined up front: the frame is dropped before any
                    // GPU time is spent on it.
                    self.collector.record_skip(task, release);
                    continue;
                }
                self.admit(policy, task, release);
            }
            self.settle(policy, task);
        }
        self.next_release = self.earliest_release();
    }

    fn admit<P: Policy>(&mut self, policy: &mut P, task: usize, release: SimTime) {
        let slot = &mut self.slots[task];
        debug_assert!(!slot.in_flight, "invariant: one job in flight per task");
        let index = slot.admit_seq;
        slot.admit_seq += 1;
        slot.in_flight = true;
        policy.admit(task, index, release);
    }

    /// Accounts the job in flight of `task`, released at `release`, that
    /// finished at `done` against `deadline`. Frame-buffer admission then
    /// grabs the freshest buffered frame right away (its deadline starts
    /// at the grab), keeping the device work-conserving under overload.
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
        let slot = &mut self.slots[task];
        debug_assert!(slot.in_flight, "invariant: a completed job was in flight");
        slot.in_flight = false;
        if let Some(boundary) = slot.buffered.take() {
            if policy.accept(task) {
                self.admit(policy, task, done);
            } else {
                self.collector.record_skip(task, boundary);
            }
        }
        self.settle(policy, task);
    }

    /// Vacates detached slot `slot` once its releases have stopped and
    /// nothing of it is in flight or buffered.
    fn settle<P: Policy>(&mut self, policy: &mut P, slot: usize) {
        if let Phase::Detached(_) = self.slots[slot].phase {
            if self.pending_release(slot) == SimTime::MAX
                && !self.slots[slot].in_flight
                && self.slots[slot].buffered.is_none()
            {
                self.slots[slot].phase = Phase::Vacant;
                self.vacant.push(slot);
                policy.vacate(slot);
            }
        }
    }
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

#[cfg(test)]
mod tests {
    //! The attach/detach oracle: a task set built up by attaches matches
    //! one fixed at construction, windows cut a run without changing it,
    //! and a detached task finishes its job and releases nothing more.
    //! Plus the two admission rules on a partition one task overruns, and
    //! [`Scheduler::new`] against each directly configured scheduler.

    use crate::{
        offline, Admission, CompiledTask, ContextPoolSpec, NaiveConfig, NaiveScheduler, RunMetrics,
        Scheduler, SchedulerKind, SgprsConfig, SgprsScheduler,
    };
    use sgprs_dnn::{models, CostModel};
    use sgprs_gpu_sim::{ContextId, GpuSpec, DEFAULT_SEED};
    use sgprs_rt::{SimDuration, SimTime};

    const PERIOD: SimDuration = SimDuration::from_micros(33_333);

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    /// `n` 30-fps ResNet-18 tasks; task `i` has phase `i · stagger_ms`.
    fn tasks(n: usize, stagger_ms: u64) -> Vec<CompiledTask> {
        let base = offline::compile_network_task(
            "cam",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            6,
            PERIOD,
            &ContextPoolSpec::new(2, 1.5),
        )
        .expect("six stages");
        (0..n as u64)
            .map(|i| {
                let mut t = base.clone();
                t.spec.name = format!("cam-{i}");
                t.spec.phase = SimDuration::from_millis(stagger_ms * i);
                t
            })
            .collect()
    }

    fn first_release(t: &CompiledTask) -> SimTime {
        SimTime::ZERO + t.spec.phase
    }

    /// The SGPRS level the oracle runs at.
    const SGPRS: SchedulerKind = SchedulerKind::Sgprs {
        oversubscription: 1.5,
    };

    /// A `kind` scheduler over `contexts` contexts of the paper's GPU,
    /// at the default seed.
    fn sched(
        kind: SchedulerKind,
        contexts: usize,
        tasks: Vec<CompiledTask>,
        warmup: SimDuration,
    ) -> Scheduler {
        let gpu = GpuSpec::rtx_2080_ti();
        Scheduler::new(kind, contexts, gpu, DEFAULT_SEED, warmup, tasks)
    }

    /// Attaches task `i` at its phase after running the scheduler to the
    /// previous task's first release: an instant the constructed
    /// scheduler steps at too, so the device integrates its progress at
    /// the same instants in both.
    fn attach_staged(s: &mut Scheduler, tasks: Vec<CompiledTask>) {
        let mut prev = None;
        for (i, task) in tasks.into_iter().enumerate() {
            if let Some(at) = prev {
                let _ = s.run(at);
            }
            let at = first_release(&task);
            assert_eq!(s.attach(task, at), i, "slots fill in attach order");
            prev = Some(at);
        }
    }

    fn pair(a: &RunMetrics, b: &RunMetrics) -> RunMetrics {
        let mut samples = a.response_samples_ns.clone();
        samples.extend(&b.response_samples_ns);
        samples.sort_unstable();
        let mut sum = b.clone();
        sum.released += a.released;
        sum.completed += a.completed;
        sum.met += a.met;
        sum.late += a.late;
        sum.skipped += a.skipped;
        sum.response_samples_ns = samples;
        for (s, t) in sum.per_task.iter_mut().zip(&a.per_task) {
            s.released += t.released;
            s.completed += t.completed;
            s.missed += t.missed;
        }
        sum
    }

    /// The counts, per-task counts and raw response distribution of `m`.
    fn counts(m: &RunMetrics) -> Vec<u64> {
        let mut c = vec![m.released, m.completed, m.met, m.late, m.skipped];
        for t in &m.per_task {
            c.extend([t.released, t.completed, t.missed]);
        }
        c.extend(&m.response_samples_ns);
        c
    }

    #[test]
    fn sgprs_attaching_at_the_phases_matches_construction() {
        // Past the pivot, so admission, skips and promotion all run.
        let warmup = SimDuration::from_millis(500);
        let reference = sched(SGPRS, 2, tasks(30, 2), warmup).run(ms(1_500));
        assert!(reference.late > 0 && reference.skipped > 0, "{reference:?}");
        let mut s = sched(SGPRS, 2, Vec::new(), warmup);
        attach_staged(&mut s, tasks(30, 2));
        assert_eq!(s.run(ms(1_500)), reference);
    }

    #[test]
    fn naive_attaching_at_the_phases_matches_construction() {
        // One tenant per partition: the switch tax reads the same count
        // whenever each task is attached.
        let warmup = SimDuration::from_millis(500);
        let reference = sched(SchedulerKind::Naive, 3, tasks(3, 4), warmup).run(ms(1_500));
        let mut s = sched(SchedulerKind::Naive, 3, Vec::new(), warmup);
        attach_staged(&mut s, tasks(3, 4));
        assert_eq!(s.run(ms(1_500)), reference);
        // Shared partitions past the naive pivot: the tax grows with the
        // partition's tenant count from each attach on, so every task is
        // attached before the first dispatch, each at its phase.
        let reference = sched(SchedulerKind::Naive, 2, tasks(16, 2), warmup).run(ms(1_500));
        assert!(!reference.is_miss_free(), "{reference:?}");
        let mut s = sched(SchedulerKind::Naive, 2, Vec::new(), warmup);
        for task in tasks(16, 2) {
            let at = first_release(&task);
            s.attach(task, at);
        }
        assert_eq!(s.run(ms(1_500)), reference);
    }

    /// Each kind over two contexts with `n` in-phase tasks: past both
    /// pivots.
    const OVERLOADED: [(SchedulerKind, usize); 2] = [(SGPRS, 24), (SchedulerKind::Naive, 16)];

    fn windows_sum_to_one_run(kind: SchedulerKind, n: usize) {
        let warmup = SimDuration::from_millis(500);
        // The cut is a release instant of every task.
        let cut = SimTime::ZERO + SimDuration::from_nanos(PERIOD.as_nanos() * 20);
        let whole = sched(kind, 2, tasks(n, 0), warmup).run(ms(1_200));
        let mut s = sched(kind, 2, tasks(n, 0), warmup);
        let first = s.run(cut);
        let second = s.run(ms(1_200));
        assert!(first.released > 0 && second.released > 0);
        assert_eq!(second.window, ms(1_200).duration_since(cut));
        assert_eq!(counts(&pair(&first, &second)), counts(&whole));
    }

    #[test]
    fn consecutive_windows_sum_to_one_run() {
        for (kind, n) in OVERLOADED {
            windows_sum_to_one_run(kind, n);
        }
    }

    fn detached_job_finishes_and_nothing_follows(kind: SchedulerKind) {
        let mut s = sched(kind, 2, tasks(2, 0), SimDuration::ZERO);
        let first = s.run(ms(1));
        assert_eq!(first.per_task[0].released, 1);
        assert_eq!(first.per_task[0].completed, 0, "the job is in flight");
        s.detach(0, ms(1));
        let second = s.run(ms(1_000));
        assert_eq!(second.per_task[0].released, 0, "no release follows");
        assert_eq!(
            second.per_task[0].completed, 1,
            "the job in flight finishes"
        );
        assert!(second.per_task[1].released > 25, "{second:?}");
        // The idle slot is recycled.
        let newcomer = tasks(3, 0).pop().expect("three tasks");
        assert_eq!(s.attach(newcomer, ms(1_000)), 0);
        let third = s.run(ms(2_000));
        assert_eq!(third.per_task[0].name, "cam-2");
        assert!(third.per_task[0].released > 25, "{third:?}");
        let last = s.finish(ms(2_000));
        assert_eq!(last.released, 0, "releases stop at the finish");
        let total = [first, second, third, last]
            .iter()
            .fold([0u64; 2], |[released, resolved], m| {
                [released + m.released, resolved + m.completed + m.skipped]
            });
        assert_eq!(total[0], total[1], "every released frame is resolved");
    }

    /// `[released, completed, skipped, min response ns, max response
    /// ns]` and the partition's busy fraction of one ResNet-18 task at a
    /// 2 ms period, whose whole-network service time (3.64–3.91 ms) is
    /// just under two periods, on one naive partition over 200 ms.
    fn overrun_by_one_task(admission: Admission) -> ([u64; 5], f64) {
        let task = offline::compile_network_task(
            "cam",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            6,
            SimDuration::from_millis(2),
            &ContextPoolSpec::new(1, 1.0),
        )
        .expect("six stages");
        let mut cfg = NaiveConfig::new(1);
        cfg.admission = admission;
        cfg.warmup = SimDuration::ZERO;
        let mut s = NaiveScheduler::new(cfg, vec![task]);
        let m = s.run(ms(200));
        let responses = &m.response_samples_ns;
        assert!(
            m.released - m.completed - m.skipped <= 2,
            "at most one job in flight and one frame buffered: {m:?}"
        );
        let counts = [
            m.released,
            m.completed,
            m.skipped,
            *responses.iter().min().expect("jobs completed"),
            *responses.iter().max().expect("jobs completed"),
        ];
        (counts, s.engine().busy_fraction(ContextId(0)))
    }

    #[test]
    fn the_frame_buffer_keeps_an_overrun_device_busy() {
        // A grabbed frame's response counts from the grab, so both rules
        // see the same response range.
        let (buffered, busy) = overrun_by_one_task(Admission::FrameBuffer);
        assert_eq!(buffered, [101, 54, 45, 3_642_451, 3_908_615]);
        assert!(busy >= 0.999, "the buffered frame starts at once: {busy}");
        let (skipping, busy) = overrun_by_one_task(Admission::SkipIfBusy);
        assert_eq!(skipping, [101, 50, 50, 3_642_451, 3_908_615]);
        assert!(busy < 0.95, "the skipping client idles the device: {busy}");
    }

    #[test]
    fn each_kind_builds_the_directly_configured_scheduler() {
        let sgprs = |oversubscription| SchedulerKind::Sgprs { oversubscription };
        for kind in [SchedulerKind::Naive, sgprs(1.0), sgprs(1.5), sgprs(2.0)] {
            for contexts in [2, 3] {
                // Sixteen tasks: past the naive pivot at both pool sizes.
                let direct = match kind {
                    SchedulerKind::Naive => {
                        let cfg = NaiveConfig::new(contexts).with_seed(7);
                        NaiveScheduler::new(cfg, tasks(16, 0)).run(ms(1_200))
                    }
                    SchedulerKind::Sgprs { oversubscription } => {
                        let pool = ContextPoolSpec::new(contexts, oversubscription);
                        let cfg = SgprsConfig::new(pool).with_seed(7);
                        SgprsScheduler::new(cfg, tasks(16, 0)).run(ms(1_200))
                    }
                };
                let gpu = GpuSpec::rtx_2080_ti();
                let warmup = crate::DEFAULT_WARMUP;
                let mut built = Scheduler::new(kind, contexts, gpu, 7, warmup, tasks(16, 0));
                assert!(direct.completed > 0, "{kind} (np={contexts}): {direct:?}");
                assert_eq!(built.run(ms(1_200)), direct, "{kind} (np={contexts})");
            }
        }
    }

    #[test]
    fn a_detached_task_finishes_its_job_and_releases_no_more() {
        for kind in [SGPRS, SchedulerKind::Naive] {
            detached_job_finishes_and_nothing_follows(kind);
        }
    }
}
