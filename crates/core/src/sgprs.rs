//! The SGPRS online phase (§IV-B).
//!
//! At run time the scheduler:
//!
//! 1. **Releases jobs** every period and stamps every stage with an
//!    absolute deadline derived from its offline virtual relative deadline
//!    (§IV-B1).
//! 2. **Assigns contexts** to released (ready) stages by the paper's
//!    three-rule policy (§IV-B2): *empty queues first, then the context
//!    meeting the deadline with the shortest queue, and if none, the one
//!    with the earliest finish time.*
//! 3. **Queues stages** per context in three priority bands served
//!    high → medium → low, EDF inside each band, dispatching onto the
//!    context's 2 high- + 2 low-priority streams (max four concurrent
//!    stages per context); a low-priority stage whose predecessor missed
//!    its virtual deadline is promoted to medium (§IV-B3).
//!
//! Partition switches are *seamless*: dispatching any task's stage to any
//! context carries no reconfiguration cost — the paper's headline property
//! (compare [`crate::NaiveScheduler`], which pays for every tenant
//! switch).
//!
//! Dispatch visits only the contexts where something changed. A visit
//! ends once no idle stream can take a queued entry, and only two things
//! can change that: a stage enqueued into the context, or a kernel
//! completing there and freeing a stream. Both mark the context, and each
//! dispatch call visits the marked ones in ascending index order,
//! clearing the mark as it starts a visit. A context marked during the
//! call (an abort re-admitting a buffered frame) is visited later in the
//! same call if its index is still ahead, else on the next call — exactly
//! when a visit-every-context loop would have served it. Debug builds
//! check that every skipped context has no idle stream with an eligible
//! queued entry.
//!
//! Each step on a stage is O(1) in the task's job count: a task slot holds
//! at most one job, because the release driver admits a frame only while
//! its task has nothing in flight, so a queue entry finds its job by one
//! comparison of release indices. A completion visits only the finished
//! stage's successors, listed in the task's release template.

use crate::release::{build_engine, Driver, Policy, TaskRef};
use crate::{CompiledTask, QueueOrder, RunMetrics, SgprsConfig};
use sgprs_gpu_sim::{
    ContextId, DeviceEvent, GpuEngine, KernelHandle, ProfileId, StreamClass, StreamId,
};
use sgprs_rt::{Job, PriorityBands, PriorityLevel, SimTime, StageInstance, TaskId};
use std::sync::Arc;

/// Identifies one stage instance of one released job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StageRef {
    task: usize,
    release_index: u64,
    stage: usize,
}

/// A stage running on the device.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    kernel: KernelHandle,
    stage: StageRef,
    /// Isolated-duration estimate charged to the context's backlog.
    est_ns: f64,
}

/// One task slot: the attached task, its job in flight, the stage storage
/// of the last finished one and the task's stage kernels.
///
/// A slot holds at most one job: the release driver admits a frame only
/// while its task has nothing in flight (the driver's one-job
/// invariant), and debug builds check it at every release. Admission
/// indices run on across a slot's jobs and occupants, so a stale queue
/// entry, of an aborted job or of an earlier occupant, finds no job.
#[derive(Debug)]
struct TaskSlot {
    /// The attached task; its release template stamps every release.
    task: TaskRef,
    /// The released, not-yet-finished job, if any.
    job: Option<Job>,
    /// Stage storage of the last finished job, reused by the next release.
    spare: Vec<StageInstance>,
    /// Every (stage, context), stage-major: the stage's work profile as
    /// interned in the engine, and its isolated estimate on the context.
    kernels: Vec<(ProfileId, f64)>,
}

impl TaskSlot {
    /// The job in flight, if it is job `index`.
    fn get(&self, index: u64) -> Option<&Job> {
        self.job.as_ref().filter(|j| j.id.release_index == index)
    }

    /// Releases job `index` of slot `slot` at `release` into the idle
    /// slot.
    fn release(&mut self, slot: usize, index: u64, release: SimTime) {
        debug_assert!(
            self.job.is_none(),
            "invariant: a task has at most one job in flight"
        );
        let storage = std::mem::take(&mut self.spare);
        let job = self
            .task
            .template()
            .release(TaskId(slot), index, release, storage);
        self.job = Some(job);
    }

    /// Drops finished job `index`, keeping its stage storage; `false`
    /// when it is not the job in flight.
    fn retire(&mut self, index: u64) -> bool {
        let Some(job) = self.job.take_if(|j| j.id.release_index == index) else {
            return false;
        };
        self.spare = job.stages;
        true
    }
}

/// One context's dispatch state.
#[derive(Debug)]
struct ContextQueue {
    /// Three-band EDF ready queue.
    bands: PriorityBands<StageRef>,
    /// Outstanding-work estimate in nanoseconds (queued + running stages
    /// at their isolated estimates).
    pending_ns: f64,
    /// Marked when a stage is enqueued here or a kernel completes here;
    /// [`Policy::dispatch`] visits only marked contexts.
    dirty: bool,
}

/// Which band(s) a dispatch pop may take from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PopBand {
    /// Only the high band (feeds high-priority streams).
    ExactHigh,
    /// Medium then low (feeds low-priority streams).
    AtMostMedium,
}

/// High and low priority streams per context (§IV-B3).
const STREAMS: (usize, usize) = (2, 2);

/// Index of `stream` in the pool-wide table of stream slots.
fn slot_of(stream: StreamId) -> usize {
    stream.context.0 * (STREAMS.0 + STREAMS.1) + stream.index
}

/// The SGPRS online scheduler. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct SgprsScheduler {
    driver: Driver,
    policy: Sgprs,
}

/// The SGPRS policy: admission test, §IV-B2 context assignment, band
/// dispatch and abort.
#[derive(Debug)]
struct Sgprs {
    config: SgprsConfig,
    engine: GpuEngine,
    /// The task slots: each one's task, live jobs and estimates.
    slots: Vec<TaskSlot>,
    /// Exponential moving average of observed job response times (ns),
    /// driving admission control.
    response_ema_ns: f64,
    /// Completions observed so far (EMA warm-up gate).
    completions_seen: u64,
    /// Per-context ready queues, backlog estimates and dispatch marks.
    contexts: Vec<ContextQueue>,
    /// Kernels in flight, indexed by [`slot_of`] their stream (a stream
    /// holds at most one kernel).
    running: Vec<Option<InFlight>>,
    /// Scratch for the stages a completion makes ready.
    ready: Vec<usize>,
    /// Released, not-yet-finished jobs across all tasks.
    live_jobs: usize,
    /// SMs of each context, for the isolated estimates of attached tasks.
    sm_allocs: Vec<u32>,
    /// Monotone counter providing FIFO pseudo-deadlines for the ablation
    /// queue order.
    fifo_seq: u64,
    /// Total stream slots across the pool (the device's job-level
    /// concurrency; admission never declines below this depth).
    slot_count: usize,
}

impl SgprsScheduler {
    /// Creates a scheduler for `tasks` over the configured context pool;
    /// task `i` takes slot `i` and first releases at its phase. The set
    /// may be empty: [`Self::attach`] adds tasks later.
    ///
    /// # Panics
    ///
    /// Panics if any task has no stages.
    #[must_use]
    pub fn new(config: SgprsConfig, tasks: Vec<CompiledTask>) -> Self {
        let mut driver = Driver::new(config.admission, config.warmup);
        let sm_allocs = config.pool.sm_allocations();
        let engine = build_engine(
            &config.pool.gpu,
            config.contention,
            config.seed,
            config.tracing,
            &sm_allocs,
            STREAMS,
        );
        let n_ctx = sm_allocs.len();
        let slot_count = n_ctx * (STREAMS.0 + STREAMS.1);
        let mut policy = Sgprs {
            config,
            engine,
            slots: Vec::with_capacity(tasks.len()),
            response_ema_ns: 0.0,
            completions_seen: 0,
            contexts: (0..n_ctx)
                .map(|_| ContextQueue {
                    bands: PriorityBands::new(),
                    pending_ns: 0.0,
                    dirty: false,
                })
                .collect(),
            running: vec![None; slot_count],
            ready: Vec::new(),
            live_jobs: 0,
            sm_allocs,
            fifo_seq: 0,
            slot_count,
        };
        driver.attach_all(&mut policy, tasks);
        SgprsScheduler { driver, policy }
    }

    /// Attaches `task`, its first frame released at `at`, and returns its
    /// slot. The paper's zero-configuration switch: the task gets its
    /// job list and its row of stage kernels, and no context is created,
    /// resized or stalled.
    ///
    /// # Panics
    ///
    /// Panics if the task has no stages or `at` lies before the device
    /// clock.
    pub fn attach(&mut self, task: impl Into<Arc<CompiledTask>>, at: SimTime) -> usize {
        self.driver
            .attach(&mut self.policy, TaskRef::Shared(task.into()), at)
    }

    /// Detaches the task in `slot` at `at`: frames due before `at` are
    /// still released, none after, and jobs in flight finish. The slot is
    /// recycled once it is idle.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no attached task.
    pub fn detach(&mut self, slot: usize, at: SimTime) {
        self.driver.detach(&mut self.policy, slot, at);
    }

    /// The underlying device engine (for traces and occupancy stats).
    #[must_use]
    pub fn engine(&self) -> &GpuEngine {
        &self.policy.engine
    }

    /// Runs the simulation until `end` and returns the metrics over the
    /// measurement window (`warmup..end`).
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        self.driver.run(&mut self.policy, end)
    }

    /// Stops every release at `at` and runs until the last job in flight
    /// has finished, returning the metrics of that final window.
    pub fn finish(&mut self, at: SimTime) -> RunMetrics {
        self.driver.finish(&mut self.policy, at)
    }
}

impl Policy for Sgprs {
    fn engine(&mut self) -> &mut GpuEngine {
        &mut self.engine
    }

    /// Appends (or, in a recycled slot, rewrites) the task's slot: the
    /// task itself, whose offline release template every release reads,
    /// and its row of stage kernels, each stage's profile interned in the
    /// engine once here. The context pool is untouched, and a recycled
    /// slot reuses its row, so re-attaching a shared task allocates
    /// nothing.
    fn attach(&mut self, slot: usize, task: TaskRef) {
        assert!(
            task.stage_count() > 0,
            "SGPRS schedules staged tasks; use the offline phase to compile them"
        );
        debug_assert!(
            task.template().fits(&task.spec),
            "invariant: the task's timing is the one its release template was built from"
        );
        if slot == self.slots.len() {
            let row = task.stage_count() * self.sm_allocs.len();
            self.slots.push(TaskSlot {
                task,
                job: None,
                spare: Vec::new(),
                kernels: Vec::with_capacity(row),
            });
        } else {
            debug_assert!(self.slots[slot].job.is_none(), "a recycled slot is idle");
            self.slots[slot].task = task;
        }
        let launch_ns = self.config.pool.gpu.launch_overhead_ns as f64;
        let engine = &mut self.engine;
        let TaskSlot { task, kernels, .. } = &mut self.slots[slot];
        kernels.clear();
        for profile in &task.stage_profiles {
            let id = engine.intern(profile);
            let speedup = engine.speedup_model();
            kernels.extend(self.sm_allocs.iter().map(|&sm| {
                let isolated_ns = launch_ns + profile.duration_ns_at(speedup, f64::from(sm));
                (id, isolated_ns)
            }));
        }
    }

    /// Feedback admission test: a new frame is declined while the
    /// observed (smoothed) job response time exceeds the task's relative
    /// deadline. Declining sheds load, responses recover, admission
    /// resumes — the closed loop settles with in-flight work sized so
    /// that admitted jobs finish roughly on time, which is what lets
    /// SGPRS sustain total FPS with a moderate miss-rate slope past the
    /// pivot (§V). Self-calibrating: no capacity model needed. The frame
    /// is dropped *before* wasting any GPU time on it; the naive baseline
    /// has no such control.
    fn accept(&self, task: usize) -> bool {
        if self.completions_seen < 16 {
            return true; // cold start: no reliable estimate yet
        }
        // Below the device's own concurrency there is no queueing — a new
        // job cannot make anyone late, and admitting keeps the response
        // estimator fed (no shed-forever deadlock).
        debug_assert_eq!(
            self.live_jobs,
            self.slots.iter().filter(|s| s.job.is_some()).count(),
            "live-job count drifted"
        );
        if self.live_jobs < self.slot_count + self.slot_count / 2 {
            return true;
        }
        self.response_ema_ns <= self.slots[task].task.spec.deadline.as_nanos() as f64
    }

    /// Admits a job of `task_idx` released (or grabbed) at `release`
    /// (§IV-B1: absolute stage deadlines are stamped at release).
    fn admit(&mut self, task_idx: usize, index: u64, release: SimTime) {
        self.slots[task_idx].release(task_idx, index, release);
        self.live_jobs += 1;
        // Source stages are immediately ready: assign contexts now.
        for i in 0..self.slots[task_idx].task.template().sources().len() {
            let task = &self.slots[task_idx].task;
            let stage = task.template().sources()[i];
            let priority = task.spec.stages[stage].priority;
            let sref = StageRef {
                task: task_idx,
                release_index: index,
                stage,
            };
            self.enqueue_stage(sref, priority);
        }
    }

    /// Handles a kernel completion: stage bookkeeping, promotion rule, job
    /// completion accounting.
    fn on_event(&mut self, driver: &mut Driver, ev: &DeviceEvent) {
        // The completion freed one of the context's streams.
        self.contexts[ev.context.0].dirty = true;
        let Some(InFlight {
            stage: sref,
            est_ns,
            ..
        }) = self.running[slot_of(ev.stream)].take_if(|f| f.kernel == ev.kernel)
        else {
            return;
        };
        let pending = &mut self.contexts[ev.context.0].pending_ns;
        *pending = (*pending - est_ns).max(0.0);
        let TaskSlot { task, job, .. } = &mut self.slots[sref.task];
        let Some(job) = job
            .as_mut()
            .filter(|j| j.id.release_index == sref.release_index)
        else {
            return;
        };
        let missed_virtual = ev.finished_at > job.stages[sref.stage].absolute_deadline;
        let mut ready = std::mem::take(&mut self.ready);
        job.complete_stage(
            sref.stage,
            ev.finished_at,
            task.template(),
            &task.spec,
            &mut ready,
        );
        let (completed, release, deadline) = (job.completed_at, job.release, job.absolute_deadline);
        for &stage in &ready {
            let mut priority = self.slots[sref.task].task.spec.stages[stage].priority;
            // §IV-B3: a low stage whose predecessor missed its virtual
            // deadline is promoted to medium.
            if missed_virtual && self.config.medium_promotion {
                priority = priority.promoted();
            }
            self.enqueue_stage(StageRef { stage, ..sref }, priority);
        }
        self.ready = ready;
        if let Some(done) = completed {
            self.note_completion(done.duration_since(release).as_nanos() as f64);
            self.retire_job(sref);
            driver.complete(self, sref.task, release, done, deadline);
        }
    }

    /// Dispatches queued stages onto idle stream slots (§IV-B3): high
    /// band → high streams; medium and low bands → low streams. Visits
    /// only the contexts marked since their last visit, in index order
    /// (module docs).
    fn dispatch(&mut self, driver: &mut Driver, _now: SimTime) {
        for ctx in 0..self.contexts.len() {
            if !std::mem::take(&mut self.contexts[ctx].dirty) {
                debug_assert!(
                    !self.can_dispatch(ctx),
                    "unmarked context {ctx} has an idle stream with eligible queued work"
                );
                continue;
            }
            loop {
                let snap = self.engine.snapshot(ContextId(ctx));
                let mut dispatched = false;
                if snap.idle_high > 0 {
                    if let Some(sref) = self.pop_live(driver, ctx, PopBand::ExactHigh) {
                        self.submit(ctx, StreamClass::High, sref);
                        dispatched = true;
                    }
                }
                let snap = self.engine.snapshot(ContextId(ctx));
                if snap.idle_low > 0 {
                    if let Some(sref) = self.pop_live(driver, ctx, PopBand::AtMostMedium) {
                        self.submit(ctx, StreamClass::Low, sref);
                        dispatched = true;
                    } else if self.config.high_overflow_to_low {
                        if let Some(sref) = self.pop_live(driver, ctx, PopBand::ExactHigh) {
                            self.submit(ctx, StreamClass::Low, sref);
                            dispatched = true;
                        }
                    }
                }
                if !dispatched {
                    break;
                }
            }
        }
    }
}

impl Sgprs {
    /// EMA smoothing factor for the response-time estimate.
    const RESPONSE_EMA_ALPHA: f64 = 0.05;

    /// Feeds one observed job response into the admission estimator.
    fn note_completion(&mut self, response_ns: f64) {
        self.completions_seen += 1;
        if self.completions_seen == 1 {
            self.response_ema_ns = response_ns;
        } else {
            self.response_ema_ns = (1.0 - Self::RESPONSE_EMA_ALPHA) * self.response_ema_ns
                + Self::RESPONSE_EMA_ALPHA * response_ns;
        }
    }

    /// Whether context `ctx` has an idle stream and a queued entry that
    /// stream may serve (what a dispatch visit would pop).
    fn can_dispatch(&self, ctx: usize) -> bool {
        let snap = self.engine.snapshot(ContextId(ctx));
        let bands = &self.contexts[ctx].bands;
        let high = bands.band_len(PriorityLevel::High) > 0;
        let below_high = bands.len() > bands.band_len(PriorityLevel::High);
        (snap.idle_high > 0 && high)
            || (snap.idle_low > 0 && (below_high || (self.config.high_overflow_to_low && high)))
    }

    /// Drops finished or aborted job `sref.release_index` of `sref.task`.
    fn retire_job(&mut self, sref: StageRef) {
        let retired = self.slots[sref.task].retire(sref.release_index);
        self.live_jobs -= usize::from(retired);
    }

    /// §IV-B2 context assignment: empty queues first, then the
    /// deadline-meeting context with the shortest queue, else earliest
    /// estimated finish time.
    fn enqueue_stage(&mut self, sref: StageRef, priority: PriorityLevel) {
        let deadline = self.slots[sref.task]
            .get(sref.release_index)
            .expect("invariant: queued stages belong to live jobs")
            .stages[sref.stage]
            .absolute_deadline;
        let now_ns = self.engine.now().as_nanos() as f64;
        let n_ctx = self.contexts.len();

        // Rule 1: contexts with empty queues — pick the one with the most
        // idle streams (least resident work), ties to the lowest index.
        let mut best_empty: Option<(usize, usize)> = None; // (idle streams, ctx)
        for ctx in 0..n_ctx {
            if self.contexts[ctx].bands.is_empty() {
                let snap = self.engine.snapshot(ContextId(ctx));
                let idle = snap.idle_high + snap.idle_low;
                if best_empty.is_none_or(|(best_idle, _)| idle > best_idle) {
                    best_empty = Some((idle, ctx));
                }
            }
        }
        let chosen = if let Some((_, ctx)) = best_empty {
            ctx
        } else {
            // Rule 2: among contexts whose estimated finish meets the
            // stage deadline, the shortest queue.
            let mut meeting: Option<(usize, usize)> = None; // (queue len, ctx)
            let mut earliest: (f64, usize) = (f64::INFINITY, 0);
            for ctx in 0..n_ctx {
                let est = self.estimate_finish_ns(ctx, sref, now_ns);
                if est < earliest.0 {
                    earliest = (est, ctx);
                }
                if est <= deadline.as_nanos() as f64 {
                    let qlen = self.contexts[ctx].bands.len();
                    if meeting.is_none_or(|(best_len, _)| qlen < best_len) {
                        meeting = Some((qlen, ctx));
                    }
                }
            }
            match meeting {
                Some((_, ctx)) => ctx,
                // Rule 3: earliest estimated finish time.
                None => earliest.1,
            }
        };

        let est = self.isolated_estimate_ns(chosen, sref);
        let queue = &mut self.contexts[chosen];
        queue.pending_ns += est;
        queue.dirty = true;
        let queue_key = match self.config.queue_order {
            QueueOrder::Edf => deadline,
            QueueOrder::Fifo => {
                self.fifo_seq += 1;
                SimTime::from_nanos(self.fifo_seq)
            }
        };
        queue.bands.push(priority, sref, queue_key);
    }

    /// Isolated-duration estimate of a stage on a context's full SM
    /// allocation (the scheduler's cheap WCET-like estimate), tabulated
    /// when the task is attached.
    fn isolated_estimate_ns(&self, ctx: usize, sref: StageRef) -> f64 {
        self.kernel(ctx, sref).1
    }

    /// The stage's interned profile and isolated estimate on context
    /// `ctx`, tabulated when the task is attached.
    fn kernel(&self, ctx: usize, sref: StageRef) -> (ProfileId, f64) {
        let n_ctx = self.contexts.len();
        self.slots[sref.task].kernels[sref.stage * n_ctx + ctx]
    }

    /// Estimated absolute finish instant (ns) if the stage were appended
    /// to context `ctx` now: current backlog shrunk by the context's
    /// intra-context parallelism, plus the stage's own estimate.
    fn estimate_finish_ns(&self, ctx: usize, sref: StageRef, now_ns: f64) -> f64 {
        /// Divisor of a context's outstanding-work estimate: the streams
        /// of one context run about 1.5 stages at a time.
        const FINISH_ESTIMATE_PARALLELISM: f64 = 1.5;
        let backlog = self.contexts[ctx].pending_ns / FINISH_ESTIMATE_PARALLELISM;
        now_ns + backlog + self.isolated_estimate_ns(ctx, sref)
    }

    /// Pops the next dispatchable stage from a context queue, discarding
    /// stale entries (jobs already aborted) and — when
    /// [`SgprsConfig::abort_hopeless`] is set — aborting jobs whose
    /// absolute deadline has already passed rather than serving stale
    /// frames.
    fn pop_live(&mut self, driver: &mut Driver, ctx: usize, band: PopBand) -> Option<StageRef> {
        loop {
            let entry = match band {
                PopBand::ExactHigh => self.contexts[ctx].bands.pop_exact(PriorityLevel::High),
                PopBand::AtMostMedium => self.contexts[ctx]
                    .bands
                    .pop_at_most(PriorityLevel::Medium)
                    .map(|(_, e)| e),
            }?;
            let sref = entry.item;
            let hopeless = match self.slots[sref.task].get(sref.release_index) {
                // The job was aborted while this stage sat in the queue.
                None => None,
                Some(job)
                    if self.config.abort_hopeless && self.engine.now() > job.absolute_deadline =>
                {
                    Some(job.release)
                }
                Some(_) => return Some(sref),
            };
            let est = self.isolated_estimate_ns(ctx, sref);
            let pending = &mut self.contexts[ctx].pending_ns;
            *pending = (*pending - est).max(0.0);
            if let Some(release) = hopeless {
                // The frame is dropped; the task is free to take its
                // freshest buffered frame right away.
                self.retire_job(sref);
                let now = self.engine.now();
                driver.abort(self, sref.task, release, now);
            }
        }
    }

    fn submit(&mut self, ctx: usize, class: StreamClass, sref: StageRef) {
        // Labels only matter to the trace; untraced runs skip formatting.
        let label = if self.engine.trace().is_some() {
            format!("τ{}#{}/s{}", sref.task, sref.release_index, sref.stage)
        } else {
            String::new()
        };
        let (profile, est_ns) = self.kernel(ctx, sref);
        let (kernel, stream) = self
            .engine
            .submit_profile(ContextId(ctx), class, profile, 0.0, &label)
            .expect("invariant: dispatch checked an idle stream existed");
        self.running[slot_of(stream)] = Some(InFlight {
            kernel,
            stage: sref,
            est_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{offline, Admission, ContextPoolSpec};
    use sgprs_dnn::{models, CostModel};
    use sgprs_rt::SimDuration;

    fn thirty_fps() -> SimDuration {
        SimDuration::from_micros(33_333)
    }

    fn compile_staged(pool: &ContextPoolSpec, stages: usize) -> CompiledTask {
        let net = models::resnet18(1, 224);
        offline::compile_network_task(
            "cam",
            &net,
            &CostModel::calibrated(),
            stages,
            thirty_fps(),
            pool,
        )
        .unwrap()
    }

    fn compile(pool: &ContextPoolSpec, n: usize) -> Vec<CompiledTask> {
        vec![compile_staged(pool, 6); n]
    }

    fn run_sgprs(pool: ContextPoolSpec, n: usize, secs: u64) -> RunMetrics {
        let tasks = compile(&pool, n);
        let mut s = SgprsScheduler::new(SgprsConfig::new(pool), tasks);
        s.run(SimTime::ZERO + SimDuration::from_secs(secs))
    }

    #[test]
    fn single_task_meets_every_deadline() {
        let m = run_sgprs(ContextPoolSpec::new(2, 1.0), 1, 2);
        assert!(
            m.is_miss_free(),
            "one 30-fps task must be trivially schedulable: {m:?}"
        );
        assert!((m.total_fps - 30.0).abs() < 1.5, "fps {:.1}", m.total_fps);
    }

    #[test]
    fn light_load_scales_fps_linearly() {
        let m4 = run_sgprs(ContextPoolSpec::new(2, 1.5), 4, 2);
        assert!(m4.is_miss_free(), "{m4:?}");
        assert!(
            (m4.total_fps - 120.0).abs() < 4.0,
            "fps {:.1}",
            m4.total_fps
        );
    }

    #[test]
    fn overload_saturates_but_keeps_serving() {
        let m = run_sgprs(ContextPoolSpec::new(3, 1.5), 30, 3);
        assert!(m.total_fps > 300.0, "saturated fps {:.0}", m.total_fps);
        assert!(m.dmr > 0.0, "30 tasks must overload the pool");
        assert!(
            m.dmr < 0.9,
            "SGPRS must degrade gracefully, dmr {:.2}",
            m.dmr
        );
    }

    #[test]
    fn a_task_slot_holds_at_most_one_job() {
        // Past the pivot with hopeless jobs aborted: frames are buffered
        // or skipped, and an abort re-admits a buffered frame at once.
        // Debug builds assert at every release that the slot is idle.
        let pool = ContextPoolSpec::new(3, 1.5);
        let tasks = compile(&pool, 30);
        let mut totals = Vec::new();
        for admission in [Admission::FrameBuffer, Admission::SkipIfBusy] {
            let mut cfg = SgprsConfig::new(pool.clone());
            cfg.admission = admission;
            cfg.abort_hopeless = true;
            let mut s = SgprsScheduler::new(cfg, tasks.clone());
            let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
            let live = s.policy.slots.iter().filter(|s| s.job.is_some()).count();
            assert_eq!(s.policy.live_jobs, live, "{admission:?}");
            totals.push([m.released, m.completed, m.late, m.skipped, m.dropped]);
        }
        // [released, completed, late, skipped, dropped]
        assert_eq!(
            totals,
            [[1_350, 646, 138, 0, 672], [1_350, 618, 68, 385, 317]]
        );
    }

    #[test]
    fn isolated_estimate_table_matches_a_fresh_compute() {
        // Unequal allocations (2× over-subscription splits 136 SMs as
        // 46/45/45) and unequal stage counts: a mis-indexed lookup reads
        // a neighbour's estimate.
        let pool = ContextPoolSpec::new(3, 2.0);
        let allocs = pool.sm_allocations();
        assert!(allocs.windows(2).any(|w| w[0] != w[1]), "{allocs:?}");
        let tasks: Vec<CompiledTask> = [3, 6, 3]
            .into_iter()
            .map(|stages| compile_staged(&pool, stages))
            .collect();
        let mut s = SgprsScheduler::new(SgprsConfig::new(pool.clone()), tasks.clone());
        let launch = pool.gpu.launch_overhead_ns as f64;
        for (task, t) in tasks.iter().enumerate() {
            assert_eq!(
                s.policy.slots[task].kernels.len(),
                t.stage_count() * allocs.len()
            );
            for (stage, profile) in t.stage_profiles.iter().enumerate() {
                // Interning an attached stage's profile again finds its id.
                let id = s.policy.engine.intern(profile);
                let model = s.engine().speedup_model();
                for (ctx, &sm) in allocs.iter().enumerate() {
                    let sref = StageRef {
                        task,
                        release_index: 0,
                        stage,
                    };
                    let fresh = launch + profile.duration_ns_at(model, f64::from(sm));
                    let (kernel_id, est_ns) = s.policy.kernel(ctx, sref);
                    assert_eq!(
                        (kernel_id, est_ns.to_bits()),
                        (id, fresh.to_bits()),
                        "task {task} stage {stage} ctx {ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_sgprs(ContextPoolSpec::new(2, 1.5), 8, 2);
        let b = run_sgprs(ContextPoolSpec::new(2, 1.5), 8, 2);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.late, b.late);
        assert_eq!(a.skipped, b.skipped);
    }

    #[test]
    fn fifo_ablation_runs_and_differs_or_matches_edf() {
        let pool = ContextPoolSpec::new(2, 1.5);
        let tasks = compile(&pool, 16);
        let mut cfg = SgprsConfig::new(pool.clone());
        cfg.queue_order = QueueOrder::Fifo;
        let mut s = SgprsScheduler::new(cfg, tasks.clone());
        let fifo = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        let mut s = SgprsScheduler::new(SgprsConfig::new(pool), tasks);
        let edf = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        // EDF should never be substantially worse on misses.
        assert!(edf.late + edf.skipped <= fifo.late + fifo.skipped + 5);
    }

    #[test]
    fn empty_task_set_runs_idle() {
        let mut s = SgprsScheduler::new(SgprsConfig::new(ContextPoolSpec::new(2, 1.0)), vec![]);
        let m = s.run(SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!((m.released, m.completed), (0, 0));
        assert!(m.per_task.is_empty());
        assert_eq!(s.finish(SimTime::ZERO + SimDuration::from_millis(100)), m);
    }

    #[test]
    fn tracing_records_kernels() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let tasks = compile(&pool, 2);
        let mut cfg = SgprsConfig::new(pool);
        cfg.tracing = true;
        let mut s = SgprsScheduler::new(cfg, tasks);
        let _ = s.run(SimTime::ZERO + SimDuration::from_millis(200));
        let trace = s.engine().trace().expect("tracing enabled");
        assert!(!trace.is_empty());
    }
}
