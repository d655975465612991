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

use crate::release::{build_engine, Driver, Policy};
use crate::{Admission, CompiledTask, QueueOrder, RunMetrics, SgprsConfig};
use sgprs_gpu_sim::{
    ContextId, DeviceEvent, GpuEngine, KernelDesc, KernelHandle, StreamClass, StreamId,
};
use sgprs_rt::{
    Job, PriorityBands, PriorityLevel, ReleaseTemplate, SimTime, StageInstance, TaskId,
};
use std::collections::VecDeque;

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

/// One task's released jobs, plus the stage storage of finished ones.
#[derive(Debug)]
struct TaskJobs {
    template: ReleaseTemplate,
    /// Released, not-yet-finished jobs in admission (release index) order.
    live: VecDeque<Job>,
    /// Stage storage of finished jobs, reused by the next release.
    spare: Vec<Vec<StageInstance>>,
    /// Start of this task's row in [`Sgprs::isolated_ns`].
    isolated_base: usize,
}

impl TaskJobs {
    fn position(&self, index: u64) -> Option<usize> {
        self.live
            .binary_search_by_key(&index, |j| j.id.release_index)
            .ok()
    }

    fn get(&self, index: u64) -> Option<&Job> {
        self.position(index).map(|i| &self.live[i])
    }

    fn get_mut(&mut self, index: u64) -> Option<&mut Job> {
        self.position(index).map(|i| &mut self.live[i])
    }

    /// Releases job `index` at `release`; indices grow per task, so the
    /// new job goes last.
    fn release(&mut self, index: u64, release: SimTime) {
        let storage = self.spare.pop().unwrap_or_default();
        self.live
            .push_back(self.template.release(index, release, storage));
    }

    /// Drops finished job `index`, keeping its stage storage.
    fn retire(&mut self, index: u64) {
        if let Some(job) = self.position(index).and_then(|i| self.live.remove(i)) {
            self.spare.push(job.stages);
        }
    }
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
    tasks: Vec<CompiledTask>,
    /// Released, not-yet-finished jobs, per task.
    jobs: Vec<TaskJobs>,
    /// Exponential moving average of observed job response times (ns),
    /// driving admission control.
    response_ema_ns: f64,
    /// Completions observed so far (EMA warm-up gate).
    completions_seen: u64,
    /// Per-context three-band EDF ready queues.
    queues: Vec<PriorityBands<StageRef>>,
    /// Kernels in flight, indexed by [`slot_of`] their stream (a stream
    /// holds at most one kernel).
    running: Vec<Option<InFlight>>,
    /// Scratch for the stages a completion makes ready.
    ready: Vec<usize>,
    /// Outstanding-work estimate per context in nanoseconds (queued +
    /// running stages at their isolated estimates).
    pending_ns: Vec<f64>,
    /// Isolated estimate of every (task, stage, context), flat: task
    /// rows start at [`TaskJobs::isolated_base`], then stage-major.
    isolated_ns: Vec<f64>,
    /// Monotone counter providing FIFO pseudo-deadlines for the ablation
    /// queue order.
    fifo_seq: u64,
    /// Total stream slots across the pool (the device's job-level
    /// concurrency; admission never declines below this depth).
    slot_count: usize,
}

impl SgprsScheduler {
    /// Creates a scheduler for `tasks` over the configured context pool.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or any task has no stages.
    #[must_use]
    pub fn new(config: SgprsConfig, tasks: Vec<CompiledTask>) -> Self {
        assert!(
            tasks.iter().all(|t| t.stage_count() > 0),
            "SGPRS schedules staged tasks; use the offline phase to compile them"
        );
        let driver = Driver::new(&tasks, config.admission, config.warmup);
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
        // Tasks may differ in stage count, so each keeps its row base.
        let stages: usize = tasks.iter().map(CompiledTask::stage_count).sum();
        let mut isolated_ns = Vec::with_capacity(stages * n_ctx);
        let launch_ns = config.pool.gpu.launch_overhead_ns as f64;
        let jobs = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let isolated_base = isolated_ns.len();
                for profile in &t.stage_profiles {
                    isolated_ns.extend(sm_allocs.iter().map(|&sm| {
                        launch_ns + profile.duration_ns_at(engine.speedup_model(), f64::from(sm))
                    }));
                }
                TaskJobs {
                    template: ReleaseTemplate::new(TaskId(i), &t.spec),
                    live: VecDeque::new(),
                    spare: Vec::new(),
                    isolated_base,
                }
            })
            .collect();
        SgprsScheduler {
            driver,
            policy: Sgprs {
                config,
                engine,
                tasks,
                jobs,
                response_ema_ns: 0.0,
                completions_seen: 0,
                queues: (0..n_ctx).map(|_| PriorityBands::new()).collect(),
                running: vec![None; slot_count],
                ready: Vec::new(),
                pending_ns: vec![0.0; n_ctx],
                isolated_ns,
                fifo_seq: 0,
                slot_count,
            },
        }
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
}

impl Policy for Sgprs {
    fn engine(&mut self) -> &mut GpuEngine {
        &mut self.engine
    }

    /// Feedback admission test: a new frame is declined while the
    /// observed (smoothed) job response time exceeds the task's relative
    /// deadline. Declining sheds load, responses recover, admission
    /// resumes — the closed loop settles with in-flight work sized so
    /// that admitted jobs finish roughly on time, which is what lets
    /// SGPRS sustain total FPS with a moderate miss-rate slope past the
    /// pivot (§V). Self-calibrating: no capacity model needed.
    fn accept(&self, task: usize) -> bool {
        if !self.config.admission_control || self.config.admission == Admission::QueueAll {
            return true;
        }
        if self.completions_seen < 16 {
            return true; // cold start: no reliable estimate yet
        }
        // Below the device's own concurrency there is no queueing — a new
        // job cannot make anyone late, and admitting keeps the response
        // estimator fed (no shed-forever deadlock).
        let live_jobs: usize = self.jobs.iter().map(|j| j.live.len()).sum();
        if live_jobs < self.slot_count + self.slot_count / 2 {
            return true;
        }
        self.response_ema_ns <= self.tasks[task].spec.deadline.as_nanos() as f64
    }

    /// Admits a job of `task_idx` released (or grabbed) at `release`
    /// (§IV-B1: absolute stage deadlines are stamped at release).
    fn admit(&mut self, task_idx: usize, index: u64, release: SimTime) {
        self.jobs[task_idx].release(index, release);
        // Source stages are immediately ready: assign contexts now.
        for i in 0..self.jobs[task_idx].template.sources().len() {
            let stage = self.jobs[task_idx].template.sources()[i];
            let sref = StageRef {
                task: task_idx,
                release_index: index,
                stage,
            };
            let priority = self.tasks[task_idx].spec.stages[stage].priority;
            self.enqueue_stage(sref, priority);
        }
    }

    /// Handles a kernel completion: stage bookkeeping, promotion rule, job
    /// completion accounting.
    fn on_event(&mut self, driver: &mut Driver, ev: &DeviceEvent) {
        let Some(InFlight {
            stage: sref,
            est_ns,
            ..
        }) = self.running[slot_of(ev.stream)].take_if(|f| f.kernel == ev.kernel)
        else {
            return;
        };
        self.pending_ns[ev.context.0] = (self.pending_ns[ev.context.0] - est_ns).max(0.0);
        let Some(job) = self.jobs[sref.task].get_mut(sref.release_index) else {
            return;
        };
        let missed_virtual = ev.finished_at > job.stages[sref.stage].absolute_deadline;
        let spec = &self.tasks[sref.task].spec;
        let mut ready = std::mem::take(&mut self.ready);
        job.complete_stage(sref.stage, ev.finished_at, spec, &mut ready);
        let (completed, release, deadline) = (job.completed_at, job.release, job.absolute_deadline);
        for &stage in &ready {
            let mut priority = self.tasks[sref.task].spec.stages[stage].priority;
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
            self.jobs[sref.task].retire(sref.release_index);
            driver.complete(self, sref.task, release, done, deadline);
        }
    }

    /// Dispatches queued stages onto idle stream slots (§IV-B3): high
    /// band → high streams; medium and low bands → low streams.
    fn dispatch(&mut self, driver: &mut Driver, _now: SimTime) {
        for ctx in 0..self.queues.len() {
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

    /// §IV-B2 context assignment: empty queues first, then the
    /// deadline-meeting context with the shortest queue, else earliest
    /// estimated finish time.
    fn enqueue_stage(&mut self, sref: StageRef, priority: PriorityLevel) {
        let deadline = self.jobs[sref.task]
            .get(sref.release_index)
            .expect("queued stages belong to live jobs")
            .stages[sref.stage]
            .absolute_deadline;
        let now_ns = self.engine.now().as_nanos() as f64;
        let n_ctx = self.queues.len();

        // Rule 1: contexts with empty queues — pick the one with the most
        // idle streams (least resident work), ties to the lowest index.
        let mut best_empty: Option<(usize, usize)> = None; // (idle streams, ctx)
        for ctx in 0..n_ctx {
            if self.queues[ctx].is_empty() {
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
                    let qlen = self.queues[ctx].len();
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
        self.pending_ns[chosen] += est;
        let queue_key = match self.config.queue_order {
            QueueOrder::Edf => deadline,
            QueueOrder::Fifo => {
                self.fifo_seq += 1;
                SimTime::from_nanos(self.fifo_seq)
            }
        };
        self.queues[chosen].push(priority, sref, queue_key);
    }

    /// Isolated-duration estimate of a stage on a context's full SM
    /// allocation (the scheduler's cheap WCET-like estimate), tabulated
    /// at construction.
    fn isolated_estimate_ns(&self, ctx: usize, sref: StageRef) -> f64 {
        let n_ctx = self.queues.len();
        self.isolated_ns[self.jobs[sref.task].isolated_base + sref.stage * n_ctx + ctx]
    }

    /// Estimated absolute finish instant (ns) if the stage were appended
    /// to context `ctx` now: current backlog shrunk by the context's
    /// intra-context parallelism, plus the stage's own estimate.
    fn estimate_finish_ns(&self, ctx: usize, sref: StageRef, now_ns: f64) -> f64 {
        let backlog = self.pending_ns[ctx] / self.config.finish_estimate_parallelism;
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
                PopBand::ExactHigh => self.queues[ctx].pop_exact(PriorityLevel::High),
                PopBand::AtMostMedium => self.queues[ctx]
                    .pop_at_most(PriorityLevel::Medium)
                    .map(|(_, e)| e),
            }?;
            let sref = entry.item;
            let hopeless = match self.jobs[sref.task].get(sref.release_index) {
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
            self.pending_ns[ctx] = (self.pending_ns[ctx] - est).max(0.0);
            if let Some(release) = hopeless {
                // The frame is dropped; the task is free to take its
                // freshest buffered frame right away.
                self.jobs[sref.task].retire(sref.release_index);
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
        let profile = self.tasks[sref.task].stage_profiles[sref.stage];
        let est_ns = self.isolated_estimate_ns(ctx, sref);
        let kernel = self
            .engine
            .submit(ContextId(ctx), class, KernelDesc::new(label, profile))
            .expect("dispatch checked an idle stream existed");
        let stream = self.engine.stream_of(kernel).expect("just submitted");
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
    use crate::{offline, ContextPoolSpec};
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
        let s = SgprsScheduler::new(SgprsConfig::new(pool.clone()), tasks.clone());
        let launch = pool.gpu.launch_overhead_ns as f64;
        let model = s.engine().speedup_model();
        assert_eq!(s.policy.isolated_ns.len(), (3 + 6 + 3) * allocs.len());
        for (task, t) in tasks.iter().enumerate() {
            for (stage, profile) in t.stage_profiles.iter().enumerate() {
                for (ctx, &sm) in allocs.iter().enumerate() {
                    let sref = StageRef {
                        task,
                        release_index: 0,
                        stage,
                    };
                    let fresh = launch + profile.duration_ns_at(model, f64::from(sm));
                    assert_eq!(
                        s.policy.isolated_estimate_ns(ctx, sref).to_bits(),
                        fresh.to_bits(),
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
    fn queue_all_admission_completes_more_but_later() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let tasks = compile(&pool, 24);
        let mut cfg = SgprsConfig::new(pool);
        cfg.admission = Admission::QueueAll;
        let mut s = SgprsScheduler::new(cfg, tasks);
        let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(m.skipped, 0, "queue-all never skips");
        assert!(m.completed > 0);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_task_set_panics() {
        let _ = SgprsScheduler::new(SgprsConfig::new(ContextPoolSpec::new(2, 1.0)), vec![]);
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
