//! The naive baseline: pure spatial partitioning (§V).
//!
//! The paper's comparison point is "a simple spatial partitioning
//! scheduler that lacks the context switch and temporal partitioning
//! features":
//!
//! * the GPU is split into `np` equal partitions (never over-subscribed);
//! * each task is statically assigned to one partition (round robin);
//! * each partition executes whole networks sequentially, FIFO — no
//!   stages, no priorities, no concurrency;
//! * switching a partition to a different tenant costs a reconfiguration
//!   delay (weight upload, context state) that grows with the number of
//!   tenants sharing the partition — exactly the cost SGPRS's seamless,
//!   zero-configuration switching removes.
//!
//! Past the pivot point this switch tax plus head-of-line blocking produce
//! the paper's observed behaviour: total FPS *degrades* to a plateau well
//! below SGPRS while the deadline-miss rate explodes (the domino effect of
//! §V).

use crate::release::{build_engine, Driver, Policy};
use crate::{CompiledTask, NaiveConfig, RunMetrics};
use sgprs_gpu_sim::{ContextId, DeviceEvent, GpuEngine, KernelDesc, KernelHandle, StreamClass};
use sgprs_rt::SimTime;
use std::collections::VecDeque;

/// One whole-network job of the naive or reconfiguring partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobRef {
    pub(crate) task: usize,
    release_index: u64,
    pub(crate) release: SimTime,
    pub(crate) deadline: SimTime,
}

/// Whole-network execution shared by the naive and reconfiguring
/// partitioners: each job runs as one kernel on an otherwise idle
/// one-stream partition.
#[derive(Debug)]
pub(crate) struct WholeNetworks {
    /// The device; replace it only through [`WholeNetworks::set_engine`].
    pub(crate) engine: GpuEngine,
    tasks: Vec<CompiledTask>,
    /// The kernel and job each partition runs, indexed by context (a
    /// partition has one stream).
    running: Vec<Option<(KernelHandle, JobRef)>>,
}

impl WholeNetworks {
    pub(crate) fn new(engine: GpuEngine, tasks: Vec<CompiledTask>) -> Self {
        WholeNetworks {
            running: vec![None; engine.context_count()],
            engine,
            tasks,
        }
    }

    /// Replaces the device with `engine`, a new partition layout.
    ///
    /// # Panics
    ///
    /// Panics if a job is still running.
    pub(crate) fn set_engine(&mut self, engine: GpuEngine) {
        assert!(
            !self.busy(),
            "in-flight kernels cannot survive a repartition"
        );
        self.running = vec![None; engine.context_count()];
        self.engine = engine;
    }

    /// `true` while any partition runs a job.
    pub(crate) fn busy(&self) -> bool {
        self.running.iter().any(Option::is_some)
    }

    /// The job whose kernel completed in `ev`, now off the device.
    pub(crate) fn finish(&mut self, ev: &DeviceEvent) -> Option<JobRef> {
        self.running[ev.context.0]
            .take_if(|(kernel, _)| *kernel == ev.kernel)
            .map(|(_, job)| job)
    }

    /// Job `index` of `task`, released (or grabbed) at `release`.
    pub(crate) fn job(&self, task: usize, index: u64, release: SimTime) -> JobRef {
        JobRef {
            task,
            release_index: index,
            release,
            deadline: release + self.tasks[task].spec.deadline,
        }
    }

    /// `true` when partition `ctx` has nothing resident.
    pub(crate) fn idle(&self, ctx: usize) -> bool {
        self.engine.snapshot(ContextId(ctx)).resident == 0
    }

    /// Runs `job` on the idle partition `ctx`, after `extra_ns` of serial
    /// set-up.
    pub(crate) fn submit(&mut self, ctx: usize, job: JobRef, extra_ns: f64) {
        // Labels only matter to the trace; untraced runs skip formatting.
        let label = if self.engine.trace().is_some() {
            format!("τ{}#{}", job.task, job.release_index)
        } else {
            String::new()
        };
        let desc =
            KernelDesc::new(label, self.tasks[job.task].whole_profile).with_extra_ns(extra_ns);
        let handle = self
            .engine
            .submit(ContextId(ctx), StreamClass::High, desc)
            .expect("partition was idle");
        self.running[ctx] = Some((handle, job));
    }
}

/// The naive spatial-partitioning scheduler. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct NaiveScheduler {
    driver: Driver,
    policy: Naive,
}

/// The naive policy: static partitions, FIFO per partition, switch tax.
#[derive(Debug)]
struct Naive {
    config: NaiveConfig,
    whole: WholeNetworks,
    /// Static task → partition assignment (round robin).
    ctx_of_task: Vec<usize>,
    /// Tenants (distinct tasks) per partition, fixed at construction.
    tenants: Vec<usize>,
    fifo: Vec<VecDeque<JobRef>>,
    last_tenant: Vec<Option<usize>>,
}

impl NaiveScheduler {
    /// Creates the baseline for `tasks` over `config.contexts` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    #[must_use]
    pub fn new(config: NaiveConfig, tasks: Vec<CompiledTask>) -> Self {
        let driver = Driver::new(&tasks, config.admission, config.warmup);
        // One stream, sequential execution: no temporal partitioning.
        let engine = build_engine(
            &config.gpu,
            config.contention,
            config.seed,
            config.tracing,
            &config.sm_allocations(),
            (1, 0),
        );
        let n_ctx = engine.context_count();
        let ctx_of_task: Vec<usize> = (0..tasks.len()).map(|i| i % n_ctx).collect();
        let tenants = (0..n_ctx)
            .map(|c| ctx_of_task.iter().filter(|&&t| t == c).count())
            .collect();
        NaiveScheduler {
            driver,
            policy: Naive {
                config,
                whole: WholeNetworks::new(engine, tasks),
                ctx_of_task,
                tenants,
                fifo: (0..n_ctx).map(|_| VecDeque::new()).collect(),
                last_tenant: vec![None; n_ctx],
            },
        }
    }

    /// The underlying device engine (for traces and occupancy stats).
    #[must_use]
    pub fn engine(&self) -> &GpuEngine {
        &self.policy.whole.engine
    }

    /// Runs the simulation until `end`, returning metrics over
    /// `warmup..end`.
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        self.driver.run(&mut self.policy, end)
    }
}

impl Policy for Naive {
    fn engine(&mut self) -> &mut GpuEngine {
        &mut self.whole.engine
    }

    fn admit(&mut self, task: usize, index: u64, release: SimTime) {
        let job = self.whole.job(task, index, release);
        self.fifo[self.ctx_of_task[task]].push_back(job);
    }

    fn on_event(&mut self, driver: &mut Driver, ev: &DeviceEvent) {
        if let Some(job) = self.whole.finish(ev) {
            driver.complete(self, job.task, job.release, ev.finished_at, job.deadline);
        }
    }

    fn dispatch(&mut self, _driver: &mut Driver, _now: SimTime) {
        for ctx in 0..self.fifo.len() {
            // Sequential: dispatch only when the partition is idle.
            if !self.whole.idle(ctx) {
                continue;
            }
            let Some(job) = self.fifo[ctx].pop_front() else {
                continue;
            };
            // The partition reconfiguration tax SGPRS avoids: charged when
            // the tenant changes.
            let switch_ns = if self.last_tenant[ctx] == Some(job.task) {
                0.0
            } else {
                self.config.switch_cost_ns(self.tenants[ctx])
            };
            self.last_tenant[ctx] = Some(job.task);
            self.whole.submit(ctx, job, switch_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{offline, ContextPoolSpec};
    use sgprs_dnn::{models, CostModel};
    use sgprs_rt::SimDuration;

    fn compile(n: usize) -> Vec<CompiledTask> {
        let net = models::resnet18(1, 224);
        let task = offline::compile_network_task(
            "cam",
            &net,
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &ContextPoolSpec::new(2, 1.0),
        )
        .unwrap();
        vec![task; n]
    }

    fn run_naive(contexts: usize, n: usize, secs: u64) -> RunMetrics {
        let mut s = NaiveScheduler::new(NaiveConfig::new(contexts), compile(n));
        s.run(SimTime::ZERO + SimDuration::from_secs(secs))
    }

    #[test]
    fn single_task_is_schedulable() {
        let m = run_naive(2, 1, 2);
        assert!(m.is_miss_free(), "{m:?}");
        assert!((m.total_fps - 30.0).abs() < 1.5);
    }

    #[test]
    fn light_load_meets_deadlines() {
        let m = run_naive(2, 4, 2);
        assert!(m.is_miss_free(), "{m:?}");
        assert!((m.total_fps - 120.0).abs() < 4.0);
    }

    #[test]
    fn overload_degrades_hard() {
        let m = run_naive(2, 30, 3);
        assert!(
            m.dmr > 0.3,
            "naive must collapse under 30 tasks, dmr {:.2}",
            m.dmr
        );
        assert!(
            m.total_fps > 100.0,
            "but it still serves: {:.0}",
            m.total_fps
        );
    }

    #[test]
    fn pivot_is_earlier_than_sgprs() {
        // At 16 tasks the naive scheduler already misses deadlines while
        // SGPRS (np=2, os=1.5) still sails through.
        let naive = run_naive(2, 16, 2);
        assert!(!naive.is_miss_free(), "naive at 16 tasks: {naive:?}");
        let pool = ContextPoolSpec::new(2, 1.5);
        let net = models::resnet18(1, 224);
        let task = offline::compile_network_task(
            "cam",
            &net,
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &pool,
        )
        .unwrap();
        let mut s = crate::SgprsScheduler::new(crate::SgprsConfig::new(pool), vec![task; 16]);
        let sgprs = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(
            sgprs.is_miss_free(),
            "sgprs at 16 tasks should be clean: late={} skipped={}",
            sgprs.late,
            sgprs.skipped
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_naive(3, 12, 2);
        let b = run_naive(3, 12, 2);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.late, b.late);
    }

    #[test]
    fn switch_tax_reduces_throughput_with_many_tenants() {
        // Same offered load, fewer tenants per context: 2 tenants on 2
        // contexts vs 8 tenants on 2 contexts at the saturation point.
        let few = run_naive(2, 2, 2);
        let many = run_naive(2, 30, 3);
        // Per-completion cost must be higher with many tenants; a crude
        // proxy: many-tenant FPS is below the zero-switch capacity bound.
        assert!(many.total_fps < 30.0 * 30.0);
        assert!(few.is_miss_free());
    }
}
