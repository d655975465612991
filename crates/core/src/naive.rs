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

use crate::release::{build_engine, Driver, Policy, TaskRef};
use crate::{CompiledTask, NaiveConfig, RunMetrics};
use sgprs_gpu_sim::{ContextId, DeviceEvent, GpuEngine, KernelHandle, ProfileId, StreamClass};
use sgprs_rt::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// One whole-network job.
#[derive(Debug, Clone, Copy)]
struct Job {
    task: usize,
    release_index: u64,
    release: SimTime,
    deadline: SimTime,
}

/// The naive spatial-partitioning scheduler. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct NaiveScheduler {
    driver: Driver,
    policy: Naive,
}

/// The naive policy: static partitions, FIFO per partition, switch tax.
/// Each job runs as one kernel on its otherwise idle one-stream
/// partition.
#[derive(Debug)]
struct Naive {
    config: NaiveConfig,
    engine: GpuEngine,
    /// The attached tasks, indexed by slot, each with its whole-network
    /// profile as interned in the engine.
    tasks: Vec<(TaskRef, ProfileId)>,
    /// The kernel and job each partition runs, indexed by context.
    running: Vec<Option<(KernelHandle, Job)>>,
    /// Tenants (attached tasks, plus detached ones still finishing) per
    /// partition: the count the switch tax grows with.
    tenants: Vec<usize>,
    fifo: Vec<VecDeque<Job>>,
    last_tenant: Vec<Option<usize>>,
}

impl NaiveScheduler {
    /// Creates the baseline for `tasks` over `config.contexts` partitions;
    /// task `i` takes slot `i` and first releases at its phase. The set
    /// may be empty: [`Self::attach`] adds tasks later.
    #[must_use]
    pub fn new(config: NaiveConfig, tasks: Vec<CompiledTask>) -> Self {
        let mut driver = Driver::new(config.admission, config.warmup);
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
        let mut policy = Naive {
            config,
            engine,
            tasks: Vec::with_capacity(tasks.len()),
            running: vec![None; n_ctx],
            tenants: vec![0; n_ctx],
            fifo: (0..n_ctx).map(|_| VecDeque::new()).collect(),
            last_tenant: vec![None; n_ctx],
        };
        driver.attach_all(&mut policy, tasks);
        NaiveScheduler { driver, policy }
    }

    /// Attaches `task`, its first frame released at `at`, and returns its
    /// slot. The slot's partition follows the round-robin rule, and the
    /// partition's tenant count, which sets its switch tax, grows by one
    /// from now on.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before the device clock.
    pub fn attach(&mut self, task: impl Into<Arc<CompiledTask>>, at: SimTime) -> usize {
        self.driver
            .attach(&mut self.policy, TaskRef::Shared(task.into()), at)
    }

    /// Detaches the task in `slot` at `at`: frames due before `at` are
    /// still released, none after, and jobs in flight finish. Once the
    /// slot is idle its partition counts one tenant fewer and the slot is
    /// recycled.
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

    /// Runs the simulation until `end`, returning metrics over
    /// `warmup..end`.
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        self.driver.run(&mut self.policy, end)
    }

    /// Stops every release at `at` and runs until the last job in flight
    /// has finished, returning the metrics of that final window.
    pub fn finish(&mut self, at: SimTime) -> RunMetrics {
        self.driver.finish(&mut self.policy, at)
    }
}

impl Naive {
    /// The partition of task slot `slot`: round robin over slots.
    fn partition_of(&self, slot: usize) -> usize {
        slot % self.tenants.len()
    }
}

impl Policy for Naive {
    fn engine(&mut self) -> &mut GpuEngine {
        &mut self.engine
    }

    fn attach(&mut self, slot: usize, task: TaskRef) {
        let ctx = self.partition_of(slot);
        self.tenants[ctx] += 1;
        let profile = self.engine.intern(&task.whole_profile);
        let attached = (task, profile);
        if slot == self.tasks.len() {
            self.tasks.push(attached);
        } else {
            self.tasks[slot] = attached;
        }
    }

    fn vacate(&mut self, slot: usize) {
        let ctx = self.partition_of(slot);
        self.tenants[ctx] -= 1;
        // The slot's next occupant is a different tenant: its first job
        // pays the switch.
        if self.last_tenant[ctx] == Some(slot) {
            self.last_tenant[ctx] = None;
        }
    }

    fn admit(&mut self, task: usize, index: u64, release: SimTime) {
        let job = Job {
            task,
            release_index: index,
            release,
            deadline: release + self.tasks[task].0.spec.deadline,
        };
        let ctx = self.partition_of(task);
        self.fifo[ctx].push_back(job);
    }

    fn on_event(&mut self, driver: &mut Driver, ev: &DeviceEvent) {
        let finished = self.running[ev.context.0].take_if(|(kernel, _)| *kernel == ev.kernel);
        if let Some((_, job)) = finished {
            driver.complete(self, job.task, job.release, ev.finished_at, job.deadline);
        }
    }

    fn dispatch(&mut self, _driver: &mut Driver, _now: SimTime) {
        for ctx in 0..self.fifo.len() {
            // Sequential: dispatch only when the partition is idle.
            if self.engine.snapshot(ContextId(ctx)).resident != 0 {
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
            // Labels only matter to the trace; untraced runs skip formatting.
            let label = if self.engine.trace().is_some() {
                format!("τ{}#{}", job.task, job.release_index)
            } else {
                String::new()
            };
            let profile = self.tasks[job.task].1;
            let (handle, _) = self
                .engine
                .submit_profile(
                    ContextId(ctx),
                    StreamClass::High,
                    profile,
                    switch_ns,
                    &label,
                )
                .expect("partition was idle");
            self.running[ctx] = Some((handle, job));
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
