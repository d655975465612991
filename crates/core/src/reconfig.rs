//! A third comparison point: the *reconfiguring* spatial partitioner.
//!
//! The paper's headline is the **zero-configuration partition switch**:
//! SGPRS pre-creates an over-subscribed context pool once, so moving a
//! stage to another partition costs nothing. The natural alternative —
//! what MPS-based systems without a pool do — is to *resize* partitions as
//! the tenant population changes: whenever the number of active tasks
//! changes, tear the partitions down and rebuild them to match, stalling
//! the whole device for the reconfiguration window.
//!
//! This scheduler makes that cost explicit. It is otherwise *stronger*
//! than the naive baseline (it right-sizes partitions: one partition per
//! active task, up to a cap), so any loss against SGPRS is attributable
//! to the reconfiguration stalls alone — direct evidence for the value of
//! seamless switching.

use crate::naive::{JobRef, WholeNetworks};
use crate::release::{build_engine, Driver, Policy, TaskRef};
use crate::{CompiledTask, NaiveConfig, RunMetrics};
use sgprs_gpu_sim::{DeviceEvent, GpuEngine};
use sgprs_rt::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Configuration of the reconfiguring partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigConfig {
    /// Baseline knobs shared with the naive scheduler (device, admission,
    /// warm-up, seed).
    pub base: NaiveConfig,
    /// Device-wide stall charged for every repartitioning, in nanoseconds
    /// (MPS server restart / context re-creation; tens of milliseconds on
    /// real systems).
    pub repartition_stall_ns: u64,
    /// Maximum number of partitions the device may be split into.
    pub max_partitions: usize,
}

impl ReconfigConfig {
    /// Defaults: 100 ms stall per repartition (MPS server restart plus
    /// context re-creation and model re-initialisation), at most 8
    /// partitions.
    #[must_use]
    pub fn new() -> Self {
        ReconfigConfig {
            base: NaiveConfig::new(1),
            repartition_stall_ns: 100_000_000,
            max_partitions: 8,
        }
    }
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig::new()
    }
}

/// The reconfiguring spatial partitioner. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct ReconfigScheduler {
    driver: Driver,
    policy: Reconfig,
}

/// The reconfiguring policy: one device-wide FIFO over right-sized
/// partitions, rebuilt whenever the tenant population changes.
#[derive(Debug)]
struct Reconfig {
    config: ReconfigConfig,
    whole: WholeNetworks,
    /// Whole-network jobs waiting for a partition, FIFO across the device.
    queue: VecDeque<JobRef>,
    /// Number of partitions the engine is currently built for.
    current_partitions: usize,
    repartitions: u64,
}

impl ReconfigScheduler {
    /// Creates the scheduler for `tasks`, task `i` in slot `i` first
    /// releasing at its phase; the initial layout has one partition.
    ///
    /// # Panics
    ///
    /// Panics if `max_partitions` is zero.
    #[must_use]
    pub fn new(config: ReconfigConfig, tasks: Vec<CompiledTask>) -> Self {
        assert!(config.max_partitions > 0, "need at least one partition");
        let mut driver = Driver::new(config.base.admission, config.base.warmup);
        let mut policy = Reconfig {
            whole: WholeNetworks::new(Reconfig::build_engine(&config, 1), tasks.len()),
            config,
            queue: VecDeque::new(),
            current_partitions: 1,
            repartitions: 0,
        };
        driver.attach_all(&mut policy, tasks);
        ReconfigScheduler { driver, policy }
    }

    /// Number of repartitioning stalls incurred so far.
    #[must_use]
    pub fn repartition_count(&self) -> u64 {
        self.policy.repartitions
    }

    /// Runs until `end`, returning the metrics over `warmup..end`.
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        self.driver.run(&mut self.policy, end)
    }
}

impl Reconfig {
    /// An equal split of the device into `partitions` one-stream
    /// partitions of at least one SM each.
    fn build_engine(config: &ReconfigConfig, partitions: usize) -> GpuEngine {
        let base = &config.base;
        let sm_allocs: Vec<u32> = NaiveConfig {
            contexts: partitions,
            ..base.clone()
        }
        .sm_allocations()
        .into_iter()
        .map(|sm| sm.max(1))
        .collect();
        build_engine(
            &base.gpu,
            base.contention,
            base.seed,
            base.tracing,
            &sm_allocs,
            (1, 0),
        )
    }

    /// Rebuilds the context layout when the desired partition count — one
    /// partition per tenant that has ever released work, capped — changed,
    /// charging the device-wide stall. Only possible when the device is
    /// idle (in-flight kernels cannot survive a repartition); otherwise
    /// the repartition is deferred to the next idle instant. The rebuilt
    /// engine's clock starts at the end of the stall, so nothing is
    /// dispatched before it.
    fn maybe_repartition(&mut self, driver: &Driver, now: SimTime) {
        let desired = driver.released_tasks().clamp(1, self.config.max_partitions);
        if desired == self.current_partitions || self.whole.busy() {
            return;
        }
        let mut engine = Self::build_engine(&self.config, desired);
        let stall = SimDuration::from_nanos(self.config.repartition_stall_ns);
        engine.advance_to(now + stall);
        self.whole.set_engine(engine);
        self.current_partitions = desired;
        self.repartitions += 1;
    }
}

impl Policy for Reconfig {
    fn engine(&mut self) -> &mut GpuEngine {
        &mut self.whole.engine
    }

    fn attach(&mut self, slot: usize, task: TaskRef) {
        self.whole.attach(slot, task);
    }

    fn admit(&mut self, task: usize, index: u64, release: SimTime) {
        let job = self.whole.job(task, index, release);
        self.queue.push_back(job);
    }

    fn on_event(&mut self, driver: &mut Driver, ev: &DeviceEvent) {
        if let Some(job) = self.whole.finish(ev) {
            driver.complete(self, job.task, job.release, ev.finished_at, job.deadline);
        }
    }

    fn dispatch(&mut self, driver: &mut Driver, now: SimTime) {
        self.maybe_repartition(driver, now);
        for ctx in 0..self.whole.engine.context_count() {
            if !self.whole.idle(ctx) {
                continue;
            }
            let Some(job) = self.queue.pop_front() else {
                return;
            };
            self.whole.submit(ctx, job, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{offline, ContextPoolSpec};
    use sgprs_dnn::{models, CostModel};

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
        (0..n)
            .map(|i| {
                let mut t = task.clone();
                t.spec.name = format!("cam-{i}");
                t
            })
            .collect()
    }

    #[test]
    fn single_task_schedules_after_initial_repartition() {
        let mut s = ReconfigScheduler::new(ReconfigConfig::new(), compile(1));
        let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(m.total_fps > 25.0, "{m:?}");
    }

    #[test]
    fn growing_tenant_population_forces_repartitions() {
        let mut s = ReconfigScheduler::new(ReconfigConfig::new(), compile(6));
        let _ = s.run(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(
            s.repartition_count() >= 1,
            "six tenants cannot fit the initial single partition"
        );
    }

    #[test]
    fn repartition_stalls_cost_against_sgprs_under_churn() {
        // Tenants arriving over time: each arrival changes the desired
        // partition count, so the reconfiguring partitioner stalls the
        // whole device per arrival while SGPRS's pre-created pool absorbs
        // the churn with zero-configuration switches.
        let mut tasks = compile(10);
        for (i, t) in tasks.iter_mut().enumerate() {
            t.spec.phase = SimDuration::from_millis(600 + 150 * i as u64);
        }
        let end = SimTime::ZERO + SimDuration::from_secs(3);
        let mut rec = ReconfigScheduler::new(ReconfigConfig::new(), tasks.clone());
        let rec_m = rec.run(end);
        assert!(
            rec.repartition_count() >= 4,
            "churn must force repeated repartitions, got {}",
            rec.repartition_count()
        );
        let pool = ContextPoolSpec::new(2, 1.5);
        let mut sg = crate::SgprsScheduler::new(crate::SgprsConfig::new(pool), tasks);
        let sg_m = sg.run(end);
        let sg_misses = sg_m.late + sg_m.skipped + sg_m.dropped;
        let rec_misses = rec_m.late + rec_m.skipped + rec_m.dropped;
        assert!(
            sg_misses < rec_misses,
            "seamless switching must miss fewer deadlines: sgprs {sg_misses} vs reconfig {rec_misses}"
        );
    }

    #[test]
    fn max_partitions_caps_the_layout() {
        let mut cfg = ReconfigConfig::new();
        cfg.max_partitions = 2;
        let mut s = ReconfigScheduler::new(cfg, compile(10));
        let _ = s.run(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(s.policy.current_partitions <= 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = ReconfigScheduler::new(ReconfigConfig::new(), compile(5));
            s.run(SimTime::ZERO + SimDuration::from_secs(1))
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.late, b.late);
    }
}
