//! The paper-layer scheduler a [`SchedulerKind`] names, built in one
//! place.

use crate::{
    CompiledTask, ContextPoolSpec, NaiveConfig, NaiveScheduler, RunMetrics, SchedulerKind,
    SgprsConfig, SgprsScheduler,
};
use sgprs_gpu_sim::{GpuEngine, GpuSpec};
use sgprs_rt::{SimDuration, SimTime};
use std::sync::Arc;

/// SGPRS or the naive baseline, chosen at run time by a
/// [`SchedulerKind`]. Tasks attach and detach at their instants, and
/// each [`Self::run`] returns the window since the last call.
///
/// Aligned to two cache lines: the epoch fleet keeps one per node side
/// by side, and fan-out workers stepping neighbouring nodes would
/// otherwise write to one shared line at every step (that false sharing
/// cost the two-worker fan-out nearly all of its speed-up).
#[derive(Debug)]
#[repr(align(128))]
pub enum Scheduler {
    /// [`SchedulerKind::Sgprs`].
    Sgprs(SgprsScheduler),
    /// [`SchedulerKind::Naive`].
    Naive(NaiveScheduler),
}

/// Calls `$call` on whichever scheduler `$self` holds, bound as `$s`.
macro_rules! forward {
    ($self:ident, $s:ident => $call:expr) => {
        match $self {
            Scheduler::Sgprs($s) => $call,
            Scheduler::Naive($s) => $call,
        }
    };
}

impl Scheduler {
    /// A `kind` scheduler over `contexts` contexts of `gpu`, its device
    /// seeded with `seed`, leaving jobs released before `warmup` out of
    /// its metrics, with `tasks` in slot order. The one place a kind
    /// becomes an [`SgprsConfig`] or a [`NaiveConfig`]; every other knob
    /// keeps its paper default.
    #[must_use]
    pub fn new(
        kind: SchedulerKind,
        contexts: usize,
        gpu: GpuSpec,
        seed: u64,
        warmup: SimDuration,
        tasks: Vec<CompiledTask>,
    ) -> Self {
        match kind {
            SchedulerKind::Sgprs { oversubscription } => {
                let pool = ContextPoolSpec::new(contexts, oversubscription).with_gpu(gpu);
                let mut cfg = SgprsConfig::new(pool).with_seed(seed);
                cfg.warmup = warmup;
                Scheduler::Sgprs(SgprsScheduler::new(cfg, tasks))
            }
            SchedulerKind::Naive => {
                let mut cfg = NaiveConfig::new(contexts).with_seed(seed);
                cfg.gpu = gpu;
                cfg.warmup = warmup;
                Scheduler::Naive(NaiveScheduler::new(cfg, tasks))
            }
        }
    }

    /// Attaches `task`, first released at `at`; returns its slot.
    pub fn attach(&mut self, task: impl Into<Arc<CompiledTask>>, at: SimTime) -> usize {
        forward!(self, s => s.attach(task, at))
    }

    /// Detaches the task in `slot` at `at`; its job in flight finishes.
    pub fn detach(&mut self, slot: usize, at: SimTime) {
        forward!(self, s => s.detach(slot, at))
    }

    /// The simulated device.
    #[must_use]
    pub fn engine(&self) -> &GpuEngine {
        forward!(self, s => s.engine())
    }

    /// Runs to `end`, returning the window since the last call.
    pub fn run(&mut self, end: SimTime) -> RunMetrics {
        forward!(self, s => s.run(end))
    }

    /// Stops every release at `at` and runs until nothing is in flight,
    /// returning the window since the last call.
    pub fn finish(&mut self, at: SimTime) -> RunMetrics {
        forward!(self, s => s.finish(at))
    }
}
