//! Allocation budget of the paper layer: once a scheduler is warm, its
//! steady-state release → dispatch → complete loop does no heap work, and
//! the allocation count of a run is a pure function of its inputs.
//! Attaching is set-up-free too: the offline phase built the task's
//! release template, so re-attaching a shared compiled task into a
//! recycled slot allocates nothing, and a fleet tenant's repeat compile
//! reuses its model's cached partition instead of building the network.
//!
//! [`CountingAlloc`] is this test process's global allocator. The target
//! has no libtest harness: its one test runs on the process's only
//! thread (see `single/mod.rs`), so nothing else allocates during a
//! counted window.

mod single;

use sgprs_bench::report::{AllocStats, CountingAlloc};
use sgprs_cluster::{ModelKind, TenantSpec};
use sgprs_core::{
    ContextPoolSpec, NaiveConfig, NaiveScheduler, RunMetrics, SgprsConfig, SgprsScheduler,
};
use sgprs_rt::{SimDuration, SimTime};
use sgprs_workload::{ScenarioSpec, SchedulerKind, PAPER_STAGES};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tasks per point: far past both pivots, so SGPRS's queueing,
/// promotion, admission and abort paths all run.
const TASKS: usize = 30;

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

/// Heap allocations (fresh and grown) made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = AllocStats::snapshot();
    let out = f();
    let delta = AllocStats::snapshot().since(&before);
    (out, delta.allocs + delta.reallocs)
}

/// Builds the Fig. 3/4 point `(np, scheduler, TASKS)`, warms it up with
/// one run, and returns the allocations of a second run window with its
/// metrics.
fn second_window(contexts: usize, scheduler: SchedulerKind) -> (RunMetrics, u64) {
    let spec = ScenarioSpec::new(contexts, scheduler, 2);
    let tasks = spec.compile_tasks(TASKS);
    match scheduler {
        SchedulerKind::Naive => {
            let cfg = NaiveConfig::new(contexts).with_seed(spec.seed);
            let mut s = NaiveScheduler::new(cfg, tasks);
            let _ = s.run(at(1_000));
            counted(|| s.run(at(2_000)))
        }
        SchedulerKind::Sgprs { .. } => {
            let cfg = SgprsConfig::new(spec.pool()).with_seed(spec.seed);
            let mut s = SgprsScheduler::new(cfg, tasks);
            let _ = s.run(at(1_000));
            counted(|| s.run(at(2_000)))
        }
    }
}

/// Heap allocations of a repeat [`TenantSpec::compile_for`] of a
/// six-stage ResNet-18 at 30 fps: the stage timing and the compiled
/// task's own buffers, and no network.
const REPEAT_COMPILE_ALLOCS: u64 = 30;

fn main() {
    single::run(
        "warm_paper_layer_schedulers_allocate_less_than_once_per_job",
        warm_paper_layer_schedulers_allocate_less_than_once_per_job,
    );
}

/// Detaches slot 0 of a warm, overloaded SGPRS scheduler, lets it go
/// idle, and re-attaches the same compiled task, shared, into the
/// recycled slot: the attach allocates nothing.
fn reattaching_a_shared_task_allocates_nothing() {
    let spec = ScenarioSpec::new(
        3,
        SchedulerKind::Sgprs {
            oversubscription: 1.5,
        },
        2,
    );
    let tasks = spec.compile_tasks(TASKS);
    let shared = Arc::new(tasks[0].clone());
    let cfg = SgprsConfig::new(spec.pool()).with_seed(spec.seed);
    let mut s = SgprsScheduler::new(cfg, tasks);
    let _ = s.run(at(1_000));
    s.detach(0, at(1_000));
    let idle = s.run(at(1_200));
    assert_eq!(idle.per_task[0].released, 0, "slot 0 stopped releasing");
    let task = Arc::clone(&shared);
    let (slot, allocs) = counted(|| s.attach(task, at(1_200)));
    assert_eq!(slot, 0, "the idle slot is recycled");
    assert_eq!(allocs, 0, "re-attaching a shared compiled task");
    let m = s.run(at(2_000));
    assert!(
        m.per_task[0].released > 0,
        "the re-attached task runs: {m:?}"
    );
}

/// A repeat compile of an already-partitioned `(model, stages)` pair
/// allocates exactly [`REPEAT_COMPILE_ALLOCS`], far fewer than building
/// the model's network, and compiles the same task as the first.
fn repeat_compiles_build_no_network() {
    let tenant = TenantSpec::new("cam", ModelKind::ResNet18, 30.0).with_stages(PAPER_STAGES);
    let pool = ContextPoolSpec::new(3, 1.5);
    let first = tenant.compile_for(&pool);
    let (again, allocs) = counted(|| tenant.compile_for(&pool));
    assert_eq!(again, first, "a repeat compile is the same task");
    let (_, network) = counted(|| ModelKind::ResNet18.network());
    assert!(
        allocs < network,
        "{allocs} allocations against the network's {network}"
    );
    assert_eq!(allocs, REPEAT_COMPILE_ALLOCS, "a repeat compile");
}

fn warm_paper_layer_schedulers_allocate_less_than_once_per_job() {
    let points = [
        (
            3,
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
        ),
        (3, SchedulerKind::Naive),
    ];
    for (contexts, scheduler) in points {
        let (m, allocs) = second_window(contexts, scheduler);
        assert!(
            m.released > 0 && m.completed > 0,
            "{scheduler}: the window ran: {m:?}"
        );
        if let SchedulerKind::Sgprs { .. } = scheduler {
            assert!(
                m.dmr > 0.0,
                "30 tasks overload np=3: the point is past the pivot"
            );
        }
        assert!(
            allocs < m.released,
            "{scheduler} (np={contexts}): {allocs} allocations for {} released jobs",
            m.released
        );
        let (again, allocs_again) = second_window(contexts, scheduler);
        assert_eq!(
            again, m,
            "{scheduler}: identical runs give identical metrics"
        );
        assert_eq!(
            allocs_again, allocs,
            "{scheduler}: identical runs allocate exactly the same"
        );
    }
    reattaching_a_shared_task_allocates_nothing();
    repeat_compiles_build_no_network();
}
