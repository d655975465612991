//! Allocation budget of the paper layer: once a scheduler is warm, its
//! steady-state release → dispatch → complete loop does no heap work, and
//! the allocation count of a run is a pure function of its inputs: each
//! warm window's allocations and the kernels its engine completes are
//! pinned exactly.
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
    ContextPoolSpec, RunMetrics, Scheduler, SgprsConfig, SgprsScheduler, DEFAULT_WARMUP,
};
use sgprs_gpu_sim::GpuSpec;
use sgprs_rt::{SimDuration, SimTime};
use sgprs_workload::{ScenarioSpec, SchedulerKind, PAPER_STAGES};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tasks per point: far past both pivots, so SGPRS's queueing,
/// promotion and admission paths all run.
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

/// One warm second window: its metrics, its heap allocations and the
/// kernels the engine completed in it.
#[derive(Debug, PartialEq)]
struct Window {
    metrics: RunMetrics,
    allocs: u64,
    kernels: u64,
}

/// Builds the Fig. 3/4 point `(np, scheduler, TASKS)`, warms it up with
/// one run, and counts a second run window.
fn second_window(contexts: usize, scheduler: SchedulerKind) -> Window {
    let spec = ScenarioSpec::new(contexts, scheduler, 2);
    let tasks = spec.compile_tasks(TASKS);
    let gpu = GpuSpec::rtx_2080_ti();
    let mut s = Scheduler::new(scheduler, contexts, gpu, spec.seed, DEFAULT_WARMUP, tasks);
    let _ = s.run(at(1_000));
    let before = s.engine().completed_count();
    let (metrics, allocs) = counted(|| s.run(at(2_000)));
    Window {
        metrics,
        allocs,
        kernels: s.engine().completed_count() - before,
    }
}

/// `(heap allocations, engine completions)` of the warm second window of
/// SGPRS at np=3, os=1.5, and of the naive baseline at np=3.
const SGPRS_WINDOW: (u64, u64) = (34, 4_424);
const NAIVE_WINDOW: (u64, u64) = (34, 457);

/// Heap allocations of a repeat [`TenantSpec::compile_for`] of a
/// six-stage ResNet-18 at 30 fps: the stage timing and the compiled
/// task's own buffers, among them the release template's successor
/// table, and no network.
const REPEAT_COMPILE_ALLOCS: u64 = 31;

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
            SGPRS_WINDOW,
        ),
        (3, SchedulerKind::Naive, NAIVE_WINDOW),
    ];
    for (contexts, scheduler, pinned) in points {
        let w = second_window(contexts, scheduler);
        let m = &w.metrics;
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
            w.allocs < m.released,
            "{scheduler} (np={contexts}): {} allocations for {} released jobs",
            w.allocs,
            m.released
        );
        assert_eq!(
            (w.allocs, w.kernels),
            pinned,
            "{scheduler} (np={contexts}): (allocations, engine completions) of the warm window"
        );
        assert_eq!(
            second_window(contexts, scheduler),
            w,
            "{scheduler}: identical runs give identical metrics and counts"
        );
    }
    reattaching_a_shared_task_allocates_nothing();
    repeat_compiles_build_no_network();
}
