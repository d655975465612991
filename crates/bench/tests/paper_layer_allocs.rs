//! Allocation budget of the paper layer: once a scheduler is warm, its
//! steady-state release → dispatch → complete loop does no heap work, and
//! the allocation count of a run is a pure function of its inputs.
//!
//! [`CountingAlloc`] is this test process's global allocator. The target
//! has no libtest harness: its one test runs on the process's only
//! thread (see `single/mod.rs`), so nothing else allocates during a
//! counted window.

mod single;

use sgprs_bench::report::{AllocStats, CountingAlloc};
use sgprs_core::{NaiveConfig, NaiveScheduler, RunMetrics, SgprsConfig, SgprsScheduler};
use sgprs_rt::{SimDuration, SimTime};
use sgprs_workload::{ScenarioSpec, SchedulerKind};

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

fn main() {
    single::run(
        "warm_paper_layer_schedulers_allocate_less_than_once_per_job",
        warm_paper_layer_schedulers_allocate_less_than_once_per_job,
    );
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
}
