//! Pinned counters of the epoch fleet: perfbench's tiny `fleet-epoch`
//! fleet (16 metro nodes for 2 simulated seconds at the reference seed)
//! run on one worker. Its arrivals, released jobs, heap allocations and
//! per-span call counts are pure functions of the configuration, so a
//! change that moves any of them — a compile-cache miss, a new
//! allocation per node window, an extra span — must fail here and re-pin
//! on purpose. `epoch_compile` counts scheduler attaches: one per
//! placed arrival here.
//!
//! [`CountingAlloc`] is this test process's global allocator. The target
//! has no libtest harness: its one test runs on the process's only
//! thread (see `single/mod.rs`), and the one worker runs inline on it,
//! so nothing else allocates during the counted run. The first fleet run
//! in a process also fills three process-wide caches: the model work
//! profiles ([`ModelKind::work_profile`]), the calibrated speedup model
//! ([`SpeedupModel::rtx_2080_ti`]) and the six-stage partitions of the
//! metro mix's models ([`ModelKind::partition`]). The test fills them up
//! front and adds their allocations to the pin, so it reads what a run
//! costs in a fresh process.

mod single;

use sgprs_bench::report::{AllocStats, CountingAlloc};
use sgprs_cluster::{Fleet, ModelKind, Span, SPAN_COUNT};
use sgprs_gpu_sim::SpeedupModel;
use sgprs_workload::{FleetScenario, PAPER_STAGES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The repository's reference seed (`"VrPS"`), perfbench's default.
const REFERENCE_SEED: u64 = 0x5672_5053;

/// The deterministic counters of one run.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    arrivals: u64,
    /// Jobs released over every node scheduler's windows.
    released: u64,
    /// Heap allocations of the run in a fresh process: the run's own
    /// plus the process-wide cache fills.
    allocs: u64,
    /// Call counts in [`Span::ALL`] order: plan, drain_scan, event_pop,
    /// event_exec, epoch_compile, telemetry_fold, arrival_pull and the
    /// retired wheel_cascade (always 0).
    spans: [u64; SPAN_COUNT],
}

/// Heap allocations made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = AllocStats::snapshot();
    let out = f();
    (out, AllocStats::snapshot().since(&before).allocs)
}

fn main() {
    single::run(
        "epoch_fleet_counters_are_pinned",
        epoch_fleet_counters_are_pinned,
    );
}

fn epoch_fleet_counters_are_pinned() {
    let (_, cache_fill) = counted(|| {
        let _ = ModelKind::ResNet18.work_profile();
        let _ = SpeedupModel::rtx_2080_ti();
        for model in [
            ModelKind::ResNet18,
            ModelKind::MobileNet,
            ModelKind::ResNet34,
        ] {
            let _ = model.partition(PAPER_STAGES);
        }
    });
    let scenario = FleetScenario::metro_scale(16, 2).with_seed(REFERENCE_SEED);
    let mut fleet = Fleet::new(scenario.config().with_workers(1));
    let (metrics, allocs) = counted(|| fleet.run_configured(scenario.arrivals(), scenario.sim));
    assert_eq!(metrics.deferred, 0, "fleet-epoch keeps the wait queue idle");
    let counters = Counters {
        arrivals: metrics.arrivals,
        released: metrics.nodes.iter().map(|n| n.released).sum(),
        allocs: cache_fill + allocs,
        spans: Span::ALL.map(|s| fleet.span_calls(s)),
    };
    assert_eq!(
        counters,
        Counters {
            arrivals: 14,
            released: 476,
            allocs: 2_836,
            spans: [14, 1, 0, 0, 14, 0, 14, 0],
        },
        "fleet-epoch tiny shape, reference seed, one worker"
    );
}
