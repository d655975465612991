//! Pinned counters of the event engine: the metro-scale scenario's
//! arrivals, events, heap allocations and per-span call counts are pure
//! functions of the configuration, so a change that moves any of them —
//! more work per event, a new allocation on the hot path, an extra wheel
//! cascade — must fail here and re-pin on purpose.
//!
//! Two rows: 256 nodes with telemetry and the span profiler armed, so
//! every span fires, and 10,000 nodes with no instrumentation. Both
//! carry the event engine's real timing-wheel cascades.
//!
//! [`CountingAlloc`] is this test process's global allocator. One test
//! function on purpose — the counters are process-global, so concurrent
//! test threads would smear each other's deltas. The first fleet run in
//! a process also fills the process-wide model work-profile cache
//! ([`ModelKind::work_profile`]); the test fills it up front and adds
//! its allocations to every row, so each row pins what a run costs in a
//! fresh process, whatever order the rows run in.

use sgprs_bench::report::{AllocStats, CountingAlloc};
use sgprs_cluster::{Fleet, ModelKind, Span, SPAN_COUNT};
use sgprs_rt::SimDuration;
use sgprs_workload::FleetScenario;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Simulated horizon of both rows, seconds.
const SIM_SECS: u64 = 4;

/// Telemetry window of the instrumented row.
const TELEMETRY_WINDOW: SimDuration = SimDuration::from_millis(250);

/// The deterministic counters of one run.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    arrivals: u64,
    /// Event-queue pops plus arrival-stream pulls.
    events: u64,
    /// Heap allocations of the run in a fresh process: the run's own
    /// plus the work-profile cache fill.
    allocs: u64,
    /// Call counts in [`Span::ALL`] order: plan, drain_scan, event_pop,
    /// event_exec, epoch_compile, telemetry_fold, arrival_pull,
    /// wheel_cascade.
    spans: [u64; SPAN_COUNT],
}

/// Heap allocations made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = AllocStats::snapshot();
    let out = f();
    (out, AllocStats::snapshot().since(&before).allocs)
}

/// Runs the metro-scale scenario over `nodes` nodes on the event engine,
/// with telemetry and profiling armed when `instrumented`. `cache_fill`
/// is the work-profile cache's allocation count.
fn run(nodes: usize, instrumented: bool, cache_fill: u64) -> Counters {
    let mut scenario = FleetScenario::metro_scale(nodes, SIM_SECS).with_event_driven();
    if instrumented {
        scenario = scenario.with_telemetry(TELEMETRY_WINDOW);
    }
    let cfg = scenario.config();
    let mut fleet = Fleet::new(if instrumented {
        cfg.with_profiling()
    } else {
        cfg
    });
    let (metrics, allocs) = counted(|| fleet.run_configured(scenario.arrivals(), scenario.sim));
    let spans = Span::ALL.map(|s| fleet.span_calls(s));
    match fleet.span_profile() {
        Some(profile) => {
            assert!(instrumented, "an unprofiled run built a profile");
            assert_eq!(
                Span::ALL.map(|s| profile.calls(s)),
                spans,
                "the profile reads the always-on counts"
            );
        }
        None => assert!(!instrumented, "the profiled run kept no profile"),
    }
    Counters {
        arrivals: metrics.arrivals,
        events: fleet.events_processed(),
        allocs: cache_fill + allocs,
        spans,
    }
}

#[test]
fn metro_event_engine_counters_are_pinned() {
    let (_, cache_fill) = counted(|| ModelKind::ResNet18.work_profile());
    assert_eq!(
        run(256, true, cache_fill),
        Counters {
            arrivals: 570,
            events: 69_402,
            allocs: 19_644,
            spans: [570, 40, 68_792, 68_792, 0, 1, 610, 91],
        },
        "metro-256, telemetry and profiling armed"
    );
    assert_eq!(
        run(10_000, false, cache_fill),
        Counters {
            arrivals: 6_539,
            events: 786_823,
            allocs: 222_477,
            spans: [6_539, 257, 780_027, 780_027, 0, 0, 6_796, 91],
        },
        "metro-10k, no instrumentation"
    );
}
