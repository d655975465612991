//! Pinned counters of the event engine: the metro-scale scenario's
//! arrivals, events, heap allocations and per-span call counts are pure
//! functions of the configuration, so a change that moves any of them —
//! more work per event, a new allocation on the hot path — must fail
//! here and re-pin on purpose.
//!
//! Three rows: 256 nodes with telemetry and the span profiler armed, so
//! every live span fires; 10,000 nodes with no instrumentation; and the
//! overloaded 8-node fleet of perfbench's `fleet-event-overload`
//! workload (8× the base arrival rate, migration and re-pricing on),
//! whose admission probes, queue drains, upgrades and migration attempts
//! dominate its cost. The event queue is a binary heap, so the retired
//! `wheel_cascade` span reads 0 on every row.
//!
//! Each row also pins the events it handled by kind ([`EventCounts`]):
//! release, migrate, queue-expiry and sample pops plus the churn pulled
//! from the stream. A frame is decided at its release, so no per-frame
//! completion or deadline event appears among them.
//!
//! [`CountingAlloc`] is this test process's global allocator. The target
//! has no libtest harness: its one test runs on the process's only
//! thread (see `single/mod.rs`), so nothing else allocates during a
//! counted row. The first fleet run in a process also fills two process-wide caches: the model work profiles
//! ([`ModelKind::work_profile`]) and the calibrated speedup model
//! ([`SpeedupModel::rtx_2080_ti`]). The test fills both up front and
//! adds their allocations to every row, so each row pins what a run
//! costs in a fresh process, whatever order the rows run in.

mod single;

use sgprs_bench::report::{AllocStats, CountingAlloc};
use sgprs_cluster::event::EventCounts;
use sgprs_cluster::{Fleet, FleetMetrics, ModelKind, Span, SPAN_COUNT};
use sgprs_gpu_sim::SpeedupModel;
use sgprs_rt::SimDuration;
use sgprs_workload::{FleetScenario, TenantLoad};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Simulated horizon of the metro rows, seconds.
const SIM_SECS: u64 = 4;

/// The repository's reference seed (`"VrPS"`), perfbench's default.
const REFERENCE_SEED: u64 = 0x5672_5053;

/// Arrival-rate multiple of the overloaded row over the metro base.
const OVERLOAD: u64 = 8;

/// Telemetry window of the instrumented row.
const TELEMETRY_WINDOW: SimDuration = SimDuration::from_millis(250);

/// The deterministic counters of one run.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    arrivals: u64,
    /// Event-queue pops plus arrival-stream pulls.
    events: u64,
    /// Heap allocations of the run in a fresh process: the run's own
    /// plus the process-wide cache fills.
    allocs: u64,
    /// Call counts in [`Span::ALL`] order: plan, drain_scan, event_pop,
    /// event_exec, epoch_compile, telemetry_fold, arrival_pull and the
    /// retired wheel_cascade (always 0).
    spans: [u64; SPAN_COUNT],
    /// Events handled, by kind.
    kinds: EventCounts,
}

/// Heap allocations made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = AllocStats::snapshot();
    let out = f();
    (out, AllocStats::snapshot().since(&before).allocs)
}

/// Runs the metro-scale scenario over `nodes` nodes on the event engine,
/// with telemetry and profiling armed when `instrumented`. `cache_fill`
/// is the process-wide caches' allocation count.
fn run(nodes: usize, instrumented: bool, cache_fill: u64) -> Counters {
    let scenario = FleetScenario::metro_scale(nodes, SIM_SECS).with_event_driven();
    run_scenario(scenario, instrumented, cache_fill).0
}

/// Runs `scenario`, with telemetry and profiling armed when
/// `instrumented`, returning its counters and metrics.
fn run_scenario(
    mut scenario: FleetScenario,
    instrumented: bool,
    cache_fill: u64,
) -> (Counters, FleetMetrics) {
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
    let counters = Counters {
        arrivals: metrics.arrivals,
        events: fleet.events_processed(),
        allocs: cache_fill + allocs,
        spans,
        kinds: fleet.event_counts(),
    };
    (counters, metrics)
}

/// Runs perfbench's `fleet-event-overload` fleet at the reference seed:
/// 8 metro nodes for 8 simulated seconds on the event engine, at
/// [`OVERLOAD`]× the base arrival rate, migrating at DMR 0.1 with an
/// admission bound of 1.0. No instrumentation.
fn run_overload(cache_fill: u64) -> (Counters, FleetMetrics) {
    let mut scenario = FleetScenario::metro_scale(8, 8)
        .with_seed(REFERENCE_SEED)
        .with_event_driven();
    if let TenantLoad::Metro { base, .. } = &mut scenario.load {
        base.mean_interarrival =
            SimDuration::from_nanos(base.mean_interarrival.as_nanos() / OVERLOAD);
    }
    scenario.migration = Some(0.1);
    scenario.admission_bound = Some(1.0);
    run_scenario(scenario, false, cache_fill)
}

fn main() {
    single::run(
        "metro_event_engine_counters_are_pinned",
        metro_event_engine_counters_are_pinned,
    );
}

fn metro_event_engine_counters_are_pinned() {
    let (_, cache_fill) = counted(|| {
        let _ = ModelKind::ResNet18.work_profile();
        let _ = SpeedupModel::rtx_2080_ti();
    });
    assert_eq!(
        run(256, true, cache_fill),
        Counters {
            arrivals: 570,
            events: 35_028,
            allocs: 6_384,
            spans: [570, 40, 34_418, 34_418, 0, 1, 610, 0],
            kinds: EventCounts {
                release: 34_414,
                migrate: 0,
                queue_expire: 0,
                sample: 4,
                arrival: 570,
                departure: 40,
            },
        },
        "metro-256, telemetry and profiling armed"
    );
    assert_eq!(
        run(10_000, false, cache_fill),
        Counters {
            arrivals: 6_539,
            events: 396_939,
            allocs: 71_974,
            spans: [6_539, 257, 390_143, 390_143, 0, 0, 6_796, 0],
            kinds: EventCounts {
                release: 390_139,
                migrate: 0,
                queue_expire: 0,
                sample: 4,
                arrival: 6_539,
                departure: 257,
            },
        },
        "metro-10k, no instrumentation"
    );
    let (overload, metrics) = run_overload(cache_fill);
    assert!(
        metrics.deferred > 0
            && metrics.degraded > 0
            && metrics.upgrades > 0
            && metrics.migrations > 0,
        "the overloaded fleet must defer, degrade, upgrade and migrate: {metrics:?}"
    );
    assert_eq!(
        overload,
        Counters {
            arrivals: 266,
            events: 25_615,
            allocs: 4_942,
            spans: [394, 85, 25_277, 25_277, 0, 0, 338, 0],
            kinds: EventCounts {
                release: 23_575,
                migrate: 1_593,
                queue_expire: 101,
                sample: 8,
                arrival: 266,
                departure: 72,
            },
        },
        "fleet-event-overload shape, reference seed, no instrumentation"
    );
}
