//! Smoke runs of every workload at a tiny size: every metric is printed
//! with its unit, the output checks pass, and the deterministic counters
//! repeat across two runs in one process.

use sgprs_bench::report::CountingAlloc;
use sgprs_perfbench::{per_layer, run, Outcome, Plan, Workload, END_TO_END};
use std::sync::Mutex;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counters are process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny_run(workload: Workload, trace: bool) -> Outcome {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let plan = Plan {
        seed: 7,
        budget: Duration::ZERO,
        trace,
        tiny: true,
    };
    run(workload, &plan)
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not printed"))
        .value
}

fn assert_prints(outcome: &Outcome, names: &[(String, &str)]) {
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    let printed: Vec<(String, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    assert_eq!(printed, names);
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    let json = outcome.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for (name, unit) in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    let names: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for workload in Workload::ALL {
        let outcome = tiny_run(workload, false);
        assert_prints(&outcome, &names);
        for (name, _) in &names {
            assert!(
                value(&outcome, name) > 0.0,
                "{}: {name} is 0",
                workload.name()
            );
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_with_its_unit() {
    for workload in Workload::ALL {
        let outcome = tiny_run(workload, true);
        assert_prints(&outcome, &per_layer());
        assert_eq!(value(&outcome, "gpu-sim.replay_mismatches"), 0.0);
        assert!(value(&outcome, "trace.overhead") > 0.0);
    }
}

/// Allocation counts repeat only to within this relative error: the
/// schedulers' `std` hash maps draw a random hash seed per instance, and
/// whether a full table rehashes in place or grows (allocating) depends on
/// where earlier removals left tombstones, hence on that seed.
const ALLOC_TOLERANCE: f64 = 1e-3;

#[test]
fn deterministic_counters_repeat_across_runs() {
    let exact = [
        "gpu-sim.kernels",
        "cluster.event.events",
        "cluster.epoch.node_epochs",
        "cluster.span.event_pop.calls",
        "cluster.span.plan.calls",
        "cluster.dispatch.deferred",
    ];
    let allocs = [
        "core.sgprs.allocs_per_job",
        "core.naive.allocs_per_job",
        "cluster.event.allocs_per_event",
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= ALLOC_TOLERANCE * a.abs().max(b.abs());
    for workload in Workload::ALL {
        let w = workload.name();
        let (a, b) = (tiny_run(workload, false), tiny_run(workload, false));
        assert_eq!(a.digest, b.digest, "{w}");
        assert!(
            close(value(&a, "allocs_per_job"), value(&b, "allocs_per_job")),
            "{w}"
        );
        let (a, b) = (tiny_run(workload, true), tiny_run(workload, true));
        for name in exact {
            assert_eq!(value(&a, name), value(&b, name), "{w}: {name}");
        }
        for name in allocs {
            assert!(close(value(&a, name), value(&b, name)), "{w}: {name}");
        }
    }
}

#[test]
fn the_workloads_exercise_the_layers_they_were_chosen_for() {
    let sweep = tiny_run(Workload::PaperSweep, true);
    assert!(value(&sweep, "gpu-sim.kernels") > 0.0);
    assert!(value(&sweep, "gpu-sim.replay_s") > 0.0);
    assert_eq!(value(&sweep, "cluster.event.events"), 0.0);
    let epoch = tiny_run(Workload::FleetEpoch, true);
    assert!(value(&epoch, "cluster.span.epoch_compile.calls") > 0.0);
    assert_eq!(value(&epoch, "cluster.dispatch.deferred"), 0.0);
    let event = tiny_run(Workload::FleetEventOverload, true);
    assert!(value(&event, "cluster.event.events") > 0.0);
    assert!(value(&event, "cluster.dispatch.migrations") > 0.0);
    assert!(value(&event, "cluster.span.unattributed_s") > 0.0);
    assert_eq!(value(&event, "gpu-sim.kernels"), 0.0);
}
