//! End-to-end fleet tests: a multi-GPU fleet must beat the best single
//! GPU, admission control must hold under pressure, the JSON report
//! must carry the acceptance metrics (schema pinned by a golden
//! snapshot), metrics must be bit-identical across every execution
//! strategy, and deadline-aware queueing with fps re-pricing must beat
//! FIFO-reject on the overload burst.

use sgprs_suite::cluster::{
    AdmissionController, ArrivalStream, ChurnConfig, ChurnTrace, DispatchCounts, Fleet,
    FleetConfig, FleetMetrics, FleetMetricsBuilder, FleetNode, ModelKind, NodeSpec, ProfileReport,
    QueuePolicy, SketchSummary, Span, TelemetryConfig, TelemetryReport, TenantSpec, WindowReport,
    BASE_SCHEMA_VERSION, METRICS_SCHEMA_VERSION,
};
use sgprs_suite::core::MetricsCollector;
use sgprs_suite::gpu_sim::GpuSpec;
use sgprs_suite::rt::{SimDuration, SimTime};
use sgprs_suite::workload::{FleetScenario, ScenarioSpec, SchedulerKind, TenantLoad};

/// A 3-node fleet under the paper's ResNet18@30fps workload must achieve
/// a total FPS at least as high as the best single-node Scenario-2
/// (np = 3) result at the same per-node tenant count.
#[test]
fn three_node_fleet_beats_best_single_node_scenario2() {
    let per_node = 10;
    // Best Scenario-2 variant: SGPRS at os = 1.5 (the paper's sweet spot).
    let single = ScenarioSpec::new(
        3,
        SchedulerKind::Sgprs {
            oversubscription: 1.5,
        },
        2,
    )
    .run(per_node);
    let fleet = FleetScenario::homogeneous(3, 3 * per_node, 2).run();
    assert!(
        fleet.total_fps >= single.total_fps,
        "3-node fleet {:.1} fps must beat one GPU at {:.1} fps",
        fleet.total_fps,
        single.total_fps
    );
    assert!(
        fleet.total_fps > single.total_fps * 2.5,
        "and should scale close to 3x: {:.1} vs {:.1}",
        fleet.total_fps,
        single.total_fps
    );
}

/// Overload is absorbed by admission control: with far more offered
/// tenants than the fleet can carry, rejection kicks in, the admitted
/// population keeps near-full throughput, and nothing panics.
#[test]
fn fleet_rejects_overload_instead_of_collapsing() {
    let saturated = FleetScenario::homogeneous(2, 80, 2).run();
    assert!(saturated.rejected > 0, "{saturated:?}");
    assert!(saturated.rejection_rate > 0.2);
    // The admitted tenants still run near the fleet's capacity: more than
    // what 30 unthrottled tenants on one GPU would sustain.
    assert!(saturated.total_fps > 900.0, "{saturated:?}");
    // And the admitted population misses almost nothing.
    assert!(saturated.dmr < 0.05, "{saturated:?}");
}

/// The admission bound is respected at every instant of a churned run.
#[test]
fn churned_fleet_never_overcommits_a_node() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let cfg = FleetConfig::new(scenario.nodes.clone()).with_seed(scenario.seed);
    let mut fleet = Fleet::new(cfg);
    let m = fleet.run(scenario.trace(), scenario.sim);
    assert!(m.arrivals > 0);
    let ctl = AdmissionController::default();
    for node in fleet.nodes() {
        let budget = ctl.budget(node, None);
        assert!(
            node.total_demand() <= budget + 1e-9,
            "{}: demand {:.1} within budget {:.1}",
            node.spec.name,
            node.total_demand(),
            budget
        );
    }
}

/// The JSON report carries the headline fields the acceptance criteria
/// name: positive total FPS and an explicit rejection rate.
#[test]
fn fleet_json_reports_fps_and_rejection_rate() {
    let m = FleetScenario::heterogeneous_churn(3).run();
    let json = m.to_json();
    assert!(m.total_fps > 0.0);
    assert!(json.contains("\"total_fps\""));
    assert!(json.contains("\"rejection_rate\""));
    assert!(json.contains("\"utilization_histogram\""));
    assert_eq!(json.matches("\"name\"").count(), 4, "four nodes reported");
}

/// The determinism matrix: on the heterogeneous churn scenario the
/// `FleetMetrics` JSON is byte-identical across worker counts
/// {1, 2, 4, 8} × {sequential, parallel} × {flat, sharded}. The sharded
/// leg uses one shard covering all four nodes, which provably routes
/// through the identical placement scan — so the *entire* 16-way product
/// collapses onto one reference string. (FIFO queueing is the default
/// here: this is also the pin that the queue subsystem leaves the
/// classic dispatcher bit-for-bit unchanged.)
#[test]
fn fleet_metrics_identical_across_workers_parallelism_and_dispatch() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let run = |parallel: bool, workers: usize, sharded: bool| {
        let mut cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers);
        if !parallel {
            cfg = cfg.with_workers(1);
        }
        if sharded {
            cfg = cfg.with_sharding(scenario.nodes.len());
        }
        Fleet::new(cfg)
            .run(scenario.trace(), scenario.sim)
            .to_json()
    };
    let reference = run(false, 1, false);
    for workers in [1usize, 2, 4, 8] {
        for parallel in [false, true] {
            for sharded in [false, true] {
                assert_eq!(
                    run(parallel, workers, sharded),
                    reference,
                    "workers={workers} parallel={parallel} sharded={sharded} \
                     must be bit-identical to the sequential flat reference"
                );
            }
        }
    }
}

/// The streaming tentpole pin: the generator-backed [`ArrivalStream`]
/// must reproduce the pre-materialised trace byte-for-byte through the
/// full fleet pipeline — the same 16-way matrix as above (workers
/// {1, 2, 4, 8} × {sequential, parallel} × {flat, sharded}), every leg
/// fed by a lazy stream, all collapsing onto the materialised
/// sequential-flat reference. Churn scenarios stream by default now
/// (`FleetScenario::run` never materialises the trace), so this is the
/// guard that the default path and the classic path are the same path.
#[test]
fn streamed_arrivals_are_byte_identical_to_the_materialised_trace() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    assert!(
        scenario.streams_arrivals(),
        "churn scenarios must take the generator-backed path"
    );
    // The reference run consumes the fully materialised trace.
    let reference = Fleet::new(
        FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(1),
    )
    .run(scenario.trace(), scenario.sim)
    .to_json();
    for workers in [1usize, 2, 4, 8] {
        for parallel in [false, true] {
            for sharded in [false, true] {
                let mut cfg = FleetConfig::new(scenario.nodes.clone())
                    .with_seed(scenario.seed)
                    .with_workers(workers);
                if !parallel {
                    cfg = cfg.with_workers(1);
                }
                if sharded {
                    cfg = cfg.with_sharding(scenario.nodes.len());
                }
                let arrivals = scenario.arrivals();
                assert!(arrivals.is_streaming(), "the lazy path must be exercised");
                assert_eq!(
                    Fleet::new(cfg).run(arrivals, scenario.sim).to_json(),
                    reference,
                    "workers={workers} parallel={parallel} sharded={sharded}: \
                     streamed arrivals must be byte-identical to the \
                     materialised reference"
                );
            }
        }
    }
}

/// The O(active) memory pin: the tenant-id table is sized by the peak
/// *concurrently active* population, not by how many tenants the stream
/// carried. Quadrupling the horizon multiplies the streamed arrivals but
/// must leave the id capacity at the (unchanged) churn steady state —
/// and LIFO recycling keeps `id_capacity == peak_active` exactly. A
/// one-node replay of the same churn queues, so it pins replay's drain
/// and expiry path too.
#[test]
fn id_table_is_bounded_by_active_tenants_not_trace_length() {
    let churn = ChurnConfig {
        mean_interarrival: SimDuration::from_millis(5),
        min_lifetime: SimDuration::from_millis(50),
        max_lifetime: SimDuration::from_millis(200),
        max_wait: Some(SimDuration::from_millis(100)),
        ..ChurnConfig::default()
    };
    let nodes: Vec<NodeSpec> = (0..8)
        .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
        .collect();
    // Returns the replay's metrics with (peak_active, id_capacity).
    let replay_for = |nodes: &[NodeSpec], secs: u64| {
        let horizon = SimDuration::from_secs(secs);
        let mut fleet = Fleet::new(FleetConfig::new(nodes.to_vec()));
        let m = fleet.replay_dispatch(ArrivalStream::generate(&churn, horizon, 7), horizon);
        (m, fleet.peak_active_tenants(), fleet.tenant_id_capacity())
    };
    let short = replay_for(&nodes, 5);
    let long = replay_for(&nodes, 20);
    assert!(
        long.0.arrivals >= short.0.arrivals * 3,
        "the long run must stream several times more tenants: {} vs {}",
        long.0.arrivals,
        short.0.arrivals
    );
    for (replay, peak_active, id_capacity) in [&short, &long] {
        assert_eq!(
            id_capacity, peak_active,
            "LIFO recycling must keep the table at the high-water mark: {replay:?}"
        );
    }
    assert!(
        long.2 <= short.2 * 2,
        "id capacity tracks the (unchanged) active steady state, not the \
         trace length: {} after {} arrivals vs {} after {}",
        long.2,
        long.0.arrivals,
        short.2,
        short.0.arrivals
    );
    assert!(
        long.2 < usize::try_from(long.0.arrivals).expect("fits") / 4,
        "the table must stay far below one slot per streamed tenant: {long:?}"
    );
    let (one, peak_active, id_capacity) = replay_for(&nodes[..1], 5);
    let final_active =
        one.nodes.iter().map(|n| n.final_tenants).sum::<usize>() + one.still_queued as usize;
    assert_eq!(
        (
            one.arrivals,
            one.admitted,
            one.deferred,
            one.admitted_after_wait,
            one.expired,
            one.departures,
        ),
        (984, 243, 741, 738, 0, 961),
        "{one:?}"
    );
    assert_eq!((peak_active, id_capacity, final_active), (37, 37, 23));
}

/// Replay follows the fleet's configuration like both engines: with
/// re-pricing armed, a departure's drain upgrades
/// degraded residents, and every arrival is accounted for exactly once.
#[test]
fn replay_follows_the_repricing_config() {
    let churn = ChurnConfig {
        mean_interarrival: SimDuration::from_millis(5),
        min_lifetime: SimDuration::from_millis(50),
        max_lifetime: SimDuration::from_millis(200),
        max_wait: Some(SimDuration::from_millis(100)),
        mix: vec![(ModelKind::ResNet18, 8), (ModelKind::Vgg16, 2)],
        fps: 24.0,
        fps_ladder: vec![15.0, 10.0],
        ..ChurnConfig::default()
    };
    let horizon = SimDuration::from_secs(5);
    let cfg =
        FleetConfig::new(vec![NodeSpec::sgprs("gpu0", GpuSpec::rtx_2080_ti())]).with_repricing();
    let m = Fleet::new(cfg).replay_dispatch(ArrivalStream::generate(&churn, horizon, 7), horizon);
    assert!(m.upgrades > 0, "the drain ran the upgrade pass: {m:?}");
    assert_eq!(
        m.arrivals,
        m.admitted + m.deferred + m.infeasible + m.duplicates,
        "{m:?}"
    );
}

/// The same matrix for genuinely multi-shard dispatch (2-node shards may
/// place arrivals differently from the flat scan, so it gets its own
/// reference): the execution strategy must still never change results.
#[test]
fn multi_shard_dispatch_is_deterministic_across_workers() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let run = |parallel: bool, workers: usize| {
        let mut cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers)
            .with_sharding(2);
        if !parallel {
            cfg = cfg.with_workers(1);
        }
        Fleet::new(cfg)
            .run(scenario.trace(), scenario.sim)
            .to_json()
    };
    let reference = run(false, 1);
    for workers in [1usize, 2, 4, 8] {
        for parallel in [false, true] {
            assert_eq!(run(parallel, workers), reference);
        }
    }
}

/// The queueing acceptance criterion: on the overload burst, deadline-
/// aware queueing plus the fps re-pricing ladder yields a strictly lower
/// eventual rejection rate than FIFO-reject, at equal-or-better fleet
/// DMR, and the new counters surface in the JSON export.
#[test]
fn deadline_repricing_beats_fifo_reject_on_the_overload_burst() {
    let fifo = FleetScenario::overload_burst(8);
    let smart = FleetScenario::overload_burst(8).with_queue(QueuePolicy::EarliestDeadline, true);
    assert_eq!(fifo.trace(), smart.trace(), "same offered load");
    let fifo_m = fifo.run();
    let smart_m = smart.run();
    assert!(
        fifo_m.rejected > 0,
        "the burst must overload the baseline: {fifo_m:?}"
    );
    assert!(
        smart_m.rejection_rate < fifo_m.rejection_rate,
        "re-pricing must strictly lower the eventual rejection rate: \
         {:.4} vs {:.4}",
        smart_m.rejection_rate,
        fifo_m.rejection_rate
    );
    assert!(
        smart_m.dmr <= fifo_m.dmr + 1e-12,
        "at equal or better fleet DMR: {:.6} vs {:.6}",
        smart_m.dmr,
        fifo_m.dmr
    );
    assert!(
        smart_m.degraded > 0,
        "the ladder was exercised: {smart_m:?}"
    );
    assert!(
        smart_m.upgrades > 0,
        "and capacity freed for upgrades: {smart_m:?}"
    );
    assert!(
        smart_m.queue_wait_max_secs <= 2.0 + 1e-9,
        "queue deadlines cap the wait: {smart_m:?}"
    );
    assert_eq!(fifo_m.degraded, 0, "the baseline never re-prices");
    assert_eq!(fifo_m.upgrades, 0);
    let json = smart_m.to_json();
    for field in [
        "\"degraded\"",
        "\"upgrades\"",
        "\"expired\"",
        "\"queue_wait_mean_secs\"",
        "\"queue_wait_max_secs\"",
    ] {
        assert!(json.contains(field), "{field} missing from JSON export");
    }
}

/// The event-driven determinism matrix, mirroring the epoch matrix
/// above: on the heterogeneous churn scenario, `Fleet::run_events`
/// produces byte-identical `FleetMetrics` JSON across worker counts
/// {1, 4} × {flat, sharded} (the event engine is single-threaded — the
/// worker knob must be inert — and the single whole-fleet shard provably
/// routes through the identical placement scan). Neither the event path
/// nor the epoch path on the same trace truncates a job.
#[test]
fn event_driven_metrics_identical_across_workers_and_dispatch() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let run = |workers: usize, sharded: bool| {
        let mut cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers);
        if sharded {
            cfg = cfg.with_sharding(scenario.nodes.len());
        }
        Fleet::new(cfg).run_events(scenario.trace(), scenario.sim)
    };
    let reference = run(1, false);
    assert_eq!(
        reference.truncated_jobs, 0,
        "the event path never truncates"
    );
    let reference_json = reference.to_json();
    for workers in [1usize, 4] {
        for sharded in [false, true] {
            assert_eq!(
                run(workers, sharded).to_json(),
                reference_json,
                "workers={workers} sharded={sharded} must be byte-identical \
                 to the event-driven reference"
            );
        }
    }
    // The same trace on the epoch grid: its node schedulers persist
    // across boundaries and drain at the horizon, so nothing is cut.
    let epoch = Fleet::new(FleetConfig::new(scenario.nodes.clone()).with_seed(scenario.seed))
        .run(scenario.trace(), scenario.sim);
    assert_eq!(
        epoch.truncated_jobs, 0,
        "the epoch path finishes every in-flight job: {epoch:?}"
    );
}

/// The migration cost model acceptance criterion: on the hot-naive-node
/// overload scenario with migration enabled, mid-epoch migration at
/// job-release boundaries (event path) yields DMR ≤ the epoch-boundary
/// path at equal rejection rate, and the event path's migrations pay a
/// nonzero state-transfer stall — while re-pricing partition switches,
/// in the same execution mode, report zero stall.
#[test]
fn event_migration_beats_epoch_migration_and_pays_an_explicit_stall() {
    let epoch = FleetScenario::event_vs_epoch(6);
    let event = FleetScenario::event_vs_epoch(6).with_event_driven();
    assert_eq!(epoch.trace(), event.trace(), "same offered load");
    let epoch_m = epoch.run();
    let event_m = event.run();
    assert_eq!(
        epoch_m.rejection_rate, event_m.rejection_rate,
        "the contrast holds at equal rejection rate"
    );
    assert!(
        epoch_m.migrations > 0,
        "the hot naive node must trigger epoch-boundary migration: {epoch_m:?}"
    );
    assert!(
        event_m.migrations > 0,
        "and release-boundary migration in event mode: {event_m:?}"
    );
    assert!(
        event_m.dmr <= epoch_m.dmr,
        "mid-epoch migration reacts faster: event DMR {:.4} vs epoch {:.4}",
        event_m.dmr,
        epoch_m.dmr
    );
    assert!(
        event_m.migration_stall_secs > 0.0,
        "migrations pay the state-transfer stall: {event_m:?}"
    );
    assert_eq!(
        epoch_m.migration_stall_secs, 0.0,
        "the epoch path keeps its pre-existing free-migration contract"
    );
    assert_eq!(event_m.truncated_jobs, 0);
    assert_eq!(epoch_m.truncated_jobs, 0);

    // The flip side of the cost model: re-pricing degrade/upgrade
    // switches are SGPRS partition switches — the same event-driven
    // engine reports zero stall for a run that exercises them heavily.
    let repriced = FleetScenario::overload_burst(6)
        .with_queue(QueuePolicy::EarliestDeadline, true)
        .with_event_driven();
    let repriced_m = repriced.run();
    assert!(
        repriced_m.degraded > 0 && repriced_m.upgrades > 0,
        "the ladder was exercised in event mode: {repriced_m:?}"
    );
    assert_eq!(
        repriced_m.migration_stall_secs, 0.0,
        "partition switches never pay the migration stall"
    );
    assert_eq!(repriced_m.migrations, 0);
    assert_eq!(repriced_m.truncated_jobs, 0);
}

/// Golden snapshot of the `FleetMetrics::to_json` schema: field names,
/// order, and formatting are pinned so metric renames (or the new
/// queue/degrade counters) cannot silently break downstream consumers.
/// The values come from a hand-built, fully deterministic builder fold —
/// no scheduler runs — so the string is stable by construction. If this
/// test fails because the schema intentionally changed, update the
/// snapshot *and* whatever consumes the JSON.
#[test]
fn fleet_metrics_json_schema_matches_golden_snapshot() {
    // One node epoch: 4 releases, 3 completions (1 late), 1 skip.
    let mut c = MetricsCollector::new(vec!["t".into()], SimTime::ZERO);
    let mut t = SimTime::ZERO;
    for i in 0..4u64 {
        t = SimTime::ZERO + SimDuration::from_millis(33 * (i + 1));
        c.record_release(0, t);
        if i < 3 {
            let fin = t + SimDuration::from_millis(10);
            let deadline = if i < 1 {
                t + SimDuration::from_millis(5)
            } else {
                t + SimDuration::from_millis(33)
            };
            c.record_completion(0, t, fin, deadline);
        } else {
            c.record_skip(0, t);
        }
    }
    let epoch = c.finish(t + SimDuration::from_secs(1));
    let mut b = FleetMetricsBuilder::new(vec!["gpu0".into(), "gpu1".into()], vec![68, 34]);
    b.record_epoch(0, &epoch);
    b.record_utilization(0, 0.42);
    b.record_utilization(1, 0.95);
    b.record_wait(SimDuration::from_millis(1500));
    let json = b.finish(SimDuration::from_secs(2), &[1, 0], 1).to_json();
    let golden = "\
{
  \"schema_version\": 2,
  \"window_secs\": 2.000,
  \"total_fps\": 1.50,
  \"dmr\": 0.5000,
  \"arrivals\": 0,
  \"admitted\": 0,
  \"rejected\": 0,
  \"infeasible\": 0,
  \"deferred\": 0,
  \"duplicates\": 0,
  \"admitted_after_wait\": 0,
  \"still_queued\": 1,
  \"departures\": 0,
  \"migrations\": 0,
  \"truncated_jobs\": 0,
  \"migration_stall_secs\": 0.0000,
  \"degraded\": 0,
  \"upgrades\": 0,
  \"expired\": 0,
  \"queue_wait_mean_secs\": 1.5000,
  \"queue_wait_max_secs\": 1.5000,
  \"rejection_rate\": 0.0000,
  \"utilization_histogram\": [0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
  \"nodes\": [
    {\"name\": \"gpu0\", \"total_sms\": 68, \"fps\": 1.50, \"dmr\": 0.5000, \"released\": 4, \"completed\": 3, \"missed\": 2, \"mean_utilization\": 0.4200, \"final_tenants\": 1},
    {\"name\": \"gpu1\", \"total_sms\": 34, \"fps\": 0.00, \"dmr\": 0.0000, \"released\": 0, \"completed\": 0, \"missed\": 0, \"mean_utilization\": 0.9500, \"final_tenants\": 0}
  ]
}";
    assert_eq!(
        json, golden,
        "FleetMetrics::to_json schema drifted — update the snapshot AND \
         every downstream consumer of the JSON"
    );

    // Schema v3: the same fold with a telemetry report attached, and a
    // node name and a trace line that need escaping.
    let mut b = FleetMetricsBuilder::new(vec!["gpu\"0\"\\a".into(), "gpu1".into()], vec![68, 34]);
    b.record_epoch(0, &epoch);
    b.record_utilization(0, 0.42);
    b.record_utilization(1, 0.95);
    b.record_wait(SimDuration::from_millis(1500));
    let mut m = b.finish(SimDuration::from_secs(2), &[1, 0], 1);
    let sketch = |count: u64, p50_ms: f64| SketchSummary {
        count,
        p50_ms,
        p90_ms: p50_ms * 1.5,
        p99_ms: p50_ms * 2.25,
        max_ms: p50_ms * 3.125,
    };
    m.attach_telemetry(Some(TelemetryReport {
        window_secs: 1.0,
        windows: vec![
            WindowReport {
                start_secs: 0.0,
                counts: DispatchCounts {
                    arrivals: 4,
                    admitted: 1,
                    degraded: 1,
                    deferred: 1,
                    infeasible: 1,
                    duplicates: 1,
                    expired: 2,
                    ..DispatchCounts::default()
                },
                queue_depth_peak: 2,
                utilization_mean: 0.42,
                wait: sketch(0, 0.0),
            },
            WindowReport {
                start_secs: 1.0,
                counts: DispatchCounts {
                    admitted_after_wait: 1,
                    expired: 1,
                    upgrades: 1,
                    migrations: 1,
                    departures: 2,
                    ..DispatchCounts::default()
                },
                queue_depth_peak: 1,
                utilization_mean: 0.68555,
                wait: sketch(1, 1500.0),
            },
        ],
        queue_wait: sketch(1, 1500.0),
        job_latency: sketch(3, 12.3456),
        profile: ProfileReport {
            plans: 5,
            shard_probes: 7,
            drain_scans: 2,
            event_queue_ops: 11,
            trace_recorded: 5,
            trace_dropped: 2,
        },
        trace_enabled: true,
        trace: vec![
            "0.000s arrival cam-1: placed node=0 probes=1".into(),
            "0.500s arrival cam\"2\"\\x\t: queued probes=2".into(),
            "1.500s queue-admit cam-3: waited=1.500s degraded".into(),
        ],
    }));
    let golden_v3 = "\
{
  \"schema_version\": 3,
  \"window_secs\": 2.000,
  \"total_fps\": 1.50,
  \"dmr\": 0.5000,
  \"arrivals\": 0,
  \"admitted\": 0,
  \"rejected\": 0,
  \"infeasible\": 0,
  \"deferred\": 0,
  \"duplicates\": 0,
  \"admitted_after_wait\": 0,
  \"still_queued\": 1,
  \"departures\": 0,
  \"migrations\": 0,
  \"truncated_jobs\": 0,
  \"migration_stall_secs\": 0.0000,
  \"degraded\": 0,
  \"upgrades\": 0,
  \"expired\": 0,
  \"queue_wait_mean_secs\": 1.5000,
  \"queue_wait_max_secs\": 1.5000,
  \"rejection_rate\": 0.0000,
  \"utilization_histogram\": [0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
  \"telemetry\": {
    \"window_secs\": 1.000,
    \"queue_wait_ms\": {\"count\": 1, \"p50\": 1500.000, \"p90\": 2250.000, \"p99\": 3375.000, \"max\": 4687.500},
    \"job_latency_ms\": {\"count\": 3, \"p50\": 12.346, \"p90\": 18.518, \"p99\": 27.778, \"max\": 38.580},
    \"profile\": {\"plans\": 5, \"shard_probes\": 7, \"drain_scans\": 2, \"event_queue_ops\": 11, \"trace_recorded\": 5, \"trace_dropped\": 2},
    \"windows\": [
      {\"start_secs\": 0.000, \"arrivals\": 4, \"admitted\": 1, \"degraded\": 1, \"deferred\": 1, \"infeasible\": 1, \"duplicates\": 1, \"admitted_after_wait\": 0, \"expired\": 2, \"upgrades\": 0, \"migrations\": 0, \"departures\": 0, \"queue_depth_peak\": 2, \"utilization_mean\": 0.4200, \"wait_ms\": {\"count\": 0, \"p50\": 0.000, \"p90\": 0.000, \"p99\": 0.000, \"max\": 0.000}},
      {\"start_secs\": 1.000, \"arrivals\": 0, \"admitted\": 0, \"degraded\": 0, \"deferred\": 0, \"infeasible\": 0, \"duplicates\": 0, \"admitted_after_wait\": 1, \"expired\": 1, \"upgrades\": 1, \"migrations\": 1, \"departures\": 2, \"queue_depth_peak\": 1, \"utilization_mean\": 0.6855, \"wait_ms\": {\"count\": 1, \"p50\": 1500.000, \"p90\": 2250.000, \"p99\": 3375.000, \"max\": 4687.500}}
    ],
    \"trace\": [
      \"0.000s arrival cam-1: placed node=0 probes=1\",
      \"0.500s arrival cam\\\"2\\\"\\\\x\\t: queued probes=2\",
      \"1.500s queue-admit cam-3: waited=1.500s degraded\"
    ]
  },
  \"nodes\": [
    {\"name\": \"gpu\\\"0\\\"\\\\a\", \"total_sms\": 68, \"fps\": 1.50, \"dmr\": 0.5000, \"released\": 4, \"completed\": 3, \"missed\": 2, \"mean_utilization\": 0.4200, \"final_tenants\": 1},
    {\"name\": \"gpu1\", \"total_sms\": 34, \"fps\": 0.00, \"dmr\": 0.0000, \"released\": 0, \"completed\": 0, \"missed\": 0, \"mean_utilization\": 0.9500, \"final_tenants\": 0}
  ]
}";
    assert_eq!(
        m.to_json(),
        golden_v3,
        "FleetMetrics::to_json schema-v3 drifted — update the snapshot AND \
         every downstream consumer of the JSON"
    );
}

/// The p2c determinism matrix: with power-of-two-choices routing the
/// probe pair comes from a seeded hash (never from wall-clock or map
/// order), so the `FleetMetrics` JSON must be byte-identical across
/// worker counts {1, 2, 4, 8} × {sequential, parallel} on the epoch
/// path, and across workers {1, 4} on the (single-threaded) event path.
#[test]
fn p2c_dispatch_is_deterministic_across_workers_and_engines() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let epoch_run = |parallel: bool, workers: usize| {
        let mut cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers)
            .with_p2c_sharding(2);
        if !parallel {
            cfg = cfg.with_workers(1);
        }
        Fleet::new(cfg)
            .run(scenario.trace(), scenario.sim)
            .to_json()
    };
    let reference = epoch_run(false, 1);
    for workers in [1usize, 2, 4, 8] {
        for parallel in [false, true] {
            assert_eq!(
                epoch_run(parallel, workers),
                reference,
                "workers={workers} parallel={parallel}: p2c routing must be \
                 byte-identical to the sequential reference"
            );
        }
    }
    let event_run = |workers: usize| {
        let cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers)
            .with_p2c_sharding(2);
        Fleet::new(cfg)
            .run_events(scenario.trace(), scenario.sim)
            .to_json()
    };
    let event_reference = event_run(1);
    assert_eq!(
        event_run(4),
        event_reference,
        "event p2c run is worker-inert"
    );
}

/// The metro-scale scenario end-to-end in both engines: 512
/// heterogeneous nodes behind p2c routing absorb churn plus burst waves,
/// the admission bound holds on every node afterwards, and the event
/// path still never truncates a job at this scale.
#[test]
fn metro_scale_serves_in_both_engines() {
    let epoch_scenario = FleetScenario::metro_scale(512, 4);
    let event_scenario = FleetScenario::metro_scale(512, 4).with_event_driven();
    assert_eq!(
        epoch_scenario.trace(),
        event_scenario.trace(),
        "same offered load"
    );
    let epoch_m = epoch_scenario.run();
    assert!(
        epoch_m.arrivals > 512,
        "brisk metro churn: {}",
        epoch_m.arrivals
    );
    assert!(epoch_m.admitted > 0 && epoch_m.total_fps > 0.0);
    assert_eq!(epoch_m.nodes.len(), 512);
    let event_m = event_scenario.run();
    assert_eq!(
        event_m.arrivals, epoch_m.arrivals,
        "same trace, same offers"
    );
    assert_eq!(event_m.truncated_jobs, 0, "{event_m:?}");
    assert!(event_m.total_fps > 0.0);
    // Routing through p2c summaries must never bypass per-node
    // admission, even at metro scale.
    let mut fleet = Fleet::new(
        FleetConfig::new(epoch_scenario.nodes.clone())
            .with_seed(epoch_scenario.seed)
            .with_p2c_sharding(8),
    );
    let m = fleet.run(epoch_scenario.trace(), epoch_scenario.sim);
    assert!(m.admitted > 0);
    let ctl = AdmissionController::default();
    for node in fleet.nodes() {
        let budget = ctl.budget(node, None);
        assert!(
            node.total_demand() <= budget + 1e-9,
            "{}: demand {:.1} within budget {:.1}",
            node.spec.name,
            node.total_demand(),
            budget
        );
    }
}

/// The sharded scale-out scenario serves real traffic and the admission
/// bound still holds on every node at the end — routing through shard
/// summaries must never bypass per-node admission.
#[test]
fn sharded_scale_out_serves_without_overcommitting() {
    let scenario = FleetScenario::scale_out(64, 3);
    let mut fleet = Fleet::new(
        FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_sharding(8),
    );
    let m = fleet.run(scenario.trace(), scenario.sim);
    assert!(m.total_fps > 0.0);
    assert!(m.arrivals > 100, "{m:?}");
    assert!(m.admitted > 0);
    let ctl = AdmissionController::default();
    for node in fleet.nodes() {
        let budget = ctl.budget(node, None);
        assert!(
            node.total_demand() <= budget + 1e-9,
            "{}: demand {:.1} within budget {:.1}",
            node.spec.name,
            node.total_demand(),
            budget
        );
    }
}

/// Heterogeneous capacity ordering shows up in the metrics: the 68-SM
/// node carries at least as much work as the 23-SM node.
#[test]
fn bigger_nodes_carry_more_of_the_fleet_load() {
    let mut fleet = Fleet::new(FleetConfig::new(vec![
        NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
        NodeSpec::sgprs("small", GpuSpec::synthetic(23)).with_contexts(2),
    ]));
    let tenants = (0..20).map(|i| TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0));
    let m = fleet.run(
        ChurnTrace::static_population(tenants),
        SimDuration::from_secs(2),
    );
    let by_name = |name: &str| {
        m.nodes
            .iter()
            .find(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
    };
    assert!(by_name("big").completed >= by_name("small").completed);
    let ctl = AdmissionController::default();
    let big = FleetNode::new(NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()));
    let small = FleetNode::new(NodeSpec::sgprs("small", GpuSpec::synthetic(23)).with_contexts(2));
    assert!(ctl.budget(&big, None) > ctl.budget(&small, None));
}

/// The telemetry zero-cost contract: off by default (the export stays on
/// the base schema, exactly as the golden snapshot pins it), and when
/// enabled it observes without steering — stripping the telemetry block
/// from an enabled run reproduces the disabled run byte for byte.
#[test]
fn telemetry_observes_without_steering_and_stays_off_by_default() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let base = scenario.run();
    assert_eq!(base.schema_version, BASE_SCHEMA_VERSION);
    assert!(base.telemetry.is_none(), "telemetry must be opt-in");
    let mut telem = scenario
        .clone()
        .with_telemetry(SimDuration::from_millis(250))
        .run();
    assert_eq!(telem.schema_version, METRICS_SCHEMA_VERSION);
    let report = telem.telemetry.take().expect("telemetry attached");
    assert!(!report.windows.is_empty());
    assert!(report.profile.plans > 0, "{:?}", report.profile);
    telem.schema_version = BASE_SCHEMA_VERSION;
    assert_eq!(
        telem.to_json(),
        base.to_json(),
        "enabling telemetry must never change a simulation decision"
    );
}

/// The 16-way determinism matrix again, telemetry armed: the v3 export
/// (windows, merged sketch quantiles, profile counters) must stay
/// byte-identical across workers {1, 2, 4, 8} × {sequential, parallel}
/// × {flat, sharded} — per-node sketches always fold in node-index
/// order, never in completion order.
#[test]
fn telemetry_matrix_is_byte_identical_across_workers_parallelism_and_dispatch() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let run = |parallel: bool, workers: usize, sharded: bool| {
        let mut cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers)
            .with_telemetry(TelemetryConfig::windowed(SimDuration::from_millis(250)));
        if !parallel {
            cfg = cfg.with_workers(1);
        }
        if sharded {
            cfg = cfg.with_sharding(scenario.nodes.len());
        }
        Fleet::new(cfg)
            .run(scenario.trace(), scenario.sim)
            .to_json()
    };
    let reference = run(false, 1, false);
    assert!(reference.contains("\"schema_version\": 3"));
    assert!(reference.contains("\"telemetry\""));
    for workers in [1usize, 2, 4, 8] {
        for parallel in [false, true] {
            for sharded in [false, true] {
                assert_eq!(
                    run(parallel, workers, sharded),
                    reference,
                    "workers={workers} parallel={parallel} sharded={sharded}: \
                     telemetry must not leak execution-strategy noise"
                );
            }
        }
    }
}

/// The metro-scale acceptance criterion: with telemetry enabled, both
/// engines emit the per-window time-series and p50/p90/p99 queue-wait
/// quantiles from the merged sketches, byte-identical across worker
/// counts {1, 2, 4, 8}.
#[test]
fn metro_telemetry_is_byte_identical_across_workers_in_both_engines() {
    let scenario = FleetScenario::metro_scale(128, 4);
    let cfg_for = |workers: usize| {
        FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers)
            .with_p2c_sharding(8)
            .with_queue_policy(QueuePolicy::EarliestDeadline)
            .with_repricing()
            .with_telemetry(TelemetryConfig::windowed(SimDuration::from_millis(250)))
    };
    let epoch_run =
        |workers: usize| Fleet::new(cfg_for(workers)).run(scenario.trace(), scenario.sim);
    let reference = epoch_run(1);
    let report = reference.telemetry.as_ref().expect("telemetry attached");
    assert_eq!(report.window_secs, 0.25);
    assert!(report.windows.len() >= 16, "4 s / 250 ms windows");
    assert!(
        report.windows.iter().any(|w| w.counts.arrivals > 0),
        "metro churn lands in the series"
    );
    assert!(report.job_latency.count > 0, "completions fed the sketches");
    assert!(
        report.job_latency.p50_ms <= report.job_latency.p90_ms
            && report.job_latency.p90_ms <= report.job_latency.p99_ms,
        "{:?}",
        report.job_latency
    );
    let reference_json = reference.to_json();
    assert!(reference_json.contains("\"queue_wait_ms\""));
    assert!(reference_json.contains("\"p99\""));
    for workers in [2usize, 4, 8] {
        assert_eq!(
            epoch_run(workers).to_json(),
            reference_json,
            "workers={workers}: merged metro telemetry must be byte-identical"
        );
    }
    let event_run = |workers: usize| {
        Fleet::new(cfg_for(workers))
            .run_events(scenario.trace(), scenario.sim)
            .to_json()
    };
    let event_reference = event_run(1);
    assert!(event_reference.contains("\"telemetry\""));
    assert!(event_reference.contains("\"event_queue_ops\""));
    for workers in [2usize, 4, 8] {
        assert_eq!(
            event_run(workers),
            event_reference,
            "workers={workers}: the event engine's telemetry is worker-inert"
        );
    }
}

/// The span profiler's two-sided contract: **zero-cost off** — a run
/// without [`FleetConfig::with_profiling`] never constructs the
/// profiler, observable as `span_profile() == None` — and **inert on** —
/// arming it changes no deterministic byte, while the captured profile
/// shows exactly the spans the chosen engine executes. On both engines
/// the unprofiled run's always-on call counts equal the profile's.
#[test]
fn span_profiler_is_zero_cost_off_and_inert_on() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let cfg = || {
        FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(1)
    };

    // Off: the profiler is never constructed — not "constructed but
    // empty". `None` is the proof the disabled path took no clock reads.
    let mut plain = Fleet::new(cfg());
    let plain_json = plain.run(scenario.trace(), scenario.sim).to_json();
    assert!(
        plain.span_profile().is_none(),
        "an unprofiled run must never construct the SpanProfiler"
    );

    // On, epoch engine: identical bytes, and the profile sees the epoch
    // spans (plan, epoch_compile) but no event-engine spans.
    let mut profiled = Fleet::new(cfg().with_profiling());
    let profiled_json = profiled.run(scenario.trace(), scenario.sim).to_json();
    assert_eq!(
        profiled_json, plain_json,
        "profiling must not steer the simulation"
    );
    let profile = profiled
        .span_profile()
        .expect("armed run captures a profile");
    for span in Span::ALL {
        assert_eq!(
            plain.span_calls(span),
            profile.calls(span),
            "epoch engine: unprofiled {} count",
            span.name()
        );
    }
    assert!(profile.calls(Span::Plan) > 0, "placements were planned");
    assert!(
        profile.calls(Span::EpochCompile) > 0,
        "epochs were compiled"
    );
    assert_eq!(
        profile.calls(Span::EventPop),
        0,
        "no event queue on the epoch engine"
    );
    assert_eq!(
        profile.stats(Span::Plan).wall_hist.iter().sum::<u64>(),
        profile.calls(Span::Plan),
        "every recorded call lands in exactly one histogram bucket"
    );

    // On, event engine: same story with the event spans populated.
    let mut plain_event_fleet = Fleet::new(cfg());
    let plain_event = plain_event_fleet
        .run_events(scenario.trace(), scenario.sim)
        .to_json();
    assert!(plain_event_fleet.span_profile().is_none());
    let mut profiled_event_fleet = Fleet::new(cfg().with_profiling());
    let profiled_event = profiled_event_fleet
        .run_events(scenario.trace(), scenario.sim)
        .to_json();
    assert_eq!(profiled_event, plain_event);
    let event_profile = profiled_event_fleet
        .span_profile()
        .expect("profile captured");
    for span in Span::ALL {
        assert_eq!(
            plain_event_fleet.span_calls(span),
            event_profile.calls(span),
            "event engine: unprofiled {} count",
            span.name()
        );
    }
    assert!(
        event_profile.calls(Span::EventPop) > 0,
        "events were popped"
    );
    assert_eq!(
        event_profile.calls(Span::EventExec),
        event_profile.calls(Span::EventPop),
        "every popped event was executed"
    );
    assert!(
        event_profile.calls(Span::ArrivalPull) > 0,
        "arrivals were pulled"
    );
}

/// The profiling-armed determinism matrix: with the span profiler on,
/// the `FleetMetrics` JSON stays byte-identical across workers
/// {1, 2, 4, 8} × {sequential, parallel} × {flat, sharded} — and equal
/// to the *unprofiled* sequential-flat reference, so the profiler
/// provably never leaks wall-clock into a deterministic surface.
#[test]
fn profiled_matrix_is_byte_identical_across_workers_parallelism_and_dispatch() {
    let scenario = FleetScenario::heterogeneous_churn(4);
    let run = |parallel: bool, workers: usize, sharded: bool, profiled: bool| {
        let mut cfg = FleetConfig::new(scenario.nodes.clone())
            .with_seed(scenario.seed)
            .with_workers(workers);
        if profiled {
            cfg = cfg.with_profiling();
        }
        if !parallel {
            cfg = cfg.with_workers(1);
        }
        if sharded {
            cfg = cfg.with_sharding(scenario.nodes.len());
        }
        Fleet::new(cfg)
            .run(scenario.trace(), scenario.sim)
            .to_json()
    };
    // The reference runs with profiling OFF: every profiled leg below
    // must match it exactly.
    let reference = run(false, 1, false, false);
    for workers in [1usize, 2, 4, 8] {
        for parallel in [false, true] {
            for sharded in [false, true] {
                assert_eq!(
                    run(parallel, workers, sharded, true),
                    reference,
                    "workers={workers} parallel={parallel} sharded={sharded}: \
                     an armed profiler must not perturb the deterministic export"
                );
            }
        }
    }
}

/// Asserts that every dispatch counter summed over the telemetry
/// windows equals the run total (the windows' single `expired` column
/// covers both expiry kinds).
fn assert_windows_sum_to_totals(label: &str, m: &FleetMetrics) {
    let report = m.telemetry.as_ref().expect("telemetry attached");
    let sum = |f: fn(&DispatchCounts) -> u64| -> u64 {
        report.windows.iter().map(|w| f(&w.counts)).sum()
    };
    let pairs = [
        ("arrivals", sum(|c| c.arrivals), m.arrivals),
        ("admitted", sum(|c| c.admitted), m.admitted),
        ("degraded", sum(|c| c.degraded), m.degraded),
        ("deferred", sum(|c| c.deferred), m.deferred),
        ("infeasible", sum(|c| c.infeasible), m.infeasible),
        ("duplicates", sum(|c| c.duplicates), m.duplicates),
        (
            "admitted_after_wait",
            sum(|c| c.admitted_after_wait),
            m.admitted_after_wait,
        ),
        ("expired", sum(|c| c.expired), m.expired),
        ("upgrades", sum(|c| c.upgrades), m.upgrades),
        ("migrations", sum(|c| c.migrations), m.migrations),
        ("departures", sum(|c| c.departures), m.departures),
    ];
    for (name, windows, total) in pairs {
        assert_eq!(
            windows, total,
            "{label}: windowed {name} must sum to the run total"
        );
    }
}

/// The telemetry windows and the run totals fold the same decisions, so
/// each windowed counter sums to its `FleetMetrics` total, in both
/// engines. The scenarios between them defer, re-price, upgrade,
/// migrate, and expire waiters: an overloaded metro fleet, the
/// re-priced overload burst, and a burst onto one small node where
/// 60 fps feeds queue but can never fit, so their patience runs out.
#[test]
fn window_counters_sum_to_run_totals_in_both_engines() {
    let mut overload = FleetScenario::metro_scale(8, 8).with_migration(0.1);
    if let TenantLoad::Metro { base, .. } = &mut overload.load {
        base.mean_interarrival = SimDuration::from_nanos(base.mean_interarrival.as_nanos() / 8);
    }
    overload.admission_bound = Some(1.0);
    let repriced = FleetScenario::overload_burst(6).with_queue(QueuePolicy::EarliestDeadline, true);
    let mut doomed = FleetScenario::overload_burst(6);
    doomed.nodes = vec![NodeSpec::sgprs("small", GpuSpec::synthetic(16))];
    doomed.admission_bound = Some(0.3);
    if let TenantLoad::Churn(churn) = &mut doomed.load {
        churn.fps = 60.0;
    }
    let mut seen = DispatchCounts::default();
    for (label, scenario) in [
        ("metro overload", &overload),
        ("repriced burst", &repriced),
        ("doomed burst", &doomed),
    ] {
        for event_driven in [false, true] {
            let mut cfg = scenario
                .config()
                .with_telemetry(TelemetryConfig::windowed(SimDuration::from_millis(250)));
            cfg.event_driven = event_driven;
            let m = Fleet::new(cfg).run_configured(scenario.arrivals(), scenario.sim);
            let label = format!("{label} event_driven={event_driven}");
            assert_windows_sum_to_totals(&label, &m);
            seen.deferred += m.deferred;
            seen.degraded += m.degraded;
            seen.upgrades += m.upgrades;
            seen.migrations += m.migrations;
            seen.expired += m.expired;
            seen.departures += m.departures;
        }
    }
    assert!(
        seen.deferred > 0 && seen.degraded > 0 && seen.upgrades > 0,
        "{seen:?}"
    );
    assert!(seen.migrations > 0 && seen.departures > 0, "{seen:?}");
    assert!(seen.expired > 0, "{seen:?}");
}
