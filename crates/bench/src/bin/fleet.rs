//! **Fleet serving experiment** (beyond the paper): a multi-GPU fleet
//! with admission control and tenant churn, comparing placement policies
//! over both a homogeneous scale-out and the heterogeneous reference
//! fleet, a 64-node flat-vs-sharded dispatch comparison, an overload
//! burst contrasting FIFO-reject with deadline-aware queueing plus fps
//! re-pricing, an event-vs-epoch contrast (the event engine's fluid
//! nodes migrating at any release for a stall cost vs the epoch grid's
//! persistent paper-layer schedulers migrating for free at boundaries;
//! neither truncates a job), and a 512-node metro-scale section driving
//! power-of-two-choices shard routing through churn + burst waves in
//! both engines. Every row carries the run's wall-clock so
//! dispatch-layer changes show up.
//!
//! The overload-burst (re-pricing) and metro-scale rows run with the
//! telemetry layer armed (250 ms windows): the metro section reports
//! p99 queue wait and peak per-window queue depth from the merged
//! sketches, and `--telemetry-csv` appends the per-window time-series
//! of those runs as CSV.
//!
//! Usage: `cargo run --release -p sgprs-bench --bin fleet \
//!     [--sim-secs N] [--csv] [--telemetry-csv]`

use sgprs_cluster::{FleetMetrics, PlacementPolicy, QueuePolicy, TelemetryReport};
use sgprs_rt::SimDuration;
use sgprs_workload::FleetScenario;

/// Window used for every telemetry-armed row in this binary.
const TELEMETRY_WINDOW: SimDuration = SimDuration::from_millis(250);

/// Appends one CSV row per telemetry window of a finished run.
fn telemetry_windows_csv(scenario: &str, engine: &str, report: &TelemetryReport) {
    for w in &report.windows {
        println!(
            "{scenario},{engine},{:.3},{},{},{},{},{},{},{},{:.4},{:.3},{:.3},{:.3}",
            w.start_secs,
            w.counts.arrivals,
            w.counts.admitted,
            w.counts.degraded,
            w.counts.deferred,
            w.counts.expired,
            w.counts.migrations,
            w.queue_depth_peak,
            w.utilization_mean,
            w.wait.p50_ms,
            w.wait.p90_ms,
            w.wait.p99_ms
        );
    }
}

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::RoundRobin,
    PlacementPolicy::LeastUtilization,
    PlacementPolicy::BestFit,
];

fn report(scenario_label: &str, row_label: &str, m: &FleetMetrics, wall_ms: f64, csv: bool) {
    if csv {
        println!(
            "{scenario_label},{row_label},{:.2},{:.4},{:.4},{},{},{},{},{:.3},{wall_ms:.0}",
            m.total_fps,
            m.dmr,
            m.rejection_rate,
            m.migrations,
            m.degraded,
            m.upgrades,
            m.truncated_jobs,
            m.migration_stall_secs
        );
    } else {
        println!(
            "{:<52} {:>10.1} {:>6.1}% {:>8.1}% {:>5} {:>5} {:>6} {:>7.2} {:>7.0}",
            row_label,
            m.total_fps,
            m.dmr * 100.0,
            m.rejection_rate * 100.0,
            m.degraded,
            m.upgrades,
            m.truncated_jobs,
            m.migration_stall_secs,
            wall_ms
        );
    }
}

fn header(title: &str) {
    println!("== {title} ==");
    println!(
        "{:<52} {:>10} {:>7} {:>9} {:>5} {:>5} {:>6} {:>7} {:>7}",
        "scenario", "total FPS", "DMR", "rejected", "degr", "upgr", "trunc", "stall s", "wall ms"
    );
}

fn timed_run(scenario: &FleetScenario) -> (FleetMetrics, f64) {
    let started = std::time::Instant::now();
    let m = scenario.run();
    (m, started.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sim_secs, csv) = sgprs_bench::parse_args(&args);
    let telemetry_csv = args.iter().any(|a| a == "--telemetry-csv");
    let sim_secs = sim_secs.max(4);

    if csv {
        println!(
            "scenario,policy,total_fps,dmr,rejection_rate,migrations,degraded,upgrades,\
             truncated_jobs,migration_stall_secs,wall_ms"
        );
    } else {
        header("fleet serving: placement policies under churn");
    }

    for base in [
        FleetScenario::homogeneous(3, 36, sim_secs),
        FleetScenario::heterogeneous_churn(sim_secs),
    ] {
        for policy in POLICIES {
            let scenario = base.clone().with_placement(policy);
            let (m, wall_ms) = timed_run(&scenario);
            let (scenario_label, row_label) = if csv {
                (base.label.as_str(), format!("{policy}"))
            } else {
                (base.label.as_str(), scenario.label.clone())
            };
            report(scenario_label, &row_label, &m, wall_ms, csv);
        }
    }
    if !csv {
        println!();
        println!("least-utilization spreads skewed tenants; best-fit packs for big arrivals");
        println!();
        header("scale-out x64: flat vs sharded dispatch");
    }
    let sharded = FleetScenario::scale_out(64, sim_secs);
    let mut flat = sharded.clone();
    flat.sharding = None;
    flat.label = format!("scale-out x{} + churn [flat]", flat.nodes.len());
    for scenario in [flat, sharded] {
        let (m, wall_ms) = timed_run(&scenario);
        let dispatch = match scenario.sharding {
            Some(size) => format!("{}[sharded/{size}]", scenario.placement),
            None => format!("{}[flat]", scenario.placement),
        };
        report(&scenario.label, &dispatch, &m, wall_ms, csv);
    }
    if !csv {
        println!();
        header("overload burst: FIFO-reject vs deadline queueing + re-pricing");
    }
    // The acceptance contrast: the same overload trace served by the
    // FIFO-reject baseline and by deadline-aware queueing with the fps
    // re-pricing ladder armed — SGPRS's cheap partition switch should
    // buy a strictly lower eventual rejection rate at no DMR cost.
    let fifo = FleetScenario::overload_burst(sim_secs.max(6));
    let smart = FleetScenario::overload_burst(sim_secs.max(6))
        .with_queue(QueuePolicy::EarliestDeadline, true)
        .with_telemetry(TELEMETRY_WINDOW);
    let (fifo_m, fifo_ms) = timed_run(&fifo);
    let (smart_m, smart_ms) = timed_run(&smart);
    report(&fifo.label, "fifo-reject", &fifo_m, fifo_ms, csv);
    report(&smart.label, "deadline+repricing", &smart_m, smart_ms, csv);
    if !csv {
        println!();
        println!(
            "re-pricing rejects {:.1}% instead of {:.1}% (DMR {:.2}% vs {:.2}%), \
             mean queue wait {:.2}s",
            smart_m.rejection_rate * 100.0,
            fifo_m.rejection_rate * 100.0,
            smart_m.dmr * 100.0,
            fifo_m.dmr * 100.0,
            smart_m.queue_wait_mean_secs
        );
        println!();
        header("event vs epoch: release-time migration + stall vs boundary migration");
    }
    // The event-driven contrast: the same hot-naive-node scenario on the
    // epoch grid (persistent paper-layer schedulers, free migration once
    // per boundary) and on the event engine (fluid nodes, mid-epoch
    // migration paying the state-transfer stall). Neither truncates.
    let epoch = FleetScenario::event_vs_epoch(sim_secs.max(6));
    let event = FleetScenario::event_vs_epoch(sim_secs.max(6)).with_event_driven();
    let (epoch_m, epoch_ms) = timed_run(&epoch);
    let (event_m, event_ms) = timed_run(&event);
    report(&epoch.label, "epoch-grid", &epoch_m, epoch_ms, csv);
    report(&event.label, "event-driven", &event_m, event_ms, csv);
    if !csv {
        println!();
        println!(
            "truncated jobs: event {}, epoch {}; DMR {:.2}% vs {:.2}% at equal \
             rejection, {} migrations paying {:.2}s stall vs {} free ones",
            event_m.truncated_jobs,
            epoch_m.truncated_jobs,
            event_m.dmr * 100.0,
            epoch_m.dmr * 100.0,
            event_m.migrations,
            event_m.migration_stall_secs,
            epoch_m.migrations
        );
        println!();
        header("metro-scale x512: p2c shard routing under churn + bursts");
    }
    // The metro-scale smoke: 512 heterogeneous nodes behind
    // power-of-two-choices routing, brisk churn plus synchronized burst
    // waves, served by both engines over the same trace.
    let metro_epoch = FleetScenario::metro_scale(512, sim_secs).with_telemetry(TELEMETRY_WINDOW);
    let metro_event = FleetScenario::metro_scale(512, sim_secs)
        .with_event_driven()
        .with_telemetry(TELEMETRY_WINDOW);
    let (metro_epoch_m, metro_epoch_ms) = timed_run(&metro_epoch);
    let (metro_event_m, metro_event_ms) = timed_run(&metro_event);
    report(
        &metro_epoch.label,
        "epoch-grid",
        &metro_epoch_m,
        metro_epoch_ms,
        csv,
    );
    report(
        &metro_event.label,
        "event-driven",
        &metro_event_m,
        metro_event_ms,
        csv,
    );
    if !csv {
        println!();
        println!(
            "512 nodes: {} arrivals routed p2c, {:.0}/{:.0} fleet FPS (epoch/event), \
             wall {:.0} ms vs {:.0} ms",
            metro_epoch_m.arrivals,
            metro_epoch_m.total_fps,
            metro_event_m.total_fps,
            metro_epoch_ms,
            metro_event_ms
        );
        // The telemetry headline: tail queueing behaviour the aggregate
        // counters cannot show, read off the merged per-window sketches.
        if let (Some(te), Some(tv)) = (&metro_epoch_m.telemetry, &metro_event_m.telemetry) {
            println!(
                "metro telemetry ({:.0} ms windows): p99 queue wait {:.1}/{:.1} ms \
                 (epoch/event), peak queue depth {}/{}",
                te.window_secs * 1e3,
                te.queue_wait.p99_ms,
                tv.queue_wait.p99_ms,
                te.peak_queue_depth(),
                tv.peak_queue_depth()
            );
        }
    }
    if telemetry_csv {
        if !csv {
            println!();
            println!("== per-window telemetry (CSV) ==");
        }
        println!(
            "scenario,engine,window_start_secs,arrivals,admitted,degraded,deferred,expired,\
             migrations,queue_depth_peak,utilization_mean,wait_p50_ms,wait_p90_ms,wait_p99_ms"
        );
        for (scenario, engine, m) in [
            ("overload-burst", "epoch", &smart_m),
            ("metro-scale", "epoch", &metro_epoch_m),
            ("metro-scale", "event", &metro_event_m),
        ] {
            if let Some(report) = &m.telemetry {
                telemetry_windows_csv(scenario, engine, report);
            }
        }
    }
}
