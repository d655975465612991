//! Fleet serving: a heterogeneous four-GPU fleet absorbing tenant churn
//! behind admission control, printing fleet-level JSON metrics — then an
//! overload burst showing deadline-aware queueing with fps re-pricing
//! turning rejections into degraded-rate admissions (with the telemetry
//! layer armed: windowed time-series, queue-wait/latency quantile
//! sketches, and a decision trace), the event-vs-epoch contrast, and a
//! 512-node metro-scale run routed by power-of-two-choices.
//!
//! This is the deployment §I of the paper motivates — many tenants,
//! shifting populations — scaled past a single device: each node runs its
//! own SGPRS scheduler and the dispatcher places, queues, re-prices, and
//! accounts tenants across the fleet.
//!
//! Run with: `cargo run --release --example fleet_serving`

use sgprs_suite::cluster::{Fleet, FleetConfig, QueuePolicy, Span, TelemetryConfig};
use sgprs_suite::rt::SimDuration;
use sgprs_suite::workload::FleetScenario;

fn main() {
    let scenario = FleetScenario::heterogeneous_churn(6);
    eprintln!("running `{}` for {} ...", scenario.label, scenario.sim);
    let metrics = scenario.run();
    println!("{}", metrics.to_json());
    eprintln!(
        "total FPS {:.1}, DMR {:.1}%, rejection rate {:.1}% ({} of {} arrivals)",
        metrics.total_fps,
        metrics.dmr * 100.0,
        metrics.rejection_rate * 100.0,
        metrics.rejected,
        metrics.arrivals
    );

    // The re-pricing contrast: the same overload-burst trace with and
    // without the degraded-fps ladder.
    let fifo = FleetScenario::overload_burst(6);
    let smart = FleetScenario::overload_burst(6)
        .with_queue(QueuePolicy::EarliestDeadline, true)
        .with_telemetry(SimDuration::from_millis(250));
    eprintln!("running `{}` vs `{}` ...", fifo.label, smart.label);
    let fifo_m = fifo.run();
    let smart_m = smart.run();
    println!("{}", smart_m.to_json());
    eprintln!(
        "fifo-reject: rejection {:.1}%, DMR {:.2}% | deadline+repricing: rejection {:.1}%, \
         DMR {:.2}%, {} degraded admissions, {} upgrades, mean wait {:.2}s",
        fifo_m.rejection_rate * 100.0,
        fifo_m.dmr * 100.0,
        smart_m.rejection_rate * 100.0,
        smart_m.dmr * 100.0,
        smart_m.degraded,
        smart_m.upgrades,
        smart_m.queue_wait_mean_secs
    );
    assert!(
        smart_m.rejection_rate <= fifo_m.rejection_rate,
        "re-pricing must never reject more than FIFO-reject"
    );
    // The smart run carried telemetry (its JSON above is schema v3):
    // tail quantiles from the merged sketches plus the hot-path profile.
    let report = smart_m.telemetry.as_ref().expect("telemetry was enabled");
    eprintln!(
        "telemetry: queue wait p50/p99 {:.1}/{:.1} ms, job latency p99 {:.1} ms, peak queue \
         depth {}, {} plans costing {} placement probes, {} drain scans over {} windows",
        report.queue_wait.p50_ms,
        report.queue_wait.p99_ms,
        report.job_latency.p99_ms,
        report.peak_queue_depth(),
        report.profile.plans,
        report.profile.shard_probes,
        report.profile.drain_scans,
        report.windows.len()
    );

    // The decision trace: replay the same overload trace with the ring
    // buffer armed and show the last few dispatch decisions verbatim.
    let mut traced_fleet = Fleet::new(
        FleetConfig::new(smart.nodes.clone())
            .with_seed(smart.seed)
            .with_queue_policy(QueuePolicy::EarliestDeadline)
            .with_repricing()
            .with_telemetry(
                TelemetryConfig::windowed(SimDuration::from_millis(250))
                    .with_trace(6)
                    // Profiling feeds the plan-span histogram below.
                    .with_profiling(),
            ),
    );
    let traced_m = traced_fleet.run(smart.trace(), smart.sim);
    let traced = traced_m.telemetry.as_ref().expect("telemetry was enabled");
    eprintln!(
        "decision trace (last {} of {} events, {} dropped from the ring):",
        traced.trace.len(),
        traced.profile.trace_recorded,
        traced.profile.trace_dropped
    );
    for line in &traced.trace {
        eprintln!("  {line}");
    }
    let profile = traced_fleet
        .span_profile()
        .expect("the traced run was profiled");
    let hist = profile.wall_hist(Span::Plan);
    let planned: u64 = hist.iter().sum();
    let modal_bin = hist
        .iter()
        .enumerate()
        .max_by_key(|&(_, n)| n)
        .map_or(0, |(i, _)| i);
    eprintln!(
        "plan wall-clock: {planned} plans timed, modal bucket < {} ns (log2 histogram)",
        1u64 << (modal_bin + 1)
    );

    // The event-driven contrast: the same hot-naive-node scenario on the
    // epoch grid and on the discrete-event engine. Neither engine
    // truncates a job; the epoch grid migrates for free at its
    // boundaries, while the event engine migrates mid-epoch and pays a
    // real state-transfer stall — re-pricing switches stay free on both.
    let epoch = FleetScenario::event_vs_epoch(6);
    let event = FleetScenario::event_vs_epoch(6).with_event_driven();
    eprintln!("running `{}` vs `{}` ...", epoch.label, event.label);
    let epoch_m = epoch.run();
    let event_m = event.run();
    eprintln!(
        "epoch grid: DMR {:.2}%, {} migrations (free, at epoch boundaries), {} jobs truncated \
         | event-driven: DMR {:.2}%, {} migrations paying {:.2}s stall, {} jobs truncated",
        epoch_m.dmr * 100.0,
        epoch_m.migrations,
        epoch_m.truncated_jobs,
        event_m.dmr * 100.0,
        event_m.migrations,
        event_m.migration_stall_secs,
        event_m.truncated_jobs
    );
    assert_eq!(
        event_m.truncated_jobs, 0,
        "the event path must never truncate a job"
    );
    assert_eq!(
        epoch_m.truncated_jobs, 0,
        "the epoch grid's persistent node schedulers finish every job too"
    );

    // Metro scale: 512 heterogeneous nodes behind power-of-two-choices
    // shard routing absorb brisk churn plus synchronized burst waves —
    // the per-arrival routing cost no longer depends on how many shards
    // the fleet has.
    let metro = FleetScenario::metro_scale(512, 4);
    eprintln!("running `{}` ...", metro.label);
    // sgprs-lint: allow(D002) -- demo prints its own wall-clock runtime; never part of the deterministic output
    let started = std::time::Instant::now();
    let metro_m = metro.run();
    eprintln!(
        "512 nodes: {} arrivals routed p2c in {:.0} ms wall, fleet {:.0} FPS, \
         rejection {:.1}%",
        metro_m.arrivals,
        started.elapsed().as_secs_f64() * 1e3,
        metro_m.total_fps,
        metro_m.rejection_rate * 100.0
    );
    assert!(metro_m.arrivals > 512, "metro churn keeps the router busy");
}
