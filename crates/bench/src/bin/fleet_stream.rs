//! **Streaming-arrival throughput bench**: drives a 1000-node fleet's
//! dispatch layer from a generator-backed [`ArrivalStream`] — no
//! pre-materialised trace — and reports sustained arrivals/sec plus the
//! interner's memory bound. The default run streams one million tenants
//! (brisk churn, 2–4 s lifetimes, 500 ms queue patience) while the
//! tenant-id table stays sized by the *concurrently active* population:
//! the printed `id_capacity` equals `peak_active` regardless of how many
//! tenants the trace contained, which is the O(active) claim this bench
//! exists to demonstrate.
//!
//! Usage: `cargo run --release -p sgprs-bench --bin fleet_stream \
//!     [--tenants N] [--csv]`

use sgprs_bench::report::{AllocStats, BenchReport, CountingAlloc};
use sgprs_cluster::{
    ArrivalStream, ChurnConfig, Fleet, FleetConfig, NodeSpec, PlacementPolicy, Span,
};
use sgprs_gpu_sim::GpuSpec;
use sgprs_rt::SimDuration;

/// Count heap traffic so the perf sidecar can report allocs/event.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Nodes in the fleet under test.
const NODES: usize = 1000;
/// Mean gap between tenant arrivals; together with `--tenants` this
/// fixes the simulated horizon.
const INTERARRIVAL_MS: u64 = 2;

/// Parses `--tenants N` / `--csv`. Returns `(tenants, csv)`.
fn parse(args: &[String]) -> (u64, bool) {
    let mut tenants: u64 = 1_000_000;
    let mut csv = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tenants" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    tenants = v;
                    i += 1;
                }
            }
            "--csv" => csv = true,
            _ => {}
        }
        i += 1;
    }
    (tenants.max(1), csv)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (tenants, csv) = parse(&args);

    // Horizon sized so the sampler emits at least `tenants` arrivals
    // (5% headroom over the mean absorbs interarrival jitter); short
    // lifetimes and a 500 ms patience keep both the resident and the
    // queued population small while the stream churns through millions.
    let horizon = SimDuration::from_millis(tenants * INTERARRIVAL_MS * 21 / 20);
    let churn = ChurnConfig {
        mean_interarrival: SimDuration::from_millis(INTERARRIVAL_MS),
        min_lifetime: SimDuration::from_secs(2),
        max_lifetime: SimDuration::from_secs(4),
        max_wait: Some(SimDuration::from_millis(500)),
        ..ChurnConfig::default()
    };

    let nodes = (0..NODES)
        .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
        .collect();
    // Round-robin keeps dispatch O(1) per arrival while capacity is
    // free, so the bench measures the stream + interner + admission
    // path rather than a full least-utilisation scan of 1000 nodes.
    let mut cfg = FleetConfig::new(nodes).with_profiling();
    cfg.placement = PlacementPolicy::RoundRobin;
    let mut fleet = Fleet::new(cfg);

    let arrivals = ArrivalStream::generate(&churn, horizon, 0x51_7265_414d);
    assert!(arrivals.is_streaming(), "bench must exercise the lazy path");

    let alloc_before = AllocStats::snapshot();
    let started = std::time::Instant::now();
    let replay = fleet.replay_dispatch(arrivals, horizon);
    let wall = started.elapsed().as_secs_f64();
    let alloc = AllocStats::snapshot().since(&alloc_before);
    let rate = replay.counts.arrivals as f64 / wall.max(1e-9);

    assert!(
        replay.id_capacity == replay.peak_active,
        "id table leaked: capacity {} != peak active {}",
        replay.id_capacity,
        replay.peak_active
    );

    if csv {
        println!(
            "nodes,arrivals,placed,degraded,queued,infeasible,duplicates,departures,expired,\
             admitted_after_wait,peak_active,id_capacity,final_active,wall_ms,arrivals_per_sec"
        );
        println!(
            "{NODES},{},{},{},{},{},{},{},{},{},{},{},{},{:.0},{rate:.0}",
            replay.counts.arrivals,
            replay.counts.admitted,
            replay.counts.degraded,
            replay.counts.deferred,
            replay.counts.infeasible,
            replay.counts.duplicates,
            replay.counts.departures,
            replay.counts.expired,
            replay.counts.admitted_after_wait,
            replay.peak_active,
            replay.id_capacity,
            replay.final_active,
            wall * 1e3
        );
    } else {
        println!("== fleet_stream: {NODES} nodes, generator-driven arrivals ==");
        println!(
            "streamed {} arrivals in {:.2}s wall — {:.0} arrivals/sec",
            replay.counts.arrivals, wall, rate
        );
        println!(
            "placed {} ({} degraded), queued {}, infeasible {}, duplicates {}",
            replay.counts.admitted,
            replay.counts.degraded,
            replay.counts.deferred,
            replay.counts.infeasible,
            replay.counts.duplicates
        );
        println!(
            "departures {}, expired waiters {}, admitted after wait {}",
            replay.counts.departures, replay.counts.expired, replay.counts.admitted_after_wait
        );
        println!(
            "memory bound: peak_active {} == id_capacity {} (final_active {}) — \
             O(active), independent of the {} tenants streamed",
            replay.peak_active, replay.id_capacity, replay.final_active, replay.counts.arrivals
        );
    }
    // The perf sidecar: replay runs with the span profiler armed; the
    // events here are the stream pulls the dispatch replay consumed.
    let profile = fleet
        .span_profile()
        .expect("the replay ran with profiling armed");
    let events = profile.calls(Span::ArrivalPull);
    let bench = BenchReport::new(
        "fleet_stream",
        &format!("stream x{NODES} round-robin churn"),
        "dispatch-replay",
        NODES as u64,
        replay.counts.arrivals,
        events,
        wall * 1e3,
        &profile,
        alloc,
    );
    match bench.write_sidecar() {
        Ok(name) => {
            if !csv {
                println!(
                    "perf sidecar {name}: {} pulls, {:.2} allocs/pull",
                    bench.events,
                    bench.allocs_per_event()
                );
            }
        }
        Err(e) => eprintln!("perf sidecar write failed: {e}"),
    }
}
