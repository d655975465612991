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

use sgprs_cluster::{ArrivalStream, ChurnConfig, Fleet, FleetConfig, NodeSpec, PlacementPolicy};
use sgprs_gpu_sim::GpuSpec;
use sgprs_rt::SimDuration;

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
    let mut cfg = FleetConfig::new(nodes);
    cfg.placement = PlacementPolicy::RoundRobin;
    let mut fleet = Fleet::new(cfg);

    let arrivals = ArrivalStream::generate(&churn, horizon, 0x51_7265_414d);
    assert!(arrivals.is_streaming(), "bench must exercise the lazy path");

    let started = std::time::Instant::now();
    let replay = fleet.replay_dispatch(arrivals, horizon);
    let wall = started.elapsed().as_secs_f64();
    let rate = replay.arrivals as f64 / wall.max(1e-9);
    let (peak_active, id_capacity) = (fleet.peak_active_tenants(), fleet.tenant_id_capacity());
    let final_active =
        replay.nodes.iter().map(|n| n.final_tenants).sum::<usize>() + replay.still_queued as usize;

    assert!(
        id_capacity == peak_active,
        "id table leaked: capacity {id_capacity} != peak active {peak_active}"
    );

    if csv {
        println!(
            "nodes,arrivals,placed,degraded,queued,infeasible,duplicates,departures,expired,\
             admitted_after_wait,peak_active,id_capacity,final_active,wall_ms,arrivals_per_sec"
        );
        println!(
            "{NODES},{},{},{},{},{},{},{},{},{},{peak_active},{id_capacity},{final_active},{:.0},{rate:.0}",
            replay.arrivals,
            replay.admitted,
            replay.degraded,
            replay.deferred,
            replay.infeasible,
            replay.duplicates,
            replay.departures,
            replay.expired,
            replay.admitted_after_wait,
            wall * 1e3
        );
    } else {
        println!("== fleet_stream: {NODES} nodes, generator-driven arrivals ==");
        println!(
            "streamed {} arrivals in {:.2}s wall — {:.0} arrivals/sec",
            replay.arrivals, wall, rate
        );
        println!(
            "placed {} ({} degraded), queued {}, infeasible {}, duplicates {}",
            replay.admitted, replay.degraded, replay.deferred, replay.infeasible, replay.duplicates
        );
        println!(
            "departures {}, expired waiters {}, admitted after wait {}",
            replay.departures, replay.expired, replay.admitted_after_wait
        );
        println!(
            "memory bound: peak_active {peak_active} == id_capacity {id_capacity} \
             (final_active {final_active}) — O(active), independent of the {} tenants streamed",
            replay.arrivals
        );
    }
}
