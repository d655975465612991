//! `fleet-epoch` and `fleet-event-overload`: `FleetScenario::metro_scale`
//! on each execution path. The set-up builds the arrival stream and the
//! `Fleet`; the measured phase is `Fleet::run_configured`.
//!
//! The traced run arms the fleet's span profiler and windowed telemetry,
//! neither of which may change a simulated decision.

use crate::measure::{self, metric, timed, timed_counted, Digest, HostSpeed, Metric};
use crate::{end_to_end, per_layer, unit_median, Outcome, Plan, UnitCost, MIN_CYCLES};
use sgprs_cluster::{
    Fleet, FleetConfig, FleetMetrics, Span, SpanProfile, BASE_SCHEMA_VERSION, PLAN_LATENCY_BINS,
};
use sgprs_rt::SimDuration;
use sgprs_workload::{FleetScenario, TenantLoad};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// Metro scale on the epoch path.
    Epoch,
    /// Metro scale on the event engine at 8× the base arrival rate, with
    /// migration armed.
    EventOverload,
}

/// Input size of a fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    /// Independently seeded fleets per cycle.
    pub fleets: usize,
    /// Fleets pooled into one sample of `point_ns_per_job_*`.
    pub fleets_per_point: usize,
    /// Nodes in each fleet.
    pub nodes: usize,
    /// Simulated seconds.
    pub sim_secs: u64,
}

impl FleetKind {
    /// The benchmark size. One fleet's host time per job varies from seed
    /// to seed, by about 20% for an overloaded fleet (its queue depth,
    /// which drives the re-pricing passes, is heavy-tailed), so both
    /// workloads sum many small fleets, and their `point_ns_per_job_*`
    /// samples pool four fleets each.
    #[must_use]
    pub fn full(self) -> FleetSize {
        match self {
            FleetKind::Epoch => FleetSize {
                fleets: 16,
                fleets_per_point: 4,
                nodes: 64,
                sim_secs: 4,
            },
            FleetKind::EventOverload => FleetSize {
                fleets: 48,
                fleets_per_point: 4,
                nodes: 8,
                sim_secs: 8,
            },
        }
    }

    /// Smoke-test size.
    #[must_use]
    pub fn tiny(self) -> FleetSize {
        match self {
            FleetKind::Epoch => FleetSize {
                fleets: 1,
                fleets_per_point: 1,
                nodes: 16,
                sim_secs: 2,
            },
            FleetKind::EventOverload => FleetSize {
                fleets: 2,
                fleets_per_point: 1,
                nodes: 8,
                sim_secs: 8,
            },
        }
    }

    /// The workload's fleets at `size`: fleet `i` is seeded with
    /// `seed + i·φ` (φ the 64-bit golden ratio), so fleet 0 uses `seed`.
    #[must_use]
    pub fn scenarios(self, size: FleetSize, seed: u64) -> Vec<FleetScenario> {
        (0..size.fleets as u64)
            .map(|i| {
                self.scenario(
                    size,
                    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            })
            .collect()
    }

    /// One fleet of the workload at `size`, seeded with `seed`.
    #[must_use]
    pub fn scenario(self, size: FleetSize, seed: u64) -> FleetScenario {
        let metro = FleetScenario::metro_scale(size.nodes, size.sim_secs).with_seed(seed);
        match self {
            FleetKind::Epoch => metro,
            FleetKind::EventOverload => {
                let mut s = metro.with_event_driven();
                if let TenantLoad::Metro { base, .. } = &mut s.load {
                    base.mean_interarrival =
                        SimDuration::from_nanos(base.mean_interarrival.as_nanos() / OVERLOAD);
                }
                s.migration = Some(0.1);
                s.admission_bound = Some(1.0);
                s
            }
        }
    }
}

/// Arrival-rate multiple of `fleet-event-overload` over the metro base.
pub const OVERLOAD: u64 = 8;

/// Telemetry window of the traced run.
const TELEMETRY_WINDOW: SimDuration = SimDuration::from_millis(250);

/// Epoch fan-out workers: the machine's cores, at most two, so runs on
/// larger machines keep the same shape.
fn epoch_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The fleet configuration of one repetition.
fn config(scenario: &FleetScenario, traced: bool) -> FleetConfig {
    let mut cfg = scenario.config();
    cfg.workers = Some(epoch_workers());
    if traced {
        cfg = cfg.with_telemetry_window(TELEMETRY_WINDOW).with_profiling();
    }
    cfg
}

/// One fleet's run in one cycle.
struct FleetRun {
    cost: UnitCost,
    /// The host-speed scale applied to `cost`, for the span estimates.
    scale: f64,
    metrics: FleetMetrics,
    profile: Option<SpanProfile>,
    events: u64,
    peak_active: usize,
    id_capacity: usize,
    failures: Vec<String>,
}

/// One cycle: every fleet of the workload set up and run once.
struct Cycle {
    fleets: Vec<FleetRun>,
    digest: u64,
}

impl Cycle {
    fn take_failures(&mut self) -> Vec<Vec<String>> {
        self.fleets
            .iter_mut()
            .map(|f| std::mem::take(&mut f.failures))
            .collect()
    }

    fn costs(&self) -> Vec<UnitCost> {
        self.fleets.iter().map(|f| f.cost).collect()
    }
}

/// Sets up one fleet (arrival stream plus `Fleet::new`) and runs it, at
/// the host speed `scale` converts from.
fn fleet_run(kind: FleetKind, scenario: &FleetScenario, traced: bool, scale: f64) -> FleetRun {
    let cfg = config(scenario, traced);
    let ((arrivals, mut fleet), setup_s) = timed(|| (scenario.arrivals(), Fleet::new(cfg)));
    let (metrics, run_s, allocs) = timed_counted(|| fleet.run_configured(arrivals, scenario.sim));
    FleetRun {
        scale,
        cost: UnitCost {
            setup_s: setup_s * scale,
            run_s: run_s * scale,
            released: metrics.nodes.iter().map(|n| n.released).sum(),
            allocs,
        },
        failures: check(kind, &metrics),
        metrics,
        profile: fleet.span_profile(),
        events: fleet.events_processed(),
        peak_active: fleet.peak_active_tenants(),
        id_capacity: fleet.tenant_id_capacity(),
    }
}

/// One cycle. `fleet-event-overload` must, across its fleets, defer,
/// degrade, upgrade and migrate: a single small fleet may not migrate.
fn cycle(
    kind: FleetKind,
    scenarios: &[FleetScenario],
    traced: bool,
    speed: &mut HostSpeed,
) -> Cycle {
    let mut d = Digest::default();
    let mut fleets: Vec<FleetRun> = scenarios
        .iter()
        .map(|s| {
            let run = fleet_run(kind, s, traced, speed.scale());
            d.u64(digest(&run.metrics));
            run
        })
        .collect();
    let total = |f: fn(&FleetMetrics) -> u64| fleets.iter().map(|r| f(&r.metrics)).sum::<u64>();
    let exercised = [
        total(|m| m.deferred),
        total(|m| m.degraded),
        total(|m| m.upgrades),
        total(|m| m.migrations),
    ]
    .iter()
    .all(|&n| n > 0);
    if kind == FleetKind::EventOverload && !exercised {
        fleets[0]
            .failures
            .push("fleet-event-overload must defer, degrade, upgrade and migrate".into());
    }
    Cycle {
        fleets,
        digest: d.value(),
    }
}

/// Digest of the deterministic export with telemetry detached, so the
/// traced and untraced runs digest the same fields.
fn digest(m: &FleetMetrics) -> u64 {
    let mut plain = m.clone();
    plain.telemetry = None;
    plain.schema_version = BASE_SCHEMA_VERSION;
    let mut d = Digest::default();
    d.bytes(plain.to_json().as_bytes());
    d.value()
}

/// Accounting identities, and guards that the workload did what it was
/// chosen for.
fn check(kind: FleetKind, m: &FleetMetrics) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };
    check(
        m.arrivals == m.admitted + m.deferred + m.infeasible + m.duplicates,
        "arrivals != admitted + deferred + infeasible + duplicates",
    );
    check(
        m.admitted_after_wait <= m.deferred && m.rejected == m.deferred - m.admitted_after_wait,
        "rejected != deferred - admitted_after_wait",
    );
    check(m.expired <= m.deferred, "more expiries than deferrals");
    let expected_rate = measure::ratio((m.rejected + m.infeasible) as f64, m.arrivals as f64);
    check(
        (m.rejection_rate - expected_rate).abs() < 1e-12,
        "rejection_rate != (rejected + infeasible) / arrivals",
    );
    check(
        m.nodes
            .iter()
            .all(|n| n.completed <= n.released && n.missed <= n.released),
        "a node completed or missed more jobs than it released",
    );
    check(
        m.nodes.iter().any(|n| n.released > 0),
        "no job was released",
    );
    match kind {
        FleetKind::Epoch => {
            check(m.deferred == 0, "fleet-epoch must keep the wait queue idle");
        }
        FleetKind::EventOverload => {
            check(m.truncated_jobs == 0, "the event path truncated jobs");
        }
    }
    failures
}

/// Runs a fleet workload.
#[must_use]
pub fn run(kind: FleetKind, plan: &Plan) -> Outcome {
    let size = if plan.tiny { kind.tiny() } else { kind.full() };
    let scenarios = kind.scenarios(size, plan.seed);
    let budget = if plan.trace {
        plan.budget / 2
    } else {
        plan.budget
    };
    let mut outcome = Outcome::default();
    let mut speed = HostSpeed::default();
    // Every untraced cycle's costs, but only the last one's results, so
    // peak memory does not grow with the number of cycles.
    let mut last = None;
    let untraced = measure::repeat(budget, MIN_CYCLES, || {
        let mut c = cycle(kind, &scenarios, false, &mut speed);
        outcome.record_cycle(c.take_failures(), c.digest);
        let costs = c.costs();
        last = Some(c);
        costs
    });
    if !plan.trace {
        end_to_end(&mut outcome, &untraced, size.fleets_per_point);
        return outcome;
    }
    let last = last.expect("at least one untraced cycle ran");
    let mut traced = measure::repeat(budget, 1, || cycle(kind, &scenarios, true, &mut speed));
    for c in &mut traced {
        outcome.record_cycle(c.take_failures(), c.digest);
    }
    let found = layer_metrics(kind, &last, &untraced, &traced);
    outcome.set_metrics(&per_layer(), found);
    outcome
}

/// Spans that never nest inside one another on each path: their estimates
/// add up without double counting. On the event path `plan` and
/// `drain_scan` run inside `event_exec`; on the epoch path the queue stays
/// idle, so `plan` runs outside `drain_scan`.
fn top_level_spans(kind: FleetKind) -> &'static [Span] {
    match kind {
        FleetKind::Epoch => &[
            Span::Plan,
            Span::DrainScan,
            Span::EpochCompile,
            Span::TelemetryFold,
            Span::ArrivalPull,
        ],
        FleetKind::EventOverload => &[
            Span::EventPop,
            Span::EventExec,
            Span::TelemetryFold,
            Span::ArrivalPull,
            Span::WheelCascade,
        ],
    }
}

/// The per-layer metrics of the traced run, from the last untraced cycle,
/// every untraced cycle's costs, and the traced cycles. Counts sum over
/// the fleets of the last untraced cycle; peaks take the largest fleet's;
/// times sum each fleet's median repetition, at the reference host speed.
fn layer_metrics(
    kind: FleetKind,
    last: &Cycle,
    untraced: &[Vec<UnitCost>],
    traced: &[Cycle],
) -> Vec<Metric> {
    let last = &last.fleets;
    let sum = |f: fn(&FleetRun) -> u64| last.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&FleetRun) -> usize| last.iter().map(f).max().unwrap_or(0) as f64;
    let traced_costs: Vec<Vec<UnitCost>> = traced.iter().map(Cycle::costs).collect();
    let wall: f64 = unit_median(untraced).iter().map(|u| u.run_s).sum();
    let traced_wall: f64 = unit_median(&traced_costs).iter().map(|u| u.run_s).sum();
    let arrivals = sum(|f| f.metrics.arrivals);
    let mut out = vec![
        metric(
            "cluster.dispatch.admit_ratio",
            measure::ratio(sum(|f| f.metrics.admitted), arrivals),
            "ratio",
        ),
        metric(
            "cluster.dispatch.deferred",
            sum(|f| f.metrics.deferred),
            "count",
        ),
        metric(
            "cluster.dispatch.degraded",
            sum(|f| f.metrics.degraded),
            "count",
        ),
        metric(
            "cluster.dispatch.upgrades",
            sum(|f| f.metrics.upgrades),
            "count",
        ),
        metric(
            "cluster.dispatch.expired",
            sum(|f| f.metrics.expired),
            "count",
        ),
        metric(
            "cluster.dispatch.migrations",
            sum(|f| f.metrics.migrations),
            "count",
        ),
        metric(
            "cluster.dispatch.rejection_rate",
            measure::ratio(sum(|f| f.metrics.rejected + f.metrics.infeasible), arrivals),
            "ratio",
        ),
        metric(
            "cluster.stream.peak_active",
            max(|f| f.peak_active),
            "count",
        ),
        metric(
            "cluster.stream.id_capacity",
            max(|f| f.id_capacity),
            "count",
        ),
        metric("trace.overhead", measure::ratio(traced_wall, wall), "ratio"),
    ];
    let telemetry: Vec<_> = traced[0]
        .fleets
        .iter()
        .filter_map(|f| f.metrics.telemetry.as_ref())
        .collect();
    if !telemetry.is_empty() {
        let p99: Vec<f64> = telemetry.iter().map(|t| t.queue_wait.p99_ms).collect();
        let depth = telemetry
            .iter()
            .map(|t| t.peak_queue_depth())
            .max()
            .unwrap_or(0);
        out.push(metric(
            "cluster.queue.wait_p99_ms",
            measure::median(&p99),
            "ms",
        ));
        out.push(metric("cluster.queue.peak_depth", depth as f64, "count"));
    }
    match kind {
        FleetKind::Epoch => {
            let node_epochs = sum(|f| f.metrics.utilization_histogram.iter().sum());
            out.extend([
                metric("cluster.epoch.node_epochs", node_epochs, "count"),
                metric(
                    "cluster.epoch.ns_per_node_epoch",
                    measure::ratio(wall * 1e9, node_epochs),
                    "ns",
                ),
                metric(
                    "cluster.epoch.truncated_jobs",
                    sum(|f| f.metrics.truncated_jobs),
                    "count",
                ),
            ]);
        }
        FleetKind::EventOverload => {
            let events = sum(|f| f.events);
            out.extend([
                metric("cluster.event.events", events, "count"),
                metric(
                    "cluster.event.ns_per_event",
                    measure::ratio(wall * 1e9, events),
                    "ns",
                ),
                metric(
                    "cluster.event.allocs_per_event",
                    measure::ratio(sum(|f| f.cost.allocs), events),
                    "count",
                ),
            ]);
        }
    }
    // Per fleet, the median estimate over the traced cycles, scaled to the
    // reference host speed like the fleet's run time.
    let estimate = |f: &dyn Fn(&SpanProfile) -> f64| -> f64 {
        (0..last.len())
            .map(|i| {
                let samples: Vec<f64> = traced
                    .iter()
                    .map(|c| {
                        let run = &c.fleets[i];
                        run.profile.as_ref().map_or(0.0, f) * run.scale
                    })
                    .collect();
                measure::median(&samples)
            })
            .sum()
    };
    let profiles: Vec<&SpanProfile> = traced[0]
        .fleets
        .iter()
        .filter_map(|f| f.profile.as_ref())
        .collect();
    let top = top_level_spans(kind);
    let mut overflow = 0u64;
    for span in Span::ALL {
        let name = span.name();
        let calls: u64 = profiles.iter().map(|p| p.calls(span)).sum();
        if top.contains(&span) {
            overflow += profiles
                .iter()
                .map(|p| p.wall_hist(span)[PLAN_LATENCY_BINS - 1])
                .sum::<u64>();
        }
        out.push(metric(
            format!("cluster.span.{name}.calls"),
            calls as f64,
            "count",
        ));
        out.push(metric(
            format!("cluster.span.{name}.est_s"),
            estimate(&|p| measure::span_estimate_s(p.wall_hist(span))),
            "s",
        ));
    }
    let attributed = estimate(&|p| {
        top.iter()
            .map(|&s| measure::span_estimate_s(p.wall_hist(s)))
            .sum()
    });
    let unattributed = traced_wall - attributed;
    out.extend([
        metric("cluster.span.overflow_calls", overflow as f64, "count"),
        metric("cluster.span.unattributed_s", unattributed, "s"),
        metric(
            "cluster.span.unattributed_share",
            measure::ratio(unattributed, traced_wall),
            "ratio",
        ),
    ]);
    out
}
