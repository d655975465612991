//! The repository benchmark: host time of the SGPRS simulator, end to end
//! and split by layer.
//!
//! Three workloads (see README.md for why each was chosen):
//!
//! * [`Workload::PaperSweep`] — the eight Fig. 3 / Fig. 4 curves, run
//!   point by point through `SgprsScheduler` and `NaiveScheduler`.
//! * [`Workload::FleetEpoch`] — a metro-scale fleet on the epoch path,
//!   where every node epoch runs the real SGPRS scheduler.
//! * [`Workload::FleetEventOverload`] — a metro-scale fleet on the event
//!   engine at eight times the base arrival rate, with migration armed.
//!
//! Every layer is timed from outside, around calls into public functions;
//! the traced run additionally reads the fleet's span profiler and the
//! `CountingAlloc` counters. A run cycles through its workload's units
//! (sweep points, or independently seeded fleets) for the time budget.
//! Each time is scaled to the reference host speed read just before it
//! ([`measure::HostSpeed`]), and a run reports sums of each unit's median
//! repetition, so one printed figure summarises several identical
//! repetitions.

mod fleet;
pub mod measure;
mod sweep;

use measure::{metric, Metric};
use std::time::Duration;

/// The repository's reference seed (`"VrPS"`), the default `--seed`.
pub const REFERENCE_SEED: u64 = 0x5672_5053;

/// Cycles the untraced phase runs at least, whatever the budget.
pub const MIN_CYCLES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 3 / Fig. 4 task-count sweeps.
    PaperSweep,
    /// `FleetScenario::metro_scale` on the epoch path.
    FleetEpoch,
    /// `FleetScenario::metro_scale` on the event engine, overloaded.
    FleetEventOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::FleetEpoch,
        Workload::FleetEventOverload,
    ];

    /// The workload's `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::FleetEpoch => "fleet-epoch",
            Workload::FleetEventOverload => "fleet-event-overload",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one benchmark run is driven.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host time to spend measuring.
    pub budget: Duration,
    /// `false`: the end-to-end metrics, tracing off. `true`: the per-layer
    /// metrics, from an untraced and a traced phase.
    pub trace: bool,
    /// Shrink every input to a smoke-test size.
    pub tiny: bool,
}

/// The end-to-end metrics and their units, printed with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_jobs_per_s", "1/s"),
    ("point_ns_per_job_p50", "ns"),
    ("point_ns_per_job_p90", "ns"),
    ("allocs_per_job", "count"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
];

/// The per-layer metrics and their units, printed by the traced run for
/// every workload. A layer the workload does not run reads 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("core.offline.compile_s", "s"),
        ("core.offline.calls", "count"),
        ("core.sgprs.run_s", "s"),
        ("core.sgprs.self_s", "s"),
        ("core.sgprs.ns_per_job", "ns"),
        ("core.sgprs.allocs_per_job", "count"),
        ("core.sgprs.completed_ratio", "ratio"),
        ("core.naive.run_s", "s"),
        ("core.naive.ns_per_job", "ns"),
        ("core.naive.allocs_per_job", "count"),
        ("core.naive.completed_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for np in sweep::CONTEXTS {
        out.push((format!("core.naive.pivot_tasks.np{np}"), "count"));
        for os in sweep::OVERSUBSCRIPTION {
            out.push((format!("core.sgprs.pivot_tasks.np{np}.os{os:.1}"), "count"));
        }
    }
    out.extend(
        [
            ("gpu-sim.kernels", "count"),
            ("gpu-sim.replay_s", "s"),
            ("gpu-sim.ns_per_kernel", "ns"),
            ("gpu-sim.share", "ratio"),
            ("gpu-sim.replay_mismatches", "count"),
            ("cluster.epoch.node_epochs", "count"),
            ("cluster.epoch.ns_per_node_epoch", "ns"),
            ("cluster.epoch.truncated_jobs", "count"),
            ("cluster.event.events", "count"),
            ("cluster.event.ns_per_event", "ns"),
            ("cluster.event.allocs_per_event", "count"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    for span in sgprs_cluster::Span::ALL.map(sgprs_cluster::Span::name) {
        out.push((format!("cluster.span.{span}.calls"), "count"));
        out.push((format!("cluster.span.{span}.est_s"), "s"));
    }
    out.extend(
        [
            ("cluster.span.overflow_calls", "count"),
            ("cluster.span.unattributed_s", "s"),
            ("cluster.span.unattributed_share", "ratio"),
            ("cluster.dispatch.admit_ratio", "ratio"),
            ("cluster.dispatch.deferred", "count"),
            ("cluster.dispatch.degraded", "count"),
            ("cluster.dispatch.upgrades", "count"),
            ("cluster.dispatch.expired", "count"),
            ("cluster.dispatch.migrations", "count"),
            ("cluster.dispatch.rejection_rate", "ratio"),
            ("cluster.queue.wait_p99_ms", "ms"),
            ("cluster.queue.peak_depth", "count"),
            ("cluster.stream.peak_active", "count"),
            ("cluster.stream.id_capacity", "count"),
            ("trace.overhead", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Unit runs (sweep points or fleets) whose outputs were checked.
    pub attempted: u64,
    /// Unit runs with at least one failed check.
    pub failed: u64,
    /// What failed, one line per check.
    pub failures: Vec<String>,
    /// Digest of the simulated statistics of one cycle (equal across
    /// cycles, traced or not).
    pub digest: u64,
    /// The printed metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one cycle: each unit's failed checks, and whether the
    /// cycle's simulated statistics match the first cycle's.
    pub(crate) fn record_cycle(&mut self, mut unit_failures: Vec<Vec<String>>, digest: u64) {
        if self.attempted == 0 {
            self.digest = digest;
        } else if digest != self.digest {
            unit_failures[0].push(
                "simulated statistics differ from the first cycle's (traced runs must not change them)"
                    .into(),
            );
        }
        for failures in unit_failures {
            self.attempted += 1;
            if !failures.is_empty() {
                self.failed += 1;
                self.failures.extend(failures);
            }
        }
    }

    /// Orders `found` by `names`, filling a layer the workload did not
    /// measure with 0.
    pub(crate) fn set_metrics(&mut self, names: &[(String, &'static str)], found: Vec<Metric>) {
        self.metrics = names
            .iter()
            .map(|(name, unit)| {
                found
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .unwrap_or_else(|| metric(name.clone(), 0.0, unit))
            })
            .collect();
    }

    /// The share of checked unit runs whose checks all passed.
    #[must_use]
    pub fn ok_share(&self) -> f64 {
        1.0 - measure::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The one-line JSON result the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The host cost of one unit of a workload in one cycle: a sweep point,
/// or one fleet. A cycle runs every unit once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitCost {
    pub setup_s: f64,
    pub run_s: f64,
    pub released: u64,
    pub allocs: u64,
}

/// Per unit, the median of its set-up and run times over the cycles. The
/// times are already at the reference host speed (see
/// [`measure::HostSpeed`]); the median drops the repetitions a sudden
/// change of host speed caught between reference samples. Job and
/// allocation counts are the last cycle's: they repeat once the process is
/// warm (one-time initialisation allocates in the first cycle only).
pub(crate) fn unit_median(cycles: &[Vec<UnitCost>]) -> Vec<UnitCost> {
    (0..cycles[0].len())
        .map(|i| {
            let of = |f: fn(&UnitCost) -> f64| {
                measure::median(&cycles.iter().map(|c| f(&c[i])).collect::<Vec<_>>())
            };
            UnitCost {
                setup_s: of(|u| u.setup_s),
                run_s: of(|u| u.run_s),
                ..cycles[cycles.len() - 1][i]
            }
        })
        .collect()
}

/// The end-to-end metrics from a run's untraced cycles. A point of the
/// `point_ns_per_job_*` quantiles is `units_per_point` consecutive units.
pub(crate) fn end_to_end(outcome: &mut Outcome, cycles: &[Vec<UnitCost>], units_per_point: usize) {
    let units = unit_median(cycles);
    let wall: f64 = units.iter().map(|u| u.run_s).sum();
    let released: u64 = units.iter().map(|u| u.released).sum();
    let allocs: u64 = units.iter().map(|u| u.allocs).sum();
    let per_point: Vec<f64> = units
        .chunks(units_per_point)
        .map(|point| {
            let run_s: f64 = point.iter().map(|u| u.run_s).sum();
            let released: u64 = point.iter().map(|u| u.released).sum();
            measure::ratio(run_s * 1e9, released as f64)
        })
        .collect();
    let found = vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", units.iter().map(|u| u.setup_s).sum(), "s"),
        metric(
            "sim_jobs_per_s",
            measure::ratio(released as f64, wall),
            "1/s",
        ),
        metric(
            "point_ns_per_job_p50",
            measure::quantile(&per_point, 0.5),
            "ns",
        ),
        metric(
            "point_ns_per_job_p90",
            measure::quantile(&per_point, 0.9),
            "ns",
        ),
        metric(
            "allocs_per_job",
            measure::ratio(allocs as f64, released as f64),
            "count",
        ),
        metric(
            "peak_rss_mib",
            measure::peak_rss_mib().unwrap_or(0.0),
            "MiB",
        ),
        metric("ok_share", outcome.ok_share(), "share"),
    ];
    let names: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    outcome.set_metrics(&names, found);
}

/// Runs one workload under `plan`.
#[must_use]
pub fn run(workload: Workload, plan: &Plan) -> Outcome {
    match workload {
        Workload::PaperSweep => sweep::run(plan),
        Workload::FleetEpoch => fleet::run(fleet::FleetKind::Epoch, plan),
        Workload::FleetEventOverload => fleet::run(fleet::FleetKind::EventOverload, plan),
    }
}
