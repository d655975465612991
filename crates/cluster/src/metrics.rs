//! Fleet-level metrics: per-node and total throughput, miss and
//! rejection rates, and a utilisation histogram.
//!
//! Node schedulers already report the paper's metrics through
//! [`sgprs_core::RunMetrics`] (produced by `sgprs_core::MetricsCollector`);
//! this module folds those per-epoch reports into fleet aggregates and
//! renders them as JSON for downstream tooling.

use crate::telemetry::TelemetryReport;
use crate::DispatchOutcome;
use serde::{Deserialize, Serialize};
use sgprs_core::RunMetrics;
use sgprs_rt::SimDuration;

/// Number of bins in the utilisation histogram (`[0, 0.1) .. [0.9, ∞)`).
pub const UTILIZATION_BINS: usize = 10;

/// Version stamp of the [`FleetMetrics::to_json`] schema, exported as
/// the `schema_version` field so downstream consumers can detect drift
/// explicitly instead of by parse failure. Bump it whenever the golden
/// snapshot in `tests/fleet_end_to_end.rs` changes shape.
///
/// History: 1 — implicit pre-versioning schema (through PR 3);
/// 2 — adds `schema_version`, `truncated_jobs`, `migration_stall_secs`.
/// Within 2, `expired_hopeless` is an *optional* field emitted only when
/// nonzero (demand-aware expiry is off by default), so default-path
/// exports — and the golden snapshot pinning them — stay byte-stable.
/// 3 — adds the `telemetry` block (windowed time-series, merged-sketch
/// quantiles, profile counters, optional decision trace). A run with
/// telemetry *off* — the default — still renders as
/// [`BASE_SCHEMA_VERSION`] with no `telemetry` member, byte-identical to
/// the pre-telemetry export, so the version number always tells the
/// truth about the shape.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// The schema version rendered when telemetry is disabled: the v2 shape,
/// unchanged byte-for-byte (see [`METRICS_SCHEMA_VERSION`]'s history).
pub const BASE_SCHEMA_VERSION: u32 = 2;

/// Accumulated results for one node across every epoch of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node name.
    pub name: String,
    /// Physical SMs of the node's device.
    pub total_sms: u32,
    /// Releases observed across all epochs.
    pub released: u64,
    /// Completions across all epochs.
    pub completed: u64,
    /// Deadline misses (late + skipped + dropped) across all epochs.
    pub missed: u64,
    /// Achieved frames per second over the whole run window.
    pub fps: f64,
    /// Deadline-miss rate over the whole run.
    pub dmr: f64,
    /// Mean admission-utilisation (demand/budget) across epochs.
    pub mean_utilization: f64,
    /// Tenants resident when the run ended.
    pub final_tenants: usize,
}

/// Aggregated results of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Simulated run length.
    pub window: SimDuration,
    /// Per-node accumulation.
    pub nodes: Vec<NodeReport>,
    /// Fleet-wide frames per second (`Σ completed / window`).
    pub total_fps: f64,
    /// Fleet-wide deadline-miss rate.
    pub dmr: f64,
    /// Tenant arrivals offered to the dispatcher.
    pub arrivals: u64,
    /// Arrivals admitted immediately.
    pub admitted: u64,
    /// Arrivals that never became resident: they were deferred to the
    /// wait queue for lack of capacity and no departure ever let them in
    /// (an *eventual* outcome, not the at-arrival snapshot — see
    /// [`FleetMetrics::deferred`] for how many merely waited).
    pub rejected: u64,
    /// Arrivals dropped outright because they were latency-infeasible on
    /// every node (no departure could ever make them fit).
    pub infeasible: u64,
    /// Arrivals that could not be placed immediately and entered the
    /// wait queue, regardless of whether they were admitted later.
    pub deferred: u64,
    /// Arrivals rejected because a tenant with the same name was already
    /// active (resident or queued); see the uniqueness contract on
    /// [`crate::TenantSpec::name`].
    pub duplicates: u64,
    /// Queued tenants admitted later, after departures freed capacity.
    pub admitted_after_wait: u64,
    /// Tenants still waiting when the run ended.
    pub still_queued: u64,
    /// Tenant departures applied.
    pub departures: u64,
    /// Tenants migrated off overloaded nodes.
    pub migrations: u64,
    /// Jobs lost to epoch-boundary truncation: admitted and still in
    /// flight when their epoch's window closed, so they count neither as
    /// completed nor missed (<3 % at one-second epochs and the paper's
    /// 33 ms periods). The epoch path counts them; the event path
    /// ([`crate::Fleet::run_events`]) carries scheduler state across
    /// boundaries and asserts this stays zero.
    pub truncated_jobs: u64,
    /// Total simulated seconds tenants spent stalled in migration state
    /// transfers ([`crate::MigrationConfig::cost`], event path only).
    /// Re-pricing partition switches contribute nothing here — that gap
    /// is the paper's zero-cost-switching property, measured.
    pub migration_stall_secs: f64,
    /// The [`METRICS_SCHEMA_VERSION`] this report was rendered with.
    pub schema_version: u32,
    /// Admissions at a degraded [`crate::TenantSpec::fps_ladder`] step —
    /// at arrival or out of the wait queue — instead of a rejection
    /// (requires [`crate::QueueConfig::repricing`]).
    pub degraded: u64,
    /// Re-pricing steps back up: at epoch boundaries freed capacity lets
    /// a degraded tenant serve at a higher ladder step (or its requested
    /// rate) again. Counts steps, so one tenant may contribute several.
    pub upgrades: u64,
    /// Queued tenants that gave up waiting: their
    /// [`crate::TenantSpec::max_wait`] elapsed before capacity freed.
    /// Expired in-run deferrals count toward [`FleetMetrics::rejected`].
    pub expired: u64,
    /// Queued tenants expired *early* by demand-aware expiry
    /// ([`crate::QueueConfig::demand_aware_expiry`]): provably unable to
    /// ever be admitted — no node could carry them even fully drained,
    /// at any ladder step — so waiting out their patience could never
    /// pay off. Counted separately from patience [`FleetMetrics::expired`];
    /// in-run deferrals expired this way also count toward
    /// [`FleetMetrics::rejected`]. Exported to JSON only when nonzero
    /// (see [`METRICS_SCHEMA_VERSION`]).
    pub expired_hopeless: u64,
    /// Mean wait (seconds) of this run's deferrals that were admitted
    /// out of the queue (0 when none were).
    pub queue_wait_mean_secs: f64,
    /// Longest such wait in seconds.
    pub queue_wait_max_secs: f64,
    /// `(rejected + infeasible) / arrivals` (0 when nothing arrived),
    /// where `rejected` counts *eventual* outcomes: a tenant that queued
    /// and was later admitted is not a rejection.
    pub rejection_rate: f64,
    /// Histogram of per-node-per-epoch admission utilisation, 10 bins of
    /// width 0.1 with the last bin catching ≥ 0.9.
    pub utilization_histogram: [u64; UTILIZATION_BINS],
    /// The run's telemetry ([`crate::TelemetryConfig`]): windowed
    /// time-series, merged-sketch wait/latency quantiles, profile
    /// counters, and the optional decision trace. `None` — and omitted
    /// from the JSON export — when telemetry is disabled (the default).
    pub telemetry: Option<TelemetryReport>,
}

impl FleetMetrics {
    /// Renders the metrics as pretty-printed JSON (hand-rolled: the
    /// vendored serde stand-in has no serializer).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!(
            "  \"window_secs\": {:.3},\n",
            self.window.as_secs_f64()
        ));
        out.push_str(&format!("  \"total_fps\": {:.2},\n", self.total_fps));
        out.push_str(&format!("  \"dmr\": {:.4},\n", self.dmr));
        out.push_str(&format!("  \"arrivals\": {},\n", self.arrivals));
        out.push_str(&format!("  \"admitted\": {},\n", self.admitted));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"infeasible\": {},\n", self.infeasible));
        out.push_str(&format!("  \"deferred\": {},\n", self.deferred));
        out.push_str(&format!("  \"duplicates\": {},\n", self.duplicates));
        out.push_str(&format!(
            "  \"admitted_after_wait\": {},\n",
            self.admitted_after_wait
        ));
        out.push_str(&format!("  \"still_queued\": {},\n", self.still_queued));
        out.push_str(&format!("  \"departures\": {},\n", self.departures));
        out.push_str(&format!("  \"migrations\": {},\n", self.migrations));
        out.push_str(&format!("  \"truncated_jobs\": {},\n", self.truncated_jobs));
        out.push_str(&format!(
            "  \"migration_stall_secs\": {:.4},\n",
            self.migration_stall_secs
        ));
        out.push_str(&format!("  \"degraded\": {},\n", self.degraded));
        out.push_str(&format!("  \"upgrades\": {},\n", self.upgrades));
        out.push_str(&format!("  \"expired\": {},\n", self.expired));
        if self.expired_hopeless > 0 {
            // Optional field: emitted only when demand-aware expiry
            // actually fired, keeping default-path exports (and the
            // golden snapshot) byte-stable.
            out.push_str(&format!(
                "  \"expired_hopeless\": {},\n",
                self.expired_hopeless
            ));
        }
        out.push_str(&format!(
            "  \"queue_wait_mean_secs\": {:.4},\n",
            self.queue_wait_mean_secs
        ));
        out.push_str(&format!(
            "  \"queue_wait_max_secs\": {:.4},\n",
            self.queue_wait_max_secs
        ));
        out.push_str(&format!(
            "  \"rejection_rate\": {:.4},\n",
            self.rejection_rate
        ));
        out.push_str("  \"utilization_histogram\": [");
        for (i, b) in self.utilization_histogram.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&b.to_string());
        }
        out.push_str("],\n");
        if let Some(telemetry) = &self.telemetry {
            out.push_str(&telemetry.render_json());
        }
        out.push_str("  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": \"{}\", ", json_escape(&n.name)));
            out.push_str(&format!("\"total_sms\": {}, ", n.total_sms));
            out.push_str(&format!("\"fps\": {:.2}, ", n.fps));
            out.push_str(&format!("\"dmr\": {:.4}, ", n.dmr));
            out.push_str(&format!("\"released\": {}, ", n.released));
            out.push_str(&format!("\"completed\": {}, ", n.completed));
            out.push_str(&format!("\"missed\": {}, ", n.missed));
            out.push_str(&format!(
                "\"mean_utilization\": {:.4}, ",
                n.mean_utilization
            ));
            out.push_str(&format!("\"final_tenants\": {}", n.final_tenants));
            out.push('}');
            if i + 1 < self.nodes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }

    /// Attaches a finished telemetry report, bumping the export to
    /// [`METRICS_SCHEMA_VERSION`]. A `None` report is a no-op: the
    /// metrics keep the [`BASE_SCHEMA_VERSION`] shape.
    pub fn attach_telemetry(&mut self, telemetry: Option<TelemetryReport>) {
        if telemetry.is_some() {
            self.telemetry = telemetry;
            self.schema_version = METRICS_SCHEMA_VERSION;
        }
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One dispatch decision of a run, as every counter set records it: the
/// run totals ([`FleetMetricsBuilder`]), the telemetry windows, and the
/// decision trace all fold the same value, so they cannot disagree.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Decision {
    /// An arrival was dispatched; `probes` is the shard probes its
    /// placement planning spent.
    Arrival {
        outcome: DispatchOutcome,
        probes: u64,
    },
    /// A waiter was admitted out of the queue. A `carried_over` waiter
    /// was queued before this run began: it is traced, but its admission
    /// and wait do not count toward this run's deferrals.
    QueueAdmit {
        degraded: bool,
        waited: SimDuration,
        carried_over: bool,
    },
    /// A waiter left the queue unserved: patience elapsed, or (`hopeless`)
    /// demand-aware expiry proved it can never fit.
    Expiry { hopeless: bool },
    /// A tenant departed, from a node (`resident`) or from the queue.
    Departure { resident: bool },
    /// A degraded resident stepped up its re-pricing ladder to `fps`.
    Upgrade { fps: f64 },
    /// A migration attempt off node `from`: `to` is `None` when nobody
    /// could take the victim; `stall` is the state-transfer time paid.
    Migration {
        from: usize,
        to: Option<usize>,
        stall: SimDuration,
    },
}

/// The dispatch counters: the one definition shared by the run totals
/// ([`FleetMetrics`]), each telemetry window
/// ([`crate::WindowReport`]), and dispatch-only replay
/// ([`crate::DispatchReplay`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Arrivals offered to the dispatcher.
    pub arrivals: u64,
    /// Arrivals admitted immediately (full rate or degraded).
    pub admitted: u64,
    /// Re-pricing ladder admissions, at arrival or out of the queue.
    pub degraded: u64,
    /// Arrivals deferred to the wait queue.
    pub deferred: u64,
    /// Arrivals dropped as latency-infeasible everywhere.
    pub infeasible: u64,
    /// Arrivals rejected as duplicate active names.
    pub duplicates: u64,
    /// This run's deferrals admitted out of the queue.
    pub admitted_after_wait: u64,
    /// Waiters whose patience elapsed.
    pub expired: u64,
    /// Waiters expired early as provably hopeless.
    pub expired_hopeless: u64,
    /// Re-pricing ladder steps back up.
    pub upgrades: u64,
    /// Successful migrations.
    pub migrations: u64,
    /// Departures that removed an active tenant.
    pub departures: u64,
}

impl DispatchCounts {
    /// Folds one arrival's outcome: the only place a [`DispatchOutcome`]
    /// becomes counters.
    pub(crate) fn record_arrival(&mut self, outcome: &DispatchOutcome) {
        self.arrivals += 1;
        match outcome {
            DispatchOutcome::Placed(_) => self.admitted += 1,
            DispatchOutcome::PlacedDegraded { .. } => {
                self.admitted += 1;
                self.degraded += 1;
            }
            DispatchOutcome::Queued => self.deferred += 1,
            DispatchOutcome::Infeasible => self.infeasible += 1,
            DispatchOutcome::Duplicate => self.duplicates += 1,
        }
    }

    /// Folds one decision.
    pub(crate) fn record(&mut self, decision: &Decision) {
        match decision {
            Decision::Arrival { outcome, .. } => self.record_arrival(outcome),
            Decision::QueueAdmit {
                degraded,
                carried_over,
                ..
            } => {
                self.degraded += u64::from(*degraded);
                self.admitted_after_wait += u64::from(!carried_over);
            }
            Decision::Expiry { hopeless: false } => self.expired += 1,
            Decision::Expiry { hopeless: true } => self.expired_hopeless += 1,
            Decision::Departure { .. } => self.departures += 1,
            Decision::Upgrade { .. } => self.upgrades += 1,
            Decision::Migration { to, .. } => self.migrations += u64::from(to.is_some()),
        }
    }

    /// Waiters expired for either reason (the telemetry windows' single
    /// `expired` column).
    #[must_use]
    pub fn expired_total(&self) -> u64 {
        self.expired + self.expired_hopeless
    }
}

/// Streaming accumulator: folds per-epoch [`RunMetrics`] and dispatch
/// events into a [`FleetMetrics`].
#[derive(Debug, Clone, Default)]
pub struct FleetMetricsBuilder {
    names: Vec<String>,
    sms: Vec<u32>,
    released: Vec<u64>,
    completed: Vec<u64>,
    missed: Vec<u64>,
    utilization_sum: Vec<f64>,
    utilization_samples: Vec<u64>,
    histogram: [u64; UTILIZATION_BINS],
    pub(crate) counts: DispatchCounts,
    truncated: u64,
    migration_stall: SimDuration,
    wait_total: SimDuration,
    wait_max: SimDuration,
    wait_samples: u64,
}

impl FleetMetricsBuilder {
    /// A builder for nodes with the given names and SM counts.
    #[must_use]
    pub fn new(names: Vec<String>, sms: Vec<u32>) -> Self {
        let n = names.len();
        assert_eq!(n, sms.len(), "one SM count per node");
        FleetMetricsBuilder {
            names,
            sms,
            released: vec![0; n],
            completed: vec![0; n],
            missed: vec![0; n],
            utilization_sum: vec![0.0; n],
            utilization_samples: vec![0; n],
            ..FleetMetricsBuilder::default()
        }
    }

    /// Folds one dispatch decision into the run totals.
    pub(crate) fn record(&mut self, decision: &Decision) {
        self.counts.record(decision);
        match *decision {
            Decision::QueueAdmit {
                waited,
                carried_over: false,
                ..
            } => self.record_wait(waited),
            Decision::Migration {
                to: Some(_), stall, ..
            } => self.record_migration_stall(stall),
            _ => {}
        }
    }

    /// Records the queue wait of one deferred-then-admitted tenant.
    pub fn record_wait(&mut self, waited: SimDuration) {
        self.wait_total += waited;
        if waited > self.wait_max {
            self.wait_max = waited;
        }
        self.wait_samples += 1;
    }

    /// Folds one epoch's scheduler metrics for node `node`. Releases the
    /// epoch admitted but neither completed nor dropped were in flight
    /// when the window closed — the epoch-boundary truncation artifact,
    /// surfaced as [`FleetMetrics::truncated_jobs`].
    pub fn record_epoch(&mut self, node: usize, m: &RunMetrics) {
        self.released[node] += m.released;
        self.completed[node] += m.completed;
        self.missed[node] += m.late + m.skipped + m.dropped;
        self.truncated += m
            .released
            .saturating_sub(m.completed + m.skipped + m.dropped);
    }

    /// Records one frame release of node `node` (event path).
    pub fn record_released(&mut self, node: usize) {
        self.released[node] += 1;
    }

    /// Records one job completion of node `node` (event path); a late
    /// completion is also a miss.
    pub fn record_completed(&mut self, node: usize, late: bool) {
        self.completed[node] += 1;
        if late {
            self.missed[node] += 1;
        }
    }

    /// Records one skipped (dropped-at-release) frame of node `node`
    /// (event path): released but never served, counted as a miss.
    pub fn record_skipped(&mut self, node: usize) {
        self.missed[node] += 1;
    }

    /// Adds one migration's state-transfer stall (event path).
    pub fn record_migration_stall(&mut self, stall: SimDuration) {
        self.migration_stall += stall;
    }

    /// Records a node's admission utilisation (demand/budget) for one
    /// epoch. The engines only produce finite samples (budget > 0 is
    /// checked before dividing), so a non-finite value is a caller bug —
    /// asserted in debug builds, sanitized to 0.0 in release rather than
    /// poisoning the mean. The histogram bin clamps the sample to
    /// `[0, 1]` explicitly: the old `as usize` cast silently collapsed
    /// negative (and NaN) samples into bin 0, which *looked* like a
    /// valid idle reading; overload samples above 1.0 stay in the top
    /// bin, and the mean keeps the raw (unclamped) value so overload
    /// magnitudes still show up in `mean_utilization`.
    pub fn record_utilization(&mut self, node: usize, utilization: f64) {
        debug_assert!(
            utilization.is_finite(),
            "utilization sample must be finite, got {utilization}"
        );
        let sample = if utilization.is_finite() {
            utilization
        } else {
            0.0
        };
        self.utilization_sum[node] += sample;
        self.utilization_samples[node] += 1;
        let clamped = sample.clamp(0.0, 1.0);
        let bin = ((clamped * UTILIZATION_BINS as f64) as usize).min(UTILIZATION_BINS - 1);
        self.histogram[bin] += 1;
    }

    /// Finalises the fleet metrics for a run of length `window`, with
    /// `final_tenants`/`still_queued` from the dispatcher's end state.
    #[must_use]
    pub fn finish(
        self,
        window: SimDuration,
        final_tenants: &[usize],
        still_queued: u64,
    ) -> FleetMetrics {
        let secs = window.as_secs_f64();
        let nodes: Vec<NodeReport> = (0..self.names.len())
            .map(|i| {
                let released = self.released[i];
                let missed = self.missed[i];
                NodeReport {
                    name: self.names[i].clone(),
                    total_sms: self.sms[i],
                    released,
                    completed: self.completed[i],
                    missed,
                    fps: if secs > 0.0 {
                        self.completed[i] as f64 / secs
                    } else {
                        0.0
                    },
                    dmr: if released > 0 {
                        missed as f64 / released as f64
                    } else {
                        0.0
                    },
                    mean_utilization: if self.utilization_samples[i] > 0 {
                        self.utilization_sum[i] / self.utilization_samples[i] as f64
                    } else {
                        0.0
                    },
                    final_tenants: final_tenants.get(i).copied().unwrap_or(0),
                }
            })
            .collect();
        let released: u64 = nodes.iter().map(|n| n.released).sum();
        let completed: u64 = nodes.iter().map(|n| n.completed).sum();
        let missed: u64 = nodes.iter().map(|n| n.missed).sum();
        let c = self.counts;
        // Rejections are *eventual* outcomes: a deferred arrival that was
        // never admitted later — still queued at the end, expired, or
        // departed while waiting — never got served. Carried-over
        // waiters never count toward `admitted_after_wait`, so it never
        // exceeds `deferred`.
        let rejected = c.deferred - c.admitted_after_wait;
        FleetMetrics {
            window,
            total_fps: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            dmr: if released > 0 {
                missed as f64 / released as f64
            } else {
                0.0
            },
            nodes,
            arrivals: c.arrivals,
            admitted: c.admitted,
            rejected,
            infeasible: c.infeasible,
            deferred: c.deferred,
            duplicates: c.duplicates,
            admitted_after_wait: c.admitted_after_wait,
            still_queued,
            departures: c.departures,
            migrations: c.migrations,
            degraded: c.degraded,
            upgrades: c.upgrades,
            expired: c.expired,
            expired_hopeless: c.expired_hopeless,
            truncated_jobs: self.truncated,
            migration_stall_secs: self.migration_stall.as_secs_f64(),
            // Telemetry attaches afterwards (see `attach_telemetry`);
            // until then the report has the v2 shape and says so.
            schema_version: BASE_SCHEMA_VERSION,
            telemetry: None,
            queue_wait_mean_secs: if self.wait_samples > 0 {
                self.wait_total.as_secs_f64() / self.wait_samples as f64
            } else {
                0.0
            },
            queue_wait_max_secs: self.wait_max.as_secs_f64(),
            rejection_rate: if c.arrivals > 0 {
                (rejected + c.infeasible) as f64 / c.arrivals as f64
            } else {
                0.0
            },
            utilization_histogram: self.histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_rt::SimTime;

    fn run_metrics(released: u64, completed: u64, late: u64) -> RunMetrics {
        let mut c = sgprs_core::MetricsCollector::new(vec!["t".into()], SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for i in 0..released {
            t = SimTime::ZERO + SimDuration::from_millis(33 * (i + 1));
            c.record_release(0, t);
            if i < completed {
                let fin = t + SimDuration::from_millis(10);
                let deadline = if i < late {
                    t + SimDuration::from_millis(5)
                } else {
                    t + SimDuration::from_millis(33)
                };
                c.record_completion(0, t, fin, deadline);
            } else {
                c.record_skip(0, t);
            }
        }
        c.finish(t + SimDuration::from_secs(1))
    }

    #[test]
    fn epochs_accumulate_into_totals() {
        let mut b = FleetMetricsBuilder::new(vec!["a".into(), "b".into()], vec![68, 34]);
        b.record_epoch(0, &run_metrics(10, 10, 0));
        b.record_epoch(0, &run_metrics(10, 8, 2));
        b.record_epoch(1, &run_metrics(5, 5, 0));
        b.counts.arrivals = 3;
        b.counts.admitted = 3;
        let m = b.finish(SimDuration::from_secs(2), &[2, 1], 0);
        assert_eq!(m.nodes[0].released, 20);
        assert_eq!(m.nodes[0].completed, 18);
        // 2 late + 2 skipped from the second epoch.
        assert_eq!(m.nodes[0].missed, 4);
        assert_eq!(m.nodes[1].completed, 5);
        assert!((m.total_fps - 23.0 / 2.0).abs() < 1e-9);
        assert_eq!(m.rejection_rate, 0.0);
        assert_eq!(m.nodes[0].final_tenants, 2);
    }

    #[test]
    fn histogram_bins_cover_the_unit_interval() {
        let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        for u in [0.0, 0.05, 0.55, 0.95, 1.4] {
            b.record_utilization(0, u);
        }
        let m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(m.utilization_histogram[0], 2);
        assert_eq!(m.utilization_histogram[5], 1);
        assert_eq!(
            m.utilization_histogram[9], 2,
            "overload lands in the top bin"
        );
        assert!((m.nodes[0].mean_utilization - 0.59).abs() < 1e-9);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut b = FleetMetricsBuilder::new(vec!["gpu\"0\"".into()], vec![68]);
        b.counts = DispatchCounts {
            arrivals: 2,
            deferred: 1,
            duplicates: 3,
            degraded: 2,
            upgrades: 1,
            expired: 1,
            ..DispatchCounts::default()
        };
        b.record_wait(SimDuration::from_secs(1));
        b.record_wait(SimDuration::from_secs(3));
        b.record_migration_stall(SimDuration::from_millis(250));
        let m = b.finish(SimDuration::from_secs(1), &[1], 1);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(
            json.starts_with("{\n  \"schema_version\": 2,"),
            "the schema version leads the export: {json}"
        );
        assert!(json.contains("\"truncated_jobs\": 0"));
        assert!(json.contains("\"migration_stall_secs\": 0.2500"));
        assert!(json.contains("\"rejection_rate\": 0.5000"));
        assert!(json.contains("\"deferred\": 1"));
        assert!(json.contains("\"duplicates\": 3"));
        assert!(json.contains("\"degraded\": 2"));
        assert!(json.contains("\"upgrades\": 1"));
        assert!(json.contains("\"expired\": 1"));
        assert!(json.contains("\"queue_wait_mean_secs\": 2.0000"));
        assert!(json.contains("\"queue_wait_max_secs\": 3.0000"));
        assert!(json.contains("gpu\\\"0\\\""), "names are escaped: {json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn attaching_telemetry_bumps_the_schema_version() {
        use crate::telemetry::{ProfileReport, SketchSummary};
        let b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        let mut m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(m.schema_version, BASE_SCHEMA_VERSION);
        m.attach_telemetry(None);
        assert_eq!(m.schema_version, BASE_SCHEMA_VERSION, "None is a no-op");
        assert!(!m.to_json().contains("\"telemetry\""));
        let empty = SketchSummary {
            count: 0,
            p50_ms: 0.0,
            p90_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        };
        m.attach_telemetry(Some(TelemetryReport {
            window_secs: 0.25,
            windows: Vec::new(),
            queue_wait: empty.clone(),
            job_latency: empty,
            profile: ProfileReport {
                plans: 1,
                shard_probes: 0,
                drain_scans: 0,
                event_queue_ops: 0,
                trace_recorded: 0,
                trace_dropped: 0,
            },
            trace_enabled: false,
            trace: Vec::new(),
        }));
        assert_eq!(m.schema_version, METRICS_SCHEMA_VERSION);
        let json = m.to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 3,"), "{json}");
        assert!(json.contains("\"telemetry\": {"));
        assert!(json.contains("\"window_secs\": 0.250"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn expired_hopeless_is_an_optional_json_field() {
        // Zero (the default path) leaves the export byte-identical to
        // the pinned schema; a nonzero count surfaces explicitly.
        let b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        let silent = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert!(
            !silent.to_json().contains("expired_hopeless"),
            "zero stays out of the pinned schema"
        );
        let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        b.counts.expired_hopeless = 2;
        let m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(m.expired_hopeless, 2);
        let json = m.to_json();
        assert!(json.contains("\"expired_hopeless\": 2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn epoch_folds_count_truncated_in_flight_jobs() {
        // Three releases: one completed, one skipped, one neither — the
        // last was in flight when the epoch window closed.
        let mut c = sgprs_core::MetricsCollector::new(vec!["t".into()], SimTime::ZERO);
        let t0 = SimTime::ZERO + SimDuration::from_millis(33);
        c.record_release(0, t0);
        c.record_completion(
            0,
            t0,
            t0 + SimDuration::from_millis(10),
            t0 + SimDuration::from_millis(33),
        );
        let t1 = t0 + SimDuration::from_millis(33);
        c.record_release(0, t1);
        c.record_skip(0, t1);
        let t2 = t1 + SimDuration::from_millis(33);
        c.record_release(0, t2);
        let epoch = c.finish(t2 + SimDuration::from_millis(20));
        assert_eq!(epoch.released, 3);
        assert_eq!(epoch.completed, 1);
        assert_eq!(epoch.skipped, 1);
        let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        b.record_epoch(0, &epoch);
        let m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(
            m.truncated_jobs, 1,
            "the in-flight release is the truncation artifact: {m:?}"
        );
        assert!(m.to_json().contains("\"truncated_jobs\": 1"));
    }

    #[test]
    fn event_records_accumulate_like_an_epoch_fold() {
        let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        for _ in 0..10 {
            b.record_released(0);
        }
        for i in 0..7 {
            b.record_completed(0, i < 2); // two late
        }
        b.record_skipped(0);
        let m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(m.nodes[0].released, 10);
        assert_eq!(m.nodes[0].completed, 7);
        assert_eq!(m.nodes[0].missed, 3, "2 late + 1 skipped");
        assert_eq!(
            m.truncated_jobs, 0,
            "event-path records never touch the truncation counter"
        );
        assert!((m.nodes[0].dmr - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_run_yields_zeroes() {
        let b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        let m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(m.total_fps, 0.0);
        assert_eq!(m.dmr, 0.0);
        assert_eq!(m.rejection_rate, 0.0);
    }

    /// Regression: the histogram bin used a bare `as usize` cast, so a
    /// negative sample (and NaN, via the saturating cast) landed in bin
    /// 0 indistinguishable from a genuine idle reading, and nothing
    /// flagged the bogus input. Edge samples now clamp into the valid
    /// bin range (overload above 1.0 stays in the top bin, as before),
    /// and non-finite samples are a debug assertion.
    #[test]
    fn utilization_edge_samples_bin_sanely() {
        let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
        b.record_utilization(0, -0.4); // clamped into bin 0
        b.record_utilization(0, 0.0);
        b.record_utilization(0, 0.95);
        b.record_utilization(0, 7.5); // overload: top bin, not overflow
        let m = b.finish(SimDuration::from_secs(1), &[0], 0);
        assert_eq!(m.utilization_histogram[0], 2);
        assert_eq!(m.utilization_histogram[UTILIZATION_BINS - 1], 2);
        assert_eq!(m.utilization_histogram.iter().sum::<u64>(), 4);
        // The mean keeps raw values: overload magnitude must survive.
        let mean = m.nodes[0].mean_utilization;
        assert!((mean - (-0.4 + 0.95 + 7.5) / 4.0).abs() < 1e-12, "{mean}");
        if cfg!(debug_assertions) {
            let err = std::panic::catch_unwind(|| {
                let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
                b.record_utilization(0, f64::NAN);
            });
            assert!(err.is_err(), "non-finite samples are a caller bug");
        } else {
            let mut b = FleetMetricsBuilder::new(vec!["a".into()], vec![68]);
            b.record_utilization(0, f64::NAN);
            let m = b.finish(SimDuration::from_secs(1), &[0], 0);
            assert_eq!(m.utilization_histogram[0], 1, "NaN sanitized to 0.0");
            assert_eq!(m.nodes[0].mean_utilization, 0.0);
        }
    }
}
