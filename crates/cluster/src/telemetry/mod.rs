//! Fleet observability: windowed time-series, mergeable quantile
//! sketches, and a deterministic decision trace.
//!
//! [`crate::FleetMetrics`] answers *what happened over the whole run*;
//! this module answers *what happened when, where, and why* — without
//! giving up the fleet's determinism contract or more than O(1) memory
//! per node. Three pillars:
//!
//! * **Windowed time-series** ([`window`]) — simulated time is cut into
//!   fixed [`TelemetryConfig::window`] intervals, each accumulating the
//!   dispatch activity that fell inside it (admissions, rejections,
//!   deferrals, re-pricing steps, migrations), the peak wait-queue
//!   depth, and the mean sampled fleet utilisation.
//! * **Quantile sketches** ([`sketch`]) — fixed-size, integer-centroid,
//!   deterministic [`QuantileSketch`]es for the queue-wait and
//!   job-latency distributions, exporting p50/p90/p99 per window and
//!   run-wide. Per-node latency sketches are merged in ascending node
//!   index, and per-window wait sketches in window order, so the export
//!   is byte-identical across worker counts.
//! * **Decision trace** ([`trace`]) — an opt-in ring buffer of
//!   [`TraceEvent`]s (dispatch verdict with cause and shard-probe
//!   count, queue admission/expiry, re-pricing ladder steps, migration
//!   victim/destination/stall, departures). The JSON profile block
//!   carries the trace's record/drop counts next to deterministic
//!   hot-path counters read from the span call counts.
//! * **Span counts and profiler** ([`prof`]) — every run counts the
//!   calls of the simulator's *own* hot paths ([`Span`]) in one
//!   always-on block ([`crate::Fleet::span_calls`]); an independently
//!   armed ([`crate::FleetConfig::with_profiling`]) wall-clock profiler
//!   adds log2 latency histograms, zero-cost when off and never
//!   exported ([`crate::Fleet::span_profile`]).
//!
//! Everything records on the single-threaded orchestration path of both
//! engines (the epoch path's accounting helpers and fold loop, the
//! event engine's handlers), never inside the parallel per-node fan-out
//! — which is what makes the output a deterministic function of
//! `(config, trace, horizon)`.
//!
//! Telemetry is **off by default** ([`TelemetryConfig::disabled`]) and
//! the off path is zero-cost on the export: a run without telemetry
//! renders byte-identical JSON to the pre-telemetry schema (see
//! [`crate::METRICS_SCHEMA_VERSION`]).

mod prof;
mod sketch;
mod trace;
mod window;

pub use prof::{Span, SpanProfile, SpanStats, PLAN_LATENCY_BINS, SPAN_COUNT};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_CAPACITY, RANK_ERROR_NUMERATOR};
pub use trace::TraceEvent;

use crate::metrics::Decision;
use crate::DispatchCounts;
use prof::{SpanCalls, SpanProfiler};
use serde::{Deserialize, Serialize};
use sgprs_rt::{SimDuration, SimTime};
use trace::TraceRing;
use window::{WindowSeries, WindowStats};

/// Telemetry knobs on [`crate::FleetConfig`]. Disabled by default; see
/// the module docs for what enabling buys.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch. Off ([`TelemetryConfig::disabled`], the default)
    /// means no telemetry state is allocated, no hook records anything,
    /// and the JSON export is byte-identical to the pre-telemetry
    /// schema.
    pub enabled: bool,
    /// Time-series window length (250 ms by default). Every quantile
    /// sketch holds [`DEFAULT_SKETCH_CAPACITY`] centroids; see
    /// [`QuantileSketch`] for the rank-error bound that buys.
    pub window: SimDuration,
    /// Decision-trace ring capacity; 0 (the default) keeps the trace
    /// off even when telemetry is enabled.
    pub trace_capacity: usize,
    /// Arms the span-scoped wall-clock profiler ([`SpanProfile`]) for
    /// the run. Independent of `enabled` — profiling works with the
    /// simulated-fleet telemetry fully off — and off by default: the
    /// profiler is never even constructed unless this is set. Span call
    /// counts are kept either way.
    pub profiling: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

impl TelemetryConfig {
    /// The default: telemetry fully off.
    #[must_use]
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            window: SimDuration::from_millis(250),
            trace_capacity: 0,
            profiling: false,
        }
    }

    /// Telemetry on, with time-series windows of the given length and no
    /// decision trace.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn windowed(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "telemetry window must be positive");
        TelemetryConfig {
            enabled: true,
            window,
            ..TelemetryConfig::disabled()
        }
    }

    /// Enables the decision trace with the given ring capacity.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Arms the span-scoped hot-path profiler (see [`SpanProfile`]).
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }
}

/// Quantile summary of one sketch, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SketchSummary {
    /// Samples observed.
    pub count: u64,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Largest observed sample, milliseconds.
    pub max_ms: f64,
}

impl SketchSummary {
    fn from_sketch(s: &QuantileSketch) -> Self {
        let ms = |ns: u64| ns as f64 / 1e6;
        SketchSummary {
            count: s.count(),
            p50_ms: ms(s.quantile(0.50)),
            p90_ms: ms(s.quantile(0.90)),
            p99_ms: ms(s.quantile(0.99)),
            max_ms: ms(s.max()),
        }
    }

    fn render_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}",
            self.count, self.p50_ms, self.p90_ms, self.p99_ms, self.max_ms
        )
    }
}

/// One time-series window of the finished report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window start, seconds from the run origin.
    pub start_secs: f64,
    /// The dispatch decisions that fell inside the window (the export's
    /// single `expired` column is [`DispatchCounts::expired_total`]).
    pub counts: DispatchCounts,
    /// Peak wait-queue depth observed after any queue mutation.
    pub queue_depth_peak: u64,
    /// Mean of the utilisation samples that landed in the window.
    pub utilization_mean: f64,
    /// Queue waits of deferrals admitted inside the window.
    pub wait: SketchSummary,
}

/// Deterministic hot-path profile counters of the finished report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Placement plans evaluated (arrival dispatch + queue drains): the
    /// [`Span::Plan`] call count.
    pub plans: u64,
    /// Placement-scan probes spent across all plans: one per probed
    /// shard, one per flat whole-fleet scan.
    pub shard_probes: u64,
    /// Drain passes that actually scanned the queue: the
    /// [`Span::DrainScan`] call count.
    pub drain_scans: u64,
    /// Event-queue pushes + pops (0 on the epoch path).
    pub event_queue_ops: u64,
    /// Decision-trace events recorded.
    pub trace_recorded: u64,
    /// Decision-trace events dropped by the ring (oldest-first).
    pub trace_dropped: u64,
}

/// The finished telemetry of one run, carried on
/// [`crate::FleetMetrics::telemetry`] and rendered into the schema-v3
/// JSON export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Time-series window length, seconds.
    pub window_secs: f64,
    /// The time-series windows, in order from the run origin. Trailing
    /// fully idle windows are not materialised.
    pub windows: Vec<WindowReport>,
    /// Run-wide queue-wait distribution: the per-window sketches merged
    /// in window order.
    pub queue_wait: SketchSummary,
    /// Run-wide job-latency (response-time) distribution: the per-node
    /// sketches merged in ascending node index.
    pub job_latency: SketchSummary,
    /// Deterministic hot-path profile counters.
    pub profile: ProfileReport,
    /// Whether the decision trace was enabled (capacity > 0); gates the
    /// `trace` block in the JSON export.
    pub trace_enabled: bool,
    /// Rendered decision-trace lines, oldest first (empty when the trace
    /// is off).
    pub trace: Vec<String>,
}

impl TelemetryReport {
    /// The peak wait-queue depth across all windows.
    #[must_use]
    pub fn peak_queue_depth(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.queue_depth_peak)
            .max()
            .unwrap_or(0)
    }

    /// Renders the report as the `"telemetry"` member of the metrics
    /// JSON export (hand-rolled like the rest of
    /// [`crate::FleetMetrics::to_json`]), including the trailing comma.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1_024);
        out.push_str("  \"telemetry\": {\n");
        out.push_str(&format!("    \"window_secs\": {:.3},\n", self.window_secs));
        out.push_str(&format!(
            "    \"queue_wait_ms\": {},\n",
            self.queue_wait.render_json()
        ));
        out.push_str(&format!(
            "    \"job_latency_ms\": {},\n",
            self.job_latency.render_json()
        ));
        out.push_str(&format!(
            "    \"profile\": {{\"plans\": {}, \"shard_probes\": {}, \"drain_scans\": {}, \"event_queue_ops\": {}, \"trace_recorded\": {}, \"trace_dropped\": {}}},\n",
            self.profile.plans,
            self.profile.shard_probes,
            self.profile.drain_scans,
            self.profile.event_queue_ops,
            self.profile.trace_recorded,
            self.profile.trace_dropped
        ));
        out.push_str("    \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            let c = &w.counts;
            out.push_str(&format!(
                "      {{\"start_secs\": {:.3}, \"arrivals\": {}, \"admitted\": {}, \"degraded\": {}, \"deferred\": {}, \"infeasible\": {}, \"duplicates\": {}, \"admitted_after_wait\": {}, \"expired\": {}, \"upgrades\": {}, \"migrations\": {}, \"departures\": {}, \"queue_depth_peak\": {}, \"utilization_mean\": {:.4}, \"wait_ms\": {}}}",
                w.start_secs,
                c.arrivals,
                c.admitted,
                c.degraded,
                c.deferred,
                c.infeasible,
                c.duplicates,
                c.admitted_after_wait,
                c.expired_total(),
                c.upgrades,
                c.migrations,
                c.departures,
                w.queue_depth_peak,
                w.utilization_mean,
                w.wait.render_json()
            ));
            if i + 1 < self.windows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ]");
        if self.trace_enabled {
            out.push_str(",\n    \"trace\": [\n");
            for (i, line) in self.trace.iter().enumerate() {
                out.push_str(&format!("      \"{}\"", crate::metrics::json_escape(line)));
                if i + 1 < self.trace.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("    ]");
        }
        out.push_str("\n  },\n");
        out
    }
}

/// The live telemetry recorder owned by [`crate::Fleet`]: apart from the
/// span call counts, every hook is a no-op until a run begins with
/// telemetry enabled, which is what keeps the disabled path zero-cost.
#[derive(Debug)]
pub(crate) struct Telemetry {
    cfg: TelemetryConfig,
    state: Option<State>,
    /// Always-on per-span call counts of the current (or last) run,
    /// reset by `begin_profile`.
    calls: SpanCalls,
    /// The span profiler of the *current* run; `Some` only between
    /// `begin_run`/`begin_profile` and `finish_profile` of a
    /// profiling-armed run — never constructed otherwise.
    prof: Option<SpanProfiler>,
    /// The finished profile of the last profiling-armed run (kept
    /// outside the report: real time is not deterministic).
    last_profile: Option<SpanProfile>,
}

#[derive(Debug)]
struct State {
    series: WindowSeries,
    node_latency: Vec<QuantileSketch>,
    trace: TraceRing,
    /// Placement-scan probes spent across the run's plans.
    shard_probes: u64,
    /// Event-queue pushes + pops (event engine only).
    event_queue_ops: u64,
}

impl Telemetry {
    pub(crate) fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            state: None,
            calls: [0; SPAN_COUNT],
            prof: None,
            last_profile: None,
        }
    }

    /// Arms the recorder for a run over `n_nodes` nodes until `horizon`.
    /// A no-op (and a disarm) when telemetry is off.
    pub(crate) fn begin_run(&mut self, n_nodes: usize, horizon: SimDuration) {
        self.begin_profile();
        if !self.cfg.enabled {
            self.state = None;
            return;
        }
        self.state = Some(State {
            series: WindowSeries::new(self.cfg.window, horizon),
            node_latency: (0..n_nodes)
                .map(|_| QuantileSketch::new(DEFAULT_SKETCH_CAPACITY))
                .collect(),
            trace: TraceRing::new(self.cfg.trace_capacity),
            shard_probes: 0,
            event_queue_ops: 0,
        });
    }

    /// Zeroes the span call counts and arms the span profiler (the
    /// non-`run` surfaces — `replay_dispatch` — call this instead of
    /// `begin_run`). The profiler is constructed *only* here and *only*
    /// when configured on; the zero-cost-off contract hangs on that.
    pub(crate) fn begin_profile(&mut self) {
        self.calls = [0; SPAN_COUNT];
        self.prof = self.cfg.profiling.then(SpanProfiler::new);
    }

    /// A wall clock for timing one span: `Some` iff the profiler is
    /// armed, so the unarmed path never reads the clock.
    pub(crate) fn span_clock(&self) -> Option<std::time::Instant> {
        self.prof.as_ref().map(|_| SpanProfiler::clock())
    }

    /// Ends one span call: counts it and, when both the profiler and
    /// `clock` are armed, times it.
    pub(crate) fn span_end(&mut self, span: Span, clock: Option<std::time::Instant>) {
        self.calls[span.index()] += 1;
        if let (Some(prof), Some(started)) = (self.prof.as_mut(), clock) {
            prof.record(span, started);
        }
    }

    /// How many times `span` ran since the last `begin_profile`.
    pub(crate) fn span_calls(&self, span: Span) -> u64 {
        self.calls[span.index()]
    }

    /// Snapshots the current run's profile into [`Self::span_profile`].
    /// `finish_report` calls it; `replay_dispatch` calls it directly.
    pub(crate) fn finish_profile(&mut self) {
        if let Some(prof) = self.prof.take() {
            self.last_profile = Some(prof.into_profile(&self.calls));
        }
    }

    /// Ends one `plan_repriced` invocation (the [`Span::Plan`] span),
    /// adding the shard probes it spent to the telemetry.
    pub(crate) fn note_plan(&mut self, probes: u64, clock: Option<std::time::Instant>) {
        if let Some(state) = self.state.as_mut() {
            state.shard_probes += probes;
        }
        self.span_end(Span::Plan, clock);
    }

    /// Accounts the event queue's push+pop total (event engine only).
    pub(crate) fn note_event_ops(&mut self, ops: u64) {
        if let Some(state) = self.state.as_mut() {
            state.event_queue_ops += ops;
        }
    }

    /// Records one dispatch decision about `tenant` at `at`: the
    /// window's counters (the same fold as the run totals), its wait
    /// sketch, the queue depth the decision left behind (re-pricing
    /// steps and migrations leave the queue alone), and — when tracing —
    /// the trace event.
    pub(crate) fn record(
        &mut self,
        at: SimTime,
        tenant: &str,
        decision: &Decision,
        queue_depth: usize,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let w = state.series.at(at);
        w.counts.record(decision);
        match *decision {
            Decision::QueueAdmit {
                waited,
                carried_over: false,
                ..
            } => w.wait.add(waited.as_nanos()),
            Decision::Upgrade { .. } | Decision::Migration { .. } => {}
            _ => w.note_queue_depth(queue_depth as u64),
        }
        if state.trace.enabled() {
            state.trace.push(TraceEvent::of(at, tenant, decision));
        }
    }

    /// Folds one fleet-utilisation sample (recorded per node in
    /// ascending index order by both engines).
    pub(crate) fn record_utilization(&mut self, at: SimTime, utilization: f64) {
        if let Some(state) = self.state.as_mut() {
            state.series.at(at).record_utilization(utilization);
        }
    }

    /// Feeds job-latency samples of node `node` (the epoch fold's
    /// response samples, already in ascending-node-index order).
    pub(crate) fn record_latency_samples(&mut self, node: usize, samples_ns: &[u64]) {
        if let Some(state) = self.state.as_mut() {
            for &ns in samples_ns {
                state.node_latency[node].add(ns);
            }
        }
    }

    /// Feeds one job-latency sample of node `node` (event path).
    pub(crate) fn record_latency(&mut self, node: usize, latency_ns: u64) {
        if let Some(state) = self.state.as_mut() {
            state.node_latency[node].add(latency_ns);
        }
    }

    /// The span profile of the last finished run (`None` when profiling
    /// was off — the profiler is never constructed on that path).
    pub(crate) fn span_profile(&self) -> Option<&SpanProfile> {
        self.last_profile.as_ref()
    }

    /// Finalises the run: folds the telemetry into a [`TelemetryReport`]
    /// (or `None` when telemetry was off) and snapshots the span
    /// profile.
    pub(crate) fn finish_report(&mut self) -> Option<TelemetryReport> {
        let report = self.fold_report();
        self.finish_profile();
        report
    }

    /// The report fold proper, timed as the [`Span::TelemetryFold`]
    /// span: merges the per-window wait sketches in window order and the
    /// per-node latency sketches in ascending node index — the
    /// deterministic fold.
    fn fold_report(&mut self) -> Option<TelemetryReport> {
        let state = self.state.take()?;
        let fold_clock = self.span_clock();
        let window = state.series.window();
        let mut queue_wait = QuantileSketch::new(DEFAULT_SKETCH_CAPACITY);
        // Window order — the deterministic fold.
        for w in state.series.windows() {
            queue_wait.merge(&w.wait);
        }
        let mut job_latency = QuantileSketch::new(DEFAULT_SKETCH_CAPACITY);
        // Ascending node-index order — the deterministic fold.
        for s in &state.node_latency {
            job_latency.merge(s);
        }
        let windows = state
            .series
            .windows()
            .iter()
            .enumerate()
            .map(|(i, w)| window_report(i, window, w))
            .collect();
        let report = TelemetryReport {
            window_secs: window.as_secs_f64(),
            windows,
            queue_wait: SketchSummary::from_sketch(&queue_wait),
            job_latency: SketchSummary::from_sketch(&job_latency),
            profile: ProfileReport {
                plans: self.span_calls(Span::Plan),
                shard_probes: state.shard_probes,
                drain_scans: self.span_calls(Span::DrainScan),
                event_queue_ops: state.event_queue_ops,
                trace_recorded: state.trace.recorded(),
                trace_dropped: state.trace.dropped(),
            },
            trace_enabled: self.cfg.trace_capacity > 0,
            trace: state.trace.events().map(TraceEvent::render).collect(),
        };
        self.span_end(Span::TelemetryFold, fold_clock);
        Some(report)
    }
}

fn window_report(index: usize, window: SimDuration, w: &WindowStats) -> WindowReport {
    WindowReport {
        start_secs: window.as_secs_f64() * index as f64,
        counts: w.counts,
        queue_depth_peak: w.queue_depth_peak,
        utilization_mean: w.utilization_mean(),
        wait: SketchSummary::from_sketch(&w.wait),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DispatchOutcome;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn arrival(outcome: DispatchOutcome, probes: u64) -> Decision {
        Decision::Arrival { outcome, probes }
    }

    #[test]
    fn disabled_telemetry_records_and_reports_nothing() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.begin_run(4, SimDuration::from_secs(1));
        t.record(at(10), "a", &arrival(DispatchOutcome::Placed(0), 0), 0);
        t.record_utilization(at(100), 0.5);
        assert!(t.finish_report().is_none());
    }

    #[test]
    fn report_folds_windows_and_sketches() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(250)).with_trace(8);
        let mut t = Telemetry::new(cfg);
        t.begin_run(2, SimDuration::from_secs(1));
        t.record(at(10), "a", &arrival(DispatchOutcome::Placed(0), 2), 0);
        t.record(at(300), "b", &arrival(DispatchOutcome::Queued, 1), 1);
        let admit = Decision::QueueAdmit {
            degraded: false,
            waited: SimDuration::from_millis(300),
            carried_over: false,
        };
        t.record(at(600), "b", &admit, 0);
        t.record_latency(0, 5_000_000);
        t.record_latency(1, 9_000_000);
        t.record_utilization(at(999), 0.75);
        let r = t.finish_report().expect("enabled run reports");
        assert_eq!(r.windows.len(), 4, "activity reached the 0.75s window");
        assert_eq!(r.windows[0].counts.arrivals, 1);
        assert_eq!(r.windows[1].counts.deferred, 1);
        assert_eq!(r.windows[1].queue_depth_peak, 1);
        assert_eq!(r.windows[2].counts.admitted_after_wait, 1);
        assert_eq!(r.queue_wait.count, 1);
        assert!((r.queue_wait.p50_ms - 300.0).abs() < 1e-9);
        assert_eq!(r.job_latency.count, 2, "both nodes' sketches merged");
        assert!(r.job_latency.max_ms > 8.9);
        assert_eq!(
            r.profile.shard_probes, 0,
            "probes are planner-fed, not arrival-fed"
        );
        assert_eq!(r.profile.trace_recorded, 3);
        assert_eq!(r.peak_queue_depth(), 1);
        assert_eq!(r.trace.len(), 3);
        assert!(r.trace_enabled);
    }

    #[test]
    fn report_json_is_balanced_and_versionable() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(500)).with_trace(4);
        let mut t = Telemetry::new(cfg);
        t.begin_run(1, SimDuration::from_secs(1));
        t.record(
            at(1),
            "a\"quote",
            &arrival(DispatchOutcome::Infeasible, 0),
            0,
        );
        let r = t.finish_report().expect("report");
        let json = r.render_json();
        assert!(json.starts_with("  \"telemetry\": {"));
        assert!(
            json.ends_with("},\n"),
            "trailing comma chains into the next field"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"window_secs\": 0.500"));
        assert!(json.contains("\"infeasible\": 1"));
        assert!(json.contains("\\\"quote"), "trace lines are escaped");
    }

    #[test]
    fn traceless_report_omits_the_trace_block() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(500));
        let mut t = Telemetry::new(cfg);
        t.begin_run(1, SimDuration::from_secs(1));
        t.record(at(1), "a", &arrival(DispatchOutcome::Placed(0), 0), 0);
        let r = t.finish_report().expect("report");
        assert!(!r.trace_enabled);
        assert!(!r.render_json().contains("\"trace\""));
    }

    #[test]
    fn note_plan_accumulates_probes_and_wall_time() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_millis(250)).with_profiling();
        let mut t = Telemetry::new(cfg);
        t.begin_run(1, SimDuration::from_secs(1));
        let clock = t.span_clock();
        assert!(clock.is_some());
        t.note_plan(3, clock);
        t.note_plan(2, None);
        let r = t.finish_report().expect("report");
        assert_eq!(r.profile.plans, 2);
        assert_eq!(r.profile.shard_probes, 5);
        let profile = t.span_profile().expect("profiling was armed");
        assert_eq!(profile.calls(Span::Plan), 2, "every plan is counted");
        assert_eq!(
            profile.wall_hist(Span::Plan).iter().sum::<u64>(),
            1,
            "only the clocked plan is timed"
        );
        assert_eq!(
            profile.calls(Span::TelemetryFold),
            1,
            "the report fold timed itself"
        );
    }

    #[test]
    fn profiler_arms_without_telemetry_and_never_constructs_when_off() {
        // Profiling alone: no telemetry state, no report — but spans land.
        let mut t = Telemetry::new(TelemetryConfig::disabled().with_profiling());
        t.begin_run(1, SimDuration::from_secs(1));
        let clock = t.span_clock();
        assert!(clock.is_some(), "profiler armed without telemetry");
        t.span_end(Span::EventPop, clock);
        t.note_plan(7, t.span_clock());
        assert!(t.finish_report().is_none(), "telemetry stays off");
        let profile = t
            .span_profile()
            .expect("profile survives a report-less run");
        assert_eq!(profile.calls(Span::EventPop), 1);
        assert_eq!(profile.calls(Span::Plan), 1);
        assert_eq!(profile.calls(Span::TelemetryFold), 0, "no fold ran");

        // Fully off: the profiler is never constructed and no clock is
        // read, but calls are still counted.
        let mut off = Telemetry::new(TelemetryConfig::windowed(SimDuration::from_millis(250)));
        off.begin_run(1, SimDuration::from_secs(1));
        assert!(off.span_clock().is_none(), "no clock without profiling");
        off.note_plan(1, off.span_clock());
        assert_eq!(off.finish_report().expect("report").profile.plans, 1);
        assert!(off.span_profile().is_none(), "profiler never constructed");
        assert_eq!(off.span_calls(Span::Plan), 1);
        assert_eq!(off.span_calls(Span::TelemetryFold), 1);
    }
}
