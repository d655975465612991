//! The span-scoped hot-path profiler: the simulator observing *itself*.
//!
//! Where the rest of [`crate::telemetry`] measures the simulated fleet,
//! this module measures the simulator's own hot paths: a fixed set of
//! [`Span`]s (placement planning, queue drains, event-queue pops, event
//! execution, epoch scheduler attaches, the telemetry fold, stream pulls,
//! and timing-wheel cascades). Every run counts each span's calls in
//! one always-on [`SpanCalls`] block; an armed run also accumulates a
//! log2-bucket wall-clock latency histogram per span.
//!
//! Two properties keep it inside the determinism contract
//! (DETERMINISM.md, "wall-clock surfaces"):
//!
//! * **Counts are deterministic, histograms are opt-in.** Call counts
//!   count deterministic code paths, so they are always on and read
//!   through [`crate::Fleet::span_calls`]. The [`SpanProfiler`], which
//!   holds the histograms, is constructed only when
//!   [`crate::FleetConfig::with_profiling`] armed it for the run; every
//!   hook threads an `Option` clock that is `None` otherwise, so the
//!   unarmed path reads no clock and allocates nothing.
//! * **Wall clock stays out of the export.** The histograms are real
//!   time and never enter [`crate::FleetMetrics::to_json`]; they are
//!   read through [`crate::Fleet::span_profile`].
//!
//! This file is one of the two cluster-side entries on the sgprs-lint
//! D002 wall-clock allowlist — the only place outside
//! `telemetry/mod.rs` where the cluster crate may read `Instant::now`.

/// Number of log2 buckets in every span's wall-clock latency histogram:
/// bucket `i` counts calls that took `[2^i, 2^(i+1))` nanoseconds, with
/// the last bucket catching everything from `2^15` ns (~33 µs) up.
pub const PLAN_LATENCY_BINS: usize = 16;

/// Number of profiled [`Span`]s.
pub const SPAN_COUNT: usize = 8;

/// The fixed set of profiled simulator hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// One `plan_repriced` invocation — the placement scan, flat or
    /// sharded/p2c (this span generalises the original one-off
    /// plan-latency histogram).
    Plan = 0,
    /// One wait-queue drain pass that actually scanned the queue.
    DrainScan = 1,
    /// One event popped off the event queue (event engine).
    EventPop = 2,
    /// One popped event executed by its handler (event engine).
    EventExec = 3,
    /// One resident attached to its node's scheduler (epoch engine):
    /// the compile-cache lookup (or compile) and the attach, and on a
    /// node's first tenant the scheduler's construction.
    EpochCompile = 4,
    /// The deterministic sketch/window fold in `finish_report` at the
    /// end of a telemetry-armed run.
    TelemetryFold = 5,
    /// One arrival/departure consumed from the (possibly
    /// generator-backed, interner-fed) arrival stream.
    ArrivalPull = 6,
    /// One timing-wheel cascade in the event queue: an L1 slot
    /// scattered into L0, an overflow rescan, or a far-future
    /// fast-forward (event engine). The amortised cost the wheel trades
    /// the heap's per-op log n for — watching it stay rare *is* the
    /// O(1)-amortised claim.
    WheelCascade = 7,
}

impl Span {
    /// Every span, in the fixed rendering order used by bench reports.
    pub const ALL: [Span; SPAN_COUNT] = [
        Span::Plan,
        Span::DrainScan,
        Span::EventPop,
        Span::EventExec,
        Span::EpochCompile,
        Span::TelemetryFold,
        Span::ArrivalPull,
        Span::WheelCascade,
    ];

    /// The span's stable lower-snake label (bench reports key on it).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Span::Plan => "plan",
            Span::DrainScan => "drain_scan",
            Span::EventPop => "event_pop",
            Span::EventExec => "event_exec",
            Span::EpochCompile => "epoch_compile",
            Span::TelemetryFold => "telemetry_fold",
            Span::ArrivalPull => "arrival_pull",
            Span::WheelCascade => "wheel_cascade",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Per-span call counts, indexed by [`Span`] discriminant.
pub(crate) type SpanCalls = [u64; SPAN_COUNT];

/// One span's accumulated stats: how often it ran and where its
/// wall-clock latencies landed (log2 nanosecond buckets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span executed. Deterministic: a pure function of
    /// `(config, trace, horizon)`, which is what lets tests pin it
    /// exactly.
    pub calls: u64,
    /// Wall-clock latency histogram, log2 nanosecond buckets. *Not*
    /// deterministic — never exported on a deterministic surface.
    pub wall_hist: [u64; PLAN_LATENCY_BINS],
}

/// The finished profile of one run: per-span stats for every [`Span`].
///
/// Obtained from [`crate::Fleet::span_profile`] after a run that was
/// armed with [`crate::FleetConfig::with_profiling`]; `None` otherwise —
/// which is also the test hook proving the profiler was never
/// constructed on the unarmed path. Its call counts are the run's
/// always-on call counts ([`crate::Fleet::span_calls`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfile {
    spans: [SpanStats; SPAN_COUNT],
}

impl SpanProfile {
    /// The stats of one span.
    #[must_use]
    pub fn stats(&self, span: Span) -> &SpanStats {
        &self.spans[span.index()]
    }

    /// How many times the span executed (deterministic).
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.spans[span.index()].calls
    }

    /// The span's wall-clock latency histogram (log2 ns buckets).
    #[must_use]
    pub fn wall_hist(&self, span: Span) -> &[u64; PLAN_LATENCY_BINS] {
        &self.spans[span.index()].wall_hist
    }
}

/// The live wall-clock recorder. Constructed **only** when a run is
/// armed with profiling; the unarmed path never instantiates it.
#[derive(Debug, Default)]
pub(crate) struct SpanProfiler {
    wall_hists: [[u64; PLAN_LATENCY_BINS]; SPAN_COUNT],
}

impl SpanProfiler {
    pub(crate) fn new() -> Self {
        SpanProfiler::default()
    }

    /// Starts one span measurement. The only `Instant::now` read in the
    /// cluster crate outside `telemetry/mod.rs` (D002-allowlisted).
    pub(crate) fn clock() -> std::time::Instant {
        std::time::Instant::now()
    }

    /// Ends one span measurement started at `started`.
    pub(crate) fn record(&mut self, span: Span, started: std::time::Instant) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wall_hists[span.index()][log2_bin(nanos)] += 1;
    }

    /// Finalises the run into its immutable [`SpanProfile`], pairing
    /// each histogram with the run's call count.
    pub(crate) fn into_profile(self, calls: &SpanCalls) -> SpanProfile {
        SpanProfile {
            spans: std::array::from_fn(|i| SpanStats {
                calls: calls[i],
                wall_hist: self.wall_hists[i],
            }),
        }
    }
}

/// The log2 bucket of a nanosecond latency: 0 and 1 share bucket 0,
/// everything from `2^(BINS-1)` ns up lands in the overflow bucket.
fn log2_bin(nanos: u64) -> usize {
    (64 - nanos.leading_zeros() as usize)
        .saturating_sub(1)
        .min(PLAN_LATENCY_BINS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_wall_histogram_buckets_by_log2() {
        let mut p = SpanProfiler::new();
        let clock = SpanProfiler::clock();
        p.record(Span::Plan, clock);
        let mut calls = [0; SPAN_COUNT];
        calls[Span::Plan.index()] = 1;
        let profile = p.into_profile(&calls);
        assert_eq!(profile.calls(Span::Plan), 1);
        assert_eq!(profile.wall_hist(Span::Plan).iter().sum::<u64>(), 1);
        assert_eq!(profile.calls(Span::EventPop), 0);
        assert_eq!(profile.wall_hist(Span::EventPop).iter().sum::<u64>(), 0);
    }

    #[test]
    fn log2_bins_match_the_documented_edges() {
        assert_eq!(log2_bin(0), 0, "0 and 1 share the first bucket");
        assert_eq!(log2_bin(1), 0);
        assert_eq!(log2_bin(2), 1);
        assert_eq!(log2_bin(3), 1);
        assert_eq!(log2_bin(1 << 10), 10);
        assert_eq!(log2_bin(u64::MAX), PLAN_LATENCY_BINS - 1, "overflow bin");
    }

    #[test]
    fn span_names_and_order_are_stable() {
        let names: Vec<&str> = Span::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "plan",
                "drain_scan",
                "event_pop",
                "event_exec",
                "epoch_compile",
                "telemetry_fold",
                "arrival_pull",
                "wheel_cascade"
            ]
        );
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "ALL order matches the discriminants");
        }
    }
}
