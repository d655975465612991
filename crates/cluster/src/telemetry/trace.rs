//! The structured decision trace and the hot-path profiling counters.
//!
//! The trace is an opt-in ring buffer
//! ([`crate::TelemetryConfig::trace_capacity`]) of the run's recorded
//! decisions, the same values the run totals fold: every dispatch
//! verdict with its cause and shard-probe count, queue admissions with
//! their waits, expiries, re-pricing ladder steps, migrations with
//! victim/destination/stall, and departures. When the
//! ring is full the *oldest* events are dropped (the tail of a run is
//! usually what an investigation needs) and the drop count is surfaced in
//! the profile block. All recording happens on the single-threaded
//! orchestration path, so the trace is deterministic.
//!
//! The profile counters here are the *deterministic* ones (plan
//! invocations, shard probes, event-queue operations, trace drops); they
//! go into the JSON export beside the fleet's drain-scan count.
//! Wall-clock measurement lives in
//! the sibling [`super::prof`] module — real time is not a function of
//! `(config, trace, horizon)` and is exposed separately through
//! [`crate::Fleet::span_profile`].

use crate::metrics::Decision;
use crate::DispatchOutcome;
use sgprs_rt::SimTime;
use std::collections::VecDeque;

/// Renders one recorded decision as a compact, stable line (used by the
/// JSON trace block and the example output).
pub(crate) fn render(at: SimTime, tenant: &str, decision: &Decision) -> String {
    let secs = at.duration_since(SimTime::ZERO).as_secs_f64();
    match *decision {
        Decision::Arrival { outcome, probes } => {
            let verdict = match outcome {
                DispatchOutcome::Placed(node) => format!("placed node={node}"),
                DispatchOutcome::PlacedDegraded { node, fps } => {
                    format!("placed-degraded node={node} fps={fps:.1}")
                }
                DispatchOutcome::Queued => "queued".to_string(),
                DispatchOutcome::Infeasible => "infeasible".to_string(),
                DispatchOutcome::Duplicate => "duplicate".to_string(),
            };
            format!("{secs:.3}s arrival {tenant}: {verdict} probes={probes}")
        }
        Decision::QueueAdmit {
            degraded, waited, ..
        } => format!(
            "{secs:.3}s queue-admit {tenant}: waited={:.3}s{}",
            waited.as_secs_f64(),
            if degraded { " degraded" } else { "" }
        ),
        Decision::Expiry => format!("{secs:.3}s queue-expire {tenant}: patience"),
        Decision::Upgrade { fps } => format!("{secs:.3}s upgrade {tenant}: fps={fps:.1}"),
        Decision::Migration {
            from,
            to: Some(to),
            stall,
        } => format!(
            "{secs:.3}s migrate {tenant}: node {from} -> {to} stall={:.3}s",
            stall.as_secs_f64()
        ),
        Decision::Migration { from, to: None, .. } => {
            format!("{secs:.3}s migrate {tenant}: node {from} -> nowhere (failed)")
        }
        Decision::Departure { resident } => format!(
            "{secs:.3}s departure {tenant}: was {}",
            if resident { "resident" } else { "queued" }
        ),
    }
}

/// A bounded ring of recorded decisions, each with its instant and the
/// tenant's name as it was then: newest kept, oldest dropped.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRing {
    capacity: usize,
    events: VecDeque<(SimTime, String, Decision)>,
    recorded: u64,
    dropped: u64,
}

impl TraceRing {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1_024)),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Whether the ring accepts events at all (capacity 0 = trace off).
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn push(&mut self, at: SimTime, tenant: &str, decision: Decision) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, tenant.to_string(), decision));
        self.recorded += 1;
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The kept decisions rendered as lines, oldest first.
    pub(crate) fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.events
            .iter()
            .map(|(at, tenant, decision)| render(*at, tenant, decision))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_rt::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.push(
                at(i),
                &format!("t{i}"),
                Decision::Departure { resident: true },
            );
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<String> = ring
            .events
            .iter()
            .map(|(_, tenant, _)| tenant.clone())
            .collect();
        assert_eq!(kept, vec!["t3", "t4"], "newest survive");
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut ring = TraceRing::new(0);
        assert!(!ring.enabled());
        ring.push(at(0), "t", Decision::Expiry);
        assert_eq!(ring.recorded(), 0);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn rendered_lines_are_compact_and_stable() {
        let arrival = |outcome, probes| (at(1_500), "cam-3", Decision::Arrival { outcome, probes });
        let cases = [
            (
                arrival(DispatchOutcome::PlacedDegraded { node: 2, fps: 15.0 }, 2),
                "1.500s arrival cam-3: placed-degraded node=2 fps=15.0 probes=2",
            ),
            (
                arrival(DispatchOutcome::Placed(4), 0),
                "1.500s arrival cam-3: placed node=4 probes=0",
            ),
            (
                arrival(DispatchOutcome::Queued, 3),
                "1.500s arrival cam-3: queued probes=3",
            ),
            (
                arrival(DispatchOutcome::Infeasible, 1),
                "1.500s arrival cam-3: infeasible probes=1",
            ),
            (
                arrival(DispatchOutcome::Duplicate, 0),
                "1.500s arrival cam-3: duplicate probes=0",
            ),
            (
                (
                    at(2_250),
                    "q",
                    Decision::QueueAdmit {
                        degraded: true,
                        waited: SimDuration::from_millis(1_125),
                        carried_over: false,
                    },
                ),
                "2.250s queue-admit q: waited=1.125s degraded",
            ),
            (
                (
                    at(2_250),
                    "q",
                    Decision::QueueAdmit {
                        degraded: false,
                        waited: SimDuration::from_micros(500),
                        carried_over: true,
                    },
                ),
                "2.250s queue-admit q: waited=0.001s",
            ),
            (
                (at(3_001), "w", Decision::Expiry),
                "3.001s queue-expire w: patience",
            ),
            (
                (at(4_000), "u", Decision::Upgrade { fps: 22.5 }),
                "4.000s upgrade u: fps=22.5",
            ),
            (
                (
                    at(250),
                    "t",
                    Decision::Migration {
                        from: 1,
                        to: None,
                        stall: SimDuration::ZERO,
                    },
                ),
                "0.250s migrate t: node 1 -> nowhere (failed)",
            ),
            (
                (
                    at(5_500),
                    "t",
                    Decision::Migration {
                        from: 0,
                        to: Some(3),
                        stall: SimDuration::from_millis(100),
                    },
                ),
                "5.500s migrate t: node 0 -> 3 stall=0.100s",
            ),
            (
                (at(6_000), "d", Decision::Departure { resident: true }),
                "6.000s departure d: was resident",
            ),
            (
                (at(6_000), "d", Decision::Departure { resident: false }),
                "6.000s departure d: was queued",
            ),
        ];
        for ((when, tenant, decision), line) in cases {
            assert_eq!(render(when, tenant, &decision), line);
        }
    }
}
