//! The structured decision trace and the hot-path profiling counters.
//!
//! The trace is an opt-in ring buffer
//! ([`crate::TelemetryConfig::trace_capacity`]) of [`TraceEvent`]s: every
//! dispatch verdict with its cause and shard-probe count, queue
//! admissions with their waits, expiries, re-pricing ladder steps,
//! migrations with victim/destination/stall, and departures. When the
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
use sgprs_rt::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One traced dispatch decision.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An arrival was dispatched: the verdict with its cause and how many
    /// shard probes the placement planning spent (0 on flat fleets).
    Arrival {
        /// When the arrival was dispatched.
        at: SimTime,
        /// Tenant name.
        tenant: String,
        /// The dispatch outcome.
        outcome: DispatchOutcome,
        /// Shard probes spent planning this arrival.
        probes: u64,
    },
    /// A waiter was admitted out of the queue.
    QueueAdmit {
        /// When the admission happened.
        at: SimTime,
        /// Tenant name.
        tenant: String,
        /// Whether it was admitted at a degraded ladder step.
        degraded: bool,
        /// How long it waited.
        waited: SimDuration,
    },
    /// A waiter left the queue unserved.
    QueueExpire {
        /// When the expiry fired.
        at: SimTime,
        /// Tenant name.
        tenant: String,
        /// `true` for the demand-aware provably-hopeless sweep, `false`
        /// for plain patience expiry.
        hopeless: bool,
    },
    /// A degraded resident stepped back up its re-pricing ladder.
    Upgrade {
        /// When the upgrade happened.
        at: SimTime,
        /// Tenant name.
        tenant: String,
        /// The rate it now serves at.
        fps: f64,
    },
    /// A migration attempt: victim, destination (`None` when nobody could
    /// take it), and the state-transfer stall paid (zero on the epoch
    /// path, which models migration as free).
    Migration {
        /// When the migration fired.
        at: SimTime,
        /// The shed tenant.
        tenant: String,
        /// Source node index.
        from: usize,
        /// Destination node index, or `None` for a failed attempt.
        to: Option<usize>,
        /// The stall the migrant paid.
        stall: SimDuration,
    },
    /// A tenant departed (from the churn trace).
    Departure {
        /// When the departure applied.
        at: SimTime,
        /// Tenant name.
        tenant: String,
        /// `true` when it was resident (serving), `false` when it was
        /// still waiting in the queue.
        resident: bool,
    },
}

impl TraceEvent {
    /// The trace event of one recorded decision.
    pub(crate) fn of(at: SimTime, tenant: &str, decision: &Decision) -> Self {
        let tenant = tenant.to_string();
        match *decision {
            Decision::Arrival { outcome, probes } => TraceEvent::Arrival {
                at,
                tenant,
                outcome,
                probes,
            },
            Decision::QueueAdmit {
                degraded, waited, ..
            } => TraceEvent::QueueAdmit {
                at,
                tenant,
                degraded,
                waited,
            },
            Decision::Expiry { hopeless } => TraceEvent::QueueExpire {
                at,
                tenant,
                hopeless,
            },
            Decision::Departure { resident } => TraceEvent::Departure {
                at,
                tenant,
                resident,
            },
            Decision::Upgrade { fps } => TraceEvent::Upgrade { at, tenant, fps },
            Decision::Migration { from, to, stall } => TraceEvent::Migration {
                at,
                tenant,
                from,
                to,
                stall,
            },
        }
    }

    /// Renders the event as one compact, stable line (used by the JSON
    /// trace block and the example output).
    #[must_use]
    pub fn render(&self) -> String {
        let secs = |t: &SimTime| t.duration_since(SimTime::ZERO).as_secs_f64();
        match self {
            TraceEvent::Arrival {
                at,
                tenant,
                outcome,
                probes,
            } => {
                let verdict = match outcome {
                    DispatchOutcome::Placed(node) => format!("placed node={node}"),
                    DispatchOutcome::PlacedDegraded { node, fps } => {
                        format!("placed-degraded node={node} fps={fps:.1}")
                    }
                    DispatchOutcome::Queued => "queued".to_string(),
                    DispatchOutcome::Infeasible => "infeasible".to_string(),
                    DispatchOutcome::Duplicate => "duplicate".to_string(),
                };
                format!(
                    "{:.3}s arrival {tenant}: {verdict} probes={probes}",
                    secs(at)
                )
            }
            TraceEvent::QueueAdmit {
                at,
                tenant,
                degraded,
                waited,
            } => format!(
                "{:.3}s queue-admit {tenant}: waited={:.3}s{}",
                secs(at),
                waited.as_secs_f64(),
                if *degraded { " degraded" } else { "" }
            ),
            TraceEvent::QueueExpire {
                at,
                tenant,
                hopeless,
            } => format!(
                "{:.3}s queue-expire {tenant}: {}",
                secs(at),
                if *hopeless { "hopeless" } else { "patience" }
            ),
            TraceEvent::Upgrade { at, tenant, fps } => {
                format!("{:.3}s upgrade {tenant}: fps={fps:.1}", secs(at))
            }
            TraceEvent::Migration {
                at,
                tenant,
                from,
                to,
                stall,
            } => match to {
                Some(to) => format!(
                    "{:.3}s migrate {tenant}: node {from} -> {to} stall={:.3}s",
                    secs(at),
                    stall.as_secs_f64()
                ),
                None => format!(
                    "{:.3}s migrate {tenant}: node {from} -> nowhere (failed)",
                    secs(at)
                ),
            },
            TraceEvent::Departure {
                at,
                tenant,
                resident,
            } => format!(
                "{:.3}s departure {tenant}: was {}",
                secs(at),
                if *resident { "resident" } else { "queued" }
            ),
        }
    }
}

/// A bounded ring of [`TraceEvent`]s: newest kept, oldest dropped.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
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

    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

/// Deterministic hot-path profiling counters; they land in the JSON
/// profile block. Wall-clock span histograms live in [`super::prof`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ProfileCounters {
    /// `plan_repriced` invocations (arrival dispatch + queue drains).
    pub(crate) plans: u64,
    /// Placement-scan probes spent across all plans: one per probed
    /// shard, one per flat whole-fleet scan.
    pub(crate) shard_probes: u64,
    /// Event-queue pushes + pops (event engine only).
    pub(crate) event_queue_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.push(TraceEvent::Departure {
                at: SimTime::ZERO + SimDuration::from_millis(i),
                tenant: format!("t{i}"),
                resident: true,
            });
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<String> = ring
            .events()
            .map(|e| match e {
                TraceEvent::Departure { tenant, .. } => tenant.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec!["t3", "t4"], "newest survive");
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut ring = TraceRing::new(0);
        assert!(!ring.enabled());
        ring.push(TraceEvent::QueueExpire {
            at: SimTime::ZERO,
            tenant: "t".into(),
            hopeless: false,
        });
        assert_eq!(ring.recorded(), 0);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn rendered_lines_are_compact_and_stable() {
        let e = TraceEvent::Arrival {
            at: SimTime::ZERO + SimDuration::from_millis(1_500),
            tenant: "cam-3".into(),
            outcome: DispatchOutcome::PlacedDegraded { node: 2, fps: 15.0 },
            probes: 2,
        };
        assert_eq!(
            e.render(),
            "1.500s arrival cam-3: placed-degraded node=2 fps=15.0 probes=2"
        );
        let m = TraceEvent::Migration {
            at: SimTime::ZERO + SimDuration::from_millis(250),
            tenant: "t".into(),
            from: 1,
            to: None,
            stall: SimDuration::ZERO,
        };
        assert_eq!(m.render(), "0.250s migrate t: node 1 -> nowhere (failed)");
    }
}
