//! The discrete-event fleet core: exact-boundary simulation beside the
//! epoch-driven [`crate::Fleet::run`] path.
//!
//! The epoch dispatcher runs the paper's schedulers, one persistent
//! scheduler per node: arrivals and departures act at their instants,
//! and no job is truncated, but queue drains, upgrades and DMR-triggered
//! migration wait for an epoch boundary, so migration fires at most once
//! per epoch and is free. This module replaces the grid with a monotonic
//! event queue and a fluid execution model: **no in-flight job is ever
//! truncated** ([`crate::FleetMetrics::truncated_jobs`] is asserted
//! zero), departures apply at their exact instant, and migration fires
//! at job-release boundaries mid-epoch — paying an explicit, fixed
//! 100 ms state-transfer stall, while re-pricing degrade/upgrade
//! switches stay free partition switches (SGPRS's headline property,
//! now measurably cheaper than migration in the same run).
//!
//! # Event-ordering / determinism contract
//!
//! Events are totally ordered by the triple `(time, node, seq)`:
//!
//! * `time` — the simulated instant, integer nanoseconds
//!   ([`sgprs_rt::SimTime`]), so there is no floating-point drift;
//! * `node` — the owning node's index; fleet-scope events (churn
//!   arrivals/departures, queue expiry, utilisation samples) use
//!   [`NODE_FLEET`] (`usize::MAX`) and therefore sort *after* every
//!   node-local event at the same instant (a tenant departing at `t`
//!   still serves a frame released at `t`);
//! * `seq` — a monotone enqueue serial, the universal tie-break: two
//!   events at the same `(time, node)` pop in the order they were
//!   scheduled.
//!
//! The engine is single-threaded and every source of randomness is a
//! pure function of `(fleet seed, node, tenant, release index)`, so a
//! run is a deterministic function of `(config, trace, horizon)`:
//! rerunning the same configuration yields byte-identical
//! [`crate::FleetMetrics::to_json`], and the
//! [`crate::FleetConfig::with_workers`] knob is inert here (it only
//! affects the epoch path's fan-out). Sharding changes
//! *placement* exactly as it does on the epoch path — a multi-node
//! shard may route an arrival differently from the flat scan — but any
//! fixed dispatch configuration stays fully deterministic; a single
//! whole-fleet shard provably routes through the identical scan and is
//! therefore byte-identical to flat dispatch.
//!
//! # Execution model
//!
//! Event mode does not run the per-stage schedulers the epoch path
//! keeps per node; instead each node serves jobs under the
//! fluid approximation of [`exec`]: a job released at `t` on a node with
//! resident demand `D` and effective capacity `C` finishes at
//! `t + max(best_case_latency, period · D/C) · jitter`. Naive nodes
//! pay their sequential-execution and partition-switch tax through
//! a single-job-per-context capacity sample plus the calibrated switch
//! cost, so "admission says fine, the node still misses" shows up here
//! exactly as it does on the epoch path.
//!
//! # Each frame is decided at its release
//!
//! The fluid service time is fixed when the frame is released, so its
//! whole fate is known then, and no per-frame event follows it:
//!
//! * **Skip-if-busy.** A frame released at `t` is dropped and counted as
//!   a miss when the tenant's previous job finishes after `t`
//!   (`finish > t`). A job finishing exactly at the next release has
//!   freed the tenant, so that frame is served. This differs from the
//!   paper layer, whose schedulers (the epoch path's nodes included)
//!   default to `sgprs_core::Admission::FrameBuffer`: they keep the
//!   newest such frame in a one-slot buffer and start it when the job
//!   in flight completes. ROADMAP item 11 is to give both executors one
//!   rule.
//! * **Met or late.** A served frame is recorded as completed at its
//!   release, late exactly when `finish > deadline`; a job finishing at
//!   its deadline instant is on time.
//! * **The migration estimator.** With migration armed, a served frame
//!   also queues one *deadline sample* on its node: `missed = finish >
//!   deadline`, keyed `(deadline, node, ord)`, where `ord` is the seq the
//!   queue would hand out next. The sample stands for a deadline-check
//!   event at that key. It is applied — fed into the node's miss window,
//!   if the tenant's run is still this incarnation on this node — exactly
//!   when its key is at or below the key of the event being handled, in
//!   two places: before any read of or push to the node's window (a
//!   release of that node), and for every node before anything that can
//!   move a tenant (`Migrate`, a departure). Stream churn counts as
//!   `(t, NODE_FLEET, ∞)`. Because the fold happens in key order, the
//!   window and its residency guard see exactly what a deadline event
//!   popped at that key would have seen.
//!
//! # Event kinds
//!
//! Four kinds live on the queue ([`EventKind`]): a tenant's periodic
//! [`EventKind::JobRelease`], a node's [`EventKind::Migrate`] trigger,
//! fleet-scope [`EventKind::QueueExpire`] sweeps and utilisation
//! [`EventKind::Sample`]s. Churn (arrivals and departures) is merged
//! lazily from the [`crate::ArrivalStream`] instead of being queued (see
//! the engine module). [`EventCounts`] counts each kind a run handled.
//!
//! # Jobs in flight at the horizon
//!
//! No frame is released at or after the horizon. A frame released
//! before it is recorded as completed at its release, even when its
//! finish instant lies past the horizon, so no job is truncated and no
//! event runs past the horizon. Deadline samples still pending when the
//! run ends feed no decision and are dropped.

use crate::interner::TenantId;
use sgprs_rt::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod engine;
mod exec;

pub(crate) use engine::run_events;

/// Node index used by fleet-scope events (trace churn, queue expiry,
/// utilisation samples). `usize::MAX`, so fleet-scope events sort after
/// every node-local event at the same instant.
pub const NODE_FLEET: usize = usize::MAX;

/// What a scheduled event does when it pops. Its derived order only
/// completes [`SimEvent`]'s: `seq` is unique, so two events never
/// compare by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// The tenant releases a periodic frame on the event's node.
    /// `gen` guards against stale schedules: a migration bumps the
    /// tenant's generation, orphaning releases queued for the old node —
    /// and makes a recycled [`TenantId`]'s stale releases equally inert.
    JobRelease {
        /// Interned tenant id (see [`crate::TenantInterner`]).
        tenant: TenantId,
        /// The tenant-run generation this release was scheduled under.
        gen: u64,
    },
    /// The event's node crossed the DMR threshold at a release boundary:
    /// re-verify and shed one tenant, paying the migration stall.
    Migrate,
    /// A queue-deadline elapsed: expire overdue waiters.
    QueueExpire,
    /// Periodic utilisation sample (every [`crate::FleetConfig::epoch`]),
    /// keeping the histogram comparable with the epoch path.
    Sample,
}

/// Events one event-driven run handled, by kind: queue pops per
/// [`EventKind`] plus the churn merged from the arrival stream. Always
/// on and deterministic; read through [`crate::Fleet::event_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// [`EventKind::JobRelease`] pops, stale ones included.
    pub release: u64,
    /// [`EventKind::Migrate`] pops.
    pub migrate: u64,
    /// [`EventKind::QueueExpire`] pops.
    pub queue_expire: u64,
    /// [`EventKind::Sample`] pops.
    pub sample: u64,
    /// Arrivals pulled from the churn stream.
    pub arrival: u64,
    /// Departures pulled from the churn stream.
    pub departure: u64,
}

impl EventCounts {
    /// Counts one popped event.
    fn count(&mut self, kind: EventKind) {
        match kind {
            EventKind::JobRelease { .. } => self.release += 1,
            EventKind::Migrate => self.migrate += 1,
            EventKind::QueueExpire => self.queue_expire += 1,
            EventKind::Sample => self.sample += 1,
        }
    }
}

/// One scheduled event. Ordering (and therefore processing order) is by
/// `(time, node, seq)` — see the module-level contract. The derived
/// order compares fields in declaration order, so that order is the
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimEvent {
    /// When the event fires.
    pub time: SimTime,
    /// The owning node, or [`NODE_FLEET`] for fleet-scope events.
    pub node: usize,
    /// Monotone enqueue serial (assigned by [`EventQueue::push`]).
    pub seq: u64,
    /// What happens when the event pops.
    pub kind: EventKind,
}

impl SimEvent {
    fn key(&self) -> (SimTime, usize, u64) {
        (self.time, self.node, self.seq)
    }
}

/// The monotonic event queue: a min-heap over [`SimEvent`]'s derived
/// order. Every push gets a fresh `seq`, so no two pending events are
/// equal and the heap's unspecified order among equal elements never
/// decides a pop.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<SimEvent>>,
    next_seq: u64,
    ops: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at `time` on `node`, assigning the next enqueue
    /// serial.
    pub fn push(&mut self, time: SimTime, node: usize, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ops += 1;
        self.heap.push(Reverse(SimEvent {
            time,
            node,
            seq,
            kind,
        }));
    }

    /// Removes and returns the earliest event under the
    /// `(time, node, seq)` order.
    pub fn pop(&mut self) -> Option<SimEvent> {
        let Reverse(ev) = self.heap.pop()?;
        self.ops += 1;
        Some(ev)
    }

    /// The `(time, node, seq)` key of the earliest pending event, without
    /// popping it — what the engine's lazy churn merge compares stream
    /// events against.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, usize, u64)> {
        self.heap.peek().map(|Reverse(ev)| ev.key())
    }

    /// The serial the next push will receive. Captured by the engine as
    /// the *stream watermark*: churn events delivered lazily behave as if
    /// they were all enqueued at that instant, so at an equal
    /// `(time, NODE_FLEET)` a queued event beats the stream only when its
    /// seq is below the watermark (it was scheduled before the trace
    /// would have been).
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Accounts for one churn event delivered from the lazy stream
    /// *around* the queue: it behaves exactly as a seeded push + pop
    /// (two ops), keeping `event_queue_ops` byte-identical to the
    /// materialised path.
    pub(crate) fn note_stream_event(&mut self) {
        self.ops += 2;
    }

    /// Total pushes + successful pops so far — the queue-traffic figure
    /// telemetry surfaces as `event_queue_ops`. A pure function of the
    /// simulated schedule, so it is deterministic.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30), 0, EventKind::Sample);
        q.push(at(10), 0, EventKind::Sample);
        q.push(at(20), 0, EventKind::Sample);
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![at(10), at(20), at(30)]);
    }

    #[test]
    fn same_instant_orders_by_node_then_seq() {
        let mut q = EventQueue::new();
        // Fleet-scope first by enqueue order, but node-local events at
        // the same instant must pop before it regardless.
        q.push(at(5), NODE_FLEET, EventKind::QueueExpire);
        q.push(at(5), 2, EventKind::Sample);
        q.push(at(5), 0, EventKind::Sample);
        q.push(at(5), 0, EventKind::Migrate);
        let order: Vec<(usize, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.node, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(0, 2), (0, 3), (2, 1), (NODE_FLEET, 0)],
            "node groups same-instant events; seq breaks remaining ties"
        );
    }

    #[test]
    fn seq_preserves_scheduling_order_within_a_node() {
        let mut q = EventQueue::new();
        q.push(
            at(1),
            3,
            EventKind::JobRelease {
                tenant: TenantId::from_raw(0),
                gen: 0,
            },
        );
        q.push(at(1), 3, EventKind::Migrate);
        let first = q.pop().expect("two events queued");
        assert!(matches!(first.kind, EventKind::JobRelease { .. }));
        let second = q.pop().expect("one event left");
        assert!(matches!(second.kind, EventKind::Migrate));
    }

    #[test]
    fn peek_key_names_the_next_pop_across_interleaved_pushes() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        // Rounds of pushes (ahead of, at, and before the last popped
        // instant, on node-local and fleet-scope nodes) interleaved with
        // pops, then a full drain: every pop returns the peeked key.
        let mut last_pop = 0u64;
        for round in 0..40u64 {
            let pushes = [
                last_pop + 7 * round % 13,
                last_pop,
                last_pop.saturating_sub(round % 5),
            ];
            for (i, &ms) in pushes.iter().enumerate() {
                let node = [0, 1, 2, NODE_FLEET][(round as usize + i) % 4];
                q.push(at(ms), node, EventKind::Sample);
            }
            for _ in 0..round % 4 {
                let peeked = q.peek_key();
                let popped = q.pop().map(|e| e.key());
                assert_eq!(peeked, popped, "round {round}");
                if let Some((t, _, _)) = popped {
                    last_pop = (t - SimTime::ZERO).as_millis();
                }
            }
        }
        while !q.is_empty() {
            let peeked = q.peek_key();
            assert_eq!(peeked, q.pop().map(|e| e.key()));
        }
        assert_eq!(q.peek_key(), None);
    }
}
