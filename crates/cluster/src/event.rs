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
//!   (`finish > t`), matching the schedulers' default admission policy.
//!   A job finishing exactly at the next release has freed the tenant,
//!   so that frame is served.
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

mod engine;
mod exec;
mod wheel;

pub(crate) use engine::run_events;

/// Node index used by fleet-scope events (trace churn, queue expiry,
/// utilisation samples). `usize::MAX`, so fleet-scope events sort after
/// every node-local event at the same instant.
pub const NODE_FLEET: usize = usize::MAX;

/// What a scheduled event does when it pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// `(time, node, seq)` — see the module-level contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The monotonic event queue: a hierarchical timing wheel
/// ([`wheel::TimingWheel`]) over [`sgprs_rt::SimTime`] with
/// deterministic `(time, node, seq)` tie-breaking — the same total
/// order the original binary heap implemented, at O(1) amortised
/// push/pop for the near-sorted periodic-release workload. See the
/// [`wheel`] module docs for the slot layout, the ordering argument,
/// and the slot-capacity recycling that keeps the steady-state hot
/// path allocation-free.
#[derive(Debug, Default)]
pub struct EventQueue {
    wheel: wheel::TimingWheel,
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
        self.wheel.push(SimEvent {
            time,
            node,
            seq,
            kind,
        });
    }

    /// Removes and returns the earliest event under the
    /// `(time, node, seq)` order.
    pub fn pop(&mut self) -> Option<SimEvent> {
        let popped = self.wheel.pop();
        if popped.is_some() {
            self.ops += 1;
        }
        popped
    }

    /// Whether [`Self::prepare`] has wheel-turning to do (pending events,
    /// empty active slot). O(1); the engine's merge loop checks it so the
    /// common already-prepared iteration skips both the prepare call and
    /// its profiling clock read.
    pub(crate) fn needs_prepare(&self) -> bool {
        self.wheel.needs_prepare()
    }

    /// Advances the wheel so the earliest pending event is ready to
    /// peek/pop. Returns `true` when cascade work ran (an L1 slot
    /// scattered into L0 or an overflow rescan) — the engine bills that
    /// to the `wheel_cascade` profiler span. Idempotent; [`Self::pop`]
    /// self-prepares, so calling this is only needed before
    /// [`Self::peek_key`] or for span attribution.
    pub(crate) fn prepare(&mut self) -> bool {
        self.wheel.prepare()
    }

    /// The `(time, node, seq)` key of the earliest pending event, without
    /// popping it — what the engine's lazy churn merge compares stream
    /// events against. Requires a prepared wheel
    /// ([`Self::needs_prepare`] `== false`); the engine's merge loop
    /// always runs the `needs_prepare` → `prepare` sequence first.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, usize, u64)> {
        self.wheel.peek_key()
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
    /// simulated schedule, so it is deterministic (and byte-identical to
    /// the binary-heap implementation it replaced).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wheel.len() == 0
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
}
