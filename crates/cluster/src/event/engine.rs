//! The event-driven run loop behind [`crate::Fleet::run_events`].
//!
//! One [`super::EventQueue`] drives the whole fleet: every tenant's
//! periodic releases, queue expiry, migration, and utilisation sampling
//! are events on the same monotonic clock, and churn merges in from the
//! arrival stream. Scheduler state (each tenant's release clock and the
//! finish instant of its latest job) lives in [`TenantRun`] entries that
//! persist across the whole run — there are no epoch boundaries to
//! truncate against, which is the point.
//!
//! A release decides its frame outright (see the parent module's "Each
//! frame is decided at its release"): skipped or served, on time or
//! late. With migration armed it also queues the frame's deadline
//! sample on its node; [`Engine::fold_node`] and [`Engine::fold_all`]
//! apply due samples, in key order, before anything reads a miss window
//! or moves a tenant.
//!
//! # Streaming churn
//!
//! Churn is *not* materialised into the heap. The engine holds the
//! [`ArrivalStream`] beside the event queue and merges lazily: at each
//! step it compares the heap head's `(time, node, seq)` against the
//! stream's next instant. Stream events are fleet-scope
//! ([`NODE_FLEET`]), and on the materialised path they were all enqueued
//! after the pre-trace seeds (resident releases, waiter expiries, the
//! initial queue sweep) and before anything scheduled at runtime — so a
//! heap event at an equal instant wins exactly when it is node-local or
//! its seq lies below the *stream watermark* (the seq counter captured
//! after seeding, before the first sample). This reproduces the
//! materialised path's total order byte for byte while keeping heap
//! population — and memory — O(active tenants), not O(trace).

use super::exec::{FluidExec, MissWindow};
use super::{EventKind, EventQueue, NODE_FLEET};
use crate::fleet::Fleet;
use crate::interner::TenantId;
use crate::telemetry::Span;
use crate::{ArrivalStream, ChurnEvent, DispatchOutcome, FleetMetrics};
use sgprs_rt::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The state-transfer stall a migration pays: the migrant serves nothing
/// while its weights and context state move, roughly a reconfiguration
/// window (`sgprs_core::ReconfigConfig`'s 100 ms repartition stall).
/// Re-pricing degrade/upgrade switches are SGPRS partition switches and
/// never pay it; the epoch path models migration as free.
const MIGRATION_COST: SimDuration = SimDuration::from_millis(100);

/// An event's place in the `(time, node, seq)` total order.
type EventKey = (SimTime, usize, u64);

/// Persistent per-tenant scheduler state: which node the tenant serves
/// on, its release/job serials, and when its latest job finishes.
#[derive(Debug)]
struct TenantRun {
    node: usize,
    /// Generation guard: release events scheduled under an older
    /// generation (before a migration, or a previous occupant of a
    /// recycled id) are stale and dropped on pop.
    gen: u64,
    /// Incarnation guard for deadline samples: assigned once when the
    /// run starts and *not* bumped by migration. A sample feeds its
    /// node's window only while the run is still this incarnation on
    /// that node, so a departed predecessor's samples never reach a
    /// recycled id's fresh run, and a migrated victim's never reach
    /// the node it left.
    inc: u64,
    /// Next job serial.
    job_seq: u64,
    /// When the tenant's latest admitted job finishes (`SimTime::ZERO`
    /// before the first). A release at `t` is skipped while
    /// `in_flight > t` ([`busy`]), and a migration resumes no earlier
    /// than just past it.
    in_flight: SimTime,
    /// When the next release event is scheduled (or `SimTime::MAX` when
    /// none is), so a migration can re-anchor the clock after its stall.
    next_release: SimTime,
    /// [`super::exec::fnv1a`] of the tenant name, hashed once when the
    /// run starts: the jitter input every release needs, without a
    /// per-release interner lookup + string hash.
    name_hash: u64,
    /// The release constants of the latest release, valid while the run
    /// is on the same node at the same version (`None` before the first
    /// release).
    consts: Option<ReleaseConsts>,
}

/// A run's period and unjittered service time
/// ([`FluidExec::base_service`]) on `node` at `version`: while the node
/// keeps that version its residents, the run's price among them, and
/// so both values, are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReleaseConsts {
    node: usize,
    version: u64,
    period: SimDuration,
    base: SimDuration,
}

/// One served frame's pending input to its node's miss window: the
/// deadline check it stands for, keyed `(deadline, node, ord)`.
#[derive(Debug, Clone, Copy)]
struct DeadlineSample {
    deadline: SimTime,
    /// The seq the event queue would have given the deadline check.
    ord: u64,
    tenant: TenantId,
    /// The incarnation that released the frame.
    inc: u64,
    missed: bool,
}

/// Runs `fleet` over `arrivals` in event-driven mode until `horizon`.
pub(crate) fn run_events(
    fleet: &mut Fleet,
    arrivals: ArrivalStream,
    horizon: SimDuration,
) -> FleetMetrics {
    let mut engine = Engine::new(fleet, arrivals, horizon);
    while engine.step() {}
    engine.finish(horizon)
}

struct Engine<'a> {
    fleet: &'a mut Fleet,
    events: EventQueue,
    /// The lazy churn source, merged against the heap on pop (see the
    /// module docs) instead of being materialised into it.
    arrivals: ArrivalStream,
    /// Heap seqs below this belong to pre-churn seeds and outrank stream
    /// events at an equal fleet-scope instant; seqs at or above it were
    /// scheduled at runtime and rank after.
    stream_watermark: u64,
    exec: FluidExec,
    windows: Vec<MissWindow>,
    /// Per-node deadline samples not yet applied to `windows`, sorted by
    /// `(deadline, ord)`. Empty unless migration is armed.
    pending: Vec<VecDeque<DeadlineSample>>,
    /// Per-tenant run state, indexed by [`TenantId`] (`None` = departed
    /// or never started). Capacity tracks the interner's: peak active
    /// tenants, not trace length.
    runs: Vec<Option<TenantRun>>,
    /// One pending `Migrate` event per node at a time.
    migration_pending: Vec<bool>,
    /// Per-node `(node version, (budget, demand))` for utilisation
    /// samples: between mutations a node's sample is a constant, so
    /// each `Sample` event recomputes only nodes whose version moved.
    sample_cache: Vec<Option<(u64, (f64, f64))>>,
    /// Reused buffer for the per-migration fleet DMR snapshot.
    dmr_scratch: Vec<f64>,
    next_gen: u64,
    end: SimTime,
}

impl<'a> Engine<'a> {
    /// Opens a run of `fleet` until `horizon` and seeds its events.
    fn new(fleet: &'a mut Fleet, arrivals: ArrivalStream, horizon: SimDuration) -> Self {
        assert!(
            !fleet.cfg.epoch.is_zero(),
            "epoch must be positive (it paces utilisation sampling and the DMR window)"
        );
        fleet.open_run(horizon);
        let n_nodes = fleet.nodes.len();
        let seed = fleet.cfg.seed;
        let mut engine = Engine {
            fleet,
            events: EventQueue::new(),
            arrivals,
            stream_watermark: 0,
            exec: FluidExec::new(n_nodes, seed),
            windows: (0..n_nodes).map(|_| MissWindow::default()).collect(),
            pending: (0..n_nodes).map(|_| VecDeque::new()).collect(),
            runs: Vec::new(),
            migration_pending: vec![false; n_nodes],
            sample_cache: vec![None; n_nodes],
            dmr_scratch: Vec::new(),
            next_gen: 0,
            end: SimTime::ZERO + horizon,
        };
        engine.seed(horizon);
        engine
    }

    /// Seeds the initial event population: releases for tenants already
    /// resident, expiry deadlines for tenants already waiting, and the
    /// first utilisation sample. Churn stays in [`Engine::arrivals`];
    /// the watermark captured between the seeds and the first sample
    /// anchors where its events slot into the total order.
    fn seed(&mut self, horizon: SimDuration) {
        if horizon.is_zero() {
            return;
        }
        for idx in 0..self.fleet.nodes.len() {
            // Indexed, not cloned: `start_run` never reshapes the
            // resident lists, so the position walk stays valid.
            for pos in 0..self.fleet.node_ids[idx].len() {
                let id = self.fleet.node_ids[idx][pos];
                self.start_run(id, idx, SimTime::ZERO);
            }
        }
        let waiting_patience: Vec<SimDuration> = self
            .fleet
            .queue
            .entries()
            .filter_map(|e| e.tenant.max_wait)
            .collect();
        for patience in waiting_patience {
            self.schedule_expiry(SimTime::ZERO, patience);
        }
        // Carried-over waiters get a demand-aware sweep at the start,
        // matching the epoch path's first boundary: a provably hopeless
        // pre-run waiter must not sit in the queue forever just because
        // it arrived before this run.
        if self.fleet.cfg.queue.demand_aware_expiry && self.fleet.queue.len() > 0 {
            self.events
                .push(SimTime::ZERO, NODE_FLEET, EventKind::QueueExpire);
        }
        // The materialised path enqueued the whole trace exactly here;
        // lazily delivered stream events inherit this slot in the total
        // order via the watermark.
        self.stream_watermark = self.events.next_seq();
        let first_sample = (SimTime::ZERO + self.fleet.cfg.epoch).min(self.end);
        self.events
            .push(first_sample, NODE_FLEET, EventKind::Sample);
    }

    /// Handles the next event, merging the heap and the churn stream;
    /// returns `false` once both have run dry.
    fn step(&mut self) -> bool {
        // Stream events at/past the horizon were dropped at seed time
        // on the materialised path; the stream is time-ordered, so
        // once its head crosses the horizon the whole tail has.
        let stream_t = self.arrivals.peek_time().filter(|&t| t < self.end);
        let heap_wins = match (self.events.peek_key(), stream_t) {
            (Some((ht, hn, hs)), Some(st)) => {
                // At an equal instant, node-local events precede
                // fleet-scope ones; among fleet-scope, only pre-seed
                // events (seq below the watermark) precede churn.
                ht < st || (ht == st && (hn != NODE_FLEET || hs < self.stream_watermark))
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return false,
        };
        if heap_wins {
            let pop_clock = self.fleet.telemetry.span_clock();
            let ev = self
                .events
                .pop()
                .expect("invariant: a peeked heap event exists");
            self.fleet.telemetry.span_end(Span::EventPop, pop_clock);
            self.fleet.event_counts.count(ev.kind);
            self.fleet.now = ev.time;
            let exec_clock = self.fleet.telemetry.span_clock();
            match ev.kind {
                EventKind::JobRelease { tenant, gen } => self.on_release(ev.key(), tenant, gen),
                EventKind::Migrate => self.on_migrate(ev.key()),
                EventKind::QueueExpire => self.on_queue_expire(ev.time),
                EventKind::Sample => self.on_sample(ev.time),
            }
            self.fleet.telemetry.span_end(Span::EventExec, exec_clock);
        } else {
            let pull_clock = self.fleet.telemetry.span_clock();
            let (t, event) = self
                .arrivals
                .next_event()
                .expect("invariant: a peeked stream event exists");
            self.fleet.telemetry.span_end(Span::ArrivalPull, pull_clock);
            self.events.note_stream_event();
            self.fleet.now = t;
            match event {
                ChurnEvent::Arrival(tenant) => {
                    self.fleet.event_counts.arrival += 1;
                    self.on_arrival(t, tenant);
                }
                ChurnEvent::Departure(name) => {
                    self.fleet.event_counts.departure += 1;
                    self.on_departure(t, &name);
                }
            }
        }
        true
    }

    fn finish(self, horizon: SimDuration) -> FleetMetrics {
        self.fleet.telemetry.note_event_ops(self.events.ops());
        self.fleet.close_run(horizon)
    }

    fn run_of(&self, id: TenantId) -> Option<&TenantRun> {
        self.runs.get(id.index()).and_then(Option::as_ref)
    }

    fn run_mut(&mut self, id: TenantId) -> Option<&mut TenantRun> {
        self.runs.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Registers a (fresh-generation) run for the tenant on node `idx`
    /// and schedules its first release at `t`.
    fn start_run(&mut self, id: TenantId, idx: usize, t: SimTime) {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.events
            .push(t, idx, EventKind::JobRelease { tenant: id, gen });
        let slot = id.index();
        if slot >= self.runs.len() {
            self.runs.resize_with(slot + 1, || None);
        }
        self.runs[slot] = Some(TenantRun {
            node: idx,
            gen,
            inc: gen,
            job_seq: 0,
            in_flight: SimTime::ZERO,
            next_release: t,
            // The one string hash of the tenant's lifetime; every
            // release reuses it (the jitter input is exactly this).
            name_hash: super::exec::fnv1a(self.fleet.interner.name(id)),
            consts: None,
        });
    }

    /// Schedules a queue-expiry sweep one nanosecond past the waiter's
    /// deadline (`DispatchQueue::take_expired` expires strictly-overdue
    /// entries only).
    fn schedule_expiry(&mut self, enqueued_at: SimTime, patience: SimDuration) {
        let due = enqueued_at
            .saturating_add(patience)
            .saturating_add(SimDuration::from_nanos(1));
        self.events.push(due, NODE_FLEET, EventKind::QueueExpire);
    }

    fn on_arrival(&mut self, t: SimTime, tenant: crate::TenantSpec) {
        let patience = tenant.max_wait;
        // The shared kernel + recording path (identical to the epoch
        // engine); only the event bookkeeping below is mode-specific.
        let (outcome, id) = self.fleet.dispatch_accounted(tenant);
        match outcome {
            DispatchOutcome::Placed(idx) => {
                let id = id.expect("invariant: placed arrivals are interned");
                self.start_run(id, idx, t);
            }
            DispatchOutcome::PlacedDegraded { node, .. } => {
                let id = id.expect("invariant: placed arrivals are interned");
                self.start_run(id, node, t);
            }
            DispatchOutcome::Queued => {
                if let Some(patience) = patience {
                    self.schedule_expiry(t, patience);
                }
                if self.fleet.cfg.queue.demand_aware_expiry {
                    // Hopelessness is load-independent, so one sweep at
                    // the enqueue instant decides the waiter's fate at
                    // the same decision point the epoch path uses (its
                    // next boundary sweep).
                    self.events.push(t, NODE_FLEET, EventKind::QueueExpire);
                }
            }
            DispatchOutcome::Infeasible | DispatchOutcome::Duplicate => {}
        }
    }

    fn on_departure(&mut self, t: SimTime, name: &str) {
        // Churn speaks names; the fleet boundary resolves to the interned
        // id once, here.
        let Some(id) = self.fleet.tenant_id(name) else {
            return;
        };
        // Churn ranks after every node-local event at its instant: the
        // samples due by then see the tenant still resident.
        self.fold_all((t, NODE_FLEET, u64::MAX));
        // The shared removal path — identical to the epoch engine.
        if let Some(was_resident) = self.fleet.remove_accounted(id) {
            // Future releases and pending samples die with the run entry;
            // the frame in flight was already recorded at its release.
            if let Some(slot) = self.runs.get_mut(id.index()) {
                *slot = None;
            }
            if was_resident {
                self.drain_and_upgrade(t);
            }
        }
    }

    fn on_release(&mut self, key: EventKey, id: TenantId, gen: u64) {
        let (t, idx, _) = key;
        debug_assert!(
            t < self.end,
            "releases are never scheduled past the horizon"
        );
        let (in_flight, job, inc, name_hash, cached) = match self.run_of(id) {
            Some(run) if run.gen == gen => (
                run.in_flight,
                run.job_seq,
                run.inc,
                run.name_hash,
                run.consts,
            ),
            // Departed, or a stale schedule from before a migration (or
            // from a recycled id's previous occupant).
            _ => return,
        };
        let version = self.fleet.nodes[idx].version();
        let consts = match cached {
            // An unchanged node still hosts the run at the same price.
            Some(c) if c.node == idx && c.version == version => {
                debug_assert_eq!(
                    Some(c),
                    self.release_consts(idx, id),
                    "a cache hit equals the uncached release constants"
                );
                c
            }
            _ => {
                let Some(c) = self.release_consts(idx, id) else {
                    return;
                };
                if let Some(run) = self.run_mut(id) {
                    run.consts = Some(c);
                }
                c
            }
        };
        // The node's window may be pushed and is read below.
        self.fold_node(idx, key);
        self.fleet.totals.record_released(idx);
        let next = t + consts.period;
        // Skip-if-busy: the tenant is busy while its previous job
        // finishes after `t`; one finishing exactly at `t` has freed it.
        let served = if in_flight > t {
            // The frame is dropped and counts as a miss — in the
            // migration estimator too, but only while the estimator has
            // a consumer (the windows grow unboundedly otherwise; pruning
            // happens inside `dmr`, which only the migration trigger
            // calls).
            self.fleet.totals.record_skipped(idx);
            if self.fleet.cfg.migration.is_some() {
                let span = self.fleet.cfg.epoch;
                self.windows[idx].push(t, true, span);
            }
            None
        } else {
            let service = self.exec.service_time(consts.base, idx, name_hash, job);
            let finish = t + service;
            // The fluid service time *is* the job's response time (the
            // job is admitted at release), so it feeds the latency
            // sketch the way the epoch fold feeds response samples.
            self.fleet.telemetry.record_latency(idx, service.as_nanos());
            self.record_served(idx, id, inc, finish, next);
            Some(finish)
        };
        let end = self.end;
        if let Some(run) = self.run_mut(id) {
            run.next_release = if next < end { next } else { SimTime::MAX };
            if let Some(finish) = served {
                run.in_flight = finish;
                run.job_seq += 1;
            }
        }
        let over_threshold = match self.fleet.cfg.migration {
            Some(threshold)
                if !self.migration_pending[idx] && self.fleet.nodes[idx].tenants().len() >= 2 =>
            {
                let span = self.fleet.cfg.epoch;
                self.windows[idx].dmr(t, span) > threshold
            }
            _ => false,
        };
        if over_threshold {
            self.migration_pending[idx] = true;
            self.events.push(t, idx, EventKind::Migrate);
        }
        if next < self.end {
            self.events
                .push(next, idx, EventKind::JobRelease { tenant: id, gen });
        }
    }

    /// The release constants of tenant `id` on node `idx` at the node's
    /// current version, computed afresh; `None` when the tenant is not
    /// resident there. Copies the few price-dependent fields instead of
    /// cloning the spec, and resolves the id to its slot by integer
    /// compare, no string hashing.
    fn release_consts(&mut self, idx: usize, id: TenantId) -> Option<ReleaseConsts> {
        let pos = self.fleet.node_slot(idx, id)?;
        let node = &self.fleet.nodes[idx];
        let t = &node.tenants()[pos];
        let (period, base) =
            self.exec
                .base_service(&self.fleet.nodes, idx, t.model, t.stages, t.fps);
        Some(ReleaseConsts {
            node: idx,
            version: node.version(),
            period,
            base,
        })
    }

    /// Records a frame of run `(id, inc)` served on node `idx` that
    /// finishes at `finish`: late only if that is after `deadline`, so a
    /// job finishing at the deadline instant is on time. With migration
    /// armed, the outcome is also queued as the node's deadline sample;
    /// with migration off nothing would consume it.
    fn record_served(
        &mut self,
        idx: usize,
        id: TenantId,
        inc: u64,
        finish: SimTime,
        deadline: SimTime,
    ) {
        let missed = finish > deadline;
        self.fleet.totals.record_completed(idx, missed);
        if self.fleet.cfg.migration.is_some() {
            let sample = DeadlineSample {
                deadline,
                ord: self.events.next_seq(),
                tenant: id,
                inc,
                missed,
            };
            self.queue_sample(idx, sample);
        }
    }

    /// Queues a served frame's deadline sample on node `idx`, after every
    /// sample with a key at or below its own: an equal key keeps
    /// queueing order, as equal-key events keep push order.
    fn queue_sample(&mut self, idx: usize, sample: DeadlineSample) {
        let queue = &mut self.pending[idx];
        let key = (sample.deadline, sample.ord);
        let at = queue
            .iter()
            .rposition(|s| (s.deadline, s.ord) <= key)
            .map_or(0, |i| i + 1);
        queue.insert(at, sample);
    }

    /// Applies node `idx`'s deadline samples whose key
    /// `(deadline, idx, ord)` is at or below `until`, in key order: each
    /// feeds the window if its run is still the releasing incarnation on
    /// this node.
    fn fold_node(&mut self, idx: usize, until: EventKey) {
        let span = self.fleet.cfg.epoch;
        while let Some(&sample) = self.pending[idx].front() {
            if (sample.deadline, idx, sample.ord) > until {
                break;
            }
            self.pending[idx].pop_front();
            let resident = self
                .runs
                .get(sample.tenant.index())
                .and_then(Option::as_ref)
                .is_some_and(|run| run.inc == sample.inc && run.node == idx);
            if resident {
                self.windows[idx].push(sample.deadline, sample.missed, span);
            }
        }
    }

    /// [`Self::fold_node`] on every node: before a tenant may move.
    fn fold_all(&mut self, until: EventKey) {
        // Samples are queued only while migration is armed.
        if self.fleet.cfg.migration.is_none() {
            return;
        }
        for idx in 0..self.pending.len() {
            self.fold_node(idx, until);
        }
    }

    fn on_migrate(&mut self, key: EventKey) {
        let (t, idx, _) = key;
        self.migration_pending[idx] = false;
        let span = self.fleet.cfg.epoch;
        let Some(threshold) = self.fleet.cfg.migration else {
            return;
        };
        if self.fleet.nodes[idx].tenants().len() < 2 {
            return;
        }
        // Re-verify on pop: the trigger and the move are distinct events,
        // and the world may have changed in between.
        self.fold_node(idx, key);
        if self.windows[idx].dmr(t, span) <= threshold {
            return;
        }
        // Every window is read, and the victim may move: apply every
        // sample due by now first.
        self.fold_all(key);
        self.dmr_scratch.clear();
        for j in 0..self.fleet.nodes.len() {
            let dmr = self.windows[j].dmr(t, span);
            self.dmr_scratch.push(dmr);
        }
        // The shared migration commit (victim, destination, recording),
        // fed the windowed estimates instead of per-epoch DMRs. The
        // explicit cost model: a migration is a state transfer, stalling
        // the migrant for the reconfiguration window. Re-pricing
        // partition switches never pay this.
        let Some((id, dest)) = self
            .fleet
            .migrate_one(idx, &self.dmr_scratch, MIGRATION_COST)
        else {
            return;
        };
        // Either way the node waits for fresh evidence before it may
        // shed again (epoch-path pacing).
        self.windows[idx].clear();
        let Some(j) = dest else {
            return;
        };
        let gen = self.next_gen;
        self.next_gen += 1;
        let resume = if let Some(run) = self.run_mut(id) {
            run.node = j;
            run.gen = gen;
            // The state transfer cannot finish before the migrant's
            // in-flight job drains on the source: resuming earlier would
            // skip-drop frames on the destination and misattribute those
            // misses to a healthy node's migration estimator. The resume
            // lands one nanosecond past the finish, strictly after it. A
            // job that already finished leaves at most `t + 1 ns` here,
            // which the stall below always exceeds.
            let drained = run.in_flight.saturating_add(SimDuration::from_nanos(1));
            let resume = run
                .next_release
                .max(t.saturating_add(MIGRATION_COST))
                .max(drained);
            run.next_release = resume;
            resume
        } else {
            SimTime::MAX
        };
        if resume < self.end {
            self.events
                .push(resume, j, EventKind::JobRelease { tenant: id, gen });
        }
        // The source node freed capacity: waiters may fit now.
        self.drain_and_upgrade(t);
    }

    fn on_queue_expire(&mut self, t: SimTime) {
        if t > self.end {
            return;
        }
        // Patience expiry plus (when armed) the demand-aware
        // provably-hopeless sweep — the same shared path the epoch
        // engine runs at its boundaries.
        self.fleet.expire_accounted();
    }

    fn on_sample(&mut self, t: SimTime) {
        for idx in 0..self.fleet.nodes.len() {
            // Budget and demand are pure functions of node state; the
            // version check makes each sample O(changed nodes), which at
            // fleet scale (10k nodes, epoch sampling) dominates the
            // whole run if recomputed blindly.
            let version = self.fleet.nodes[idx].version();
            let (budget, demand) = match self.sample_cache[idx] {
                Some((v, cached)) if v == version => cached,
                _ => {
                    let budget = self.fleet.admission().budget(&self.fleet.nodes[idx], None);
                    let demand = self.fleet.nodes[idx].total_demand();
                    self.sample_cache[idx] = Some((version, (budget, demand)));
                    (budget, demand)
                }
            };
            let utilization = if budget > 0.0 { demand / budget } else { 0.0 };
            self.fleet.record_utilization(idx, utilization);
        }
        if t < self.end {
            let next = (t + self.fleet.cfg.epoch).min(self.end);
            self.events.push(next, NODE_FLEET, EventKind::Sample);
        }
    }

    /// Admits waiters freed capacity allows and upgrades degraded
    /// residents (the shared path in
    /// [`Fleet::drain_and_upgrade_accounted`] — identical to the epoch
    /// engine by construction), then starts a release clock for every
    /// admitted waiter.
    fn drain_and_upgrade(&mut self, t: SimTime) {
        let admissions = self.fleet.drain_and_upgrade_accounted();
        for adm in admissions {
            if let Some(idx) = self.fleet.resident_node_of(adm.id) {
                self.start_run(adm.id, idx, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnTrace, FleetConfig, ModelKind, NodeSpec, TenantSpec};
    use sgprs_gpu_sim::GpuSpec;

    fn cam(name: &str, fps: f64) -> TenantSpec {
        TenantSpec::new(name, ModelKind::ResNet18, fps)
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A fleet with `residents` seeded onto node 0 in order.
    fn fleet_with(cfg: FleetConfig, residents: &[TenantSpec]) -> Fleet {
        let mut fleet = Fleet::new(cfg);
        for t in residents {
            fleet.seed_resident(0, t.clone());
        }
        fleet
    }

    fn run<'e>(engine: &'e Engine<'_>, id: TenantId) -> &'e TenantRun {
        engine.run_of(id).expect("the tenant's run is live")
    }

    #[test]
    fn a_job_finishing_exactly_at_the_next_release_is_served() {
        let mut fleet = fleet_with(
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())]),
            &[cam("a", 25.0), cam("b", 25.0)],
        );
        let ids = fleet.node_ids[0].clone();
        let mut engine = Engine::new(
            &mut fleet,
            ChurnTrace::new().into(),
            SimDuration::from_secs(1),
        );
        // Both first releases at t = 0.
        assert!(engine.step() && engine.step());
        // Pin each tenant's job in flight to end at, or just after, its
        // next release.
        let next = run(&engine, ids[0]).next_release;
        assert_eq!(next, at_ms(40));
        engine.run_mut(ids[0]).expect("live").in_flight = next;
        engine.run_mut(ids[1]).expect("live").in_flight = next + SimDuration::from_nanos(1);
        assert!(engine.step() && engine.step());
        assert_eq!(engine.fleet.now, next);
        assert_eq!(
            run(&engine, ids[0]).job_seq,
            2,
            "finished at the release: served"
        );
        assert_eq!(
            run(&engine, ids[1]).job_seq,
            1,
            "one nanosecond later: skipped"
        );
    }

    #[test]
    fn a_job_finishing_exactly_at_its_deadline_is_on_time() {
        let mut fleet = fleet_with(
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
                .with_migration(1.0),
            &[cam("a", 25.0)],
        );
        let id = fleet.node_ids[0][0];
        let mut engine = Engine::new(
            &mut fleet,
            ChurnTrace::new().into(),
            SimDuration::from_millis(100),
        );
        // The release at t = 0 serves its frame. Its pending sample is
        // dropped, and a job pinned to end exactly at the deadline is
        // recorded in its place.
        assert!(engine.step());
        let deadline = run(&engine, id).next_release;
        assert_eq!(deadline, at_ms(40));
        engine.pending[0].clear();
        let inc = run(&engine, id).inc;
        engine.record_served(0, id, inc, deadline, deadline);
        while !engine.windows[0].outcomes().any(|(t, _)| t == deadline) {
            assert!(engine.step(), "the sample was never applied");
        }
        let at_deadline: Vec<bool> = engine.windows[0]
            .outcomes()
            .filter(|&(t, _)| t == deadline)
            .map(|(_, missed)| missed)
            .collect();
        assert_eq!(at_deadline, [false], "the window entry is not a miss");
        while engine.step() {}
        let node = &engine.finish(SimDuration::from_millis(100)).nodes[0];
        // Releases at 0, 40 and 80 ms on an idle GPU, all on time, plus
        // the pinned job.
        assert_eq!((node.released, node.completed), (3, 4));
        assert_eq!(node.missed, 0, "the pinned job counts as on time");
    }

    #[test]
    fn a_served_frames_sample_records_whether_it_finished_after_its_deadline() {
        let mut fleet = fleet_with(
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::synthetic(16))])
                .with_migration(0.1),
            &(0..6)
                .map(|i| cam(&format!("c{i}"), 30.0))
                .collect::<Vec<_>>(),
        );
        let mut engine = Engine::new(
            &mut fleet,
            ChurnTrace::new().into(),
            SimDuration::from_secs(1),
        );
        let mut checked = (0, 0);
        while engine.step() && engine.fleet.now < at_ms(300) {
            for sample in &engine.pending[0] {
                let finish = engine
                    .run_of(sample.tenant)
                    .filter(|r| r.next_release == sample.deadline)
                    .map(|r| r.in_flight);
                if let Some(finish) = finish {
                    assert_eq!(sample.missed, finish > sample.deadline);
                    if sample.missed {
                        checked.0 += 1;
                    } else {
                        checked.1 += 1;
                    }
                }
            }
        }
        assert!(
            checked.0 > 0 && checked.1 > 0,
            "both outcomes seen: {checked:?}"
        );
    }

    #[test]
    fn a_migrated_victims_pending_sample_never_reaches_the_source_window() {
        // Five 30 fps feeds and a 25 fps victim (placed last, so shed
        // first) overload a small node. The victim's deadlines fall on
        // a 40 ms grid that never meets the 30 fps grid, so an entry at
        // one of its deadline instants in node 0's window could only be
        // its own sample.
        let mut residents: Vec<TenantSpec> = (0..5).map(|i| cam(&format!("c{i}"), 30.0)).collect();
        residents.push(cam("victim", 25.0));
        let mut fleet = fleet_with(
            FleetConfig::new(vec![
                NodeSpec::sgprs("small", GpuSpec::synthetic(15)),
                NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
            ])
            .with_migration(0.05),
            &residents,
        );
        let victim = *fleet.node_ids[0].last().expect("six residents");
        let mut engine = Engine::new(
            &mut fleet,
            ChurnTrace::new().into(),
            SimDuration::from_secs(3),
        );
        while run(&engine, victim).node == 0 {
            assert!(engine.step(), "the victim never migrated");
        }
        let stranded: Vec<SimTime> = engine.pending[0]
            .iter()
            .filter(|s| s.tenant == victim)
            .map(|s| s.deadline)
            .collect();
        assert!(!stranded.is_empty(), "the victim left a sample behind");
        let last = *stranded.iter().max().expect("non-empty");
        while engine.fleet.now <= last {
            assert!(engine.step());
            let landed: Vec<SimTime> = engine.windows[0]
                .outcomes()
                .map(|(t, _)| t)
                .filter(|t| stranded.contains(t))
                .collect();
            assert!(
                landed.is_empty(),
                "victim samples reached the source: {landed:?}"
            );
        }
        assert!(
            engine.pending[0].iter().all(|s| s.tenant != victim),
            "the stranded samples were consumed"
        );
    }

    #[test]
    fn a_departure_at_the_deadline_instant_keeps_the_sample() {
        // The leaver's first frame is due at 40 ms, the instant it
        // departs; its sample ranks before the fleet-scope departure.
        let mut trace = ChurnTrace::new();
        trace.push(at_ms(40), crate::ChurnEvent::Departure("leaver".into()));
        let mut fleet = fleet_with(
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())])
                .with_migration(1.0),
            &[cam("stayer", 30.0), cam("leaver", 25.0)],
        );
        let leaver = fleet.node_ids[0][1];
        let mut engine = Engine::new(&mut fleet, trace.into(), SimDuration::from_millis(200));
        while engine.fleet.event_counts.departure == 0 {
            assert!(engine.step());
        }
        assert!(engine.run_of(leaver).is_none(), "the leaver departed");
        assert_eq!(engine.fleet.now, at_ms(40));
        assert!(
            engine.windows[0].outcomes().any(|(t, _)| t == at_ms(40)),
            "the sample due at the departure instant was kept"
        );
    }

    /// Steps `engine` until `done` holds, failing if the run ends first.
    fn step_until(engine: &mut Engine<'_>, mut done: impl FnMut(&Engine<'_>) -> bool) {
        while !done(engine) {
            assert!(engine.step(), "the run ended first");
        }
    }

    #[test]
    fn an_upgrade_invalidates_the_repriced_tenants_release_constants() {
        let cfg =
            FleetConfig::new(vec![NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti())]).with_repricing();
        let mut fleet = Fleet::new(cfg);
        // Saturate at 30 fps, then free one filler's demand `d`: a
        // 60 fps request (2d) degrades to its 30 fps step (d).
        let mut fillers = Vec::new();
        while let DispatchOutcome::Placed(_) =
            fleet.dispatch(cam(&format!("f{}", fillers.len()), 30.0))
        {
            fillers.push(format!("f{}", fillers.len()));
        }
        assert!(
            fleet.remove(&format!("f{}", fillers.len())),
            "scaffolding waiter removed"
        );
        assert!(fleet.remove(&fillers[0]));
        let elastic = cam("elastic", 60.0).with_fps_ladder([30.0, 15.0]);
        assert!(matches!(
            fleet.dispatch(elastic),
            DispatchOutcome::PlacedDegraded { .. }
        ));
        let id = fleet.tenant_id("elastic").expect("resident");
        // One more departure makes room for the requested rate.
        let mut trace = ChurnTrace::new();
        trace.push(at_ms(100), crate::ChurnEvent::Departure(fillers[1].clone()));
        let mut engine = Engine::new(&mut fleet, trace.into(), SimDuration::from_secs(1));
        let consts = |e: &Engine<'_>| run(e, id).consts;
        step_until(&mut engine, |e| consts(e).is_some());
        let degraded = consts(&engine).expect("cached at the first release");
        assert_eq!(degraded.period, SimDuration::from_secs_f64(1.0 / 30.0));
        step_until(&mut engine, |e| e.fleet.totals.counts.upgrades > 0);
        assert_ne!(
            engine.fleet.nodes[0].version(),
            degraded.version,
            "the re-price moved the node's version, so the cached constants are stale"
        );
        step_until(&mut engine, |e| consts(e) != Some(degraded));
        let upgraded = consts(&engine).expect("recomputed at the next release");
        assert_eq!(upgraded.period, SimDuration::from_secs_f64(1.0 / 60.0));
        assert_eq!(Some(upgraded), engine.release_consts(0, id));
    }

    #[test]
    fn a_migration_invalidates_the_migrants_release_constants() {
        let mut residents: Vec<TenantSpec> = (0..5).map(|i| cam(&format!("c{i}"), 30.0)).collect();
        residents.push(cam("victim", 25.0));
        let mut fleet = fleet_with(
            FleetConfig::new(vec![
                NodeSpec::sgprs("small", GpuSpec::synthetic(15)),
                NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
            ])
            .with_migration(0.05),
            &residents,
        );
        let victim = *fleet.node_ids[0].last().expect("six residents");
        let mut engine = Engine::new(
            &mut fleet,
            ChurnTrace::new().into(),
            SimDuration::from_secs(3),
        );
        step_until(&mut engine, |e| run(e, victim).node == 1);
        let source = run(&engine, victim).consts.expect("released on the source");
        assert_eq!(source.node, 0, "still keyed to the source node");
        step_until(&mut engine, |e| {
            run(e, victim).consts.is_some_and(|c| c.node == 1)
        });
        let dest = run(&engine, victim)
            .consts
            .expect("released on the destination");
        assert_eq!(Some(dest), engine.release_consts(1, victim));
        assert_eq!(dest.period, source.period, "same price");
        assert!(
            dest.base < source.base,
            "the idle destination serves faster: {} vs {}",
            dest.base,
            source.base
        );
    }

    #[test]
    fn windows_receive_samples_in_time_order() {
        // Mixed rates interleave deadlines across tenants and nodes;
        // migration moves tenants between them.
        let residents: Vec<TenantSpec> = [30.0, 25.0, 20.0, 30.0, 15.0, 24.0, 30.0]
            .iter()
            .enumerate()
            .map(|(i, &fps)| cam(&format!("c{i}"), fps))
            .collect();
        let mut fleet = fleet_with(
            FleetConfig::new(vec![
                NodeSpec::sgprs("small", GpuSpec::synthetic(16)),
                NodeSpec::sgprs("mid", GpuSpec::synthetic(34)),
                NodeSpec::sgprs("big", GpuSpec::rtx_2080_ti()),
            ])
            .with_migration(0.05),
            &residents,
        );
        let mut engine = Engine::new(
            &mut fleet,
            ChurnTrace::new().into(),
            SimDuration::from_secs(3),
        );
        let mut pushed = 0usize;
        while engine.step() {
            for w in &engine.windows {
                let times: Vec<SimTime> = w.outcomes().map(|(t, _)| t).collect();
                assert!(times.windows(2).all(|p| p[0] <= p[1]), "{times:?}");
                pushed += times.len();
            }
        }
        assert!(pushed > 0);
        assert!(engine.fleet.totals.counts.migrations > 0, "tenants moved");
    }
}
