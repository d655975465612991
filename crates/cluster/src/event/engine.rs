//! The event-driven run loop behind [`crate::Fleet::run_events`].
//!
//! One [`super::EventQueue`] drives the whole fleet: churn, every
//! tenant's periodic releases, job completions, deadline checks, queue
//! expiry, migration, and utilisation sampling are all events on the
//! same monotonic clock. Scheduler state (the in-flight job of every
//! tenant) lives in [`TenantRun`] entries that persist across the whole
//! run — there are no epoch boundaries to truncate against, which is the
//! point.
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

/// The state-transfer stall a migration pays: the migrant serves nothing
/// while its weights and context state move, roughly a reconfiguration
/// window (`sgprs_core::ReconfigConfig`'s 100 ms repartition stall).
/// Re-pricing degrade/upgrade switches are SGPRS partition switches and
/// never pay it; the epoch path models migration as free.
const MIGRATION_COST: SimDuration = SimDuration::from_millis(100);

/// Persistent per-tenant scheduler state: which node the tenant serves
/// on, its release/job serials, and the job currently in flight.
#[derive(Debug)]
struct TenantRun {
    node: usize,
    /// Generation guard: release events scheduled under an older
    /// generation (before a migration, or a previous occupant of a
    /// recycled id) are stale and dropped on pop.
    gen: u64,
    /// Incarnation guard for completion/deadline events: assigned once
    /// when the run starts and *not* bumped by migration, so a departed
    /// predecessor's stale events cannot touch a recycled id's fresh
    /// run, while an in-flight job still resolves across a migration.
    inc: u64,
    /// Next job serial.
    job_seq: u64,
    /// The job currently in flight, if any, with its finish instant
    /// (skip-if-busy admission; migration resumption waits for it).
    in_flight: Option<(u64, SimTime)>,
    /// When the next release event is scheduled (or `SimTime::MAX` when
    /// none is), so a migration can re-anchor the clock after its stall.
    next_release: SimTime,
    /// [`super::exec::fnv1a`] of the tenant name, hashed once when the
    /// run starts: the jitter input every release needs, without a
    /// per-release interner lookup + string hash.
    name_hash: u64,
}

/// Runs `fleet` over `arrivals` in event-driven mode until `horizon`.
pub(crate) fn run_events(
    fleet: &mut Fleet,
    arrivals: ArrivalStream,
    horizon: SimDuration,
) -> FleetMetrics {
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
        runs: Vec::new(),
        migration_pending: vec![false; n_nodes],
        sample_cache: vec![None; n_nodes],
        dmr_scratch: Vec::new(),
        in_flight: 0,
        next_gen: 0,
        end: SimTime::ZERO + horizon,
    };
    engine.seed(horizon);
    engine.drive();
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
    /// Jobs admitted but not yet completed — asserted zero at the end:
    /// the event path never truncates.
    in_flight: u64,
    next_gen: u64,
    end: SimTime,
}

impl Engine<'_> {
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

    /// Merges the heap and the churn stream until both run dry.
    /// Completions and deadline checks of jobs released before the
    /// horizon are processed even past it, so in-flight work drains
    /// instead of truncating.
    fn drive(&mut self) {
        loop {
            // Stream events at/past the horizon were dropped at seed time
            // on the materialised path; the stream is time-ordered, so
            // once its head crosses the horizon the whole tail has.
            let stream_t = self.arrivals.peek_time().filter(|&t| t < self.end);
            // Turn the wheel before peeking, so cascade work is billed
            // to its own span instead of inflating `event_pop`. The
            // `needs_prepare` pre-check keeps the common already-prepared
            // iteration free of the clock read and the prepare call.
            if self.events.needs_prepare() {
                let cascade_clock = self.fleet.telemetry.span_clock();
                if self.events.prepare() {
                    self.fleet
                        .telemetry
                        .span_end(Span::WheelCascade, cascade_clock);
                }
            }
            let heap_wins = match (self.events.peek_key(), stream_t) {
                (Some((ht, hn, hs)), Some(st)) => {
                    // At an equal instant, node-local events precede
                    // fleet-scope ones; among fleet-scope, only pre-seed
                    // events (seq below the watermark) precede churn.
                    ht < st || (ht == st && (hn != NODE_FLEET || hs < self.stream_watermark))
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if heap_wins {
                let pop_clock = self.fleet.telemetry.span_clock();
                let ev = self
                    .events
                    .pop()
                    .expect("invariant: a peeked heap event exists");
                self.fleet.telemetry.span_end(Span::EventPop, pop_clock);
                self.fleet.now = ev.time;
                let exec_clock = self.fleet.telemetry.span_clock();
                match ev.kind {
                    EventKind::Arrival(tenant) => self.on_arrival(ev.time, *tenant),
                    EventKind::Departure(name) => self.on_departure(ev.time, &name),
                    EventKind::JobRelease { tenant, gen } => {
                        self.on_release(ev.time, ev.node, tenant, gen);
                    }
                    EventKind::JobCompletion {
                        tenant,
                        job,
                        inc,
                        deadline,
                    } => self.on_completion(ev.time, ev.node, tenant, job, inc, deadline),
                    EventKind::DeadlineCheck { tenant, job, inc } => {
                        self.on_deadline_check(ev.time, ev.node, tenant, job, inc);
                    }
                    EventKind::Migrate => self.on_migrate(ev.time, ev.node),
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
                    ChurnEvent::Arrival(tenant) => self.on_arrival(t, tenant),
                    ChurnEvent::Departure(name) => self.on_departure(t, &name),
                }
            }
        }
    }

    fn finish(self, horizon: SimDuration) -> FleetMetrics {
        assert_eq!(
            self.in_flight, 0,
            "the event path never truncates: every admitted job ran to completion"
        );
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
            in_flight: None,
            next_release: t,
            // The one string hash of the tenant's lifetime; every
            // release reuses it (the jitter input is exactly this).
            name_hash: super::exec::fnv1a(self.fleet.interner.name(id)),
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
        // The shared removal path — identical to the epoch engine.
        if let Some(was_resident) = self.fleet.remove_accounted(id) {
            // Future releases die with the run entry; a job already in
            // flight still completes (its event carries all it needs).
            if let Some(slot) = self.runs.get_mut(id.index()) {
                *slot = None;
            }
            if was_resident {
                self.drain_and_upgrade(t);
            }
        }
    }

    fn on_release(&mut self, t: SimTime, idx: usize, id: TenantId, gen: u64) {
        debug_assert!(
            t < self.end,
            "releases are never scheduled past the horizon"
        );
        let (busy, job, inc, name_hash) = match self.run_of(id) {
            Some(run) if run.gen == gen => {
                (run.in_flight.is_some(), run.job_seq, run.inc, run.name_hash)
            }
            // Departed, or a stale schedule from before a migration (or
            // from a recycled id's previous occupant).
            _ => return,
        };
        // Copy the few price-dependent fields instead of cloning the
        // whole spec: this is the engine's hottest path. The id resolves
        // to the node slot by integer compare, no string hashing.
        let Some((model, stages, fps)) = self.fleet.node_slot(idx, id).map(|pos| {
            let t = &self.fleet.nodes[idx].tenants()[pos];
            (t.model, t.stages, t.fps)
        }) else {
            return;
        };
        self.fleet.totals.record_released(idx);
        let period = SimDuration::from_secs_f64(1.0 / fps);
        let next = t + period;
        let end = self.end;
        if let Some(run) = self.run_mut(id) {
            run.next_release = if next < end { next } else { SimTime::MAX };
        }
        let migration_on = self.fleet.cfg.migration.is_some();
        if busy {
            // Skip-if-busy: the frame is dropped and counts as a miss —
            // in the migration estimator too, but only while the
            // estimator has a consumer (the windows grow unboundedly
            // otherwise; pruning happens inside `dmr`, which only the
            // migration trigger calls).
            self.fleet.totals.record_skipped(idx);
            if migration_on {
                let span = self.fleet.cfg.epoch;
                self.windows[idx].push(t, true, span);
            }
        } else {
            let service = self.exec.service_time(
                &self.fleet.nodes,
                &self.fleet.admission,
                idx,
                model,
                stages,
                fps,
                name_hash,
                job,
            );
            let finish = t + service;
            // The fluid service time *is* the job's response time (the
            // job is admitted at release), so it feeds the latency
            // sketch the way the epoch fold feeds response samples.
            self.fleet.telemetry.record_latency(idx, service.as_nanos());
            self.in_flight += 1;
            self.events.push(
                finish,
                idx,
                EventKind::JobCompletion {
                    tenant: id,
                    job,
                    inc,
                    deadline: next,
                },
            );
            // Deadline checks only feed the migration estimator; with
            // migration off they would be popped and discarded, so the
            // hot path skips scheduling them entirely.
            if migration_on {
                self.events.push(
                    next,
                    idx,
                    EventKind::DeadlineCheck {
                        tenant: id,
                        job,
                        inc,
                    },
                );
            }
            if let Some(run) = self.run_mut(id) {
                run.in_flight = Some((job, finish));
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

    fn on_completion(
        &mut self,
        t: SimTime,
        idx: usize,
        id: TenantId,
        job: u64,
        inc: u64,
        deadline: SimTime,
    ) {
        // The job genuinely ran and finishes on its node regardless of
        // what happened to the tenant since (departure, migration, id
        // recycling) — only the busy flag is incarnation-guarded.
        self.in_flight -= 1;
        self.fleet.totals.record_completed(idx, t > deadline);
        if let Some(run) = self.run_mut(id) {
            if run.inc == inc {
                // Skip-if-busy invariant: a live incarnation has exactly
                // one job in flight, so its completions arrive strictly
                // in admission order. A mismatch means a stale event
                // from a dead incarnation slipped past the guard and
                // double-admitted the tenant.
                debug_assert_eq!(
                    run.in_flight.map(|(j, _)| j),
                    Some(job),
                    "overlapping jobs for live tenant {id}"
                );
                run.in_flight = None;
            }
        }
    }

    fn on_deadline_check(&mut self, t: SimTime, idx: usize, id: TenantId, job: u64, inc: u64) {
        // Exactly one estimator sample per admitted job, taken at its
        // deadline with no look-ahead: missed iff it is still in flight.
        // A stale check (the tenant departed, or its id was recycled by
        // a fresh incarnation) feeds nothing — and with migration off
        // the estimator has no consumer, so nothing is retained at all.
        if self.fleet.cfg.migration.is_none() {
            return;
        }
        let Some(run) = self.run_of(id) else {
            return;
        };
        if run.inc != inc || run.node != idx {
            // Departed, recycled, or migrated away: a shed victim's last
            // in-flight job must not bill its miss to the source node's
            // freshly cleared post-shed estimate.
            return;
        }
        let span = self.fleet.cfg.epoch;
        let missed = run.in_flight.map(|(j, _)| j) == Some(job);
        self.windows[idx].push(t, missed, span);
    }

    fn on_migrate(&mut self, t: SimTime, idx: usize) {
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
        if self.windows[idx].dmr(t, span) <= threshold {
            return;
        }
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
            // misses to a healthy node's migration estimator. One extra
            // nanosecond breaks the (time, node, seq) tie a lower-indexed
            // destination would otherwise win against the source-node
            // completion.
            let drained = run.in_flight.map_or(SimTime::ZERO, |(_, finish)| {
                finish.saturating_add(SimDuration::from_nanos(1))
            });
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
