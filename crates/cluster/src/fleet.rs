//! The fleet dispatcher: epoch-driven simulation of many GPU nodes under
//! tenant churn.
//!
//! This file is **orchestration only**. Every decision — admission and
//! placement planning (flat, shard-scan, or power-of-two-choices), the
//! re-pricing ladder walk, queue feasibility, upgrade candidates, and
//! migration victim/destination choice — lives in the shared
//! [`crate::policy`] kernel, consumed identically by this
//! epoch path and the event engine ([`crate::event`]). Configuration
//! lives in [`crate::config`]. What remains here is the epoch loop,
//! dispatch replay (a run with no executor), and what all three share:
//!
//! * one recorded path per operation: dispatch, departure,
//!   drain/upgrade, expiry (the `*_accounted` methods, which the public
//!   `dispatch`, `remove` and `drain_queue` call) and migration
//!   (`migrate_one`);
//! * the run prologue and epilogue (`open_run` / `close_run`) and the
//!   utilisation sample (`sample_utilization`);
//! * the one recording point, `record`, through which every decision
//!   reaches the run totals ([`FleetMetricsBuilder`]) and, when armed,
//!   the telemetry window and trace — one fold of one
//!   [`crate::DispatchCounts`] block, so no counter can drift between
//!   engines or between the totals and the time-series. Outside a run a
//!   record shows nowhere: `open_run` rebuilds the totals, and
//!   telemetry records nothing until a run arms it.
//!
//! # Interned tenant ids
//!
//! Tenant names cross the fleet boundary exactly once: `dispatch`
//! interns each arriving name into a dense [`TenantId`]
//! (first-appearance order, slots recycled LIFO on departure — see
//! [`crate::interner`]), and every per-tenant structure from there on is
//! id-indexed: resident location (`resident_node` + per-node id lists),
//! queue entries, the degraded-rate table, pending release phases, and
//! the event engine's payloads. Names are resolved back only at the
//! render edge (JSON, telemetry, the execution model's name-keyed
//! jitter). Interning is a pure function of the arrival sequence, so it
//! is deterministic across engines and worker counts; recycling bounds
//! the id space — and every id-indexed `Vec` — by the *peak
//! concurrently-active* population, which is what lets a run stream
//! millions of tenants in O(active) memory.
//!
//! Simulated time is divided into *epochs*. Each node that ever takes a
//! tenant gets one paper-layer [`Scheduler`] (SGPRS or the naive
//! baseline) that lives for the whole run.
//! Inside an epoch the dispatcher applies churn at each event's own
//! instant: an admitted arrival attaches to its node's scheduler, first
//! releasing at its arrival instant, and a departure detaches at its
//! instant. At each epoch boundary overdue waiters expire, the wait queue
//! drains in [`crate::QueuePolicy`] order, and every node's scheduler
//! runs to the boundary and reports the window's
//! [`sgprs_core::RunMetrics`], which the [`FleetMetricsBuilder`] folds
//! into fleet totals. Optional migration moves a tenant off any node
//! whose epoch miss rate crossed a threshold.
//!
//! With [`crate::QueueConfig::repricing`] on, an arrival that does not fit at
//! its requested rate may be admitted at a degraded
//! [`TenantSpec::fps_ladder`] step — SGPRS's zero-cost partition switch
//! makes the later upgrade free — and each epoch boundary steps degraded
//! residents back up: departures first admit waiting tenants (policy
//! order), then leftover capacity upgrades degraded residents in place,
//! in tenant-name order, jumping each as high up its ladder as the node
//! admits. Degrades and upgrades never move a tenant between nodes.
//!
//! Granularity contract: arrivals and departures take effect at their
//! exact instants. A departing tenant releases no frame from its
//! departure on, and its job in flight finishes. Queue drains, upgrades
//! and migrations happen at epoch boundaries. A re-price (an upgrade) is
//! a detach plus an attach at the boundary instant, and a migration
//! moves the tenant there for free: its job in flight finishes on the
//! source node. Scheduler state carries across boundaries, so no job is
//! cut at one. At the horizon releases stop and every job in flight runs
//! to completion, so [`FleetMetrics::truncated_jobs`] is zero and, on
//! every node, released = completed + skipped (asserted). The
//! event-driven mode ([`Fleet::run_events`], see [`crate::event`]) runs
//! a fluid model instead of the paper's schedulers, with no grid at
//! all: migration at job-release boundaries paying a fixed 100 ms
//! state-transfer stall.
//!
//! Parallel-execution determinism: between two boundaries the nodes are
//! mutually independent — they share no simulator state, every attach
//! and detach is applied on the orchestration thread before the run to
//! the boundary, and each node's jitter seed is a pure function of
//! `(fleet seed, node index)`. `run` therefore fans the per-node
//! `run(epoch_end)` calls out over scoped worker threads, which take
//! disjoint `&mut` node schedulers from a shared iterator, and folds the
//! results back in ascending node index, so the resulting
//! [`FleetMetrics`] is bit-identical to sequential execution
//! (`with_workers(1)` is the escape hatch): parallelism changes
//! wall-clock time, never results.

use crate::event::EventCounts;
use crate::interner::{TenantId, TenantInterner};
use crate::metrics::Decision;
use crate::policy::{self, DispatchPlanner, FleetState, PricedPlan, QueueAdmission};
use crate::queue::DispatchQueue;
use crate::telemetry::{Span, SpanProfile, Telemetry};
use crate::{
    AdmissionController, ArrivalStream, ChurnEvent, FleetConfig, FleetMetrics, FleetMetricsBuilder,
    FleetNode, TenantSpec,
};
use sgprs_core::{CompiledTask, RunMetrics, Scheduler};
use sgprs_rt::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Where a dispatched tenant ended up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DispatchOutcome {
    /// Placed on the node with the given index.
    Placed(usize),
    /// Did not fit at its requested rate, but the re-pricing ladder found
    /// room at the degraded rate `fps` on node `node` — the tenant is
    /// resident and will be upgraded back toward its requested rate when
    /// capacity frees (requires [`crate::QueueConfig::repricing`]).
    PlacedDegraded {
        /// The node the tenant landed on.
        node: usize,
        /// The degraded rate it serves at.
        fps: f64,
    },
    /// Currently over capacity everywhere; the tenant waits in the
    /// dispatch queue for departures to free room.
    Queued,
    /// Latency-infeasible on every node: no departure can ever make it
    /// fit, so it is dropped rather than queued (queueing it would block
    /// the FIFO queue's head forever).
    Infeasible,
    /// A tenant with the same name is already active (resident or
    /// queued). Names key the interner's active set, so the dispatcher
    /// enforces the uniqueness contract documented on
    /// [`TenantSpec::name`] instead of letting a later `remove` delete
    /// the wrong instance and leave a resident ghost.
    Duplicate,
}

/// A simulated multi-GPU fleet with admission control, load balancing,
/// and tenant churn.
#[derive(Debug)]
pub struct Fleet {
    pub(crate) cfg: FleetConfig,
    pub(crate) nodes: Vec<FleetNode>,
    pub(crate) admission: AdmissionController,
    /// The mutable half of the policy kernel: placement cursor + shard
    /// directory (see [`crate::policy`]).
    pub(crate) planner: DispatchPlanner,
    pub(crate) queue: DispatchQueue,
    /// Tenant-name ⇄ id table; its active-name map doubles as the
    /// duplicate gate (keyed lookup only, never iterated).
    pub(crate) interner: TenantInterner,
    /// The node schedulers of the epoch run in progress, node-indexed
    /// (`None` until a node takes its first tenant); empty outside
    /// [`Fleet::run`], which is what keeps every scheduler hook inert on
    /// the event path.
    execs: Vec<Option<Scheduler>>,
    /// Each resident's slot in its node's scheduler, id-indexed (`None`
    /// outside an epoch run).
    exec_slot: Vec<Option<usize>>,
    /// Compiled-task cache keyed by (model, stages, period ns, pool
    /// class). Compiling reads only the node's context pool, so every
    /// node of one pool class shares one entry per price point, and
    /// every scheduler it is attached to shares the entry itself. A miss
    /// profiles the model's process-wide partition
    /// ([`crate::ModelKind::partition`]) and builds no network.
    compiled: HashMap<(crate::ModelKind, usize, u64, usize), Arc<CompiledTask>>,
    /// Pool class of each node: the index of the first node whose
    /// context pool equals its own (see [`pool_classes`]).
    pool_class: Vec<usize>,
    /// Node index of each resident, id-indexed (`None` = queued or
    /// free slot).
    resident_node: Vec<Option<usize>>,
    /// Per-node resident ids, parallel to each node's tenant list, so
    /// slot resolution is an integer scan instead of a string compare.
    pub(crate) node_ids: Vec<Vec<TenantId>>,
    /// The dispatcher's clock: advanced by `run`/`run_events`, stamps
    /// queue entries so waits and queue deadlines are measurable.
    pub(crate) now: SimTime,
    /// Whether node capacity was released (departure or migration) since
    /// the last drain pass — when it was not, the queue head still cannot
    /// fit and the whole retry scan is skipped.
    pub(crate) capacity_released: bool,
    /// Residents currently serving below their requested fps,
    /// id-indexed (`None` = not degraded). Upgrade passes sort by resolved name so
    /// their order matches the pre-interning contract.
    degraded: Vec<Option<Degraded>>,
    /// Scratch of [`Self::upgrade_degraded`]: the degraded `(id,
    /// requested fps)` pairs of one pass, in name order.
    upgrade_order: Vec<(TenantId, f64)>,
    /// The telemetry recorder (see [`crate::telemetry`]): armed by
    /// `begin_run` when [`crate::TelemetryConfig::enabled`], a no-op on
    /// every hook otherwise. All recording happens on the
    /// single-threaded orchestration path, never inside the parallel
    /// fan-out, so the report is deterministic across worker counts.
    pub(crate) telemetry: Telemetry,
    /// The current run's totals, rebuilt by [`Self::open_run`] and
    /// folded into [`FleetMetrics`] by [`Self::close_run`]. Dispatch
    /// decisions reach it only through [`Self::record`].
    pub(crate) totals: FleetMetricsBuilder,
    /// Events the current (or last) event-driven run handled, by kind;
    /// zeroed by [`Self::open_run`].
    pub(crate) event_counts: EventCounts,
}

/// A resident serving below its requested rate.
#[derive(Debug, Clone, Copy)]
struct Degraded {
    /// The rate it asked for.
    requested: f64,
    /// `(node, node version)` at which its last upgrade attempt failed.
    /// The attempt is a pure function of that node's state, so while the
    /// version holds it would fail again and is skipped.
    failed_at: Option<(usize, u64)>,
}

impl Degraded {
    fn new(requested: f64) -> Self {
        Degraded {
            requested,
            failed_at: None,
        }
    }
}

/// Who a recorded decision is about: an active tenant's id, or the name
/// of one that already left the fleet (or never joined it).
#[derive(Debug, Clone, Copy)]
enum TenantRef<'a> {
    Id(TenantId),
    Name(&'a str),
}

impl Fleet {
    /// Builds an empty fleet from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` is empty (possible despite the check in
    /// [`FleetConfig::new`], since the config's fields are public).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(!cfg.nodes.is_empty(), "a fleet needs at least one node");
        let nodes: Vec<FleetNode> = cfg.nodes.iter().cloned().map(FleetNode::new).collect();
        let admission = AdmissionController::new(cfg.admission.clone());
        let planner = DispatchPlanner::new(cfg.placement, nodes.len(), cfg.sharding.as_ref());
        let queue = DispatchQueue::new(cfg.queue.policy);
        let telemetry = Telemetry::new(cfg.telemetry.clone());
        let node_ids = vec![Vec::new(); nodes.len()];
        let pool_class = pool_classes(&nodes);
        Fleet {
            cfg,
            nodes,
            admission,
            planner,
            queue,
            interner: TenantInterner::new(),
            execs: Vec::new(),
            exec_slot: Vec::new(),
            compiled: HashMap::new(),
            pool_class,
            resident_node: Vec::new(),
            node_ids,
            now: SimTime::ZERO,
            capacity_released: true,
            degraded: Vec::new(),
            upgrade_order: Vec::new(),
            telemetry,
            totals: FleetMetricsBuilder::default(),
            event_counts: EventCounts::default(),
        }
    }

    /// The nodes with their resident tenants.
    #[must_use]
    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    /// Tenants waiting for capacity.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Names of the waiting tenants in drain (policy) order.
    #[must_use]
    pub fn queued_names(&self) -> Vec<String> {
        self.queue.names_in_order()
    }

    /// Number of residents currently serving below their requested rate.
    #[must_use]
    pub fn degraded_residents(&self) -> usize {
        self.degraded.iter().flatten().count()
    }

    /// High-water mark of concurrently active tenants across the fleet's
    /// lifetime.
    #[must_use]
    pub fn peak_active_tenants(&self) -> usize {
        self.interner.peak_live()
    }

    /// Tenant-id slots ever allocated. With LIFO recycling this equals
    /// [`Fleet::peak_active_tenants`] — independent of how many tenants
    /// ever streamed through — which is the capacity check the
    /// O(active)-memory claim rests on.
    #[must_use]
    pub fn tenant_id_capacity(&self) -> usize {
        self.interner.capacity()
    }

    /// The admission controller in use.
    #[must_use]
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The shard directory, when sharding is configured.
    #[cfg(test)]
    pub(crate) fn router(&self) -> Option<&crate::shard::ShardDirectory> {
        self.planner.router()
    }

    /// The interned id of an active tenant, if `name` is active.
    pub(crate) fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.interner.lookup(name)
    }

    /// The node a resident tenant lives on (`None` when queued or
    /// unknown).
    pub(crate) fn resident_node_of(&self, id: TenantId) -> Option<usize> {
        self.resident_node.get(id.index()).copied().flatten()
    }

    /// The tenant slot of `id` on node `idx`, by integer scan of the
    /// node's id list.
    pub(crate) fn node_slot(&self, idx: usize, id: TenantId) -> Option<usize> {
        self.node_ids[idx].iter().position(|&x| x == id)
    }

    /// Chooses a node for `tenant` without committing the placement —
    /// the per-arrival hot path the placement benches measure, delegated
    /// to the policy kernel's [`DispatchPlanner::plan`].
    #[must_use]
    pub fn plan(&mut self, tenant: &TenantSpec) -> Option<usize> {
        self.planner
            .plan(&FleetState::new(&self.nodes, &self.admission), tenant)
    }

    /// Plans `tenant` down its re-pricing ladder (kernel
    /// [`DispatchPlanner::plan_repriced`], honouring
    /// [`crate::QueueConfig::repricing`]).
    fn plan_repriced(&mut self, tenant: &TenantSpec) -> Option<PricedPlan> {
        let clock = self.telemetry.span_clock();
        let before = self.planner.probes();
        let plan = self.planner.plan_repriced(
            &FleetState::new(&self.nodes, &self.admission),
            tenant,
            self.cfg.queue.repricing,
        );
        self.telemetry
            .note_plan(self.planner.probes() - before, clock);
        plan
    }

    /// Interns an arriving tenant name and grows the id-indexed side
    /// tables to cover the new slot.
    fn intern(&mut self, name: &str) -> TenantId {
        let id = self.interner.intern(name);
        let slot = id.index();
        if slot >= self.resident_node.len() {
            self.resident_node.resize(slot + 1, None);
            self.degraded.resize(slot + 1, None);
            self.exec_slot.resize(slot + 1, None);
        }
        debug_assert!(
            self.resident_node[slot].is_none()
                && self.degraded[slot].is_none()
                && self.exec_slot[slot].is_none(),
            "recycled id slots start clean"
        );
        id
    }

    /// Releases an id: clears every id-indexed slot and frees the
    /// interner entry for LIFO reuse.
    fn release(&mut self, id: TenantId) {
        let slot = id.index();
        self.resident_node[slot] = None;
        self.degraded[slot] = None;
        debug_assert!(
            self.exec_slot[slot].is_none(),
            "a departing resident left its scheduler first"
        );
        self.interner.release(id);
    }

    /// Makes the tenant resident at the end of node `idx`'s slot list,
    /// keeping the id tables and shard summaries in sync.
    fn commit(&mut self, id: TenantId, idx: usize, tenant: TenantSpec) {
        self.planner.note_place(idx, tenant.demand_sm_equivalents());
        self.attach_resident(idx, id, tenant);
    }

    /// Appends a resident to node `idx`, maintaining the parallel id
    /// list and the id → node index; during an epoch run it also
    /// attaches to the node's scheduler, releasing from now.
    pub(crate) fn attach_resident(&mut self, idx: usize, id: TenantId, tenant: TenantSpec) {
        self.node_ids[idx].push(id);
        self.nodes[idx].push_tenant(tenant);
        self.resident_node[id.index()] = Some(idx);
        self.attach_task(idx, self.node_ids[idx].len() - 1);
    }

    /// Removes the resident at `slot` on node `idx`, returning its id
    /// and spec (the departure and migration paths); during an epoch run
    /// it also detaches from the node's scheduler, which releases nothing
    /// more for it and finishes its job in flight.
    pub(crate) fn detach_resident(&mut self, idx: usize, slot: usize) -> (TenantId, TenantSpec) {
        let id = self.node_ids[idx].remove(slot);
        self.detach_task(idx, id);
        let spec = self.nodes[idx].remove_tenant(slot);
        self.resident_node[id.index()] = None;
        (id, spec)
    }

    /// Epoch runs only: attaches resident `pos` of node `idx` to the
    /// node's scheduler at the current instant, building the scheduler
    /// (seeded by the fleet seed and the node index) on first use.
    fn attach_task(&mut self, idx: usize, pos: usize) {
        if self.execs.is_empty() {
            return;
        }
        let clock = self.telemetry.span_clock();
        self.ensure_compiled(idx, pos);
        let task = Arc::clone(
            self.compiled
                .get(&self.compile_key(&self.nodes[idx].tenants()[pos], idx))
                .expect("invariant: the compile cache was just warmed for this resident"),
        );
        let seed = self.cfg.seed.wrapping_add(idx as u64);
        let spec = &self.nodes[idx].spec;
        let slot = self.execs[idx]
            .get_or_insert_with(|| spec.scheduler(seed))
            .attach(task, self.now);
        self.exec_slot[self.node_ids[idx][pos].index()] = Some(slot);
        self.telemetry.span_end(Span::EpochCompile, clock);
    }

    /// Epoch runs only: detaches resident `id` from node `idx`'s
    /// scheduler at the current instant.
    fn detach_task(&mut self, idx: usize, id: TenantId) {
        if let Some(slot) = self.exec_slot.get_mut(id.index()).and_then(Option::take) {
            self.execs[idx]
                .as_mut()
                .expect("invariant: an attached resident's node has a scheduler")
                .detach(slot, self.now);
        }
    }

    /// Offers `tenant` to the placement policy: on success the tenant
    /// becomes resident; when it does not fit at its requested rate and
    /// re-pricing is on, its [`TenantSpec::fps_ladder`] steps are tried
    /// next (degrade instead of defer); when merely over capacity it
    /// joins the wait queue; when latency-infeasible on every node (at
    /// every admissible price) it is dropped; when its name is already
    /// active it is rejected as a duplicate.
    pub fn dispatch(&mut self, tenant: TenantSpec) -> DispatchOutcome {
        self.dispatch_accounted(tenant).0
    }

    /// [`Self::dispatch`], also handing back the id assigned to an
    /// arrival that became active (placed or queued): the engines'
    /// handle for all further bookkeeping. The arrival path of both
    /// execution engines and of dispatch replay; it records its verdict.
    pub(crate) fn dispatch_accounted(
        &mut self,
        tenant: TenantSpec,
    ) -> (DispatchOutcome, Option<TenantId>) {
        let probes_before = self.planner.probes();
        let outcome = if self.interner.lookup(&tenant.name).is_some() {
            DispatchOutcome::Duplicate
        } else {
            match self.plan_repriced(&tenant) {
                Some(PricedPlan::Full(idx)) => DispatchOutcome::Placed(idx),
                Some(PricedPlan::Degraded(node, fps)) => {
                    DispatchOutcome::PlacedDegraded { node, fps }
                }
                None if policy::queue_feasible(
                    &FleetState::new(&self.nodes, &self.admission),
                    &tenant,
                    self.cfg.queue.repricing,
                ) =>
                {
                    DispatchOutcome::Queued
                }
                None => DispatchOutcome::Infeasible,
            }
        };
        let active = match outcome {
            DispatchOutcome::Placed(idx) => {
                let id = self.intern(&tenant.name);
                self.commit(id, idx, tenant);
                Ok(id)
            }
            DispatchOutcome::PlacedDegraded { node, fps } => {
                let id = self.intern(&tenant.name);
                self.degraded[id.index()] = Some(Degraded::new(tenant.fps));
                self.commit(id, node, tenant.at_fps(fps));
                Ok(id)
            }
            DispatchOutcome::Queued => {
                let id = self.intern(&tenant.name);
                self.queue.push(id, tenant, self.now);
                Ok(id)
            }
            DispatchOutcome::Infeasible | DispatchOutcome::Duplicate => Err(tenant),
        };
        let arrival = Decision::Arrival {
            outcome,
            probes: self.planner.probes() - probes_before,
        };
        match &active {
            Ok(id) => self.record(TenantRef::Id(*id), arrival),
            Err(refused) => self.record(TenantRef::Name(&refused.name), arrival),
        }
        (outcome, active.ok())
    }

    /// Removes the named tenant wherever it lives (node or queue).
    /// Returns `true` when something was removed. Under the uniqueness
    /// contract of [`TenantSpec::name`] (enforced by [`Self::dispatch`])
    /// at most one active tenant can match.
    pub fn remove(&mut self, name: &str) -> bool {
        self.interner
            .lookup(name)
            .and_then(|id| self.remove_accounted(id))
            .is_some()
    }

    /// [`Self::remove`] by interned id, recorded: the departure path of
    /// both execution engines and of dispatch replay. Returns whether
    /// the removed tenant was resident (`false`: it was still queued),
    /// or `None` when nothing was removed.
    pub(crate) fn remove_accounted(&mut self, id: TenantId) -> Option<bool> {
        let (tenant, resident) = if let Some((idx, pos)) = self.locate_id(id) {
            let (_, tenant) = self.detach_resident(idx, pos);
            // A departure frees node capacity: the next drain pass must
            // actually scan the queue again.
            self.capacity_released = true;
            self.planner.invalidate_node(idx);
            (tenant, true)
        } else {
            (self.queue.remove_id(id)?.tenant, false)
        };
        self.release(id);
        self.record(
            TenantRef::Name(&tenant.name),
            Decision::Departure { resident },
        );
        Some(resident)
    }

    /// Retries queued tenants in policy order and returns how many were
    /// admitted; with re-pricing on, leftover capacity then upgrades
    /// degraded residents, as in both engines
    /// ([`Self::drain_and_upgrade_accounted`]).
    pub fn drain_queue(&mut self) -> u64 {
        self.drain_and_upgrade_accounted().len() as u64
    }

    /// Retries queued tenants in policy order, recording each admission,
    /// then (with re-pricing on) lets leftover capacity upgrade degraded
    /// residents: the drain path of both execution engines and of
    /// dispatch replay. The drain stops at the first tenant that still
    /// does not fit (at any admissible price when re-pricing is on), so
    /// the queue stays fair: nothing overtakes within the policy order.
    /// When no node capacity was released since the last pass the scan
    /// is skipped outright — admission is monotone in node load, so a
    /// head that did not fit then cannot fit now. The admissions, with
    /// each one's id, price and wait, are returned for engine-specific
    /// bookkeeping (the event engine starts release clocks from them).
    pub(crate) fn drain_and_upgrade_accounted(&mut self) -> Vec<QueueAdmission> {
        let mut admitted = Vec::new();
        if self.capacity_released {
            let scan_clock = self.telemetry.span_clock();
            while let Some(entry) = self.queue.pop_first() {
                let Some(plan) = self.plan_repriced(&entry.tenant) else {
                    // The head fits at no price: stop (no overtaking) and
                    // put it back — `reinsert` keeps its arrival serial,
                    // so the drain order is unchanged.
                    self.queue.reinsert(entry);
                    break;
                };
                let waited = self.now.duration_since(entry.enqueued_at);
                let id = entry.id;
                let (idx, spec, was_degraded) = match plan {
                    PricedPlan::Full(idx) => (idx, entry.tenant, false),
                    PricedPlan::Degraded(idx, fps) => {
                        self.degraded[id.index()] = Some(Degraded::new(entry.tenant.fps));
                        (idx, entry.tenant.at_fps(fps), true)
                    }
                };
                admitted.push(QueueAdmission {
                    id,
                    degraded: was_degraded,
                    waited,
                    carried_over: entry.carried_over,
                });
                self.commit(id, idx, spec);
            }
            self.telemetry.span_end(Span::DrainScan, scan_clock);
            self.capacity_released = false;
        }
        // Recorded once the scan is done, so each record sees the queue
        // depth the drain left behind.
        for adm in &admitted {
            let admit = Decision::QueueAdmit {
                degraded: adm.degraded,
                waited: adm.waited,
                carried_over: adm.carried_over,
            };
            self.record(TenantRef::Id(adm.id), admit);
        }
        // Leftover capacity steps degraded residents back up their
        // ladders (an in-place partition switch, not a migration) —
        // after waiting admissions: serving more tenants beats serving
        // fewer faster.
        if self.cfg.queue.repricing {
            self.upgrade_degraded();
        }
        admitted
    }

    /// The expiry path of both engines and of dispatch replay: drops and
    /// records queued tenants whose [`TenantSpec::max_wait`] elapsed
    /// (counted as [`FleetMetrics::expired`]). Expired in-run deferrals
    /// fall through to the eventual-rejection count.
    pub(crate) fn expire_accounted(&mut self) {
        for entry in self.queue.take_expired(self.now) {
            self.release(entry.id);
            self.record(TenantRef::Name(&entry.tenant.name), Decision::Expiry);
        }
    }

    /// Tries to move every degraded resident back up its ladder — to the
    /// requested rate if the node now carries it, else to the highest
    /// ladder step that fits ([`policy::upgrade_candidates`] orders the
    /// attempts). Upgrades are in-place partition switches on the
    /// resident node (SGPRS's zero-cost reconfiguration), never
    /// migrations, and run in tenant-name order for determinism (the
    /// order the pre-interning `BTreeMap` walked, so output is
    /// unchanged). Each step taken is recorded. A failed attempt changes
    /// nothing and is not retried until its node's version moves.
    fn upgrade_degraded(&mut self) {
        // Collect (id, requested) in slot order, then sort by name: slot
        // order is deterministic but recycling-dependent; name order is
        // the documented contract. Active names are unique, so an
        // unstable sort gives the same order; the buffer is reused
        // across passes.
        let mut entries = std::mem::take(&mut self.upgrade_order);
        entries.clear();
        entries.extend(
            self.degraded
                .iter()
                .enumerate()
                .filter_map(|(slot, degraded)| {
                    let id = TenantId::from_raw(
                        u32::try_from(slot).expect("invariant: id slots fit in u32"),
                    );
                    degraded.map(|d| (id, d.requested))
                }),
        );
        let interner = &self.interner;
        entries.sort_unstable_by(|a, b| interner.name(a.0).cmp(interner.name(b.0)));
        for &(id, requested) in &entries {
            // Find the resident (it may have migrated since it degraded).
            let Some(idx) = self.resident_node_of(id) else {
                // Defensive: a degraded entry with no resident would mean
                // a removal missed the table; drop it rather than retry
                // forever.
                self.degraded[id.index()] = None;
                continue;
            };
            let version = self.nodes[idx].version();
            if self.degraded[id.index()].and_then(|d| d.failed_at) == Some((idx, version)) {
                continue;
            }
            let pos = self
                .node_slot(idx, id)
                .expect("invariant: resident ids appear in their node's id list");
            // Judge each price against the node as it would be without
            // the resident, leaving the node itself untouched.
            let node = &self.nodes[idx];
            let others = node.aggregates_without(pos);
            let resident = &node.tenants()[pos];
            let upgraded = policy::upgrade_candidates(resident, requested)
                .into_iter()
                .map(|fps| resident.at_fps(fps))
                .find(|priced| {
                    self.admission
                        .evaluate_against(node, &others, priced)
                        .is_admit()
                });
            let Some(priced) = upgraded else {
                if let Some(d) = self.degraded[id.index()].as_mut() {
                    d.failed_at = Some((idx, version));
                }
                continue;
            };
            if (priced.fps - requested).abs() < 1e-12 {
                self.degraded[id.index()] = None;
            }
            let fps = priced.fps;
            // Same slot, so placement order (and migration's LIFO victim
            // choice) is unaffected by the price change — `node_ids` is
            // untouched for the same reason.
            self.nodes[idx].replace_tenant(pos, priced);
            // A re-price is a partition switch: the old price stops
            // releasing now and the new one starts.
            self.detach_task(idx, id);
            self.attach_task(idx, pos);
            self.planner.invalidate_node(idx);
            self.record(TenantRef::Id(id), Decision::Upgrade { fps });
        }
        self.upgrade_order = entries;
    }

    /// The node index and tenant slot of the resident with this id.
    pub(crate) fn locate_id(&self, id: TenantId) -> Option<(usize, usize)> {
        let idx = self.resident_node_of(id)?;
        let pos = self
            .node_slot(idx, id)
            .expect("invariant: resident ids appear in their node's id list");
        Some((idx, pos))
    }

    /// The run's one recording point: folds `decision` about `tenant`
    /// into the run totals and, when armed, the telemetry window and
    /// decision trace — at the current instant and queue depth. Both
    /// engines and every dispatch path record through here, so a
    /// counter cannot drift between them.
    fn record(&mut self, tenant: TenantRef<'_>, decision: Decision) {
        self.totals.record(&decision);
        let name = match tenant {
            TenantRef::Id(id) => self.interner.name(id),
            TenantRef::Name(name) => name,
        };
        self.telemetry
            .record(self.now, name, &decision, self.queue.len());
    }

    /// Records one admission-utilisation sample (demand/budget) of every
    /// node at the current instant, in ascending node index: the epoch
    /// boundary's and the event engine's `Sample`. The budget reads the
    /// node's cached capacity, so an unchanged node costs no fold; at
    /// fleet scale (10k nodes, epoch sampling) folding blindly dominates
    /// the whole run.
    pub(crate) fn sample_utilization(&mut self) {
        for (idx, node) in self.nodes.iter().enumerate() {
            let budget = self.admission.budget(node, None);
            let demand = node.total_demand();
            let utilization = if budget > 0.0 { demand / budget } else { 0.0 };
            self.totals.record_utilization(idx, utilization);
            self.telemetry.record_utilization(self.now, utilization);
        }
    }

    /// The run prologue both engines share: fresh totals and telemetry
    /// for a run until `horizon`, and a new timeline starting at zero.
    /// Waiters carried over from before the run are re-stamped as
    /// enqueued at the start (see [`DispatchQueue::carry_over`]).
    pub(crate) fn open_run(&mut self, horizon: SimDuration) {
        self.totals = FleetMetricsBuilder::new(
            self.nodes.iter().map(|n| n.spec.name.clone()).collect(),
            self.nodes.iter().map(|n| n.spec.gpu.total_sms).collect(),
        );
        self.telemetry.begin_run(self.nodes.len(), horizon);
        self.event_counts = EventCounts::default();
        self.now = SimTime::ZERO;
        self.queue.carry_over(SimTime::ZERO);
    }

    /// The run epilogue both engines share: folds the totals, the end
    /// state, and the telemetry report into the run's [`FleetMetrics`].
    pub(crate) fn close_run(&mut self, horizon: SimDuration) -> FleetMetrics {
        let final_tenants: Vec<usize> = self.nodes.iter().map(|n| n.tenants().len()).collect();
        let mut metrics = std::mem::take(&mut self.totals).finish(
            horizon,
            &final_tenants,
            self.queue.len() as u64,
        );
        metrics.attach_telemetry(self.telemetry.finish_report());
        metrics
    }

    /// Sheds one tenant off node `idx`, both choices delegated to the
    /// policy kernel: the victim, then a destination judged by each
    /// node's miss rate in `dmr`. The destination is chosen while the
    /// victim is still resident ([`policy::migration_destination`] never
    /// reads the source node), so an attempt that finds none leaves the
    /// fleet untouched. Each admission probe reads the node's price
    /// tables, so a repeat search on nodes that have not changed folds
    /// nothing. The move pays `stall` (zero on the epoch path). Either
    /// way the attempt is recorded. Returns the victim and where it
    /// went, or `None` when the node had no victim to give.
    pub(crate) fn migrate_one(
        &mut self,
        idx: usize,
        dmr: &[f64],
        stall: SimDuration,
    ) -> Option<(TenantId, Option<usize>)> {
        let threshold = self.cfg.migration?;
        let slot = policy::select_migration_victim(&self.nodes[idx])?;
        let id = self.node_ids[idx][slot];
        let state = FleetState::new(&self.nodes, &self.admission);
        let victim = &self.nodes[idx].tenants()[slot];
        let dest = policy::migration_destination(&state, idx, dmr, threshold, |j| {
            self.admission.evaluate(&self.nodes[j], victim).is_admit()
        });
        let attempt = Decision::Migration {
            from: idx,
            to: dest,
            stall: dest.map_or(SimDuration::ZERO, |_| stall),
        };
        self.record(TenantRef::Id(id), attempt);
        if let Some(j) = dest {
            let (_, victim) = self.detach_resident(idx, slot);
            self.attach_resident(j, id, victim);
            self.planner.invalidate_node(idx);
            self.planner.invalidate_node(j);
            // The source node freed capacity: a waiter that routed
            // anywhere may now fit there.
            self.capacity_released = true;
        }
        Some((id, dest))
    }

    /// Force-loads a resident onto node `idx`, bypassing admission but
    /// keeping the interner and id tables consistent (tests that build
    /// overload scenarios the dispatcher would refuse).
    #[cfg(test)]
    pub(crate) fn seed_resident(&mut self, idx: usize, tenant: TenantSpec) {
        let id = self.intern(&tenant.name);
        self.attach_resident(idx, id, tenant);
    }

    /// The span profile of the last finished run: per-span call counts
    /// and wall-clock latency histograms (log2 nanosecond buckets) over
    /// the simulator's own hot paths. `None` unless the run was armed
    /// with [`FleetConfig::with_profiling`] — the profiler is never even
    /// constructed on the unarmed path, which is the zero-cost contract
    /// the end-to-end tests pin. Wall-clock is not deterministic, so the
    /// profile lives outside [`FleetMetrics`] and its JSON export.
    #[must_use]
    pub fn span_profile(&self) -> Option<SpanProfile> {
        self.telemetry.span_profile().cloned()
    }

    /// How many times `span` ran in the current (or last) run — or
    /// dispatch replay — counting any direct dispatch calls since.
    /// Always on, whether or not the run was profiled, and
    /// deterministic: a pure function of `(config, trace, horizon)`.
    #[must_use]
    pub fn span_calls(&self, span: Span) -> u64 {
        self.telemetry.span_calls(span)
    }

    /// Events handled by the last run: event-queue pops plus
    /// arrival-stream pulls ([`Span::EventPop`] + [`Span::ArrivalPull`]
    /// calls). Deterministic and always on, so perf benches get an
    /// events/sec denominator without arming the profiler.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.span_calls(Span::EventPop) + self.span_calls(Span::ArrivalPull)
    }

    /// Events the current (or last) run handled, by kind: release,
    /// migrate, queue-expiry and sample pops, plus the arrivals and
    /// departures pulled from the churn stream. All zero for an epoch
    /// run. Always on and deterministic, like [`Self::span_calls`].
    #[must_use]
    pub fn event_counts(&self) -> EventCounts {
        self.event_counts
    }

    /// Cache key of one resident's compiled task on node `node_idx`:
    /// its price point and the node's pool class.
    fn compile_key(
        &self,
        tenant: &TenantSpec,
        node_idx: usize,
    ) -> (crate::ModelKind, usize, u64, usize) {
        (
            tenant.model,
            tenant.stages,
            tenant.period().as_nanos(),
            self.pool_class[node_idx],
        )
    }

    /// Warms the compile cache for resident `pos` of node `node_idx`
    /// (the only part of task preparation that needs `&mut` state).
    fn ensure_compiled(&mut self, node_idx: usize, pos: usize) {
        let key = self.compile_key(&self.nodes[node_idx].tenants()[pos], node_idx);
        if !self.compiled.contains_key(&key) {
            let pool = self.nodes[node_idx].spec.pool();
            // Shared by every tenant at this price point, so it carries
            // none of their names: the node windows' per-task names stay
            // empty, and the fleet folds only their counts.
            let task = self.nodes[node_idx].tenants()[pos].compile_as("", &pool);
            self.compiled.insert(key, Arc::new(task));
        }
    }

    /// Runs the fleet over `arrivals` until `horizon`, returning the
    /// aggregated metrics. Accepts a lazily generated
    /// [`ArrivalStream`] or anything convertible into one (a
    /// [`crate::ChurnTrace`] converts via its sorted event sequence);
    /// the two are byte-identical for the same `(config, horizon,
    /// seed)`, so which one drives a run never shows in the output.
    /// Each occupied node's scheduler lives for the whole run (see the
    /// module docs for the epoch contract).
    ///
    /// # Panics
    ///
    /// Panics if the configured epoch is zero, or — defensively — if a
    /// node left a released frame unresolved once the horizon drained.
    #[must_use]
    pub fn run(
        &mut self,
        arrivals: impl Into<ArrivalStream>,
        horizon: SimDuration,
    ) -> FleetMetrics {
        assert!(!self.cfg.epoch.is_zero(), "epoch must be positive");
        let mut arrivals = arrivals.into();
        let workers = epoch_workers(self.cfg.workers);
        self.open_run(horizon);
        self.execs = (0..self.nodes.len()).map(|_| None).collect();
        // Tenants resident before the run release from time zero.
        for idx in 0..self.nodes.len() {
            for pos in 0..self.nodes[idx].tenants().len() {
                self.attach_task(idx, pos);
            }
        }
        let end = SimTime::ZERO + horizon;
        let mut epoch_start = SimTime::ZERO;
        while epoch_start < end {
            let epoch_end = (epoch_start + self.cfg.epoch).min(end);
            // 1. At the boundary, waiters whose queue deadline elapsed
            // give up first (an expired in-run deferral was never
            // served, so it counts as an eventual rejection); then freed
            // capacity admits waiters and upgrades degraded residents.
            self.now = epoch_start;
            self.expire_accounted();
            let _ = self.drain_and_upgrade_accounted();
            // 2. Churn inside this epoch, each event at its own instant,
            // pulled lazily from the stream. The node schedulers are
            // driven only in step 3, so an attach or detach here takes
            // effect at its instant inside the coming run.
            while self.apply_next_churn(&mut arrivals, epoch_end).is_some() {}
            // 3. Sample utilisation, then run every node's scheduler to
            // the boundary.
            self.now = epoch_end;
            self.sample_utilization();
            let mut epoch_dmr: Vec<f64> = vec![0.0; self.nodes.len()];
            // Nodes are independent between boundaries: fan out, then
            // fold in ascending node-index order so the metrics are
            // bit-identical to the sequential path.
            for (idx, m) in run_node_epochs(&mut self.execs, workers, |n| n.run(epoch_end)) {
                epoch_dmr[idx] = m.dmr;
                self.fold_node_window(idx, &m);
            }
            // 4. Shed load from nodes that missed too much this epoch.
            if let Some(threshold) = self.cfg.migration {
                self.migrate_overloaded(&epoch_dmr, threshold);
            }
            epoch_start = epoch_end;
        }
        // At the horizon releases stop and every job in flight finishes,
        // folded in ascending node-index order like every epoch.
        for (idx, m) in run_node_epochs(&mut self.execs, workers, |n| n.finish(end)) {
            self.fold_node_window(idx, &m);
        }
        for idx in 0..self.nodes.len() {
            assert_eq!(
                self.totals.open_frames(idx),
                0,
                "node {idx}: released = completed + skipped once the horizon drained"
            );
        }
        self.execs = Vec::new();
        self.exec_slot.fill(None);
        self.close_run(horizon)
    }

    /// Pulls the stream's next event before `until` and applies it at
    /// its instant through the recorded dispatch or removal path.
    /// Returns `None` once the stream has nothing before `until`, else
    /// whether the event was a departure.
    fn apply_next_churn(&mut self, arrivals: &mut ArrivalStream, until: SimTime) -> Option<bool> {
        arrivals.peek_time().filter(|&at| at < until)?;
        let pull_clock = self.telemetry.span_clock();
        let (at, event) = arrivals
            .next_event()
            .expect("invariant: a peeked stream event exists");
        self.telemetry.span_end(Span::ArrivalPull, pull_clock);
        self.now = at;
        Some(match event {
            ChurnEvent::Arrival(tenant) => {
                let _ = self.dispatch_accounted(tenant);
                false
            }
            ChurnEvent::Departure(name) => {
                if let Some(id) = self.interner.lookup(&name) {
                    let _ = self.remove_accounted(id);
                }
                true
            }
        })
    }

    /// Folds one node's scheduler window into the run totals and, when
    /// armed, the node's latency sketch.
    fn fold_node_window(&mut self, idx: usize, m: &RunMetrics) {
        self.totals.record_epoch(idx, m);
        self.telemetry
            .record_latency_samples(idx, &m.response_samples_ns);
    }

    /// Runs the fleet over `arrivals` until `horizon` in **event-driven**
    /// mode, returning the aggregated metrics.
    ///
    /// Where [`Fleet::run`] steps the paper's schedulers on the epoch
    /// grid, this path runs fluid nodes off a monotonic event queue (see
    /// [`crate::event`] for the ordering/determinism contract): every
    /// frame is decided at its release, so none is left open and
    /// [`FleetMetrics::truncated_jobs`] is zero; departures apply at
    /// their exact instant, and DMR-triggered migration fires at
    /// job-release boundaries, paying a fixed 100 ms state-transfer
    /// stall — while
    /// re-pricing degrade/upgrade switches stay free partition switches.
    /// Churn is merged lazily from the stream, never materialised into
    /// the heap. The run is single-threaded and deterministic:
    /// [`FleetConfig::workers`] has no effect, so the metrics are
    /// byte-identical across worker counts;
    /// sharding steers placement exactly as on the epoch path
    /// (deterministic per configuration, identical to flat only for a
    /// whole-fleet shard).
    ///
    /// # Panics
    ///
    /// Panics if the configured epoch is zero (it paces utilisation
    /// sampling and the migration DMR window).
    #[must_use]
    pub fn run_events(
        &mut self,
        arrivals: impl Into<ArrivalStream>,
        horizon: SimDuration,
    ) -> FleetMetrics {
        crate::event::run_events(self, arrivals.into(), horizon)
    }

    /// Runs `arrivals` in whichever execution mode the configuration
    /// selects: [`Fleet::run_events`] when
    /// [`FleetConfig::event_driven`] is set, the classic epoch-driven
    /// [`Fleet::run`] otherwise.
    #[must_use]
    pub fn run_configured(
        &mut self,
        arrivals: impl Into<ArrivalStream>,
        horizon: SimDuration,
    ) -> FleetMetrics {
        if self.cfg.event_driven {
            self.run_events(arrivals, horizon)
        } else {
            self.run(arrivals, horizon)
        }
    }

    /// Replays `arrivals` until `horizon` through the dispatch path
    /// alone — a run with no executor: the same recorded dispatch,
    /// removal, expiry, drain and (with re-pricing on) upgrade paths as
    /// both engines, but no scheduler runs, so no frame is released and
    /// no utilisation is sampled. This is the sustained-throughput
    /// surface the `fleet_stream` bench measures (arrivals/sec through
    /// dispatch at fleet scale). Departure instants apply exactly; each
    /// departure is followed by an expiry sweep and a queue drain so the
    /// wait queue stays bounded over arbitrarily long streams.
    ///
    /// After a replay, [`Self::peak_active_tenants`] and
    /// [`Self::tenant_id_capacity`] are the memory evidence: with LIFO
    /// id recycling the two are equal and independent of how many
    /// tenants streamed through.
    #[must_use]
    pub fn replay_dispatch(
        &mut self,
        arrivals: impl Into<ArrivalStream>,
        horizon: SimDuration,
    ) -> FleetMetrics {
        let mut arrivals = arrivals.into();
        self.open_run(horizon);
        while let Some(departed) = self.apply_next_churn(&mut arrivals, SimTime::ZERO + horizon) {
            if departed {
                self.expire_accounted();
                let _ = self.drain_and_upgrade_accounted();
            }
        }
        self.close_run(horizon)
    }

    /// Moves one tenant off every node whose epoch miss rate crossed
    /// the threshold, if another node admits it ([`Self::migrate_one`]).
    /// The epoch path models migration as free (its pre-existing
    /// contract), so the move stalls nothing.
    fn migrate_overloaded(&mut self, epoch_dmr: &[f64], threshold: f64) {
        for (idx, &dmr) in epoch_dmr.iter().enumerate() {
            if dmr > threshold && self.nodes[idx].tenants().len() >= 2 {
                self.migrate_one(idx, epoch_dmr, SimDuration::ZERO);
            }
        }
    }
}

/// The pool class of each node: the index of the first node whose
/// [`crate::NodeSpec::pool`] equals its own. Compares the fields
/// `pool()` reads (contexts, effective `os`, device), so no pool is
/// materialised; each node is checked against one representative per
/// class found so far, and a fleet has a handful of device types.
fn pool_classes(nodes: &[FleetNode]) -> Vec<usize> {
    let same_pool = |a: &crate::NodeSpec, b: &crate::NodeSpec| {
        a.contexts == b.contexts
            && a.scheduler.oversubscription() == b.scheduler.oversubscription()
            && a.gpu == b.gpu
    };
    let mut classes: Vec<usize> = Vec::new();
    nodes
        .iter()
        .enumerate()
        .map(|(idx, node)| {
            let known = classes
                .iter()
                .copied()
                .find(|&class| same_pool(&nodes[class].spec, &node.spec));
            known.unwrap_or_else(|| {
                classes.push(idx);
                idx
            })
        })
        .collect()
}

/// Worker-thread count for the per-epoch fan-out: the override, or
/// every available core.
fn epoch_workers(over: Option<usize>) -> usize {
    over.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Applies `step` to every node scheduler of `execs` and returns `(node
/// index, metrics)` pairs sorted by node index, so folding them is
/// deterministic regardless of the execution strategy. With more than
/// one worker, the calling thread and `workers − 1` scoped threads take
/// nodes from a shared iterator until none is left: node costs are
/// uneven (SM counts and resident counts vary), so whoever finishes
/// early takes the next node. Each node is borrowed `&mut` by exactly
/// one worker.
fn run_node_epochs<F>(
    execs: &mut [Option<Scheduler>],
    workers: usize,
    step: F,
) -> Vec<(usize, RunMetrics)>
where
    F: Fn(&mut Scheduler) -> RunMetrics + Sync,
{
    let occupied = execs.iter().flatten().count();
    let workers = workers.min(occupied);
    let mut nodes = execs
        .iter_mut()
        .enumerate()
        .filter_map(|(idx, exec)| exec.as_mut().map(|exec| (idx, exec)));
    let mut results: Vec<(usize, RunMetrics)> = if workers <= 1 {
        nodes.map(|(idx, exec)| (idx, step(exec))).collect()
    } else {
        let queue = Mutex::new(&mut nodes);
        // Each worker's list has room for every node up front, so the
        // fan-out's allocations do not depend on how thread timing
        // splits the nodes (the allocation counts repeat exactly).
        let pull = || {
            let mut done = Vec::with_capacity(occupied);
            loop {
                let next = queue
                    .lock()
                    .expect("invariant: the node queue's lock is held only to take a node")
                    .next();
                let Some((idx, exec)) = next else {
                    return done;
                };
                done.push((idx, step(exec)));
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(pull)).collect();
            let mut done = pull();
            for handle in handles {
                done.extend(
                    handle
                        .join()
                        .expect("invariant: node epoch workers never panic"),
                );
            }
            done
        })
    };
    results.sort_by_key(|&(idx, _)| idx);
    results
}

#[cfg(test)]
mod tests;
