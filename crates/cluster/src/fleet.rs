//! The fleet dispatcher: epoch-driven simulation of many GPU nodes under
//! tenant churn.
//!
//! This file is **orchestration only**. Every decision — admission and
//! placement planning (flat, shard-scan, or power-of-two-choices), the
//! re-pricing ladder walk, queue feasibility and demand-aware expiry,
//! upgrade candidates, and migration victim/destination choice — lives
//! in the shared [`crate::policy`] kernel, consumed identically by this
//! epoch path and the event engine ([`crate::event`]). Configuration
//! lives in [`crate::config`]. What remains here is the epoch loop and
//! what both engines share:
//!
//! * the dispatch, departure, drain/upgrade, expiry, and migration
//!   paths (the `*_accounted` methods and `migrate_one`);
//! * the run prologue and epilogue (`open_run` / `close_run`);
//! * the one recording point, `record`, through which every decision
//!   reaches the run totals ([`FleetMetricsBuilder`]) and, when armed,
//!   the telemetry window and trace — one fold of one
//!   [`crate::DispatchCounts`] block, so no counter can drift between
//!   engines or between the totals and the time-series.
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
//! Simulated time is divided into *epochs*. At each epoch boundary the
//! dispatcher applies churn events (arrivals are planned through the
//! policy kernel; departures free capacity, expire overdue waiters, and
//! drain the wait queue in [`crate::QueuePolicy`] order), then every
//! non-empty node runs its scheduler for one epoch and reports
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
//! Granularity contract: arrivals keep sub-epoch precision (they enter
//! as release phases inside their first epoch); departures and
//! migrations take effect at the epoch boundary *following* the event,
//! so a departing tenant serves out its final partial epoch. Jobs still
//! in flight when an epoch ends are not counted as completed — with the
//! default one-second epoch and the paper's 33 ms periods this
//! truncation is under 3 % and affects every scheduler equally; the
//! count is surfaced as [`FleetMetrics::truncated_jobs`]. The
//! event-driven mode ([`Fleet::run_events`], see [`crate::event`])
//! removes the grid entirely: exact boundaries, zero truncation, and
//! migration at job-release boundaries paying a fixed 100 ms
//! state-transfer stall.
//!
//! Parallel-execution determinism: within one epoch the nodes are
//! mutually independent — they share no simulator state, their compiled
//! tasks are prepared before any node runs, and each node's jitter seed
//! is a pure function of `(fleet seed, epoch index, node index)`. `run`
//! therefore fans the per-node `run_epoch` calls out over scoped worker
//! threads, which pull node jobs from a shared cursor, and folds the
//! results back in ascending node index, so the
//! resulting [`FleetMetrics`] is bit-identical to sequential execution
//! (`with_workers(1)` is the escape hatch): parallelism
//! changes wall-clock time, never results.

use crate::event::EventCounts;
use crate::interner::{TenantId, TenantInterner};
use crate::metrics::Decision;
use crate::policy::{self, DispatchPlanner, FleetState, PricedPlan, QueueAdmission};
use crate::queue::DispatchQueue;
use crate::telemetry::{Span, SpanProfile, Telemetry};
use crate::{
    AdmissionController, ArrivalStream, ChurnEvent, DispatchCounts, FleetConfig, FleetMetrics,
    FleetMetricsBuilder, FleetNode, TenantSpec,
};
use sgprs_core::{CompiledTask, RunMetrics};
use sgprs_rt::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Counters from a dispatch-only replay ([`Fleet::replay_dispatch`]):
/// the dispatch outcomes plus the interner's memory evidence.
#[derive(Debug, Default, Clone)]
pub struct DispatchReplay {
    /// Arrivals, placements, deferrals, departures, patience expiries,
    /// and drain admissions. Replay drains without re-pricing upgrades
    /// or demand-aware expiry, so those counters stay zero.
    pub counts: DispatchCounts,
    /// High-water mark of concurrently active tenants.
    pub peak_active: usize,
    /// Tenant-id slots ever allocated — with LIFO recycling this equals
    /// `peak_active`, **not** the number of tenants streamed: the
    /// trace-length-independent memory bound.
    pub id_capacity: usize,
    /// Tenants still active when the replay ended.
    pub final_active: usize,
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
    /// Sub-epoch release phase of tenants that arrived mid-epoch,
    /// id-indexed, consumed by the next `run_epoch`.
    pending_phase: Vec<Option<SimDuration>>,
    /// Compiled-task cache keyed by (model, stages, period ns, pool
    /// class). Compiling reads only the node's context pool, so every
    /// node of one pool class shares one entry per price point.
    compiled: HashMap<(crate::ModelKind, usize, u64, usize), CompiledTask>,
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
    /// Per-node admission verdicts of migration candidates, keyed by
    /// price point `(model, stages, fps bits)` and valid while the
    /// node's version matches: a destination search on an unchanged
    /// fleet re-asks nothing.
    migration_verdicts: Vec<Vec<MigrationVerdict>>,
    /// Memoised [`policy::can_ever_fit`] answers per price point
    /// `(model, stages, fps bits)` — the answer is load-independent, so
    /// demand-aware expiry sweeps cost one map lookup per queued waiter
    /// after the first.
    hopeless_cache: HashMap<(crate::ModelKind, usize, u64), bool>,
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

/// One memoised admission verdict: a price point, the node version it
/// was judged at, and whether the node admitted it.
type MigrationVerdict = ((crate::ModelKind, usize, u64), u64, bool);

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
        let migration_verdicts = vec![Vec::new(); nodes.len()];
        let pool_class = pool_classes(&nodes);
        Fleet {
            cfg,
            nodes,
            admission,
            planner,
            queue,
            interner: TenantInterner::new(),
            pending_phase: Vec::new(),
            compiled: HashMap::new(),
            pool_class,
            resident_node: Vec::new(),
            node_ids,
            now: SimTime::ZERO,
            capacity_released: true,
            degraded: Vec::new(),
            upgrade_order: Vec::new(),
            migration_verdicts,
            hopeless_cache: HashMap::new(),
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
            self.pending_phase.resize(slot + 1, None);
        }
        debug_assert!(
            self.resident_node[slot].is_none()
                && self.degraded[slot].is_none()
                && self.pending_phase[slot].is_none(),
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
        self.pending_phase[slot] = None;
        self.interner.release(id);
    }

    /// Makes the tenant resident at the end of node `idx`'s slot list,
    /// keeping the id tables and shard summaries in sync.
    fn commit(&mut self, id: TenantId, idx: usize, tenant: TenantSpec) {
        self.planner.note_place(idx, tenant.demand_sm_equivalents());
        self.attach_resident(idx, id, tenant);
    }

    /// Appends a resident to node `idx`, maintaining the parallel id
    /// list and the id → node index.
    pub(crate) fn attach_resident(&mut self, idx: usize, id: TenantId, tenant: TenantSpec) {
        self.node_ids[idx].push(id);
        self.nodes[idx].push_tenant(tenant);
        self.resident_node[id.index()] = Some(idx);
    }

    /// Removes the resident at `slot` on node `idx`, returning its id
    /// and spec (the departure and migration paths).
    pub(crate) fn detach_resident(&mut self, idx: usize, slot: usize) -> (TenantId, TenantSpec) {
        let id = self.node_ids[idx].remove(slot);
        let spec = self.nodes[idx].remove_tenant(slot);
        self.resident_node[id.index()] = None;
        (id, spec)
    }

    /// Offers `tenant` to the placement policy: on success the tenant
    /// becomes resident; when it does not fit at its requested rate and
    /// re-pricing is on, its [`TenantSpec::fps_ladder`] steps are tried
    /// next (degrade instead of defer); when merely over capacity it
    /// joins the wait queue; when latency-infeasible on every node (at
    /// every admissible price) it is dropped; when its name is already
    /// active it is rejected as a duplicate.
    pub fn dispatch(&mut self, tenant: TenantSpec) -> DispatchOutcome {
        self.dispatch_interned(tenant).0
    }

    /// [`Self::dispatch`], also handing back the id assigned to an
    /// arrival that became active (placed or queued) — the engines'
    /// handle for all further bookkeeping — or the spec it refused.
    fn dispatch_interned(
        &mut self,
        tenant: TenantSpec,
    ) -> (DispatchOutcome, Result<TenantId, TenantSpec>) {
        if self.interner.lookup(&tenant.name).is_some() {
            return (DispatchOutcome::Duplicate, Err(tenant));
        }
        match self.plan_repriced(&tenant) {
            Some(PricedPlan::Full(idx)) => {
                let id = self.intern(&tenant.name);
                self.commit(id, idx, tenant);
                return (DispatchOutcome::Placed(idx), Ok(id));
            }
            Some(PricedPlan::Degraded(idx, fps)) => {
                let id = self.intern(&tenant.name);
                self.degraded[id.index()] = Some(Degraded::new(tenant.fps));
                self.commit(id, idx, tenant.at_fps(fps));
                return (DispatchOutcome::PlacedDegraded { node: idx, fps }, Ok(id));
            }
            None => {}
        }
        let feasible = policy::queue_feasible(
            &FleetState::new(&self.nodes, &self.admission),
            &tenant,
            self.cfg.queue.repricing,
        );
        if feasible {
            let id = self.intern(&tenant.name);
            self.queue.push(id, tenant, self.now);
            (DispatchOutcome::Queued, Ok(id))
        } else {
            (DispatchOutcome::Infeasible, Err(tenant))
        }
    }

    /// [`Self::dispatch`] plus its recording: the arrival path of both
    /// execution engines. Returns the id of an arrival that became
    /// active.
    pub(crate) fn dispatch_accounted(
        &mut self,
        tenant: TenantSpec,
    ) -> (DispatchOutcome, Option<TenantId>) {
        let probes_before = self.planner.probes();
        let (outcome, active) = self.dispatch_interned(tenant);
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
        match self.interner.lookup(name) {
            Some(id) => self.remove_id(id).is_some(),
            None => false,
        }
    }

    /// [`Self::remove`] by interned id: returns the removed spec and
    /// whether it was resident (`false`: it was still queued).
    fn remove_id(&mut self, id: TenantId) -> Option<(TenantSpec, bool)> {
        if let Some((idx, pos)) = self.locate_id(id) {
            let (_, tenant) = self.detach_resident(idx, pos);
            self.release(id);
            // A departure frees node capacity: the next drain pass must
            // actually scan the queue again.
            self.capacity_released = true;
            self.planner.invalidate_node(idx);
            return Some((tenant, true));
        }
        let entry = self.queue.remove_id(id)?;
        self.release(id);
        Some((entry.tenant, false))
    }

    /// [`Self::remove_id`] plus its recording: the departure path of
    /// both execution engines. Returns whether the removed tenant was
    /// resident, or `None` when nothing was removed.
    pub(crate) fn remove_accounted(&mut self, id: TenantId) -> Option<bool> {
        let (tenant, resident) = self.remove_id(id)?;
        self.record(
            TenantRef::Name(&tenant.name),
            Decision::Departure { resident },
        );
        Some(resident)
    }

    /// Retries queued tenants in policy order; returns how many were
    /// admitted. Stops at the first tenant that still does not fit (at
    /// any admissible price when re-pricing is on), so the queue stays
    /// fair: nothing overtakes within the policy order. When no node
    /// capacity was released since the last pass the scan is skipped
    /// outright — admission is monotone in node load, so a head that did
    /// not fit then cannot fit now.
    pub fn drain_queue(&mut self) -> u64 {
        self.drain_queue_admissions().len() as u64
    }

    /// [`Self::drain_queue`], reporting each admission's id, price, and
    /// wait so the engines can attribute it to the right deferral.
    pub(crate) fn drain_queue_admissions(&mut self) -> Vec<QueueAdmission> {
        let mut admitted = Vec::new();
        if !self.capacity_released {
            return admitted;
        }
        let scan_clock = self.telemetry.span_clock();
        while let Some(entry) = self.queue.pop_first() {
            let Some(plan) = self.plan_repriced(&entry.tenant) else {
                // The head fits at no price: stop (no overtaking) and put
                // it back — `reinsert` keeps its arrival serial, so the
                // drain order is unchanged.
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
        admitted
    }

    /// Drains the wait queue, recording each admission, and (with
    /// re-pricing on) lets leftover capacity upgrade degraded residents:
    /// the drain path of both execution engines. The admissions are
    /// returned for engine-specific bookkeeping (the event engine starts
    /// release clocks from them).
    pub(crate) fn drain_and_upgrade_accounted(&mut self) -> Vec<QueueAdmission> {
        let admissions = self.drain_queue_admissions();
        for adm in &admissions {
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
        admissions
    }

    /// Drops queued tenants whose [`TenantSpec::max_wait`] elapsed,
    /// returning their names.
    fn expire_queued(&mut self) -> Vec<String> {
        let expired = self.queue.take_expired(self.now);
        expired
            .into_iter()
            .map(|e| {
                self.release(e.id);
                e.tenant.name
            })
            .collect()
    }

    /// Memoised [`policy::can_ever_fit`] per price point: the answer is
    /// load-independent (it tests against *emptied* nodes) and ignores
    /// the tenant's name and patience, so one evaluation per
    /// `(model, stages, fps)` serves the whole run and a cache miss only
    /// builds a throwaway probe spec.
    fn price_can_ever_fit(&mut self, model: crate::ModelKind, stages: usize, fps: f64) -> bool {
        let key = (model, stages, fps.to_bits());
        if let Some(&known) = self.hopeless_cache.get(&key) {
            return known;
        }
        let probe = TenantSpec::new("hopeless-probe", model, fps).with_stages(stages);
        let fits = policy::can_ever_fit(&FleetState::new(&self.nodes, &self.admission), &probe);
        self.hopeless_cache.insert(key, fits);
        fits
    }

    /// Demand-aware expiry sweep ([`crate::QueueConfig::demand_aware_expiry`]):
    /// drops queued tenants that provably can never be admitted — no
    /// node could carry them even fully drained, at any ladder step —
    /// and returns their names. Waiting longer can never help
    /// such a waiter, so expiring it before its patience elapses loses
    /// nothing. Only the price points matter, so the sweep collects
    /// cheap `(id, price…)` keys instead of cloning whole specs.
    fn expire_hopeless(&mut self) -> Vec<String> {
        if self.queue.len() == 0 {
            return Vec::new();
        }
        let repricing = self.cfg.queue.repricing;
        let waiters: Vec<(TenantId, crate::ModelKind, usize, Vec<f64>)> = self
            .queue
            .entries()
            .map(|e| {
                let t = &e.tenant;
                let mut prices = vec![t.fps];
                if repricing {
                    prices.extend(t.degrade_steps());
                }
                (e.id, t.model, t.stages, prices)
            })
            .collect();
        let mut doomed = Vec::new();
        for (id, model, stages, prices) in waiters {
            let fits = prices
                .iter()
                .any(|&fps| self.price_can_ever_fit(model, stages, fps));
            if !fits {
                doomed.push(id);
            }
        }
        doomed
            .into_iter()
            .map(|id| {
                let entry = self
                    .queue
                    .remove_id(id)
                    .expect("invariant: hopeless waiters are still queued");
                self.release(id);
                entry.tenant.name
            })
            .collect()
    }

    /// The expiry path both engines run at their expiry instants:
    /// patience expiry first (counted as [`FleetMetrics::expired`]),
    /// then — with [`crate::QueueConfig::demand_aware_expiry`] on — the
    /// provably-hopeless sweep (counted separately as
    /// [`FleetMetrics::expired_hopeless`]). Expired in-run deferrals
    /// fall through to the eventual-rejection count either way.
    pub(crate) fn expire_accounted(&mut self) {
        for name in self.expire_queued() {
            self.record(TenantRef::Name(&name), Decision::Expiry { hopeless: false });
        }
        if self.cfg.queue.demand_aware_expiry {
            for name in self.expire_hopeless() {
                self.record(TenantRef::Name(&name), Decision::Expiry { hopeless: true });
            }
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

    /// Records one admission-utilisation sample (demand/budget) of node
    /// `idx` at the current instant.
    pub(crate) fn record_utilization(&mut self, idx: usize, utilization: f64) {
        self.totals.record_utilization(idx, utilization);
        self.telemetry.record_utilization(self.now, utilization);
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
    /// fleet untouched. Each node's admission verdict is memoised per
    /// price point and node version, so a repeat search on nodes that
    /// have not changed evaluates nothing. The move pays `stall` (zero
    /// on the epoch path). Either way the attempt is recorded. Returns the victim and where
    /// it went, or `None` when the node had no victim to give.
    pub(crate) fn migrate_one(
        &mut self,
        idx: usize,
        dmr: &[f64],
        stall: SimDuration,
    ) -> Option<(TenantId, Option<usize>)> {
        let threshold = self.cfg.migration?;
        let slot = policy::select_migration_victim(&self.nodes[idx])?;
        let id = self.node_ids[idx][slot];
        let nodes = &self.nodes;
        let admission = &self.admission;
        let verdicts = &mut self.migration_verdicts;
        let victim = &nodes[idx].tenants()[slot];
        let price = (victim.model, victim.stages, victim.fps.to_bits());
        let dest = policy::migration_destination(
            &FleetState::new(nodes, admission),
            idx,
            dmr,
            threshold,
            |j| {
                let version = nodes[j].version();
                let memo = &mut verdicts[j];
                match memo.iter_mut().find(|(p, _, _)| *p == price) {
                    Some((_, judged_at, admits)) if *judged_at == version => *admits,
                    stale => {
                        let admits = admission.evaluate(&nodes[j], victim).is_admit();
                        match stale {
                            Some(entry) => *entry = (price, version, admits),
                            None => memo.push((price, version, admits)),
                        }
                        admits
                    }
                }
            },
        );
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
            let task = self.nodes[node_idx].tenants()[pos].compile_for(&pool);
            self.compiled.insert(key, task);
        }
    }

    /// Runs the fleet over `arrivals` until `horizon`, returning the
    /// aggregated metrics. Accepts a lazily generated
    /// [`ArrivalStream`] or anything convertible into one (a
    /// [`crate::ChurnTrace`] converts via its sorted event sequence);
    /// the two are byte-identical for the same `(config, horizon,
    /// seed)`, so which one drives a run never shows in the output.
    ///
    /// # Panics
    ///
    /// Panics if the configured epoch is zero.
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
        let mut epoch_start = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        let mut epoch_index = 0u64;
        // Departures observed mid-epoch, applied at the *next* epoch
        // boundary (the granularity contract: a departing tenant serves
        // out its final partial epoch).
        let mut deferred_departures: Vec<String> = Vec::new();
        while epoch_start < end {
            let epoch_len = self.cfg.epoch.min(end.duration_since(epoch_start));
            let epoch_end = epoch_start + epoch_len;
            // 1a. Apply departures from the previous epoch.
            self.now = epoch_start;
            for name in deferred_departures.drain(..) {
                if let Some(id) = self.interner.lookup(&name) {
                    let _ = self.remove_accounted(id);
                }
            }
            // Waiters whose queue deadline elapsed give up first; an
            // expired in-run deferral was never served, so it counts as
            // an eventual rejection.
            self.expire_accounted();
            // The departures may have freed room for queued tenants;
            // the shared path records admissions and upgrades.
            let _ = self.drain_and_upgrade_accounted();
            // 1b. Apply churn falling inside this epoch, pulled lazily
            // from the stream — only the departures of currently-live
            // tenants are ever buffered, never the whole trace.
            while let Some(at) = arrivals.peek_time() {
                if at >= epoch_end {
                    break;
                }
                let pull_clock = self.telemetry.span_clock();
                let (at, event) = arrivals
                    .next_event()
                    .expect("invariant: a peeked stream event exists");
                self.telemetry.span_end(Span::ArrivalPull, pull_clock);
                match event {
                    ChurnEvent::Arrival(tenant) => {
                        let phase = at.duration_since(epoch_start);
                        self.now = at;
                        let (outcome, id) = self.dispatch_accounted(tenant);
                        match outcome {
                            DispatchOutcome::Placed(_) | DispatchOutcome::PlacedDegraded { .. } => {
                                let id = id.expect("invariant: placed arrivals are interned");
                                self.pending_phase[id.index()] = Some(phase);
                            }
                            _ => {}
                        }
                    }
                    ChurnEvent::Departure(name) => deferred_departures.push(name),
                }
            }
            self.now = epoch_end;
            // 2. Sample utilisation and prepare each non-empty node's
            // compiled tasks. Preparation needs `&mut self` (the compile
            // cache), so it runs before the fan-out, which only reads
            // `&self.nodes`.
            let mut epoch_dmr: Vec<f64> = vec![0.0; self.nodes.len()];
            let mut jobs: Vec<NodeEpochJob> = Vec::new();
            let compile_clock = self.telemetry.span_clock();
            // Indexing (not iterating `self.nodes`) because the cache
            // warm-up needs `&mut self` for the compiled-task cache.
            #[allow(clippy::needless_range_loop)]
            for idx in 0..self.nodes.len() {
                let budget = self.admission.budget(&self.nodes[idx], None);
                let demand = self.nodes[idx].total_demand();
                let utilization = if budget > 0.0 { demand / budget } else { 0.0 };
                self.record_utilization(idx, utilization);
                if self.nodes[idx].tenants().is_empty() {
                    continue;
                }
                // Warm the compile cache first (the only `&mut` part),
                // then build the tasks borrowing the resident list in
                // place — no per-epoch clone of the node's tenant and id
                // lists (each task clones only its own cached spec).
                for pos in 0..self.nodes[idx].tenants().len() {
                    self.ensure_compiled(idx, pos);
                }
                let tasks: Vec<CompiledTask> = self.nodes[idx]
                    .tenants()
                    .iter()
                    .zip(&self.node_ids[idx])
                    .map(|(t, &id)| {
                        let mut task = self
                            .compiled
                            .get(&self.compile_key(t, idx))
                            .expect("invariant: the compile cache was warmed for every resident")
                            .clone();
                        task.spec.name = t.name.clone();
                        task.spec.phase = self
                            .pending_phase
                            .get(id.index())
                            .copied()
                            .flatten()
                            .unwrap_or(SimDuration::ZERO);
                        task
                    })
                    .collect();
                let seed = self
                    .cfg
                    .seed
                    .wrapping_add(epoch_index.wrapping_mul(0x9E37_79B9))
                    .wrapping_add(idx as u64);
                jobs.push(NodeEpochJob { idx, tasks, seed });
            }
            self.pending_phase.fill(None);
            self.telemetry.span_end(Span::EpochCompile, compile_clock);
            // Nodes are independent within an epoch: fan out, then fold
            // in ascending node index so the metrics are bit-identical
            // to the sequential path.
            for (idx, m) in run_node_epochs(&self.nodes, jobs, epoch_len, workers) {
                if m.released > 0 {
                    epoch_dmr[idx] = (m.late + m.skipped + m.dropped) as f64 / m.released as f64;
                }
                self.totals.record_epoch(idx, &m);
                // Fold order is ascending node index (sorted above), so
                // the latency sketches fill deterministically regardless
                // of the worker count.
                self.telemetry
                    .record_latency_samples(idx, &m.response_samples_ns);
            }
            // 3. Shed load from nodes that missed too much this epoch.
            if let Some(threshold) = self.cfg.migration {
                self.migrate_overloaded(&epoch_dmr, threshold);
            }
            epoch_start = epoch_end;
            epoch_index += 1;
        }
        // Departures whose boundary is the end of the run still count.
        for name in deferred_departures.drain(..) {
            if let Some(id) = self.interner.lookup(&name) {
                let _ = self.remove_accounted(id);
            }
        }
        self.close_run(horizon)
    }

    /// Runs the fleet over `arrivals` until `horizon` in **event-driven**
    /// mode, returning the aggregated metrics.
    ///
    /// Where [`Fleet::run`] quantises to the epoch grid, this path
    /// processes a monotonic event queue (see [`crate::event`] for the
    /// ordering/determinism contract): scheduler state carries across
    /// what used to be epoch boundaries so no in-flight job is ever
    /// truncated ([`FleetMetrics::truncated_jobs`] is asserted zero),
    /// departures apply at their exact instant, and DMR-triggered
    /// migration fires at job-release boundaries, paying a fixed 100 ms
    /// state-transfer stall — while
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
    /// sampling and the migration DMR window), or — defensively — if any
    /// admitted job failed to run to completion.
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

    /// Replays `arrivals` through the dispatch path alone — plan,
    /// commit, remove, expire, drain — with no scheduler execution and
    /// no metrics builder: the sustained-throughput surface the
    /// `fleet_stream` bench measures (arrivals/sec through dispatch at
    /// fleet scale). Departure instants apply exactly; each departure is
    /// followed by a patience-expiry sweep and a queue drain so the
    /// wait queue stays bounded over arbitrarily long streams.
    ///
    /// The returned [`DispatchReplay`] carries the interner's
    /// `peak_active` / `id_capacity` counters: with LIFO id recycling
    /// the two are equal and independent of how many tenants streamed
    /// through, which is the trace-length-independent memory evidence.
    #[must_use]
    pub fn replay_dispatch(
        &mut self,
        arrivals: impl Into<ArrivalStream>,
        horizon: SimDuration,
    ) -> DispatchReplay {
        let mut arrivals = arrivals.into();
        let end = SimTime::ZERO + horizon;
        self.now = SimTime::ZERO;
        self.telemetry.begin_profile();
        let mut replay = DispatchReplay::default();
        loop {
            let pull_clock = self.telemetry.span_clock();
            let Some((at, event)) = arrivals.next_event() else {
                break;
            };
            self.telemetry.span_end(Span::ArrivalPull, pull_clock);
            if at >= end {
                break;
            }
            self.now = at;
            let counts = &mut replay.counts;
            match event {
                ChurnEvent::Arrival(tenant) => counts.record_arrival(&self.dispatch(tenant)),
                ChurnEvent::Departure(name) => {
                    counts.departures += u64::from(self.remove(&name));
                    counts.expired += self.expire_queued().len() as u64;
                    counts.admitted_after_wait += self.drain_queue();
                }
            }
        }
        replay.peak_active = self.interner.peak_live();
        replay.id_capacity = self.interner.capacity();
        replay.final_active = self.interner.live();
        self.telemetry.finish_profile();
        replay
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

/// One node's prepared work for an epoch: the compiled tasks (with their
/// release phases applied) and the node's jitter seed.
struct NodeEpochJob {
    idx: usize,
    tasks: Vec<CompiledTask>,
    seed: u64,
}

impl NodeEpochJob {
    fn run(self, nodes: &[FleetNode], epoch_len: SimDuration) -> (usize, RunMetrics) {
        let m = nodes[self.idx]
            .spec
            .run_epoch(self.tasks, epoch_len, self.seed);
        (self.idx, m)
    }
}

/// The pool class of each node: the index of the first node whose
/// [`crate::NodeSpec::pool`] equals its own. Compares the fields
/// `pool()` reads (contexts, effective `os`, device), so no pool is
/// materialised; each node is checked against one representative per
/// class found so far, and a fleet has a handful of device types.
fn pool_classes(nodes: &[FleetNode]) -> Vec<usize> {
    let same_pool = |a: &crate::NodeSpec, b: &crate::NodeSpec| {
        a.contexts == b.contexts && a.oversubscription() == b.oversubscription() && a.gpu == b.gpu
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

/// Runs the prepared per-node epoch jobs and returns `(node index,
/// metrics)` pairs sorted by node index, so folding them is
/// deterministic regardless of the execution strategy. With more than
/// one worker, the calling thread and `workers − 1` scoped threads pull
/// jobs from a shared cursor until none is left: node costs are uneven
/// (SM counts and resident counts vary), so whoever finishes early takes
/// the next job.
fn run_node_epochs(
    nodes: &[FleetNode],
    jobs: Vec<NodeEpochJob>,
    epoch_len: SimDuration,
    workers: usize,
) -> Vec<(usize, RunMetrics)> {
    let workers = workers.min(jobs.len());
    let mut results: Vec<(usize, RunMetrics)> = if workers <= 1 {
        jobs.into_iter()
            .map(|job| job.run(nodes, epoch_len))
            .collect()
    } else {
        // Each slot is taken exactly once, by whoever drew its index, so
        // its lock is never contended. The cursor publishes no data (a
        // job reaches its worker through its slot's lock, and the slots
        // were filled before any worker started), so `Relaxed` suffices.
        let slots: Vec<Mutex<Option<NodeEpochJob>>> =
            jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        let cursor = AtomicUsize::new(0);
        let pull = || {
            let mut done = Vec::with_capacity(slots.len());
            while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let job = slot
                    .lock()
                    .expect("invariant: a slot's lock is held only to take its job")
                    .take()
                    .expect("invariant: the cursor hands out each job once");
                done.push(job.run(nodes, epoch_len));
            }
            done
        };
        crossbeam::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(|_| pull())).collect();
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
        .expect("invariant: epoch worker scope never fails")
    };
    results.sort_by_key(|&(idx, _)| idx);
    results
}

#[cfg(test)]
mod tests;
