//! The dispatch wait queue: ordering policies and queue-deadline
//! bookkeeping behind [`crate::Fleet`]'s admission retries.
//!
//! PR 1's dispatcher hardcoded a FIFO `VecDeque`; this module replaces it
//! with a [`DispatchQueue`] whose retry order is a [`QueuePolicy`]:
//!
//! * [`QueuePolicy::Fifo`] (the default) — arrival order, no overtaking:
//!   bit-for-bit the original semantics.
//! * [`QueuePolicy::Priority`] — higher [`crate::TenantSpec::weight`]
//!   first; equal weights keep arrival order.
//! * [`QueuePolicy::EarliestDeadline`] — least admission slack first: the
//!   absolute queue deadline (enqueue instant +
//!   [`crate::TenantSpec::max_wait`]) orders the queue, tenants without a
//!   deadline come last in arrival order.
//! * [`QueuePolicy::WeightedFair`] — priority with aging: a waiter's
//!   effective weight is its [`crate::TenantSpec::weight`] plus one per
//!   [`AGING_QUANTUM`] waited, so a stream of heavy arrivals can delay a
//!   light waiter only boundedly — unlike [`QueuePolicy::Priority`],
//!   where it starves (every heavy arrival with weight `w` enqueued less
//!   than `(w - weight) ×` quantum after the light waiter outranks it;
//!   all later ones rank below).
//!
//! Every policy preserves the *no-overtaking-within-the-order* fairness
//! guarantee: a drain pass walks the queue in policy order and stops at
//! the first tenant that fits at no price, so a lower-ranked tenant can
//! never be admitted over a higher-ranked one. Tenants whose `max_wait`
//! elapses are expired out of the queue (under every policy) and count
//! as eventual rejections.
//!
//! The queue itself never talks to the admission controller — the
//! [`crate::Fleet`] drives the drain loop and the re-pricing ladder; the
//! queue only answers "who is next under the policy".

use crate::interner::TenantId;
use crate::TenantSpec;
use serde::{Deserialize, Serialize};
use sgprs_rt::{SimDuration, SimTime};

/// Retry order of the dispatch wait queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// Arrival order, no overtaking (the original dispatcher semantics).
    #[default]
    Fifo,
    /// Higher tenant weight first; ties keep arrival order.
    Priority,
    /// Earliest absolute queue deadline (enqueue + `max_wait`) first;
    /// deadline-less tenants last, in arrival order.
    EarliestDeadline,
    /// Priority with aging: effective weight grows by one per
    /// [`AGING_QUANTUM`] waited, so heavy streams cannot starve light
    /// waiters. Ties keep arrival order.
    WeightedFair,
}

/// How long a [`QueuePolicy::WeightedFair`] waiter must wait to gain one
/// point of effective weight. One second: a weight-1 tenant overtakes a
/// freshly arrived weight-9 tenant after eight seconds in the queue.
pub const AGING_QUANTUM: SimDuration = SimDuration::from_secs(1);

impl core::fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueuePolicy::Fifo => f.write_str("fifo"),
            QueuePolicy::Priority => f.write_str("priority"),
            QueuePolicy::EarliestDeadline => f.write_str("earliest-deadline"),
            QueuePolicy::WeightedFair => f.write_str("weighted-fair"),
        }
    }
}

/// Queueing knobs of a [`crate::Fleet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Retry order of the wait queue.
    pub policy: QueuePolicy,
    /// Enable the fps re-pricing ladder: tenants that do not fit at their
    /// requested rate may be admitted at a degraded
    /// [`crate::TenantSpec::fps_ladder`] step (at arrival or from the
    /// queue) and are upgraded back toward the requested rate at later
    /// epoch boundaries when capacity frees. Both directions are modeled
    /// as SGPRS partition switches on the resident node — no migration,
    /// no stall. Disabled by default (tenants are served at the requested
    /// rate or not at all).
    pub repricing: bool,
    /// Enable demand-aware queue expiry: a waiter that *provably* can
    /// never be admitted — no node could carry it even fully drained, at
    /// its requested rate or any ladder step
    /// ([`crate::policy::provably_hopeless`]) — is expired before its
    /// patience elapses instead of blocking the queue until `max_wait`
    /// (or forever). Counted separately from patience expiry as
    /// [`crate::FleetMetrics::expired_hopeless`]. Disabled by default:
    /// the classic behaviour keeps hopeless waiters until their patience
    /// runs out.
    pub demand_aware_expiry: bool,
}

/// One waiting tenant, with the state the policies order by.
#[derive(Debug, Clone)]
pub(crate) struct QueueEntry {
    /// The waiter's interned id (see [`crate::interner`]): the handle
    /// departures and expiry resolve entries by, no string compares.
    pub id: TenantId,
    /// The waiting tenant (still at its requested rate).
    pub tenant: TenantSpec,
    /// When the tenant entered the queue.
    pub enqueued_at: SimTime,
    /// Queued before the current run began: its admission does not
    /// count toward the run's deferrals (see [`DispatchQueue::carry_over`]).
    pub carried_over: bool,
    /// Arrival serial, the universal tie-break.
    seq: u64,
}

impl QueueEntry {
    /// The absolute instant this entry gives up waiting, if any.
    fn deadline(&self) -> Option<SimTime> {
        self.tenant
            .max_wait
            .map(|w| self.enqueued_at.saturating_add(w))
    }

    /// The policy sort key at instant `now`: entries with smaller keys
    /// drain first. Only [`QueuePolicy::WeightedFair`] consults `now`
    /// (aging); the other policies' orders are time-invariant.
    fn key(&self, policy: QueuePolicy, now: SimTime) -> (u64, u64) {
        match policy {
            QueuePolicy::Fifo => (0, self.seq),
            // Higher weight first: invert into an ascending key.
            QueuePolicy::Priority => (u64::MAX - u64::from(self.tenant.weight), self.seq),
            QueuePolicy::EarliestDeadline => (
                self.deadline().map_or(u64::MAX, SimTime::as_nanos),
                self.seq,
            ),
            QueuePolicy::WeightedFair => {
                let aged = now.duration_since(self.enqueued_at).as_nanos()
                    / AGING_QUANTUM.as_nanos().max(1);
                let effective = u64::from(self.tenant.weight).saturating_add(aged);
                (u64::MAX - effective, self.seq)
            }
        }
    }
}

/// The wait queue of a [`crate::Fleet`]: insertion-ordered storage with
/// policy-ordered retrieval.
#[derive(Debug)]
pub(crate) struct DispatchQueue {
    policy: QueuePolicy,
    entries: Vec<QueueEntry>,
    next_seq: u64,
}

impl DispatchQueue {
    /// An empty queue draining in `policy` order.
    pub fn new(policy: QueuePolicy) -> Self {
        DispatchQueue {
            policy,
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of waiting tenants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Enqueues `tenant` (interned as `id`) at instant `now`.
    pub fn push(&mut self, id: TenantId, tenant: TenantSpec, now: SimTime) {
        self.entries.push(QueueEntry {
            id,
            tenant,
            enqueued_at: now,
            carried_over: false,
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    /// The waiting entries in insertion order (for set-like bookkeeping,
    /// not drain order).
    pub fn entries(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Index of the entry that drains next under the policy at `now`.
    fn first_index(&self, now: SimTime) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| self.entries[i].key(self.policy, now))
    }

    /// Removes and returns the entry that drains next under the policy
    /// at `now`.
    pub fn pop_first(&mut self, now: SimTime) -> Option<QueueEntry> {
        self.first_index(now).map(|i| self.entries.remove(i))
    }

    /// Puts a popped entry back, keeping its original arrival serial so
    /// the drain order is unchanged (the policy keys ignore storage
    /// position).
    pub fn reinsert(&mut self, entry: QueueEntry) {
        self.entries.push(entry);
    }

    /// Carries every waiting entry over into a new run starting at
    /// `start`. Each run is its own timeline, so the entries are
    /// re-stamped as enqueued at `start` — their `max_wait` patience
    /// restarts on the new clock — and marked
    /// [`QueueEntry::carried_over`]: they are not the new run's
    /// deferrals, so their later admission must not offset its
    /// eventual-rejection count.
    pub fn carry_over(&mut self, start: SimTime) {
        for e in &mut self.entries {
            e.enqueued_at = start;
            e.carried_over = true;
        }
    }

    /// Removes the entry with this id, returning it when it was waiting.
    pub fn remove_id(&mut self, id: TenantId) -> Option<QueueEntry> {
        self.entries
            .iter()
            .position(|e| e.id == id)
            .map(|i| self.entries.remove(i))
    }

    /// Removes and returns every entry whose queue deadline has passed at
    /// `now`, in insertion order.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<QueueEntry> {
        let mut expired = Vec::new();
        self.entries.retain(|e| match e.deadline() {
            Some(d) if d < now => {
                expired.push(e.clone());
                false
            }
            _ => true,
        });
        expired
    }

    /// The waiting tenants' names in drain (policy) order at `now`.
    pub fn names_in_order(&self, now: SimTime) -> Vec<String> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.sort_by_key(|&i| self.entries[i].key(self.policy, now));
        idx.into_iter()
            .map(|i| self.entries[i].tenant.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use sgprs_rt::SimDuration;

    fn tenant(name: &str) -> TenantSpec {
        TenantSpec::new(name, ModelKind::ResNet18, 30.0)
    }

    fn tid(raw: u32) -> TenantId {
        TenantId::from_raw(raw)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn fifo_drains_in_arrival_order() {
        let mut q = DispatchQueue::new(QueuePolicy::Fifo);
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            q.push(tid(i as u32), tenant(name), SimTime::ZERO);
        }
        assert_eq!(q.names_in_order(SimTime::ZERO), vec!["a", "b", "c"]);
        assert_eq!(q.pop_first(SimTime::ZERO).expect("non-empty").tenant.name, "a");
        assert_eq!(q.len(), 2);
        // A popped-then-reinserted head keeps its drain position.
        let head = q.pop_first(SimTime::ZERO).expect("non-empty");
        assert_eq!(head.tenant.name, "b");
        q.reinsert(head);
        assert_eq!(q.names_in_order(SimTime::ZERO), vec!["b", "c"]);
    }

    #[test]
    fn priority_drains_heavier_weights_first_fifo_within() {
        let mut q = DispatchQueue::new(QueuePolicy::Priority);
        q.push(tid(0), tenant("light-0"), SimTime::ZERO);
        q.push(tid(1), tenant("heavy").with_weight(5), SimTime::ZERO);
        q.push(tid(2), tenant("light-1"), SimTime::ZERO);
        assert_eq!(q.names_in_order(SimTime::ZERO), vec!["heavy", "light-0", "light-1"]);
    }

    #[test]
    fn earliest_deadline_orders_by_slack_deadline_less_last() {
        let mut q = DispatchQueue::new(QueuePolicy::EarliestDeadline);
        // Enqueued later but tighter deadline: drains first.
        q.push(tid(0), tenant("patient"), at(0));
        q.push(tid(1), tenant("loose").with_max_wait(SimDuration::from_secs(9)), at(1));
        q.push(tid(2), tenant("tight").with_max_wait(SimDuration::from_secs(2)), at(2));
        assert_eq!(q.names_in_order(at(2)), vec!["tight", "loose", "patient"]);
    }

    #[test]
    fn expiry_removes_only_past_deadline_entries() {
        let mut q = DispatchQueue::new(QueuePolicy::Fifo);
        q.push(tid(0), tenant("gives-up").with_max_wait(SimDuration::from_secs(1)), at(0));
        q.push(tid(1), tenant("waits"), at(0));
        q.push(tid(2), tenant("later").with_max_wait(SimDuration::from_secs(1)), at(3));
        // At t = 1 the first deadline is exactly due, not yet past.
        assert!(q.take_expired(at(1)).is_empty());
        let expired = q.take_expired(at(2));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].tenant.name, "gives-up");
        assert_eq!(q.names_in_order(at(2)), vec!["waits", "later"]);
    }

    #[test]
    fn weighted_fair_starts_as_priority_then_ages() {
        let mut q = DispatchQueue::new(QueuePolicy::WeightedFair);
        q.push(tid(0), tenant("light"), at(0));
        q.push(tid(1), tenant("heavy").with_weight(5), at(0));
        // Fresh queue: plain priority order.
        assert_eq!(q.names_in_order(at(0)), vec!["heavy", "light"]);
        // After enough waiting both aged equally — still priority order —
        // but a *newly arrived* heavy no longer outranks the aged light.
        q.push(tid(2), tenant("late-heavy").with_weight(5), at(6));
        assert_eq!(
            q.names_in_order(at(6)),
            vec!["heavy", "light", "late-heavy"],
            "light (1+6) beats late-heavy (5+0), not the equally aged heavy (5+6)"
        );
    }

    #[test]
    fn weighted_fair_never_starves_a_light_waiter() {
        // The starvation scenario: one light waiter, then a sustained
        // stream of heavy arrivals with one drain slot per second. Under
        // `Priority` the light waiter never pops; under `WeightedFair`
        // its aged weight outgrows every fresh heavy arrival.
        let drained_light_within = |policy: QueuePolicy, rounds: u64| -> Option<u64> {
            let mut q = DispatchQueue::new(policy);
            q.push(tid(0), tenant("light"), at(0));
            for round in 0..rounds {
                let now = at(round);
                q.push(
                    tid(round as u32 + 1),
                    tenant(&format!("heavy-{round}")).with_weight(9),
                    now,
                );
                let popped = q.pop_first(now).expect("non-empty");
                if popped.tenant.name == "light" {
                    return Some(round);
                }
            }
            None
        };
        assert_eq!(
            drained_light_within(QueuePolicy::Priority, 64),
            None,
            "priority starves the light waiter"
        );
        let round = drained_light_within(QueuePolicy::WeightedFair, 64)
            .expect("weighted-fair must drain the light waiter");
        // Bound: a fresh weight-9 arrival at round r has effective 9;
        // light has 1 + r. Light wins from r = 9; earlier heavies that
        // aged alongside drain first, one per round.
        assert!(round <= 20, "drained at round {round}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Under sustained heavy load with one drain slot per aging
        /// quantum, *every* waiter eventually drains under
        /// `WeightedFair`: aging bounds how many later arrivals can
        /// overtake any given entry.
        #[test]
        fn weighted_fair_eventually_drains_every_waiter(
            seed_weights in proptest::collection::vec(1u32..10, 1..8),
            arrival_weights in proptest::collection::vec(1u32..10, 8..40),
        ) {
            let mut q = DispatchQueue::new(QueuePolicy::WeightedFair);
            for (i, &w) in seed_weights.iter().enumerate() {
                q.push(tid(i as u32), tenant(&format!("seed-{i}")).with_weight(w), at(0));
            }
            let mut drained = std::collections::HashSet::new();
            let mut round = 0u64;
            // Sustained load: one fresh arrival and one drain per round.
            for &w in &arrival_weights {
                let now = at(round);
                q.push(
                    tid(round as u32 + 100),
                    tenant(&format!("in-{round}")).with_weight(w),
                    now,
                );
                let popped = q.pop_first(now).expect("queue non-empty");
                drained.insert(popped.tenant.name);
                round += 1;
            }
            // Load stops; keep draining one per round. Every seed waiter
            // must surface within bounded time: a seed aged `r` rounds
            // has effective weight ≥ 1 + r, while any arrival's lead is
            // bounded by max weight 9.
            while q.len() > 0 {
                let now = at(round);
                let popped = q.pop_first(now).expect("non-empty");
                drained.insert(popped.tenant.name);
                round += 1;
                proptest::prop_assert!(
                    round < 256,
                    "the queue must drain without stalling"
                );
            }
            for i in 0..seed_weights.len() {
                proptest::prop_assert!(
                    drained.contains(&format!("seed-{i}")),
                    "seed waiter {i} never drained"
                );
            }
        }
    }

    #[test]
    fn remove_by_id_works_across_policies() {
        for policy in [
            QueuePolicy::Fifo,
            QueuePolicy::Priority,
            QueuePolicy::EarliestDeadline,
            QueuePolicy::WeightedFair,
        ] {
            let mut q = DispatchQueue::new(policy);
            q.push(tid(0), tenant("a"), SimTime::ZERO);
            q.push(tid(1), tenant("b"), SimTime::ZERO);
            let removed = q.remove_id(tid(0));
            assert_eq!(removed.map(|e| e.tenant.name), Some("a".into()), "{policy}");
            assert!(q.remove_id(tid(0)).is_none(), "{policy}");
            assert_eq!(q.entries().count(), 1);
            assert_eq!(q.entries().map(|e| e.id).collect::<Vec<_>>(), vec![tid(1)]);
        }
    }
}
