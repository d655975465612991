//! The dispatch wait queue: ordering policies and queue-deadline
//! bookkeeping behind [`crate::Fleet`]'s admission retries.
//!
//! A [`DispatchQueue`]'s retry order is a [`QueuePolicy`]:
//!
//! * [`QueuePolicy::Fifo`] (the default) — arrival order, no overtaking.
//! * [`QueuePolicy::EarliestDeadline`] — least admission slack first: the
//!   absolute queue deadline (enqueue instant +
//!   [`crate::TenantSpec::max_wait`]) orders the queue, tenants without a
//!   deadline come last in arrival order.
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
use sgprs_rt::SimTime;

/// Retry order of the dispatch wait queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// Arrival order, no overtaking.
    #[default]
    Fifo,
    /// Earliest absolute queue deadline (enqueue + `max_wait`) first;
    /// deadline-less tenants last, in arrival order.
    EarliestDeadline,
}

impl core::fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueuePolicy::Fifo => f.write_str("fifo"),
            QueuePolicy::EarliestDeadline => f.write_str("earliest-deadline"),
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
}

/// One waiting tenant, with the state the policies order by.
#[derive(Debug)]
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

    /// The policy sort key: entries with smaller keys drain first.
    fn key(&self, policy: QueuePolicy) -> (u64, u64) {
        match policy {
            QueuePolicy::Fifo => (0, self.seq),
            QueuePolicy::EarliestDeadline => (
                self.deadline().map_or(u64::MAX, SimTime::as_nanos),
                self.seq,
            ),
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

    /// Index of the entry that drains next under the policy.
    fn first_index(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| self.entries[i].key(self.policy))
    }

    /// Removes and returns the entry that drains next under the policy.
    pub fn pop_first(&mut self) -> Option<QueueEntry> {
        self.first_index().map(|i| self.entries.remove(i))
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
    /// `now`, in insertion order, moving each out.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<QueueEntry> {
        self.entries
            .extract_if(.., |e| e.deadline().is_some_and(|d| d < now))
            .collect()
    }

    /// The waiting tenants' names in drain (policy) order.
    pub fn names_in_order(&self) -> Vec<String> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.sort_by_key(|&i| self.entries[i].key(self.policy));
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
        assert_eq!(q.names_in_order(), vec!["a", "b", "c"]);
        assert_eq!(q.pop_first().expect("non-empty").tenant.name, "a");
        assert_eq!(q.len(), 2);
        // A popped-then-reinserted head keeps its drain position.
        let head = q.pop_first().expect("non-empty");
        assert_eq!(head.tenant.name, "b");
        q.reinsert(head);
        assert_eq!(q.names_in_order(), vec!["b", "c"]);
    }

    #[test]
    fn earliest_deadline_orders_by_slack_deadline_less_last() {
        let mut q = DispatchQueue::new(QueuePolicy::EarliestDeadline);
        // Enqueued later but tighter deadline: drains first.
        q.push(tid(0), tenant("patient"), at(0));
        q.push(
            tid(1),
            tenant("loose").with_max_wait(SimDuration::from_secs(9)),
            at(1),
        );
        q.push(
            tid(2),
            tenant("tight").with_max_wait(SimDuration::from_secs(2)),
            at(2),
        );
        assert_eq!(q.names_in_order(), vec!["tight", "loose", "patient"]);
    }

    #[test]
    fn expiry_removes_only_past_deadline_entries() {
        let mut q = DispatchQueue::new(QueuePolicy::Fifo);
        q.push(
            tid(0),
            tenant("gives-up").with_max_wait(SimDuration::from_secs(1)),
            at(0),
        );
        q.push(tid(1), tenant("waits"), at(0));
        q.push(
            tid(2),
            tenant("later").with_max_wait(SimDuration::from_secs(1)),
            at(3),
        );
        // At t = 1 the first deadline is exactly due, not yet past.
        assert!(q.take_expired(at(1)).is_empty());
        let expired = q.take_expired(at(2));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].tenant.name, "gives-up");
        assert_eq!(q.names_in_order(), vec!["waits", "later"]);
    }

    #[test]
    fn expiry_moves_entries_out_in_insertion_order() {
        let mut q = DispatchQueue::new(QueuePolicy::EarliestDeadline);
        let patience = |secs| SimDuration::from_secs(secs);
        let laddered = tenant("b-laddered")
            .with_fps_ladder([15.0, 7.5])
            .with_max_wait(patience(2));
        q.push(tid(0), tenant("a-stays"), at(0));
        q.push(tid(1), laddered.clone(), at(0));
        q.push(tid(2), tenant("c-stays").with_max_wait(patience(9)), at(0));
        q.push(tid(3), tenant("d-gone").with_max_wait(patience(1)), at(0));
        q.push(tid(4), tenant("e-stays").with_max_wait(patience(5)), at(0));
        let expired = q.take_expired(at(3));
        // Insertion order, not drain order (which would put d first).
        assert_eq!(
            expired.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![tid(1), tid(3)]
        );
        assert_eq!(expired[0].tenant, laddered);
        assert_eq!(expired[1].tenant.name, "d-gone");
        assert_eq!(q.names_in_order(), vec!["e-stays", "c-stays", "a-stays"]);
        assert_eq!(
            q.entries().map(|e| e.id).collect::<Vec<_>>(),
            vec![tid(0), tid(2), tid(4)]
        );
    }

    #[test]
    fn remove_by_id_works_across_policies() {
        for policy in [QueuePolicy::Fifo, QueuePolicy::EarliestDeadline] {
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
