//! Ready queues: EDF ordering within each priority band.
//!
//! SGPRS schedules stages inside each priority level in Earliest Deadline
//! First order (§IV-B3). [`EdfQueue`] is a deterministic EDF queue with
//! FIFO tie-breaking; [`PriorityBands`] stacks one queue per
//! [`PriorityLevel`] and always serves the highest non-empty band.

use crate::{PriorityLevel, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in an [`EdfQueue`]: a payload plus its absolute deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdfEntry<T> {
    /// Absolute deadline driving the ordering.
    pub deadline: SimTime,
    /// Monotone sequence number for FIFO tie-breaking.
    seq: u64,
    /// The queued payload.
    pub item: T,
}

impl<T: Eq> Ord for EdfEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest deadline wins,
        // breaking ties by arrival order (lower seq first).
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T: Eq> PartialOrd for EdfEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An earliest-deadline-first ready queue with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use sgprs_rt::{EdfQueue, SimTime};
///
/// let mut q = EdfQueue::new();
/// q.push("late", SimTime::from_nanos(200));
/// q.push("early", SimTime::from_nanos(100));
/// assert_eq!(q.pop().map(|e| e.item), Some("early"));
/// ```
#[derive(Debug, Clone)]
pub struct EdfQueue<T: Eq> {
    heap: BinaryHeap<EdfEntry<T>>,
    next_seq: u64,
}

impl<T: Eq> EdfQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EdfQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Enqueues `item` with the given absolute deadline.
    pub fn push(&mut self, item: T, deadline: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(EdfEntry {
            deadline,
            seq,
            item,
        });
    }

    /// Removes and returns the entry with the earliest deadline.
    pub fn pop(&mut self) -> Option<EdfEntry<T>> {
        self.heap.pop()
    }

    /// Peeks at the earliest-deadline entry without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&EdfEntry<T>> {
        self.heap.peek()
    }

    /// Number of queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every entry matching `pred`, returning the removed payloads.
    /// O(n log n); used only for rare abort paths.
    pub fn drain_matching<F: FnMut(&T) -> bool>(&mut self, mut pred: F) -> Vec<T> {
        let mut kept = BinaryHeap::with_capacity(self.heap.len());
        let mut removed = Vec::new();
        for entry in self.heap.drain() {
            if pred(&entry.item) {
                removed.push(entry.item);
            } else {
                kept.push(entry);
            }
        }
        self.heap = kept;
        removed
    }

    /// Iterates over queued payloads in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|e| &e.item)
    }
}

impl<T: Eq> Default for EdfQueue<T> {
    fn default() -> Self {
        EdfQueue::new()
    }
}

/// One EDF queue per priority level, served high → medium → low.
///
/// This is exactly the stage-queuing structure of §IV-B3: stages of the
/// same level compete by deadline; a higher level always pre-empts queue
/// service of the lower levels (but never running work — SGPRS does not
/// abort in-flight kernels).
#[derive(Debug, Clone, Default)]
pub struct PriorityBands<T: Eq> {
    high: EdfQueue<T>,
    medium: EdfQueue<T>,
    low: EdfQueue<T>,
}

impl<T: Eq> PriorityBands<T> {
    /// Creates the empty three-band structure.
    #[must_use]
    pub fn new() -> Self {
        PriorityBands {
            high: EdfQueue::new(),
            medium: EdfQueue::new(),
            low: EdfQueue::new(),
        }
    }

    /// Enqueues `item` into the band for `level` with the given deadline.
    pub fn push(&mut self, level: PriorityLevel, item: T, deadline: SimTime) {
        self.band_mut(level).push(item, deadline);
    }

    /// Pops the next stage to serve: earliest deadline within the highest
    /// non-empty band.
    pub fn pop(&mut self) -> Option<(PriorityLevel, EdfEntry<T>)> {
        for level in PriorityLevel::DESCENDING {
            if let Some(e) = self.band_mut(level).pop() {
                return Some((level, e));
            }
        }
        None
    }

    /// Pops from a band no higher than `max_level` (used for slots reserved
    /// to low/medium work).
    pub fn pop_at_most(
        &mut self,
        max_level: PriorityLevel,
    ) -> Option<(PriorityLevel, EdfEntry<T>)> {
        for level in PriorityLevel::DESCENDING {
            if level > max_level {
                continue;
            }
            if let Some(e) = self.band_mut(level).pop() {
                return Some((level, e));
            }
        }
        None
    }

    /// Pops only from the given band.
    pub fn pop_exact(&mut self, level: PriorityLevel) -> Option<EdfEntry<T>> {
        self.band_mut(level).pop()
    }

    /// Total entries across all bands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.high.len() + self.medium.len() + self.low.len()
    }

    /// `true` when every band is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in one band.
    #[must_use]
    pub fn band_len(&self, level: PriorityLevel) -> usize {
        self.band(level).len()
    }

    /// Earliest deadline across all bands, if any entry is queued.
    #[must_use]
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        [&self.high, &self.medium, &self.low]
            .iter()
            .filter_map(|q| q.peek().map(|e| e.deadline))
            .min()
    }

    /// Moves entries matching `pred` from low to medium, computing each
    /// promoted entry's deadline with `deadline_of`.
    pub fn promote_low_with<F, D>(&mut self, pred: F, mut deadline_of: D) -> usize
    where
        F: FnMut(&T) -> bool,
        D: FnMut(&T) -> SimTime,
    {
        let moved = self.low.drain_matching(pred);
        let n = moved.len();
        for item in moved {
            let d = deadline_of(&item);
            self.medium.push(item, d);
        }
        n
    }

    fn band(&self, level: PriorityLevel) -> &EdfQueue<T> {
        match level {
            PriorityLevel::High => &self.high,
            PriorityLevel::Medium => &self.medium,
            PriorityLevel::Low => &self.low,
        }
    }

    fn band_mut(&mut self, level: PriorityLevel) -> &mut EdfQueue<T> {
        match level {
            PriorityLevel::High => &mut self.high,
            PriorityLevel::Medium => &mut self.medium,
            PriorityLevel::Low => &mut self.low,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut q = EdfQueue::new();
        q.push("c", t(300));
        q.push("a", t(100));
        q.push("b", t(200));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn edf_breaks_ties_fifo() {
        let mut q = EdfQueue::new();
        q.push("first", t(100));
        q.push("second", t(100));
        q.push("third", t(100));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn drain_matching_removes_only_matches() {
        let mut q = EdfQueue::new();
        for i in 0..10u32 {
            q.push(i, t(u64::from(i)));
        }
        let removed = q.drain_matching(|&x| x % 2 == 0);
        assert_eq!(removed.len(), 5);
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn bands_serve_high_before_earlier_low_deadlines() {
        let mut b = PriorityBands::new();
        b.push(PriorityLevel::Low, "low-early", t(1));
        b.push(PriorityLevel::High, "high-late", t(1_000));
        let (lvl, e) = b.pop().unwrap();
        assert_eq!(lvl, PriorityLevel::High);
        assert_eq!(e.item, "high-late");
        let (lvl, e) = b.pop().unwrap();
        assert_eq!(lvl, PriorityLevel::Low);
        assert_eq!(e.item, "low-early");
    }

    #[test]
    fn bands_medium_sits_between() {
        let mut b = PriorityBands::new();
        b.push(PriorityLevel::Low, "l", t(1));
        b.push(PriorityLevel::Medium, "m", t(2));
        b.push(PriorityLevel::High, "h", t(3));
        let served: Vec<_> = std::iter::from_fn(|| b.pop().map(|(_, e)| e.item)).collect();
        assert_eq!(served, vec!["h", "m", "l"]);
    }

    #[test]
    fn pop_at_most_skips_higher_bands() {
        let mut b = PriorityBands::new();
        b.push(PriorityLevel::High, "h", t(1));
        b.push(PriorityLevel::Low, "l", t(2));
        let (lvl, e) = b.pop_at_most(PriorityLevel::Medium).unwrap();
        assert_eq!(lvl, PriorityLevel::Low);
        assert_eq!(e.item, "l");
        assert_eq!(b.band_len(PriorityLevel::High), 1);
    }

    #[test]
    fn promotion_moves_low_entries_to_medium() {
        let mut b = PriorityBands::new();
        b.push(PriorityLevel::Low, 1u32, t(10));
        b.push(PriorityLevel::Low, 2u32, t(20));
        let n = b.promote_low_with(|&x| x == 2, |_| t(20));
        assert_eq!(n, 1);
        assert_eq!(b.band_len(PriorityLevel::Medium), 1);
        assert_eq!(b.band_len(PriorityLevel::Low), 1);
        let (lvl, e) = b.pop().unwrap();
        assert_eq!(lvl, PriorityLevel::Medium);
        assert_eq!(e.item, 2);
    }

    #[test]
    fn earliest_deadline_spans_bands() {
        let mut b = PriorityBands::new();
        assert_eq!(b.earliest_deadline(), None);
        b.push(PriorityLevel::High, "h", t(500));
        b.push(PriorityLevel::Low, "l", t(100));
        assert_eq!(b.earliest_deadline(), Some(t(100)));
    }
}
