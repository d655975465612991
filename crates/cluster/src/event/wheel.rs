//! The hierarchical timing wheel under [`super::EventQueue`].
//!
//! Periodic frame releases make the event stream *near-sorted*: almost
//! every push lands within one release period (33 ms at 30 fps) of the
//! clock. A binary heap pays O(log n) sift work per push/pop for a
//! total order it rarely needs; a calendar queue turns the common case
//! into O(1) amortised bucket appends and only ever sorts the one
//! bucket currently being drained.
//!
//! # Layout
//!
//! Two wheel levels plus an unsorted far-future overflow:
//!
//! * **L0** — [`L0_SLOTS`] slots of 2^[`L0_GRAIN_BITS`] ns (≈65.5 µs)
//!   each, spanning ≈33.5 ms: one slot block covers the dominant 33 ms
//!   release/completion horizon, so the hot-path push is a bucket
//!   append.
//! * **L1** — [`L1_SLOTS`] slots of ≈33.5 ms each, spanning ≈8.6 s:
//!   utilisation samples (+1 epoch), queue-deadline expiries (seconds
//!   of patience), and releases that straddle an L0 window edge wait
//!   here and are scattered into L0 when their slot's window opens.
//! * **overflow** — everything beyond the L1 span, unsorted; rescanned
//!   whenever the L1 window advances over new ground.
//!
//! Each event therefore cascades at most twice (overflow → L1 → L0)
//! before it pops — the amortised-O(1) argument.
//!
//! # Ordering and determinism
//!
//! The queue's contract is the total order on `(time, node, seq)` keys
//! (see the [`super`] module docs). The wheel preserves it exactly:
//!
//! * Only the **active** slot — the one `cursor` points at — is ever
//!   popped from. It is kept sorted descending by key, so the back of
//!   its `Vec` is the global minimum (every other slot holds strictly
//!   later times) and `pop` is O(1).
//! * Future slots collect events unsorted and are sorted **once**, on
//!   activation, with an unstable sort — safe because keys are unique
//!   (`seq` is a monotone serial), so the sorted order is total and
//!   machine-independent.
//! * A push at or before the cursor's instant (same-instant follow-ups
//!   such as `Migrate`, or an arbitrary interleaving from a test) is
//!   binary-search-inserted into the active slot. Clamping cannot
//!   reorder anything: every event in a later slot has a strictly
//!   greater time, and within the active slot the insert position is
//!   decided by the full key.
//!
//! No hashing, no wall clock, no randomness: slot indices are pure
//! shifts of the integer nanosecond timestamp, and every structure is a
//! `Vec` or bitmap walked in index order (D001-clean by construction).
//!
//! # Allocation discipline
//!
//! Slot `Vec`s are never dropped — a drained slot keeps its capacity
//! for the next wheel turn, so after warm-up the steady-state push/pop
//! path allocates nothing. The slots *are* the event arena: `SimEvent`s
//! move by value between them, with no per-event box or freelist node.
//! Cascading drains an L1 slot through a reusable scratch buffer and
//! swaps the (now empty, still-allocated) buffer back, recycling both
//! sides.

use super::SimEvent;
use sgprs_rt::SimTime;

/// log2 nanoseconds per L0 slot: 2^16 ns ≈ 65.5 µs.
const L0_GRAIN_BITS: u32 = 16;
/// log2 slots in the L0 wheel: 512 slots ≈ 33.5 ms per window — at
/// least one 33 ms release period, so releases/completions land direct.
const L0_SLOT_BITS: u32 = 9;
/// Slots in the L0 wheel.
const L0_SLOTS: usize = 1 << L0_SLOT_BITS;
/// log2 slots in the L1 wheel: 256 slots of one L0 window each ≈ 8.6 s
/// — covers epoch samples and queue-patience expiries for every
/// shipped scenario.
const L1_SLOT_BITS: u32 = 8;
/// Slots in the L1 wheel.
const L1_SLOTS: usize = 1 << L1_SLOT_BITS;
/// log2 nanoseconds per L1 slot (= one full L0 window).
const L1_GRAIN_BITS: u32 = L0_GRAIN_BITS + L0_SLOT_BITS;

/// The absolute L0 slot of a timestamp.
fn slot0(time: SimTime) -> u64 {
    time.as_nanos() >> L0_GRAIN_BITS
}

/// The absolute L1 slot of a timestamp.
fn slot1(time: SimTime) -> u64 {
    time.as_nanos() >> L1_GRAIN_BITS
}

/// The hierarchical timing wheel. See the module docs for the layout
/// and the ordering argument.
#[derive(Debug)]
pub(crate) struct TimingWheel {
    /// L0 slot buckets; index = absolute slot & (L0_SLOTS - 1).
    l0: Vec<Vec<SimEvent>>,
    /// L0 occupancy bitmap (bit per slot), so empty-slot scans are word
    /// steps instead of Vec probes.
    l0_bits: [u64; L0_SLOTS / 64],
    /// L1 slot buckets; index = absolute slot & (L1_SLOTS - 1).
    l1: Vec<Vec<SimEvent>>,
    /// L1 occupancy bitmap.
    l1_bits: [u64; L1_SLOTS / 64],
    /// Events beyond the L1 span, unsorted; internal order is a pure
    /// function of the push sequence (`swap_remove` rescues), and
    /// irrelevant — placement re-sorts on activation.
    overflow: Vec<SimEvent>,
    /// Absolute L0 slot currently being drained. Its bucket is sorted
    /// descending by key; everything earlier has already popped.
    cursor: u64,
    /// Reusable drain buffer for cascades (capacity recycled).
    scratch: Vec<SimEvent>,
    /// Pending events across all levels.
    len: usize,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            l0: vec![Vec::new(); L0_SLOTS],
            l0_bits: [0; L0_SLOTS / 64],
            l1: vec![Vec::new(); L1_SLOTS],
            l1_bits: [0; L1_SLOTS / 64],
            overflow: Vec::new(),
            cursor: 0,
            scratch: Vec::new(),
            len: 0,
        }
    }
}

impl TimingWheel {
    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The absolute L1 slot whose L0 window the cursor is inside.
    fn cur_l1(&self) -> u64 {
        self.cursor >> L0_SLOT_BITS
    }

    /// One past the last absolute L0 slot the L0 wheel currently
    /// covers: the end of the cursor's (aligned) window.
    fn l0_end(&self) -> u64 {
        (self.cur_l1() + 1) << L0_SLOT_BITS
    }

    /// One past the last absolute L1 slot the L1 wheel currently
    /// covers. The covered range `(cur_l1, cur_l1 + L1_SLOTS]` holds
    /// exactly [`L1_SLOTS`] values, so ring indices never alias.
    fn l1_end(&self) -> u64 {
        self.cur_l1() + 1 + L1_SLOTS as u64
    }

    /// Schedules one event. O(1) amortised: a bucket append everywhere
    /// except the active slot, which takes a binary-search insert.
    pub(crate) fn push(&mut self, ev: SimEvent) {
        self.len += 1;
        self.place(ev);
    }

    /// Routes an event to its level under the current windows (shared
    /// by `push` and cascade rescues; does not touch `len`).
    fn place(&mut self, ev: SimEvent) {
        let s0 = slot0(ev.time);
        if s0 <= self.cursor {
            // At or before the drain point: joins the active slot in
            // key order (see the module docs' clamping argument).
            let ring = (self.cursor as usize) & (L0_SLOTS - 1);
            self.l0_bits[ring / 64] |= 1 << (ring % 64);
            let bucket = &mut self.l0[ring];
            let key = ev.key();
            // Descending by key, so the back stays the minimum.
            let at = bucket.partition_point(|e| e.key() > key);
            bucket.insert(at, ev);
        } else if s0 < self.l0_end() {
            let ring = (s0 as usize) & (L0_SLOTS - 1);
            self.l0_bits[ring / 64] |= 1 << (ring % 64);
            self.l0[ring].push(ev);
        } else {
            let s1 = s0 >> L0_SLOT_BITS;
            if s1 < self.l1_end() {
                let ring = (s1 as usize) & (L1_SLOTS - 1);
                self.l1_bits[ring / 64] |= 1 << (ring % 64);
                self.l1[ring].push(ev);
            } else {
                self.overflow.push(ev);
            }
        }
    }

    /// Whether [`Self::prepare`] has wheel-turning to do: pending
    /// events but an empty active slot. O(1); the engine's merge loop
    /// uses it to skip the prepare call (and its profiling clock read)
    /// on the common already-prepared iteration.
    pub(crate) fn needs_prepare(&self) -> bool {
        self.len != 0 && self.l0[(self.cursor as usize) & (L0_SLOTS - 1)].is_empty()
    }

    /// The key of the earliest pending event. Requires a preceding
    /// [`Self::prepare`] (or [`Self::needs_prepare`] `== false`); after
    /// it, the head (if any) sits at the back of the active slot.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, usize, u64)> {
        debug_assert!(!self.needs_prepare(), "peek_key requires a prepared wheel");
        self.l0[(self.cursor as usize) & (L0_SLOTS - 1)]
            .last()
            .map(SimEvent::key)
    }

    /// Removes and returns the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<SimEvent> {
        self.prepare();
        let ring = (self.cursor as usize) & (L0_SLOTS - 1);
        let ev = self.l0[ring].pop()?;
        self.len -= 1;
        if self.l0[ring].is_empty() {
            self.l0_bits[ring / 64] &= !(1 << (ring % 64));
        }
        Some(ev)
    }

    /// Advances the wheel until the earliest pending event sits sorted
    /// at the back of the active slot (or the wheel is empty). Returns
    /// `true` when cascade work ran — an L1 slot scattered into L0, an
    /// overflow rescan, or a far-future fast-forward — which is what
    /// the engine attributes to the `wheel_cascade` span. Idempotent
    /// and O(1) when already prepared.
    pub(crate) fn prepare(&mut self) -> bool {
        if self.len == 0 || !self.l0[(self.cursor as usize) & (L0_SLOTS - 1)].is_empty() {
            return false;
        }
        // Cheap path: a later slot inside the current L0 window.
        if let Some(s0) = self.next_l0(self.cursor + 1) {
            self.activate(s0);
            return false;
        }
        // The window is dry: cascade L1 slots (and, when both wheels
        // are dry, fast-forward over the overflow) until a slot fills.
        loop {
            if let Some(s1) = self.next_l1() {
                self.open_window(s1);
            } else {
                debug_assert!(
                    !self.overflow.is_empty(),
                    "len > 0 with both wheels dry means overflow holds the rest"
                );
                // Jump straight to the earliest overflow event's window
                // instead of turning the wheel over dead seconds.
                let min_s1 = self
                    .overflow
                    .iter()
                    .map(|e| slot1(e.time))
                    .min()
                    .unwrap_or(self.cur_l1() + 1);
                self.open_window(min_s1.max(self.cur_l1() + 1));
            }
            if let Some(s0) = self.next_l0(self.cursor) {
                self.activate(s0);
                return true;
            }
            // The opened window was empty after all (an overflow jump
            // can land short when rescued events straddle windows);
            // keep turning.
        }
    }

    /// Moves the cursor into L1 slot `s1`'s window: scatters that
    /// slot's bucket into L0 and rescues overflow events the advanced
    /// L1 window now covers.
    fn open_window(&mut self, s1: u64) {
        self.cursor = s1 << L0_SLOT_BITS;
        let ring = (s1 as usize) & (L1_SLOTS - 1);
        if self.l1_bits[ring / 64] & (1 << (ring % 64)) != 0 {
            self.l1_bits[ring / 64] &= !(1 << (ring % 64));
            // Drain through the scratch buffer, then hand the (empty,
            // still-allocated) buffer back to the slot.
            let mut batch = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut batch, &mut self.l1[ring]);
            for ev in batch.drain(..) {
                self.place(ev);
            }
            self.scratch = batch;
        }
        if !self.overflow.is_empty() {
            let l1_end = self.l1_end();
            let mut i = 0;
            while i < self.overflow.len() {
                if slot1(self.overflow[i].time) < l1_end {
                    let ev = self.overflow.swap_remove(i);
                    self.place(ev);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Makes `s0` the active slot and sorts its bucket into pop order.
    fn activate(&mut self, s0: u64) {
        self.cursor = s0;
        let ring = (s0 as usize) & (L0_SLOTS - 1);
        // Unique keys (seq is a monotone serial) make the unstable sort
        // deterministic.
        self.l0[ring].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }

    /// The first occupied absolute L0 slot at or after `from` within
    /// the current window, by bitmap scan. `from` and the window end
    /// share one aligned 512-slot block, so the ring scan never wraps.
    fn next_l0(&self, from: u64) -> Option<u64> {
        if from >= self.l0_end() {
            return None;
        }
        let base = self.cur_l1() << L0_SLOT_BITS;
        let start = (from as usize) & (L0_SLOTS - 1);
        let mut word = start / 64;
        let mut bits = self.l0_bits[word] & (!0u64 << (start % 64));
        loop {
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                return Some(base + idx as u64);
            }
            word += 1;
            if word == L0_SLOTS / 64 {
                return None;
            }
            bits = self.l0_bits[word];
        }
    }

    /// The first occupied absolute L1 slot after the cursor's, in
    /// absolute order. The covered range starts at `cur_l1 + 1` and
    /// wraps the ring once, so the scan runs ring-start→end, then
    /// begin→ring-start — each part in increasing absolute order, the
    /// first part entirely before the second.
    fn next_l1(&self) -> Option<u64> {
        let first = self.cur_l1() + 1;
        let start = (first as usize) & (L1_SLOTS - 1);
        // Part 1: ring indices [start, L1_SLOTS).
        let mut word = start / 64;
        let mut bits = self.l1_bits[word] & (!0u64 << (start % 64));
        loop {
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                return Some(first + (idx - start) as u64);
            }
            word += 1;
            if word == L1_SLOTS / 64 {
                break;
            }
            bits = self.l1_bits[word];
        }
        // Part 2: ring indices [0, start) — one window turn later.
        let turned = first + (L1_SLOTS - start) as u64;
        let mut word = 0;
        loop {
            let bits = if (word + 1) * 64 <= start {
                self.l1_bits[word]
            } else {
                self.l1_bits[word] & !(!0u64 << (start % 64))
            };
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                return Some(turned + idx as u64);
            }
            word += 1;
            if word * 64 >= start {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EventKind, NODE_FLEET};
    use super::*;
    use sgprs_rt::SimDuration;

    fn ev(nanos: u64, node: usize, seq: u64) -> SimEvent {
        SimEvent {
            time: SimTime::from_nanos(nanos),
            node,
            seq,
            kind: EventKind::Sample,
        }
    }

    fn drain(w: &mut TimingWheel) -> Vec<(u64, usize, u64)> {
        std::iter::from_fn(|| w.pop())
            .map(|e| (e.time.as_nanos(), e.node, e.seq))
            .collect()
    }

    #[test]
    fn pops_in_key_order_across_levels() {
        let mut w = TimingWheel::default();
        // Active slot, later L0 slot, L1 slot, and deep overflow.
        let far = SimDuration::from_secs(3600).as_nanos();
        w.push(ev(far, 1, 3));
        w.push(ev(SimDuration::from_secs(2).as_nanos(), 0, 2));
        w.push(ev(SimDuration::from_millis(5).as_nanos(), 5, 1));
        w.push(ev(100, 9, 0));
        assert_eq!(w.len(), 4);
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![
                (100, 9, 0),
                (SimDuration::from_millis(5).as_nanos(), 5, 1),
                (SimDuration::from_secs(2).as_nanos(), 0, 2),
                (far, 1, 3),
            ]
        );
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_slot_orders_by_full_key() {
        let mut w = TimingWheel::default();
        w.push(ev(50, NODE_FLEET, 0));
        w.push(ev(50, 2, 1));
        w.push(ev(50, 0, 2));
        w.push(ev(10, 7, 3));
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![(10, 7, 3), (50, 0, 2), (50, 2, 1), (50, NODE_FLEET, 0)]
        );
    }

    #[test]
    fn pushes_at_or_before_the_cursor_join_the_active_slot_in_order() {
        let mut w = TimingWheel::default();
        w.push(ev(1_000, 3, 0));
        assert_eq!(w.pop().map(|e| e.seq), Some(0));
        // Same instant, later seq — and an *earlier* instant in the
        // same slot (heap semantics: pop order is over what remains).
        w.push(ev(1_000, 3, 1));
        w.push(ev(900, 1, 2));
        w.push(ev(1_000, 0, 3));
        let order = drain(&mut w);
        assert_eq!(order, vec![(900, 1, 2), (1_000, 0, 3), (1_000, 3, 1)]);
    }

    #[test]
    fn window_straddling_pushes_cascade_back_into_l0() {
        let mut w = TimingWheel::default();
        // One event per 33 ms period for 2 simulated seconds: every
        // push beyond the first window lands in L1 first and must
        // cascade out in order.
        let period = SimDuration::from_millis(33).as_nanos();
        for i in 0..60u64 {
            w.push(ev(i * period, 0, i));
        }
        let order = drain(&mut w);
        let seqs: Vec<u64> = order.iter().map(|&(_, _, s)| s).collect();
        assert_eq!(seqs, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_fast_forward_skips_dead_time() {
        let mut w = TimingWheel::default();
        // Two events hours apart: the wheel must jump, not iterate
        // 100k empty windows.
        let h1 = SimDuration::from_secs(3600).as_nanos();
        let h9 = SimDuration::from_secs(9 * 3600).as_nanos();
        w.push(ev(h9, 1, 0));
        w.push(ev(h1, 0, 1));
        assert_eq!(drain(&mut w), vec![(h1, 0, 1), (h9, 1, 0)]);
    }

    #[test]
    fn prepare_reports_cascade_work_and_is_idempotent() {
        let mut w = TimingWheel::default();
        w.push(ev(10, 0, 0));
        assert!(!w.prepare(), "head already in the active slot");
        w.push(ev(SimDuration::from_secs(1).as_nanos(), 0, 1));
        assert_eq!(w.pop().map(|e| e.seq), Some(0));
        assert!(w.prepare(), "reaching the L1 event is a cascade");
        assert!(!w.prepare(), "second prepare is a no-op");
        assert_eq!(w.pop().map(|e| e.seq), Some(1));
        assert!(!w.prepare(), "empty wheel has nothing to prepare");
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn slot_capacity_is_recycled_across_wheel_turns() {
        let mut w = TimingWheel::default();
        let period = SimDuration::from_millis(33).as_nanos();
        // Three full wheel turns of periodic traffic through one slot
        // pattern; afterwards the buckets must still be warm (this is
        // a behavioural proxy: correctness here, the allocation gate
        // in the bench baseline).
        for turn in 0..3u64 {
            for i in 0..32u64 {
                w.push(ev(turn * 1_100_000_000 + i * period, 0, turn * 32 + i));
            }
            let popped = drain(&mut w);
            assert_eq!(popped.len(), 32);
        }
    }
}
