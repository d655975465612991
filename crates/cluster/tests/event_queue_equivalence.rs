//! Equivalence property: [`EventQueue`] pops the exact `(time, node, seq)`
//! sequence a plain tuple heap pops, over random push/pop interleavings
//! — including same-instant floods (many events at one instant across
//! nodes), far-future events (hours ahead), and pushes at instants at or
//! before the last pop (the same-instant follow-up events the engine
//! schedules).
//!
//! The queue orders [`sgprs_cluster::event::SimEvent`]s by their derived
//! `Ord` and assigns each push its seq; this pins both against the
//! documented key order, so a reordered field or a reused seq fails
//! here. (The first property's name dates from the timing wheel the
//! queue once was.)

use proptest::prelude::*;
use sgprs_cluster::event::{EventKind, EventQueue, NODE_FLEET};
use sgprs_rt::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: a min-heap over plain `(time, node, seq)` tuples with
/// a monotone enqueue serial.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
    next_seq: u64,
}

impl HeapQueue {
    fn push(&mut self, nanos: u64, node: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((nanos, node, seq)));
    }

    fn pop(&mut self) -> Option<(u64, usize, u64)> {
        self.heap.pop().map(|Reverse(k)| k)
    }
}

/// Decodes one fuzzed op against the queue pair. `time_raw`/`node_tag`
/// are interpreted per regime so every time range gets traffic: dense
/// near-term instants, seconds and hours ahead, same-instant floods, and
/// pushes at or before the last popped instant.
fn event_time(regime: u8, time_raw: u64, last_pop: u64) -> u64 {
    match regime % 6 {
        // Dense hot window: within ~33 ms of the origin.
        0 => time_raw % 33_000_000,
        // Mid range: within ~8 s.
        1 => time_raw % 8_000_000_000,
        // Far future: up to ~12 h.
        2 => time_raw % 43_200_000_000_000,
        // Same-instant flood: one of four fixed instants.
        3 => 5_000_000 * (time_raw % 4),
        // At the last popped instant (engine follow-ups such as
        // Migrate, scheduled at "now").
        4 => last_pop,
        // At or before the last popped instant.
        _ => last_pop.saturating_sub(time_raw % 1_000_000),
    }
}

fn event_node(tag: u8) -> usize {
    match tag % 5 {
        4 => NODE_FLEET,
        t => t as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any interleaving of pushes and pops, both queues emit the
    /// identical `(time, node, seq)` pop sequence, and drain to the
    /// identical tail.
    #[test]
    fn wheel_pops_exactly_what_the_reference_heap_pops(
        ops in prop::collection::vec((0u8..8, any::<u64>(), 0u8..8), 1..300),
    ) {
        let mut queue = EventQueue::new();
        let mut heap = HeapQueue::default();
        let mut last_pop = 0u64;
        for &(op, time_raw, node_tag) in &ops {
            if op < 6 {
                let nanos = event_time(op, time_raw, last_pop);
                let node = event_node(node_tag);
                queue.push(SimTime::from_nanos(nanos), node, EventKind::Sample);
                heap.push(nanos, node);
            } else {
                let got = queue.pop().map(|e| (e.time.as_nanos(), e.node, e.seq));
                let want = heap.pop();
                prop_assert_eq!(got, want, "mid-run pop diverged");
                if let Some((t, _, _)) = want {
                    last_pop = t;
                }
            }
            prop_assert_eq!(queue.len(), heap.heap.len());
        }
        // Drain both: the tails must match to the last event.
        loop {
            let got = queue.pop().map(|e| (e.time.as_nanos(), e.node, e.seq));
            let want = heap.pop();
            prop_assert_eq!(got, want, "drain pop diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }

    /// A pure same-instant flood across nodes pops grouped by node then
    /// enqueue order, regardless of push order — the documented
    /// `(time, node, seq)` contract at one instant.
    #[test]
    fn same_instant_floods_group_by_node_then_seq(
        nodes in prop::collection::vec(0u8..8, 2..64),
        nanos in 0u64..10_000_000_000,
    ) {
        let mut queue = EventQueue::new();
        for &tag in &nodes {
            queue.push(SimTime::from_nanos(nanos), event_node(tag), EventKind::Sample);
        }
        let mut popped = Vec::new();
        while let Some(e) = queue.pop() {
            prop_assert_eq!(e.time.as_nanos(), nanos);
            popped.push((e.node, e.seq));
        }
        let mut expect = popped.clone();
        expect.sort_unstable();
        prop_assert_eq!(popped, expect, "flood must pop in (node, seq) order");
    }
}
