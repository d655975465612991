//! Exercises [`CountingAlloc`] as this test process's real global
//! allocator: snapshots are monotone, a no-op window shows a zero
//! delta, and heap traffic moves the counters.
//!
//! One test function on purpose — the counters are process-global, so
//! concurrent test threads would smear each other's deltas.

use sgprs_bench::report::{AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counting_allocator_tracks_heap_traffic() {
    // A no-op window allocates nothing: adjacent snapshots are equal.
    let a = AllocStats::snapshot();
    let b = AllocStats::snapshot();
    assert_eq!(
        b.since(&a),
        AllocStats::default(),
        "no-op window must be a zero delta"
    );

    // Heap traffic moves allocs and bytes by at least what we asked for.
    let before = AllocStats::snapshot();
    let v: Vec<u8> = vec![0u8; 4096];
    let after = AllocStats::snapshot();
    let delta = after.since(&before);
    assert!(delta.allocs >= 1, "vec![0; 4096] must allocate: {delta:?}");
    assert!(delta.bytes >= 4096, "at least the vec's bytes: {delta:?}");
    drop(v);
    let freed = AllocStats::snapshot().since(&after);
    assert!(
        freed.deallocs >= 1,
        "dropping the vec must deallocate: {freed:?}"
    );

    // Growing a vec in place or by move goes through realloc.
    let before = AllocStats::snapshot();
    let mut grow: Vec<u8> = Vec::with_capacity(8);
    grow.extend(std::iter::repeat_n(1u8, 1024));
    let delta = AllocStats::snapshot().since(&before);
    assert!(
        delta.reallocs >= 1 || delta.allocs >= 2,
        "growth shows up as realloc or fresh alloc: {delta:?}"
    );

    // Monotone: raw snapshots never decrease.
    let late = AllocStats::snapshot();
    assert!(late.allocs >= before.allocs);
    assert!(late.deallocs >= before.deallocs);
    assert!(late.bytes >= before.bytes);
}
