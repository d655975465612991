//! Heap-allocation accounting for the benches and the pinned-counter
//! tests: a counting global allocator and snapshots of its counters.
//!
//! A process installs [`CountingAlloc`] as its `#[global_allocator]`;
//! [`AllocStats::snapshot`] deltas then give the allocations a measured
//! stretch of code made. On a single-threaded path the count is a pure
//! function of the inputs, which is what lets
//! `tests/paper_layer_allocs.rs` and `tests/event_engine_counters.rs`
//! pin it exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Tests and benches
/// install it as their `#[global_allocator]`; [`AllocStats::snapshot`] then
/// reads the counters (and stays all-zero in processes that never
/// installed it). Counting uses relaxed atomics — callers measure on
/// one thread, and approximate interleaving would only ever smear
/// counts across concurrent phases, never lose them.
pub struct CountingAlloc;

// The one justified `unsafe` in this crate: `GlobalAlloc` is an unsafe
// trait by contract. The impl adds no invariants of its own — it counts
// and delegates every call verbatim to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the [`CountingAlloc`] counters. Monotone: every field
/// only grows over a process's lifetime, so deltas via
/// [`AllocStats::since`] are always well-defined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations performed.
    pub allocs: u64,
    /// Heap deallocations performed.
    pub deallocs: u64,
    /// Reallocations (growth/shrink in place or by move).
    pub reallocs: u64,
    /// Bytes requested across allocations and growth reallocations.
    pub bytes: u64,
}

impl AllocStats {
    /// Reads the live counters (all zero unless [`CountingAlloc`] is the
    /// process's global allocator).
    #[must_use]
    pub fn snapshot() -> Self {
        AllocStats {
            allocs: ALLOCS.load(Ordering::Relaxed),
            deallocs: DEALLOCS.load(Ordering::Relaxed),
            reallocs: REALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// The delta from an `earlier` snapshot to this one.
    #[must_use]
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            deallocs: self.deallocs.saturating_sub(earlier.deallocs),
            reallocs: self.reallocs.saturating_sub(earlier.reallocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}
