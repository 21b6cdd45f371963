//! Writes to a metric that already exists allocate nothing: the metrics
//! registry looks a name up before it copies it into the map.
//!
//! This test binary counts heap allocations per thread with a global
//! allocator that delegates every call to the system allocator, so the
//! count covers only the thread that runs the writes.

use phom::prelude::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (const-initialised, so reading
    /// and bumping it allocates nothing).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts each allocation on the allocating thread, then hands the call
/// to [`System`].
struct Counting;

fn count() {
    // `try_with`: a thread tearing down its locals still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments to `System` unchanged, so
// `System`'s guarantees carry over; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn writes_to_registered_metrics_allocate_nothing() {
    let metrics = MetricsRegistry::new();
    metrics.counter_add("queries_admitted", 1);
    metrics.gauge_set("in_flight", 1);
    metrics.histogram_record("query_micros", 1);
    let allocations = allocations_during(|| {
        for i in 0..1_000u64 {
            metrics.counter_add("queries_admitted", 1);
            metrics.gauge_set("in_flight", i as i64);
            metrics.histogram_record("query_micros", u128::from(i));
        }
    });
    assert_eq!(allocations, 0, "3,000 writes to registered metrics");
    assert_eq!(metrics.counter_lifetime("queries_admitted"), 1_001);
    assert_eq!(metrics.gauge_get("in_flight"), 999);
    // A first write still creates its metric.
    assert!(allocations_during(|| metrics.counter_add("fresh", 1)) > 0);
}
