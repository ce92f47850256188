//! Heap allocations of the event queue, counted by a wrapping global
//! allocator. Once the queue has carried a pattern of pushes and pops,
//! repeating it must not allocate: slab slots, chains and map entries are
//! all recycled.

use astral_sim::{EventQueue, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and reallocations, so tests running
/// on other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter is a plain thread-local `Cell`
// that never allocates (const-initialized, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One simulated step: a batch of `k` flow starts at the step's start
/// time, then `k` completions at `k` distinct later times, pushed out of
/// time order as a rate solve emits them, then every event popped.
/// Returns the time of the last event.
fn step(q: &mut EventQueue<u64>, k: u64) -> SimTime {
    let start = q.now().as_nanos() + 1;
    for i in 0..k {
        q.schedule(SimTime::from_nanos(start), i);
    }
    for i in 0..k {
        // A permutation of 0..k, as k is coprime to 37.
        let rank = i * 37 % k;
        q.schedule(SimTime::from_nanos(start + 1 + 7 * rank), k + i);
    }
    let mut last = q.now();
    while let Some((t, _)) = q.pop() {
        last = t;
    }
    last
}

#[test]
fn repeated_steps_allocate_nothing_after_warm_up() {
    const K: u64 = 64;
    let mut q = EventQueue::new();
    for _ in 0..2 {
        step(&mut q, K);
    }
    let before = allocs();
    for _ in 0..16 {
        let last = step(&mut q, K);
        assert_eq!(last, q.now());
        assert!(q.is_empty());
    }
    assert_eq!(allocs() - before, 0, "a warmed queue allocated");
}
