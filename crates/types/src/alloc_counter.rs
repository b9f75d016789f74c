//! Test-only heap-allocation counter (feature `alloc-count`).
//!
//! The fused publish pipeline claims *zero heap allocations after warm-up*
//! on its hot path. That claim is only worth anything if a test can fail
//! when it regresses, so this module provides [`CountingAlloc`]: a
//! [`GlobalAlloc`] wrapper around the [`System`] allocator that bumps a
//! thread-local counter on every `alloc`/`realloc`. A test binary installs
//! it with `#[global_allocator]`, warms the pipeline up, snapshots the
//! counter with [`allocation_count`], runs the hot path again and asserts
//! the delta is zero.
//!
//! Beside the count it keeps a high-water mark of the largest single
//! request ([`take_largest_allocation`]), so a decode test can show that
//! no value it reads makes it allocate more than a fixed cap, and a
//! live-byte ledger ([`live_bytes`]: bytes allocated minus bytes freed),
//! so a test can show how much heap a piece of work leaves behind.
//!
//! All three are plain thread-local [`Cell`]s with `const` initializers: no
//! lazy allocation, no destructor registration, so they are safe to touch
//! from inside the allocator itself. Counts are per thread —
//! a zero-alloc assertion on the calling thread says nothing about worker
//! threads, which is exactly right: the deterministic parallel paths *do*
//! allocate (thread stacks, scope bookkeeping) and the zero-alloc guarantee
//! is specified for the single-threaded hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Number of heap allocations performed by the current thread since it
/// started (only meaningful under a [`CountingAlloc`] global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The largest single allocation, in bytes, the current thread asked for
/// since its last call (a `realloc` counts its new size), and resets the
/// mark to zero. Only meaningful under a [`CountingAlloc`] global
/// allocator.
pub fn take_largest_allocation() -> usize {
    LARGEST.with(|c| c.replace(0))
}

/// Heap bytes the current thread has allocated and not freed since it
/// started: every allocation adds its size, every free subtracts it, and
/// a `realloc` adds the difference. A block freed on another thread than
/// the one that allocated it moves bytes between the two threads'
/// ledgers, so a thread's figure can go negative. Only meaningful under a
/// [`CountingAlloc`] global allocator.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Counts one allocation of `size` bytes.
fn record(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|c| c.set(c.get().max(size)));
}

/// Moves the current thread's live-byte ledger by `bytes`.
fn ledger(bytes: i64) {
    LIVE.with(|c| c.set(c.get() + bytes));
}

/// A [`System`]-backed global allocator that counts allocations per thread
/// and keeps each thread's live-byte ledger.
///
/// A `dealloc` is not counted as an allocation: the zero-alloc property
/// under test is "no new heap blocks on the hot path", and frees of
/// warm-up blocks would only add noise. It does come off the ledger.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        record(layout.size());
        if !ptr.is_null() {
            ledger(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        record(layout.size());
        if !ptr.is_null() {
            ledger(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        record(new_size);
        if !moved.is_null() {
            ledger(new_size as i64 - layout.size() as i64);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        ledger(-(layout.size() as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_a_value_and_is_monotone() {
        // Without the global allocator installed the counter never moves,
        // but the API must still be callable.
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
    }
}
