//! Counting global allocator. Only threads that opt in with [`counting`]
//! are counted, so a rank thread's tally is not polluted by transport or
//! engine threads running alongside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and a
// const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Process-wide totals counted so far: `(allocations, bytes)`.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Runs `f` with this thread's allocations counted.
pub fn counting<T>(f: impl FnOnce() -> T) -> T {
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_opted_in_threads() {
        // Other tests allocate concurrently without opting in, so the
        // totals may move only by what this thread allocates.
        let (a0, b0) = totals();
        let v = counting(|| std::hint::black_box(vec![0u8; 4096]));
        let (a1, b1) = totals();
        drop(v);
        assert!(a1 > a0 && b1 >= b0 + 4096);
        std::thread::spawn(|| std::hint::black_box(vec![0u8; 1 << 20]))
            .join()
            .unwrap();
        let (a2, b2) = totals();
        assert!(b2 - b1 < 1 << 20, "an uncounted thread was counted");
        assert!(a2 >= a1);
    }
}
