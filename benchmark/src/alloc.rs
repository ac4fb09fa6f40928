//! A counting `#[global_allocator]`: allocations and bytes requested since
//! counting was switched on. Compiled into the benchmark binary always,
//! but it counts only while a traced trial has it enabled; an untraced run
//! pays one relaxed load per allocation and touches no counter.
//!
//! The counters are spread over [`SLOTS`] cache lines and every thread
//! keeps to one of them, so two CPUs allocating at once do not pass one
//! line back and forth: replayed on two threads at once, counting one
//! allocate-and-free pair costs 12-15 ns this way and 200-350 ns on
//! shared counters (`fat_secure` allocates 46 times a task).
//!
//! Ordering protocol: the counters are statistics. No other data is
//! published through them, so every access is `Relaxed`; a reader that
//! wants totals for an interval reads them after joining the threads whose
//! allocations it wants to see.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counter slots. More than the threads of any workload but `tier3_1k`'s
/// set-up, and far more than the CPUs that can count at one time.
const SLOTS: usize = 64;

/// One slot's counters, alone on their cache lines.
#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        freed: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot, `usize::MAX` until its first counted call. A
    /// const-initialised `Cell` of a `Copy` type has no lazy initialiser
    /// and no destructor, so reading it inside the allocator neither
    /// allocates nor registers anything.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot. Slot 0 for a thread whose thread-locals are
/// already gone; the allocator must not panic.
fn slot() -> &'static Slot {
    let i = MY_SLOT
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                // Relaxed: hands out numbers, see the ordering protocol.
                mine.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            mine.get()
        })
        .unwrap_or(0);
    &COUNTERS[i]
}

/// The system allocator with optional counting.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    // Relaxed: a statistic, see the module's ordering protocol.
    if ENABLED.load(Ordering::Relaxed) {
        let slot = slot();
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

#[inline]
fn count_freed(bytes: usize) {
    // Relaxed: a statistic, see the module's ordering protocol.
    if ENABLED.load(Ordering::Relaxed) {
        slot().freed.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointer or layout handed back.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_freed(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counter readings at one instant.
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocSnapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes handed back (dealloc, and the old size of each realloc).
    pub freed: u64,
}

impl AllocSnapshot {
    /// Bytes still held of what was requested since `earlier`.
    pub fn retained_since(&self, earlier: &AllocSnapshot) -> u64 {
        (self.bytes - earlier.bytes).saturating_sub(self.freed - earlier.freed)
    }
}

/// Switch counting on or off.
pub fn set_enabled(on: bool) {
    // Relaxed: a statistic, see the module's ordering protocol.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Read the counters.
pub fn snapshot() -> AllocSnapshot {
    let mut sum = AllocSnapshot::default();
    for slot in &COUNTERS {
        // Relaxed: a statistic, see the module's ordering protocol.
        sum.allocs += slot.allocs.load(Ordering::Relaxed);
        sum.bytes += slot.bytes.load(Ordering::Relaxed);
        sum.freed += slot.freed.load(Ordering::Relaxed);
    }
    sum
}
