//! Memory follows live work, not history, on both axes: runs through
//! [`SimFalkon`] under a counting global allocator.
//!
//! Tasks: a paced, Figure-8-shaped run driven through the fold. While it is
//! going, peak live heap is bounded by the *peak queue* (what the
//! dispatcher holds at once) and by nothing that grows with the number of
//! tasks ever submitted; once the queue has drained, everything is back to
//! a constant.
//!
//! Executors: a Figure-9-shaped run, one task per executor. Peak live heap
//! is bounded per registered executor — its machine, its row in the
//! dispatcher's tables, the `running` entry and the timers of its one task.
//!
//! Calibration. Tasks (quick scale: 120,000 tasks, peak queue 82,549): this
//! tree peaks at 1.60 MB — an 8-byte id per queued task and one 144-byte
//! shared shape per bundle of 300, under 20 B per queued task with every
//! constant counted in — against a bound of 4.74 MB, and holds 0.16 MB
//! after the drain. A tree that queued a 128-byte `TaskSpec` per task read
//! 11.4 MB at the peak (138 B per queued task) and fails. Executors
//! (20,000): this tree peaks at 16.4 MB, 821 B per executor, against a
//! bound of 22.1 MB. Its parent, whose `running` entry carried a clone of
//! the task's 128-byte spec and whose simulator built a `sim-node-N` host
//! name per executor, read 24.6 MB, 1,229 B per executor, and fails; so
//! does every tree before it (2,683 B per executor for a 616-byte machine
//! with a 512-byte backlog block and a record per task).
//!
//! Ordering protocol: no synchronizes-with edges. The two byte tallies are
//! `Relaxed` counters bumped and read on the one thread this file's single
//! test runs on (the harness's main thread only waits); program order
//! sequences every access that matters.
// A counting `GlobalAlloc` is an `unsafe impl`; it forwards to `System`.
#![allow(unsafe_code)]

use falkon_core::DispatcherConfig;
use falkon_exp::costs::CostModel;
use falkon_exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::task::TaskSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    // Relaxed: tallies read on the thread that bumps them; nothing is
    // published over these edges.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    // Relaxed: see `grew`.
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: delegates every operation unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tallies are a side effect only.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded verbatim; `layout` is the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: forwarded verbatim; `ptr`/`layout` came from this
        // allocator's `alloc` per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block coexist while the allocator copies.
        grew(new_size);
        shrank(layout.size());
        // SAFETY: forwarded verbatim per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> usize {
    // Relaxed: see `grew`.
    LIVE.load(Ordering::Relaxed)
}

/// Bytes a queued task may hold live: its 8-byte id, its share of its
/// run's 144-byte shape and of its bundle's bookkeeping, with room for a
/// bundle's id column kept whole behind its last few tasks. Any
/// per-queued-task structure heavier than ≈16 B on top of the id crosses it.
const PER_QUEUED: usize = 32;

/// Bytes a registered executor with one task in flight may hold live: its
/// 184-byte machine and table row, the dispatcher's 65-byte `running` slot
/// (an id, and a handle on the shape its task shares with the rest of its
/// bundle), the task in its `Work` message, two or three timers. The
/// dispatcher's tables grow by doubling and 20,000 rows sit in 32,768
/// slots, so each of those counts 1.64 times.
const PER_EXECUTOR: usize = 1_000;

/// Everything that does not scale: executors (in the paced run), the event
/// wheel, the recorder's bucket arrays, the bundles in flight.
const SLACK: usize = 2 << 20;

/// Peak live heap and live heap now, both since `base`.
fn since(base: usize) -> (usize, usize) {
    // Relaxed: see `grew`.
    (PEAK.load(Ordering::Relaxed) - base, live() - base)
}

fn mark() -> usize {
    let base = live();
    // Relaxed: see `grew`.
    PEAK.store(base, Ordering::Relaxed);
    base
}

fn paced_run_follows_the_live_queue() {
    const TASKS: usize = 120_000;
    // `experiments::endurance::fig8` at quick scale.
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 64,
        executors_per_node: 2,
        costs: CostModel {
            gc_pause_per_queued_us: 20.0,
            ..CostModel::with_gc()
        },
        client_submit_rate: Some(1_250.0),
        sample_interval_us: 1_000_000,
        ..SimFalkonConfig::default()
    });
    let base = mark();
    sim.submit_stream(0, (0..TASKS).map(|i| TaskSpec::sleep(i as u64, 0)));
    let mut seen = 0usize;
    let out = sim.run_until_drained_with(|_| seen += 1);
    let (peak, held) = since(base);
    assert_eq!((out.tasks, seen), (TASKS as u64, TASKS));

    let peak_queue = out.queue_series.max_value() as usize;
    assert!(peak_queue > TASKS / 2, "the queue must build: {peak_queue}");
    let bound = peak_queue * PER_QUEUED + SLACK;
    eprintln!("peak queue {peak_queue}, peak live {peak} B (bound {bound} B)");
    assert!(
        peak <= bound,
        "peak live heap {peak} B exceeds {bound} B = {peak_queue} queued x {PER_QUEUED} \
         + {SLACK}: something besides the queue grows with the run"
    );

    // Drained: what the run leaves live no longer depends on its length.
    eprintln!("after the drain: {held} B live");
    assert!(
        held <= SLACK,
        "{held} B still live after the drain: memory is following history, not live work"
    );
    // The deployment was alive, drained, for everything measured above.
    drop(sim);
}

fn pool_is_bounded_per_executor() {
    const EXECUTORS: usize = 20_000;
    // `experiments::scale54k` in miniature: one task per executor.
    let base = mark();
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: EXECUTORS as u32,
        executors_per_node: 900,
        dispatcher: DispatcherConfig {
            piggyback: false,
            client_notify_batch: 100_000,
            ..DispatcherConfig::default()
        },
        sample_interval_us: 1_000_000,
        ..SimFalkonConfig::default()
    });
    sim.submit_stream(0, (0..EXECUTORS).map(|i| TaskSpec::sleep(i as u64, 48)));
    let out = sim.run_until_drained_with(drop);
    let (peak, _) = since(base);
    assert_eq!(out.tasks, EXECUTORS as u64);
    assert_eq!(out.busy_series.max_value() as usize, EXECUTORS);

    let bound = EXECUTORS * PER_EXECUTOR + SLACK;
    eprintln!(
        "{EXECUTORS} executors, peak live {peak} B = {} B each (bound {bound} B)",
        peak / EXECUTORS
    );
    assert!(
        peak <= bound,
        "peak live heap {peak} B exceeds {bound} B = {EXECUTORS} executors x {PER_EXECUTOR} \
         + {SLACK}: a registered executor has put on weight"
    );
    drop(sim);
}

/// One test, so the cases have the allocator's tallies to themselves.
#[test]
fn memory_follows_live_work() {
    paced_run_follows_the_live_queue();
    pool_is_bounded_per_executor();
}
