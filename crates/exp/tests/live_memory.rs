//! Memory follows live work, not history: a paced, Figure-8-shaped run
//! through [`SimFalkon`] under a counting global allocator.
//!
//! Two things are pinned. While the run is going, peak live heap is bounded
//! by the *peak queue* (what the dispatcher holds at once) plus the
//! per-task `records` the experiments read afterwards — not by anything
//! else that grows with the number of tasks ever submitted. And once the
//! queue has drained, everything but `records` is back to a constant.
//!
//! Calibration (quick scale: 120,000 tasks, peak queue 82,549): this tree
//! peaks at 21.6 MB against a bound of 32.6 MB and holds 0.2 MB besides
//! `records` after the drain. The parent of the change that added this test
//! read 68.4 MB at the peak — the client's whole workload materialised
//! twice, a 224-byte ring entry per queued task, every result kept for a
//! client that never fetched it, three raw-sample histograms and a
//! queue-depth series — and 46.4 MB besides `records` after the drain: it
//! fails both assertions.
//!
//! Ordering protocol: no synchronizes-with edges. The two byte tallies are
//! `Relaxed` counters bumped and read on the one thread this file's single
//! test runs on (the harness's main thread only waits); program order
//! sequences every access that matters.

use falkon_core::dispatcher::TaskRecord;
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

/// Bytes a queued task may hold live: a 128-byte `TaskSpec` in the bundle
/// it arrived in, with room for a bundle's buffer kept whole behind its
/// last few tasks.
const PER_QUEUED: usize = 160;

/// Bytes a submitted task may hold live for the whole run: its
/// `TaskRecord`, twice over because `records` grows by doubling.
const PER_TASK: usize = 2 * std::mem::size_of::<TaskRecord>();

/// Everything that does not scale: executors, the event wheel, the
/// recorder's bucket arrays, the bundles in flight.
const SLACK: usize = 2 << 20;

#[test]
fn paced_run_memory_follows_the_live_queue() {
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
    let base = live();
    // Relaxed: see `grew`.
    PEAK.store(base, Ordering::Relaxed);
    sim.submit_stream(0, (0..TASKS).map(|i| TaskSpec::sleep(i as u64, 0)));
    let out = sim.run_until_drained();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let held = live() - base;
    assert_eq!(out.tasks, TASKS as u64);

    let peak_queue = out.queue_series.max_value() as usize;
    assert!(peak_queue > TASKS / 2, "the queue must build: {peak_queue}");
    let bound = peak_queue * PER_QUEUED + TASKS * PER_TASK + SLACK;
    eprintln!("peak queue {peak_queue}, peak live {peak} B (bound {bound} B)");
    assert!(
        peak <= bound,
        "peak live heap {peak} B exceeds {bound} B = {peak_queue} queued x {PER_QUEUED} \
         + {TASKS} tasks x {PER_TASK} + {SLACK}: something besides the queue and \
         `records` grows with the run"
    );

    // Drained: what the run leaves live, besides the records the outcome
    // was asked for, no longer depends on its length.
    let records = out.records.capacity() * std::mem::size_of::<TaskRecord>();
    let rest = held.saturating_sub(records);
    eprintln!("after the drain: {held} B live, {rest} B besides records");
    assert!(
        rest <= SLACK,
        "{rest} B still live after the drain besides `records` ({records} B): \
         memory is following history, not live work"
    );
    // The deployment was alive, drained, for everything measured above.
    drop(sim);
}
