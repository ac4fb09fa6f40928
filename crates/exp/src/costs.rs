//! The calibrated cost model for simulated deployments.
//!
//! Every knob is traceable to a number in the paper:
//!
//! * **Dispatcher CPU per message.** Falkon sustains 487 tasks/sec without
//!   security on `UC_x64`. In steady state (bundling + piggy-backing) each
//!   task costs one WS call = two messages at the dispatcher, so the
//!   dispatcher spends ≈ 1e6/487/2 ≈ 1,030 µs of serial CPU per message.
//!   With GSISecureConversation throughput drops to 204 tasks/sec →
//!   ≈ 2,450 µs per message.
//! * **Per-executor client cost.** A single executor drives 28 tasks/sec
//!   (12 with security): ≈ 35.7 ms per task of executor-side work
//!   (thread creation, WS call, exec, result delivery).
//! * **JVM startup ≈ 5 s** and **PBS poll loop 60 s** (Section 4.6: 5–65 s
//!   executor creation variance).
//! * **GC stalls.** Figure 8's raw throughput shows frequent 0-tasks/sec
//!   samples with a 1.5 GB heap and a queue that peaks at ≈1.5 M tasks;
//!   the moving average (298/s) sits ≈35% below the raw burst rate
//!   (450–500/s). We model a stop-the-world pause every `gc_every_done`
//!   completions whose length grows with the live set (queue length).

use crate::Micros;

// Calibration constants. Every value cites the paper number it reproduces
// (`tests/architecture.rs` checks the citation); the constructors
// below only assemble these, so a recalibration is a one-line diff next to
// its justification.

/// Serial dispatcher CPU per message without security, µs. Falkon sustains
/// 487 tasks/sec on UC_x64 (Fig. 3 asymptote); steady state costs two
/// messages per task, so 1e6 / 487 / 2 ≈ 1,030 µs.
pub(crate) const DISPATCHER_MSG_CPU_US: Micros = 1_030;

/// Serial dispatcher CPU per message with GSISecureConversation, µs.
/// Fig. 3: throughput drops to 204 tasks/sec → 1e6 / 204 / 2 ≈ 2,450 µs.
pub(crate) const DISPATCHER_MSG_CPU_SECURE_US: Micros = 2_450;

/// One-way network latency between any two hosts, µs. The paper's LAN
/// testbed (Section 4.2) sits in the 1–2 ms regime; we take the midpoint.
pub(crate) const NETWORK_LATENCY_US: Micros = 1_500;

/// Executor-side handling cost per task without security (thread create,
/// WS pickup, fork/exec, result send), µs. One executor drives 28 tasks/sec
/// (Fig. 3); 32 ms deterministic cost plus the log-normal jitter mean lands
/// the per-executor bound in that band.
pub(crate) const EXECUTOR_TASK_OVERHEAD_US: Micros = 32_000;

/// Executor-side handling cost per task with GSISecureConversation, µs.
/// Fig. 3: one secured executor drives 12 tasks/sec → ≈ 80 ms per task.
pub(crate) const EXECUTOR_TASK_OVERHEAD_SECURE_US: Micros = 80_000;

/// Log-normal sigma for executor overhead jitter (0 = deterministic),
/// fitted to the spread of the Fig. 10 per-task overhead distribution.
pub(crate) const EXECUTOR_OVERHEAD_SIGMA: f64 = 0.35;

/// Cap on executor overhead after jitter, µs (Fig. 10 max ≈ 1.3 s).
pub(crate) const EXECUTOR_OVERHEAD_CAP_US: Micros = 1_300_000;

/// JVM startup before a new executor registers, µs — the 5 s floor of the
/// 5–65 s executor-creation variance reported in Section 4.6.
pub(crate) const EXECUTOR_STARTUP_US: Micros = 5_000_000;

/// GRAM4 handling of an allocation request before it reaches the LRM, µs:
/// GRAM4 serves roughly 0.5 requests/sec (Section 4.6).
pub(crate) const ALLOC_REQUEST_OVERHEAD_US: Micros = 2_000_000;

/// Endurance runs: one stop-the-world GC pause per this many completed
/// tasks, calibrated so the Fig. 8 moving average (298/s) sits ≈35% below
/// the raw burst rate with frequent 0-tasks/sec samples.
pub(crate) const GC_EVERY_DONE: u64 = 1_500;

/// GC pause length per queued task, µs (live-set mark cost): the Fig. 8
/// queue peaks at ≈1.5 M tasks, stretching pauses to multi-second stalls.
pub(crate) const GC_PAUSE_PER_QUEUED_US: f64 = 2.0;

/// Minimum GC pause when triggered, µs — a young-collection floor sized so
/// even an empty queue shows the Fig. 8 dropout pattern.
pub(crate) const GC_PAUSE_MIN_US: Micros = 50_000;

/// Cost model for one simulated deployment.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostModel {
    /// Serial dispatcher CPU consumed per received or sent message, µs.
    pub dispatcher_msg_cpu_us: Micros,
    /// One-way network latency between any two hosts, µs (paper: 1–2 ms).
    pub network_latency_us: Micros,
    /// Executor-side handling cost per task (thread create, WS pickup,
    /// fork/exec, result send), µs.
    pub executor_task_overhead_us: Micros,
    /// Log-normal sigma for executor overhead jitter (0 = deterministic).
    pub executor_overhead_sigma: f64,
    /// Cap on executor overhead after jitter, µs (Figure 10 max ≈ 1.3 s).
    pub executor_overhead_cap_us: Micros,
    /// JVM startup before a new executor registers, µs.
    pub executor_startup_us: Micros,
    /// Stop-the-world GC pause every this many completed tasks (0 = off).
    pub gc_every_done: u64,
    /// GC pause length per queued task, µs (live-set mark cost).
    pub gc_pause_per_queued_us: f64,
    /// Minimum GC pause when triggered, µs.
    pub gc_pause_min_us: Micros,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::no_security()
    }
}

impl CostModel {
    /// Calibrated to Falkon without security (487 tasks/sec, 28 tasks/sec
    /// per executor).
    pub fn no_security() -> CostModel {
        CostModel {
            dispatcher_msg_cpu_us: DISPATCHER_MSG_CPU_US,
            network_latency_us: NETWORK_LATENCY_US,
            executor_task_overhead_us: EXECUTOR_TASK_OVERHEAD_US,
            executor_overhead_sigma: EXECUTOR_OVERHEAD_SIGMA,
            executor_overhead_cap_us: EXECUTOR_OVERHEAD_CAP_US,
            executor_startup_us: EXECUTOR_STARTUP_US,
            gc_every_done: 0,
            gc_pause_per_queued_us: 0.0,
            gc_pause_min_us: 0,
        }
    }

    /// Calibrated to GSISecureConversation (204 tasks/sec, 12 tasks/sec per
    /// executor).
    pub(crate) fn secure() -> CostModel {
        CostModel {
            dispatcher_msg_cpu_us: DISPATCHER_MSG_CPU_SECURE_US,
            executor_task_overhead_us: EXECUTOR_TASK_OVERHEAD_SECURE_US,
            ..CostModel::no_security()
        }
    }

    /// The Figure 8 endurance-run model: GC stalls enabled.
    pub fn with_gc() -> CostModel {
        CostModel {
            gc_every_done: GC_EVERY_DONE,
            gc_pause_per_queued_us: GC_PAUSE_PER_QUEUED_US,
            gc_pause_min_us: GC_PAUSE_MIN_US,
            ..CostModel::no_security()
        }
    }

    /// An idealized model with zero overheads (unit tests, ideal baselines).
    pub fn ideal() -> CostModel {
        CostModel {
            dispatcher_msg_cpu_us: 0,
            network_latency_us: 0,
            executor_task_overhead_us: 0,
            executor_overhead_sigma: 0.0,
            executor_overhead_cap_us: 0,
            executor_startup_us: 0,
            gc_every_done: 0,
            gc_pause_per_queued_us: 0.0,
            gc_pause_min_us: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steady-state dispatch rate the dispatcher CPU allows (two messages
    /// per task), tasks/sec.
    fn dispatch_bound_tps(m: CostModel) -> f64 {
        1e6 / (2.0 * m.dispatcher_msg_cpu_us as f64)
    }

    /// Per-executor rate the executor overhead allows, tasks/sec.
    fn executor_bound_tps(m: CostModel) -> f64 {
        1e6 / m.executor_task_overhead_us as f64
    }

    #[test]
    fn no_security_matches_487() {
        let tps = dispatch_bound_tps(CostModel::no_security());
        assert!((480.0..500.0).contains(&tps), "tps = {tps}");
    }

    #[test]
    fn secure_matches_204() {
        let tps = dispatch_bound_tps(CostModel::secure());
        assert!((195.0..215.0).contains(&tps), "tps = {tps}");
    }

    #[test]
    fn per_executor_bounds_match_28_and_12() {
        let open = executor_bound_tps(CostModel::no_security());
        assert!((27.0..33.0).contains(&open), "open = {open}");
        let sec = executor_bound_tps(CostModel::secure());
        assert!((11.0..14.0).contains(&sec), "secure = {sec}");
    }

    #[test]
    fn ideal_is_unbounded() {
        let m = CostModel::ideal();
        assert_eq!(
            (m.dispatcher_msg_cpu_us, m.executor_task_overhead_us),
            (0, 0)
        );
    }
}
