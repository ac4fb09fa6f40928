//! Calibrated cost profiles for the modelled batch schedulers.
//!
//! Each profile captures the handful of parameters that determine the
//! paper's measured behaviour: the scheduler's poll/negotiation cycle, the
//! serial per-job dispatch overhead (which bounds sustainable throughput at
//! `1 / dispatch_overhead`), per-job start-up and clean-up latencies on the
//! node, and how long the scheduler takes to hand a freed node to the next
//! job.

use crate::Micros;

/// Cost model for one batch-scheduler deployment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LrmProfile {
    /// Human-readable name ("PBS v2.1.8", …).
    name: &'static str,
    /// Scheduling cycle: queued jobs are only examined this often.
    pub(crate) poll_interval_us: Micros,
    /// Serial scheduler time consumed to dispatch one job. Sustained
    /// throughput can never exceed `1e6 / dispatch_overhead_us` jobs/sec.
    pub(crate) dispatch_overhead_us: Micros,
    /// Node-side job start-up latency (staging, prologue, process launch).
    pub(crate) startup_us: Micros,
    /// Node-side clean-up latency after the payload exits (epilogue).
    pub(crate) cleanup_us: Micros,
    /// Additional delay before a freed node is schedulable again (the paper
    /// notes PBS "takes even longer to make the machine available again").
    pub(crate) node_release_us: Micros,
}

/// PBS v2.1.8 as measured on TG_ANL (Table 2: 0.45 tasks/sec; Table 3:
/// ≈39 s of per-job node overhead on top of the payload).
pub const PBS_V2_1_8: LrmProfile = LrmProfile {
    name: "PBS v2.1.8",
    poll_interval_us: 60_000_000, // 60 s scheduler polling loop (§4.6)
    dispatch_overhead_us: 1_900_000, // ≈0.45 jobs/s sustained incl. poll waits
    startup_us: 500_000,          // prologue
    cleanup_us: 500_000,          // epilogue
    node_release_us: 6_000_000,   // node returns to the free pool
};

/// Condor v6.7.2 (Table 2: 0.49 tasks/sec via a MyCluster personal pool).
pub(crate) const CONDOR_V6_7_2: LrmProfile = LrmProfile {
    name: "Condor v6.7.2",
    poll_interval_us: 20_000_000,    // negotiation cycle
    dispatch_overhead_us: 1_750_000, // ≈0.49 jobs/s sustained incl. cycles
    startup_us: 300_000,
    cleanup_us: 300_000,
    node_release_us: 3_000_000,
};

/// Condor v6.9.3 development series (Table 2 / Fig. 7: 11 tasks/sec, i.e.
/// 0.0909 s per-task overhead; the paper derives its efficiency curve from
/// exactly that number).
pub const CONDOR_V6_9_3: LrmProfile = LrmProfile {
    name: "Condor v6.9.3",
    poll_interval_us: 2_000_000,
    dispatch_overhead_us: 90_909, // 11 jobs/s
    startup_us: 0,
    cleanup_us: 0,
    node_release_us: 0,
};

/// An idealized LRM with no overheads at all; useful as the "Ideal" column
/// of Tables 3/4 and in unit tests.
pub const IDEAL: LrmProfile = LrmProfile {
    name: "Ideal",
    poll_interval_us: 1_000, // 1 ms: effectively instant at workload scale
    dispatch_overhead_us: 0,
    startup_us: 0,
    cleanup_us: 0,
    node_release_us: 0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_rates_match_paper() {
        // Raw pipeline rates, jobs/sec, sit slightly above the paper's
        // end-to-end 0.45/0.49 tasks/sec because poll waits and node
        // overheads add on.
        let rate = |p: LrmProfile| 1e6 / p.dispatch_overhead_us as f64;
        assert!((rate(PBS_V2_1_8) - 0.526).abs() < 0.01);
        assert!((rate(CONDOR_V6_7_2) - 0.571).abs() < 0.01);
        assert!((rate(CONDOR_V6_9_3) - 11.0).abs() < 0.01);
        assert_eq!(IDEAL.dispatch_overhead_us, 0);
    }

    #[test]
    fn pbs_node_overhead_is_small() {
        // Raw PBS node overhead is small; the ≈39 s per-task overhead that
        // Table 3 attributes to GRAM4+PBS lives in the GRAM gateway model
        // (`gram::DONE_DELAY_US`), not here.
        let p = PBS_V2_1_8;
        let oh = (p.startup_us + p.cleanup_us + p.node_release_us) as f64 / 1e6;
        assert!(oh < 10.0, "overhead = {oh}");
    }
}
