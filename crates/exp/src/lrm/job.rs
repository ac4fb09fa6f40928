//! Batch job descriptions and lifecycle states.

use crate::Micros;
use std::fmt;

/// Identifies a job within one scheduler.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A first-level request to the batch scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobSpec {
    /// Caller-assigned id (unique per scheduler).
    pub id: JobId,
    /// Nodes requested; all must be free simultaneously.
    pub nodes: u32,
    /// If `Some`, the payload runs for this long once started and the job
    /// then completes (a task job). If `None`, the job runs until cancelled
    /// or its walltime expires (a service job, e.g. a Falkon executor).
    pub runtime_us: Option<Micros>,
    /// Maximum wall time granted by the scheduler.
    pub walltime_us: Micros,
}

impl JobSpec {
    /// A single-node task job (the PBS/Condor baseline workload shape).
    pub(crate) fn task(id: u64, runtime_us: Micros) -> JobSpec {
        JobSpec {
            id: JobId(id),
            nodes: 1,
            runtime_us: Some(runtime_us),
            walltime_us: runtime_us.saturating_mul(10).max(3_600_000_000),
        }
    }

    /// A service job holding `nodes` nodes until cancelled or expired
    /// (how the Falkon provisioner acquires executors).
    pub(crate) fn service(id: u64, nodes: u32, walltime_us: Micros) -> JobSpec {
        JobSpec {
            id: JobId(id),
            nodes,
            runtime_us: None,
            walltime_us,
        }
    }
}

/// Why a job reached `Done`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DoneReason {
    /// Payload ran to completion.
    Completed,
    /// Cancelled by the submitter.
    Cancelled,
    /// Wall-time limit reached.
    WalltimeExpired,
}

/// Job lifecycle, as GRAM4 reports it (Queued → Active → Done).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Waiting in the scheduler queue.
    Queued,
    /// Running on allocated nodes.
    Active,
    /// Finished; nodes are being reclaimed.
    Done(DoneReason),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_job_shape() {
        let j = JobSpec::task(3, 60_000_000);
        assert_eq!(j.nodes, 1);
        assert_eq!(j.runtime_us, Some(60_000_000));
        assert!(j.walltime_us >= 600_000_000);
    }

    #[test]
    fn service_job_shape() {
        let j = JobSpec::service(1, 32, 3_600_000_000);
        assert_eq!(j.nodes, 32);
        assert_eq!(j.runtime_us, None);
    }

    #[test]
    fn job_id_debug() {
        assert_eq!(format!("{:?}", JobId(9)), "job#9");
    }
}
