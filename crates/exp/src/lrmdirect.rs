//! Baselines that submit every task straight to the batch scheduler —
//! what the paper compares Falkon against in Table 2 and Figure 7.

use crate::lrm::job::{JobId, JobSpec, JobState};
use crate::lrm::profile::LrmProfile;
use crate::lrm::scheduler::{BatchScheduler, LrmInput, LrmOutput};
use crate::Micros;
use std::collections::HashSet;

/// Outcome of submitting a batch of tasks directly to an LRM.
#[derive(Clone, Debug)]
pub(crate) struct DirectOutcome {
    /// Time of the last completion, µs.
    pub(crate) makespan_us: Micros,
    /// Aggregate throughput, tasks/sec.
    pub(crate) throughput: f64,
}

/// Submit `n` tasks of `runtime_us` each as individual jobs to a bare LRM
/// with `nodes` nodes and run to completion (the Table 2 PBS/Condor
/// measurement shape). Panics if the LRM goes idle with tasks unfinished.
pub(crate) fn run_direct(
    profile: LrmProfile,
    nodes: u32,
    n: u64,
    runtime_us: Micros,
) -> DirectOutcome {
    let mut lrm = BatchScheduler::new(profile, nodes);
    let mut out = Vec::new();
    for i in 0..n {
        lrm.handle(0, LrmInput::Submit(JobSpec::task(i, runtime_us)), &mut out);
    }
    let mut active: HashSet<JobId> = HashSet::new();
    let mut done = 0u64;
    let mut makespan = 0u64;
    let mut now = 0;
    let mut guard = 0u64;
    loop {
        for LrmOutput::State { job, state } in out.drain(..) {
            match state {
                JobState::Queued => {}
                JobState::Active => {
                    active.insert(job);
                }
                JobState::Done(_) => {
                    if active.remove(&job) {
                        done += 1;
                        makespan = makespan.max(now);
                    }
                }
            }
        }
        if done == n {
            break;
        }
        let Some(t) = lrm.next_wakeup() else {
            panic!("LRM idle at {done}/{n}")
        };
        lrm.handle(t, LrmInput::Tick, &mut out);
        now = t;
        guard += 1;
        assert!(guard < 50_000_000, "LRM run stuck at {done}/{n}");
    }
    DirectOutcome {
        makespan_us: makespan,
        throughput: done as f64 / (makespan.max(1) as f64 / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrm::profile::{CONDOR_V6_7_2, CONDOR_V6_9_3, PBS_V2_1_8};

    #[test]
    fn pbs_table2_rate() {
        // 100 sleep-0 tasks on 64 nodes: paper measured ≈224 s (0.45/s).
        let out = run_direct(PBS_V2_1_8, 64, 100, 0);
        let rate = out.throughput;
        assert!((0.3..0.65).contains(&rate), "PBS rate = {rate:.2}");
    }

    #[test]
    fn condor_table2_rate() {
        let out = run_direct(CONDOR_V6_7_2, 64, 100, 0);
        let rate = out.throughput;
        assert!((0.35..0.75).contains(&rate), "Condor rate = {rate:.2}");
    }

    #[test]
    fn condor693_is_much_faster() {
        let out = run_direct(CONDOR_V6_9_3, 64, 200, 0);
        assert!(out.throughput > 5.0, "rate = {:.1}", out.throughput);
    }

    #[test]
    fn long_tasks_amortize_overhead() {
        // Figure 7's premise: with 1,200 s tasks PBS reaches ≈90% efficiency.
        let n = 64u64;
        let runtime = 1_200_000_000u64;
        let out = run_direct(PBS_V2_1_8, 32, n, runtime);
        let ideal = (n / 32) * runtime;
        let efficiency = ideal as f64 / out.makespan_us as f64;
        assert!(
            (0.75..1.0).contains(&efficiency),
            "efficiency = {efficiency:.2}"
        );
    }
}
