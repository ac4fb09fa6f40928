//! Baselines that submit every task straight to the batch scheduler —
//! what the paper compares Falkon against in Table 2 and Figure 7.

use crate::Micros;
use falkon_lrm::job::{JobId, JobSpec, JobState};
use falkon_lrm::profile::LrmProfile;
use falkon_lrm::scheduler::{BatchScheduler, LrmInput, LrmOutput};
use std::collections::HashMap;

/// Outcome of submitting a batch of tasks directly to an LRM.
#[derive(Clone, Debug)]
pub struct DirectOutcome {
    /// Tasks completed.
    pub tasks: u64,
    /// Time of the last completion, µs.
    pub makespan_us: Micros,
    /// Aggregate throughput, tasks/sec.
    pub throughput: f64,
    /// Mean client-visible queue time (submit → Active), µs.
    pub avg_queue_us: f64,
    /// Mean client-visible execution time (Active → Done), µs.
    pub avg_exec_us: f64,
}

/// Submit `n` tasks of `runtime_us` each as individual jobs to a bare LRM
/// with `nodes` nodes and run to completion (the Table 2 PBS/Condor
/// measurement shape).
pub fn run_direct(profile: LrmProfile, nodes: u32, n: u64, runtime_us: Micros) -> DirectOutcome {
    let mut lrm = BatchScheduler::new(profile, nodes);
    let mut out = Vec::new();
    for i in 0..n {
        lrm.handle(0, LrmInput::Submit(JobSpec::task(i, runtime_us)), &mut out);
    }
    let mut active: HashMap<JobId, Micros> = HashMap::new();
    let mut queue_sum = 0u64;
    let mut exec_sum = 0u64;
    let mut done = 0u64;
    let mut makespan = 0u64;
    let mut guard = 0u64;
    drain(
        &mut out,
        0,
        &mut active,
        &mut queue_sum,
        &mut exec_sum,
        &mut done,
        &mut makespan,
    );
    while done < n {
        let Some(t) = lrm.next_wakeup() else { break };
        lrm.handle(t, LrmInput::Tick, &mut out);
        drain(
            &mut out,
            t,
            &mut active,
            &mut queue_sum,
            &mut exec_sum,
            &mut done,
            &mut makespan,
        );
        guard += 1;
        assert!(guard < 50_000_000, "LRM run stuck at {done}/{n}");
    }
    DirectOutcome {
        tasks: done,
        makespan_us: makespan,
        throughput: done as f64 / (makespan.max(1) as f64 / 1e6),
        avg_queue_us: queue_sum as f64 / done.max(1) as f64,
        avg_exec_us: exec_sum as f64 / done.max(1) as f64,
    }
}

fn drain(
    out: &mut Vec<LrmOutput>,
    now: Micros,
    active: &mut HashMap<JobId, Micros>,
    queue_sum: &mut u64,
    exec_sum: &mut u64,
    done: &mut u64,
    makespan: &mut u64,
) {
    for LrmOutput::State { job, state } in out.drain(..) {
        match state {
            JobState::Queued => {}
            JobState::Active => {
                active.insert(job, now);
                *queue_sum += now; // submit was at t=0
            }
            JobState::Done(_) => {
                if let Some(t_active) = active.remove(&job) {
                    *exec_sum += now - t_active;
                    *done += 1;
                    *makespan = (*makespan).max(now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_lrm::profile::{CONDOR_V6_7_2, CONDOR_V6_9_3, PBS_V2_1_8};

    #[test]
    fn pbs_table2_rate() {
        // 100 sleep-0 tasks on 64 nodes: paper measured ≈224 s (0.45/s).
        let out = run_direct(PBS_V2_1_8, 64, 100, 0);
        assert_eq!(out.tasks, 100);
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
