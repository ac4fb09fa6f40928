//! The 18-stage synthetic provisioning workload (paper Figure 11).
//!
//! The paper constructs a stage-structured workload to exercise dynamic
//! resource provisioning: an exponential ramp-up in task counts over the
//! first stages, a sudden drop at stage 8, a surge of many short tasks in
//! stages 9–10, another drop at stage 11, a modest increase at stage 12, a
//! linear decrease through stages 13–14, and an exponential decrease to a
//! single task at stage 18. All tasks run 60 s except stages 8, 9, and 10
//! (120 s, 6 s, 12 s). Totals: 1,000 tasks, 17,820 CPU-seconds, and an
//! ideal completion time of ≈1,260 s on 32 machines.
//!
//! Our reconstruction reproduces every stated constraint exactly — 1,000
//! tasks, 17,820 CPU-s, the stated per-stage task lengths, and the described
//! shape — with an ideal 32-machine makespan of 1,266 s (the paper's exact
//! per-stage counts are not published; 1,266 vs 1,260 is the residual).

use crate::workflow::dag::{Dag, WfTask};

/// `(tasks, runtime_seconds)` for each of the 18 stages.
pub(crate) const STAGES: [(u32, u32); 18] = [
    (1, 60),   // 1  exponential ramp-up…
    (2, 60),   // 2
    (4, 60),   // 3
    (8, 60),   // 4
    (16, 60),  // 5
    (32, 60),  // 6
    (64, 60),  // 7
    (2, 120),  // 8  sudden drop (long tasks)
    (650, 6),  // 9  surge of many short tasks
    (150, 12), // 10 surge continues
    (3, 60),   // 11 drop
    (24, 60),  // 12 modest increase
    (17, 60),  // 13 linear decrease…
    (12, 60),  // 14
    (8, 60),   // 15 exponential decrease…
    (4, 60),   // 16
    (2, 60),   // 17
    (1, 60),   // 18
];

/// Total task count (1,000 in the paper).
pub fn total_tasks() -> u32 {
    STAGES.iter().map(|&(n, _)| n).sum()
}

/// Total CPU seconds (17,820 in the paper).
pub fn total_cpu_secs() -> u64 {
    STAGES.iter().map(|&(n, r)| n as u64 * r as u64).sum()
}

/// Machines needed per stage when each task maps to its own machine, capped
/// at `cap` (Figure 11 plots this with cap = 32).
pub(crate) fn machines_per_stage(cap: u32) -> Vec<u32> {
    STAGES.iter().map(|&(n, _)| n.min(cap)).collect()
}

/// Ideal completion time on `machines` machines with zero overhead: stages
/// run in sequence; within a stage, tasks run in ⌈n/machines⌉ waves.
pub fn ideal_makespan_secs(machines: u32) -> u64 {
    STAGES
        .iter()
        .map(|&(n, r)| (n.div_ceil(machines.max(1))) as u64 * r as u64)
        .sum()
}

/// Build the workload as a [`Dag`]: stages are sequential barriers (stage
/// k+1 becomes ready only when all of stage k finished), tasks within a
/// stage are independent — exactly how the paper's client submits it.
pub fn dag() -> Dag {
    let mut g = Dag::new();
    let mut prev_stage: Vec<crate::workflow::dag::NodeId> = Vec::new();
    for (idx, &(n, r)) in STAGES.iter().enumerate() {
        let stage_name = format!("stage{:02}", idx + 1);
        let mut cur = Vec::with_capacity(n as usize);
        for i in 0..n {
            let id = g.add(WfTask::new(
                format!("{stage_name}-t{i}"),
                stage_name.clone(),
                r as u64 * 1_000_000,
            ));
            for &p in &prev_stage {
                g.depend(p, id);
            }
            cur.push(id);
        }
        prev_stage = cur;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::engine::WorkflowEngine;
    use crate::workflow::provider::IdealProvider;

    #[test]
    fn totals_match_paper() {
        assert_eq!(total_tasks(), 1_000);
        assert_eq!(total_cpu_secs(), 17_820);
    }

    #[test]
    fn ideal_makespan_close_to_paper() {
        let ideal = ideal_makespan_secs(32);
        // Paper: 1,260 s on 32 machines; our reconstruction: within 1%.
        assert!((1_255..=1_275).contains(&ideal), "ideal = {ideal}");
    }

    #[test]
    fn shape_matches_description() {
        // Ramp-up doubles through stage 7.
        for i in 0..6 {
            assert_eq!(STAGES[i + 1].0, STAGES[i].0 * 2);
        }
        // Drop at stage 8, surge at 9.
        assert!(STAGES[7].0 < STAGES[6].0);
        assert!(STAGES[8].0 > 10 * STAGES[7].0);
        // Runtime exceptions only at stages 8–10.
        for (i, &(_, r)) in STAGES.iter().enumerate() {
            match i {
                7 => assert_eq!(r, 120),
                8 => assert_eq!(r, 6),
                9 => assert_eq!(r, 12),
                _ => assert_eq!(r, 60),
            }
        }
        // Exponential decrease to a single task.
        assert_eq!(STAGES[17].0, 1);
        for i in 14..17 {
            assert_eq!(STAGES[i].0, STAGES[i + 1].0 * 2);
        }
    }

    #[test]
    fn machines_per_stage_capped() {
        let m = machines_per_stage(32);
        assert_eq!(m[8], 32); // 650 tasks capped
        assert_eq!(m[0], 1);
        assert_eq!(m.len(), 18);
    }

    #[test]
    fn dag_matches_totals_and_runs() {
        let g = dag();
        assert_eq!(g.len(), 1_000);
        let work: u64 = g.nodes().map(|n| g.task(n).runtime_us).sum();
        assert_eq!(work, 17_820 * 1_000_000);
        // Running on an ideal 32-worker pool gives exactly the analytic
        // ideal (stage barriers included).
        let mut p = IdealProvider::new(32);
        let report = WorkflowEngine::new().run(&g, &mut p);
        assert_eq!(report.makespan_us, ideal_makespan_secs(32) * 1_000_000);
    }

    #[test]
    fn dag_has_stage_barriers() {
        let g = dag();
        // The single stage-18 task must transitively depend on stage 1.
        let last = crate::workflow::dag::NodeId(g.len() - 1);
        assert_eq!(g.preds(last).len(), STAGES[16].0 as usize);
    }
}
