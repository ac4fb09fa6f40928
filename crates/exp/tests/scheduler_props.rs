//! Property tests for the batch-scheduler model: nodes never leak, job
//! states progress monotonically, and arbitrary submit/cancel interleavings
//! quiesce with the full pool free.

use falkon_exp::lrm::job::{JobId, JobSpec, JobState};
use falkon_exp::lrm::profile::{LrmProfile, CONDOR_V6_9_3, IDEAL, PBS_V2_1_8};
use falkon_exp::lrm::scheduler::{BatchScheduler, LrmInput, LrmOutput};
use proptest::prelude::*;
use std::collections::HashMap;

fn profile_from(idx: u8) -> LrmProfile {
    match idx % 3 {
        0 => PBS_V2_1_8,
        1 => CONDOR_V6_9_3,
        _ => IDEAL,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn nodes_never_leak(
        profile_idx in 0u8..3,
        nodes in 1u32..32,
        ops in prop::collection::vec((0u8..3, 0u32..8, 0u64..120), 1..60),
    ) {
        let profile = profile_from(profile_idx);
        let mut s = BatchScheduler::new(profile, nodes);
        let mut out: Vec<LrmOutput> = Vec::new();
        let mut now = 0u64;
        let mut next_job = 0u64;
        let mut submitted: Vec<JobId> = Vec::new();
        let mut states: HashMap<JobId, JobState> = HashMap::new();

        let check_transitions = |out: &mut Vec<LrmOutput>, states: &mut HashMap<JobId, JobState>| {
            for LrmOutput::State { job, state } in out.drain(..) {
                let prev = states.insert(job, state);
                // Monotonic lifecycle: Queued → Active → Done; Done is final.
                match (prev, state) {
                    (None, _) => {}
                    (Some(JobState::Queued), _) => {}
                    (Some(JobState::Active), JobState::Active | JobState::Done(_)) => {}
                    (Some(JobState::Done(_)), s) => {
                        prop_assert!(false, "state change after Done: {s:?}");
                    }
                    (Some(JobState::Active), JobState::Queued) => {
                        prop_assert!(false, "Active regressed to Queued");
                    }
                }
            }
            Ok(())
        };

        for (op, size, dt) in ops {
            now += dt * 1_000_000;
            match op {
                0 => {
                    let id = JobId(next_job);
                    next_job += 1;
                    let wants = (size % nodes) + 1;
                    let spec = if size % 2 == 0 {
                        JobSpec { id, nodes: wants, runtime_us: Some(1_000_000), walltime_us: 3_600_000_000 }
                    } else {
                        JobSpec { id, nodes: wants, runtime_us: None, walltime_us: 30_000_000 }
                    };
                    s.handle(now, LrmInput::Submit(spec), &mut out);
                    submitted.push(id);
                }
                1 => {
                    if let Some(&victim) = submitted.get(size as usize % submitted.len().max(1)) {
                        s.handle(now, LrmInput::Cancel(victim), &mut out);
                    }
                }
                _ => {
                    s.handle(now, LrmInput::Tick, &mut out);
                }
            }
            check_transitions(&mut out, &mut states)?;
            prop_assert!(s.free_nodes() <= nodes);
        }

        // Quiesce: run every pending wakeup.
        let mut guard = 0;
        while let Some(t) = s.next_wakeup() {
            s.handle(t.max(now), LrmInput::Tick, &mut out);
            check_transitions(&mut out, &mut states)?;
            guard += 1;
            prop_assert!(guard < 100_000, "scheduler failed to quiesce");
        }
        // Every node returns to the pool.
        prop_assert_eq!(s.free_nodes(), nodes);
        // Every submitted job reached a terminal state.
        for id in submitted {
            prop_assert!(
                matches!(states.get(&id), Some(JobState::Done(_))),
                "job {:?} never finished: {:?}", id, states.get(&id)
            );
        }
    }
}
