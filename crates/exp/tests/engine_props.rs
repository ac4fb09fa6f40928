//! Property tests for the workflow engine: random DAGs run every task
//! exactly once, dependencies are never violated, and clustering preserves
//! semantics while only changing submission counts.

use falkon_exp::workflow::dag::{Dag, NodeId, WfTask};
use falkon_exp::workflow::engine::WorkflowEngine;
use falkon_exp::workflow::provider::IdealProvider;
use proptest::prelude::*;
use std::collections::HashMap;

/// Build a random DAG: edges only point forward (guaranteed acyclic).
fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut g = Dag::new();
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                let stage = format!("s{}", i % 4);
                let runtime = 1 + next() % 1_000;
                g.add(WfTask::new(format!("t{i}"), stage, runtime))
            })
            .collect();
        for j in 1..n {
            // Up to 3 forward edges into node j.
            for _ in 0..(next() % 4) {
                let i = (next() % j as u64) as usize;
                g.depend(ids[i], ids[j]);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_runs_every_task_once_respecting_deps(
        dag in arb_dag(),
        workers in 1u32..8,
        cluster in 1usize..6,
    ) {
        let mut provider = IdealProvider::new(workers);
        let report = WorkflowEngine::with_clustering(cluster).run(&dag, &mut provider);

        // Exactly once.
        prop_assert_eq!(report.finish_us.len(), dag.len());
        let finish: HashMap<NodeId, u64> = report.finish_us.iter().copied().collect();
        prop_assert_eq!(finish.len(), dag.len());

        // Dependencies: a task finishes strictly after all predecessors.
        for node in dag.nodes() {
            for p in dag.preds(node) {
                prop_assert!(
                    finish[p] <= finish[&node] - dag.task(node).runtime_us,
                    "task {:?} started before predecessor {:?} finished",
                    node, p
                );
            }
        }

        // Makespan is bounded below by both work and critical path.
        prop_assert!(report.makespan_us >= dag.critical_path_us());
        let work: u64 = dag.nodes().map(|n| dag.task(n).runtime_us).sum();
        prop_assert!(report.makespan_us >= work / workers as u64);
    }

    #[test]
    fn clustering_never_changes_task_set(
        dag in arb_dag(),
        cluster in 1usize..8,
    ) {
        let mut p1 = IdealProvider::new(4);
        let plain = WorkflowEngine::new().run(&dag, &mut p1);
        let mut p2 = IdealProvider::new(4);
        let clustered = WorkflowEngine::with_clustering(cluster).run(&dag, &mut p2);
        prop_assert_eq!(plain.finish_us.len(), clustered.finish_us.len());
        prop_assert!(clustered.submissions <= plain.submissions);
    }
}
