//! The data-driven workflow executor.
//!
//! Tasks whose predecessors have all completed are submitted to the
//! [`Provider`] (optionally clustered); [`Provider::advance`] then runs to
//! the next instant at which submissions complete, the engine releases
//! their dependants, and repeats until the whole DAG has run. This is the
//! execution model of Swift/Karajan that the paper's Section 5 experiments
//! rely on.

use crate::workflow::cluster::cluster_ready;
use crate::workflow::dag::{Dag, NodeId};
use crate::workflow::provider::{Provider, Submission};
use crate::Micros;
use std::collections::HashMap;

/// Outcome of one workflow run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total wall time from t=0 to the last completion.
    pub makespan_us: Micros,
    /// Per-task finish times.
    pub finish_us: Vec<(NodeId, Micros)>,
    /// Per-stage `(first_submit, last_finish)` spans.
    pub(crate) stage_spans: Vec<(String, Micros, Micros)>,
    /// Submissions issued (tasks, or clusters when clustering).
    pub submissions: u64,
}

impl RunReport {
    /// Makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_us as f64 / 1e6
    }
}

/// The data-driven executor. See module docs.
pub struct WorkflowEngine {
    /// Cluster ready tasks into serial bundles of this size (1 = off).
    cluster_size: usize,
}

impl WorkflowEngine {
    /// Create an engine with no clustering.
    pub fn new() -> Self {
        WorkflowEngine { cluster_size: 1 }
    }

    /// Create an engine that clusters ready tasks into bundles of `k`.
    pub fn with_clustering(k: usize) -> Self {
        WorkflowEngine { cluster_size: k }
    }

    /// Execute `dag` on `provider`, starting at time 0.
    ///
    /// # Panics
    /// Panics if the DAG is cyclic or the provider deadlocks (has nothing
    /// open while tasks remain).
    pub fn run<P: Provider>(&self, dag: &Dag, provider: &mut P) -> RunReport {
        assert!(dag.topo_order().is_some(), "workflow DAG has a cycle");
        let n = dag.len();
        let mut indeg: Vec<usize> = dag.nodes().map(|id| dag.preds(id).len()).collect();
        let mut finish: Vec<Option<Micros>> = vec![None; n];
        let mut stage_first_submit: HashMap<String, Micros> = HashMap::new();
        let mut stage_last_finish: HashMap<String, Micros> = HashMap::new();
        let mut stage_order: Vec<String> = Vec::new();
        let mut submissions = 0u64;
        let mut now: Micros = 0;
        let mut completed = 0usize;

        let mut ready: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).map(NodeId).collect();

        while completed < n {
            // Submit everything currently ready (clustered per stage).
            if !ready.is_empty() {
                let batch: Vec<_> = ready
                    .drain(..)
                    .map(|id| (id, dag.task(id).clone()))
                    .collect();
                for (_, task) in &batch {
                    if !stage_first_submit.contains_key(&task.stage) {
                        stage_order.push(task.stage.clone());
                        stage_first_submit.insert(task.stage.clone(), now);
                    }
                }
                for cluster in cluster_ready(batch, self.cluster_size) {
                    submissions += 1;
                    provider.submit(now, Submission { tasks: cluster });
                }
            }
            let (at, done) = provider
                .advance()
                .expect("provider deadlock: tasks remain but nothing is open");
            now = now.max(at);
            for (node, t_fin) in done {
                assert!(finish[node.0].is_none(), "task completed twice");
                finish[node.0] = Some(t_fin);
                completed += 1;
                let stage = &dag.task(node).stage;
                let e = stage_last_finish.entry(stage.clone()).or_insert(0);
                *e = (*e).max(t_fin);
                for &succ in dag.succs(node) {
                    indeg[succ.0] -= 1;
                    if indeg[succ.0] == 0 {
                        ready.push(succ);
                    }
                }
            }
        }

        let makespan_us = finish
            .iter()
            .map(|f| f.expect("all finished"))
            .max()
            .unwrap_or(0);
        RunReport {
            makespan_us,
            finish_us: finish
                .iter()
                .enumerate()
                .map(|(i, f)| (NodeId(i), f.expect("finished")))
                .collect(),
            stage_spans: stage_order
                .into_iter()
                .map(|s| {
                    let first = stage_first_submit[&s];
                    let last = stage_last_finish.get(&s).copied().unwrap_or(first);
                    (s, first, last)
                })
                .collect(),
            submissions,
        }
    }
}

impl Default for WorkflowEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::dag::WfTask;
    use crate::workflow::provider::IdealProvider;

    fn chain(n: usize, runtime: Micros) -> Dag {
        let mut g = Dag::new();
        let mut prev = None;
        for i in 0..n {
            let id = g.add(WfTask::new(format!("t{i}"), format!("s{i}"), runtime));
            if let Some(p) = prev {
                g.depend(p, id);
            }
            prev = Some(id);
        }
        g
    }

    fn fan(n: usize, runtime: Micros) -> Dag {
        let mut g = Dag::new();
        for i in 0..n {
            g.add(WfTask::new(format!("t{i}"), "fan", runtime));
        }
        g
    }

    #[test]
    fn chain_runs_serially() {
        let dag = chain(5, 100);
        let mut p = IdealProvider::new(8);
        let report = WorkflowEngine::new().run(&dag, &mut p);
        assert_eq!(report.makespan_us, 500);
        assert_eq!(report.submissions, 5);
    }

    #[test]
    fn fan_exploits_parallelism() {
        let dag = fan(16, 100);
        let mut p = IdealProvider::new(4);
        let report = WorkflowEngine::new().run(&dag, &mut p);
        // 16 tasks on 4 workers → 4 waves.
        assert_eq!(report.makespan_us, 400);
    }

    #[test]
    fn clustering_reduces_submissions() {
        let dag = fan(16, 100);
        let mut p = IdealProvider::new(4);
        let report = WorkflowEngine::with_clustering(4).run(&dag, &mut p);
        assert_eq!(report.submissions, 4);
        // Same total work; clusters serialize internally: 4 clusters of
        // 400 µs on 4 workers.
        assert_eq!(report.makespan_us, 400);
    }

    #[test]
    fn diamond_orders_completions() {
        let mut g = Dag::new();
        let a = g.add(WfTask::new("a", "s1", 10));
        let b = g.add(WfTask::new("b", "s2", 20));
        let c = g.add(WfTask::new("c", "s2", 30));
        let d = g.add(WfTask::new("d", "s3", 40));
        g.depend(a, b);
        g.depend(a, c);
        g.depend(b, d);
        g.depend(c, d);
        let mut p = IdealProvider::new(8);
        let report = WorkflowEngine::new().run(&g, &mut p);
        // a at 10, c at 40, d at 80.
        assert_eq!(report.makespan_us, 80);
        let finish: std::collections::HashMap<_, _> = report.finish_us.iter().copied().collect();
        assert_eq!(finish[&a], 10);
        assert_eq!(finish[&d], 80);
        assert!(finish[&b] < finish[&d] && finish[&c] < finish[&d]);
    }

    #[test]
    fn stage_spans_reported() {
        let dag = chain(3, 100);
        let mut p = IdealProvider::new(1);
        let report = WorkflowEngine::new().run(&dag, &mut p);
        assert_eq!(report.stage_spans.len(), 3);
        let (ref s0, sub0, fin0) = report.stage_spans[0];
        assert_eq!(s0, "s0");
        assert_eq!(sub0, 0);
        assert_eq!(fin0, 100);
        let (_, sub2, fin2) = report.stage_spans[2];
        assert_eq!(sub2, 200);
        assert_eq!(fin2, 300);
    }

    #[test]
    fn matches_ideal_makespan_bound() {
        let dag = fan(100, 50);
        let mut p = IdealProvider::new(10);
        let report = WorkflowEngine::new().run(&dag, &mut p);
        // No dispatch cost: the larger of the critical path and the work
        // spread over the machines.
        let work: u64 = dag.nodes().map(|n| dag.task(n).runtime_us).sum();
        let bound = (work / 10).max(dag.critical_path_us());
        assert_eq!(report.makespan_us, bound);
    }
}
