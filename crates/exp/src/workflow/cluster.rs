//! Task clustering (the paper's "Swift with clustering" baseline).
//!
//! When dispatch overhead dwarfs task runtime, Swift can wrap several small
//! tasks into one batch-scheduler job that runs them serially. Figure 14
//! shows clustering into eight groups cutting fMRI execution time by more
//! than 4× under GRAM4+PBS — while still losing to Falkon, whose per-task
//! dispatch is cheap enough not to need clustering.

use crate::workflow::dag::{NodeId, WfTask};

/// Group `ready` tasks into clusters of at most `cluster_size`, keeping
/// tasks of the same stage together (clusters never mix stages, mirroring
/// Swift's per-derivation clustering).
pub(crate) fn cluster_ready(
    ready: Vec<(NodeId, WfTask)>,
    cluster_size: usize,
) -> Vec<Vec<(NodeId, WfTask)>> {
    assert!(cluster_size > 0, "cluster size must be positive");
    let mut by_stage: Vec<(String, Vec<(NodeId, WfTask)>)> = Vec::new();
    for (id, task) in ready {
        match by_stage.iter_mut().find(|(s, _)| *s == task.stage) {
            Some((_, v)) => v.push((id, task)),
            None => by_stage.push((task.stage.clone(), vec![(id, task)])),
        }
    }
    let mut out = Vec::new();
    for (_, tasks) in by_stage {
        let mut cur = Vec::with_capacity(cluster_size);
        for t in tasks {
            cur.push(t);
            if cur.len() == cluster_size {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(stage_sizes: &[(&str, usize)]) -> Vec<(NodeId, WfTask)> {
        let mut out = Vec::new();
        let mut id = 0;
        for &(stage, n) in stage_sizes {
            for _ in 0..n {
                out.push((NodeId(id), WfTask::new(format!("t{id}"), stage, 100)));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn clusters_within_stage() {
        let clusters = cluster_ready(tasks(&[("a", 5), ("b", 3)]), 2);
        // a: 2+2+1, b: 2+1
        assert_eq!(clusters.len(), 5);
        for c in &clusters {
            let stage = &c[0].1.stage;
            assert!(c.iter().all(|(_, t)| &t.stage == stage));
        }
    }

    #[test]
    fn preserves_task_multiset() {
        let input = tasks(&[("a", 7), ("b", 4)]);
        let ids: Vec<usize> = input.iter().map(|(n, _)| n.0).collect();
        let clusters = cluster_ready(input, 3);
        let mut out_ids: Vec<usize> = clusters.iter().flatten().map(|(n, _)| n.0).collect();
        out_ids.sort_unstable();
        assert_eq!(out_ids, ids);
    }

    #[test]
    fn cluster_of_one_is_identity() {
        let clusters = cluster_ready(tasks(&[("a", 4)]), 1);
        assert_eq!(clusters.len(), 4);
        assert!(clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn empty_input() {
        assert!(cluster_ready(Vec::new(), 5).is_empty());
    }
}
