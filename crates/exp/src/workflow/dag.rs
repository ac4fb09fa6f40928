//! Data-driven task graphs.

use crate::Micros;
use std::collections::HashMap;
use std::fmt;

/// Index of a task within a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One workflow task.
#[derive(Clone, PartialEq, Debug)]
pub struct WfTask {
    /// Executable name (e.g. `mProject`).
    name: String,
    /// Stage label for reporting (e.g. `"stage9"` or `"mDiff"`).
    pub(crate) stage: String,
    /// Payload duration, µs.
    pub runtime_us: Micros,
}

impl WfTask {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, stage: impl Into<String>, runtime_us: Micros) -> WfTask {
        WfTask {
            name: name.into(),
            stage: stage.into(),
            runtime_us,
        }
    }
}

/// A directed acyclic graph of tasks.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    tasks: Vec<WfTask>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
}

impl Dag {
    /// Create an empty DAG.
    pub fn new() -> Dag {
        Dag::default()
    }

    /// Add a task, returning its id.
    pub fn add(&mut self, task: WfTask) -> NodeId {
        self.tasks.push(task);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        NodeId(self.tasks.len() - 1)
    }

    /// Declare that `to` consumes output of `from` (i.e. `from → to`).
    pub fn depend(&mut self, from: NodeId, to: NodeId) {
        assert!(from.0 < self.tasks.len() && to.0 < self.tasks.len());
        assert_ne!(from, to, "self-dependency");
        self.preds[to.0].push(from);
        self.succs[from.0].push(to);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task at `id`.
    pub fn task(&self, id: NodeId) -> &WfTask {
        &self.tasks[id.0]
    }

    /// Predecessors of `id`.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.0]
    }

    /// Successors of `id`.
    pub(crate) fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.0]
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.tasks.len()).map(NodeId)
    }

    /// Task count per stage, in first-seen stage order.
    pub fn stage_histogram(&self) -> Vec<(String, usize, Micros)> {
        let mut order: Vec<String> = Vec::new();
        let mut counts: HashMap<&str, (usize, Micros)> = HashMap::new();
        for t in &self.tasks {
            if !counts.contains_key(t.stage.as_str()) {
                order.push(t.stage.clone());
            }
            let e = counts.entry(t.stage.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += t.runtime_us;
        }
        order
            .into_iter()
            .map(|s| {
                let (n, cpu) = counts[s.as_str()];
                (s, n, cpu)
            })
            .collect()
    }

    /// Verify acyclicity via Kahn's algorithm; returns a topological order
    /// or `None` if a cycle exists.
    pub(crate) fn topo_order(&self) -> Option<Vec<NodeId>> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut stack: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| NodeId(i))
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(n) = stack.pop() {
            order.push(n);
            for &s in &self.succs[n.0] {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    stack.push(s);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }

    /// Length of the critical path in µs (lower bound on makespan with
    /// unlimited resources and zero dispatch cost).
    pub fn critical_path_us(&self) -> Micros {
        let order = self.topo_order().expect("acyclic");
        let mut finish: Vec<Micros> = vec![0; self.len()];
        for n in order {
            let start = self.preds[n.0]
                .iter()
                .map(|p| finish[p.0])
                .max()
                .unwrap_or(0);
            finish[n.0] = start + self.tasks[n.0].runtime_us;
        }
        finish.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // a → b, a → c, b → d, c → d
        let mut g = Dag::new();
        let a = g.add(WfTask::new("a", "s1", 10));
        let b = g.add(WfTask::new("b", "s2", 20));
        let c = g.add(WfTask::new("c", "s2", 30));
        let d = g.add(WfTask::new("d", "s3", 40));
        g.depend(a, b);
        g.depend(a, c);
        g.depend(b, d);
        g.depend(c, d);
        g
    }

    #[test]
    fn construction_and_accessors() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.preds(NodeId(3)).len(), 2);
        assert_eq!(g.succs(NodeId(0)).len(), 2);
    }

    #[test]
    fn topo_order_valid() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in g.nodes() {
            for &s in g.succs(n) {
                assert!(pos[&n] < pos[&s]);
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dag::new();
        let a = g.add(WfTask::new("a", "s", 1));
        let b = g.add(WfTask::new("b", "s", 1));
        g.depend(a, b);
        g.depend(b, a);
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn critical_path() {
        let g = diamond();
        // a(10) → c(30) → d(40) = 80
        assert_eq!(g.critical_path_us(), 80);
    }

    #[test]
    fn stage_histogram_orders_by_first_seen() {
        let g = diamond();
        let h = g.stage_histogram();
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], ("s1".to_string(), 1, 10));
        assert_eq!(h[1], ("s2".to_string(), 2, 50));
    }

    #[test]
    #[should_panic(expected = "self-dependency")]
    fn self_dep_rejected() {
        let mut g = Dag::new();
        let a = g.add(WfTask::new("a", "s", 1));
        g.depend(a, a);
    }
}
