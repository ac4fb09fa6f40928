//! Execution providers: where the engine sends ready tasks.
//!
//! Swift's provider abstraction is what let the paper swap GRAM4+PBS for
//! Falkon without modifying applications (Section 3.5: the Falkon provider
//! is 840 lines of Java, comparable to the GRAM providers). Our engine uses
//! the same shape, two calls: [`Provider::submit`] accepts a [`Submission`]
//! (one or more tasks executed serially as a unit — a unit of one task
//! normally, several when clustering), and [`Provider::advance`] runs to the
//! next instant at which submissions complete and reports their tasks.
//!
//! Simulation-backed providers (Falkon, GRAM4+PBS) live in
//! [`crate::providers`]; this module provides [`IdealProvider`], a
//! zero-overhead fixed-size worker pool, the tests' reference provider.

use crate::workflow::dag::{NodeId, WfTask};
use crate::Micros;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A unit of work handed to a provider: its tasks run serially on one
/// resource (a cluster of size 1 is a plain task).
#[derive(Clone, Debug)]
pub struct Submission {
    /// The tasks, in execution order.
    pub(crate) tasks: Vec<(NodeId, WfTask)>,
}

impl Submission {
    /// Total serial runtime of the bundled tasks.
    pub(crate) fn runtime_us(&self) -> Micros {
        self.tasks.iter().map(|(_, t)| t.runtime_us).sum()
    }
}

/// Where the engine sends ready work. Implementations decide scheduling,
/// queueing, and overhead costs.
pub trait Provider {
    /// Accept a submission at time `now`.
    fn submit(&mut self, now: Micros, submission: Submission);

    /// Run to the next instant at which submissions complete and return
    /// that instant with each task of theirs and its finish time, or
    /// `None` once no submission is open.
    fn advance(&mut self) -> Option<(Micros, Vec<(NodeId, Micros)>)>;
}

/// A zero-overhead pool of `slots` workers: a submission starts as soon as
/// a worker frees up, tasks inside a submission run back-to-back.
pub struct IdealProvider {
    /// Worker next-free times.
    workers: Vec<Micros>,
    /// Open submissions by finish time and number, and their tasks'
    /// finish times.
    done: BinaryHeap<Reverse<(Micros, u64)>>,
    records: HashMap<u64, Vec<(NodeId, Micros)>>,
    submitted: u64,
}

impl IdealProvider {
    /// Create a pool with `slots` workers.
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0, "need at least one worker");
        IdealProvider {
            workers: vec![0; slots as usize],
            done: BinaryHeap::new(),
            records: HashMap::new(),
            submitted: 0,
        }
    }
}

impl Provider for IdealProvider {
    fn submit(&mut self, now: Micros, sub: Submission) {
        // Earliest-free worker.
        let (idx, &free) = self
            .workers
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("non-empty");
        let mut t = free.max(now);
        let mut finishes = Vec::with_capacity(sub.tasks.len());
        for (node, task) in &sub.tasks {
            t += task.runtime_us;
            finishes.push((*node, t));
        }
        self.workers[idx] = t;
        self.done.push(Reverse((t, self.submitted)));
        self.records.insert(self.submitted, finishes);
        self.submitted += 1;
    }

    fn advance(&mut self) -> Option<(Micros, Vec<(NodeId, Micros)>)> {
        let &Reverse((at, _)) = self.done.peek()?;
        let mut out = Vec::new();
        while self.done.peek().is_some_and(|&Reverse((t, _))| t == at) {
            let Reverse((_, id)) = self.done.pop().expect("peeked");
            out.extend(self.records.remove(&id).expect("recorded"));
        }
        Some((at, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tasks `first..`, one per runtime.
    fn sub(first: usize, runtimes: &[Micros]) -> Submission {
        Submission {
            tasks: (first..)
                .zip(runtimes)
                .map(|(i, &r)| (NodeId(i), WfTask::new(format!("t{i}"), "s", r)))
                .collect(),
        }
    }

    #[test]
    fn single_worker_serializes() {
        let mut p = IdealProvider::new(1);
        p.submit(0, sub(1, &[10]));
        p.submit(0, sub(2, &[10]));
        let (t, done) = p.advance().expect("two open");
        assert_eq!((t, done), (10, vec![(NodeId(1), 10)]));
        let (t, done) = p.advance().expect("one open");
        assert_eq!((t, done), (20, vec![(NodeId(2), 20)]));
        assert!(p.advance().is_none());
    }

    #[test]
    fn parallel_workers() {
        let mut p = IdealProvider::new(4);
        for i in 0..4 {
            p.submit(0, sub(i, &[100]));
        }
        let (t, done) = p.advance().expect("four open");
        assert_eq!((t, done.len()), (100, 4));
    }

    #[test]
    fn clustered_tasks_run_serially_with_per_task_finishes() {
        let mut p = IdealProvider::new(1);
        p.submit(5, sub(1, &[10, 20, 30]));
        let (_, done) = p.advance().expect("one open");
        let finishes: Vec<Micros> = done.iter().map(|&(_, t)| t).collect();
        assert_eq!(finishes, [15, 35, 65]);
    }
}
