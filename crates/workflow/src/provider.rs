//! Execution providers: where the engine sends ready tasks.
//!
//! Swift's provider abstraction is what let the paper swap GRAM4+PBS for
//! Falkon without modifying applications (Section 3.5: the Falkon provider
//! is 840 lines of Java, comparable to the GRAM providers). Our engine uses
//! the same shape, two calls: [`Provider::submit`] accepts a [`Submission`]
//! (one or more tasks executed serially as a unit — a unit of one task
//! normally, several when clustering), and [`Provider::advance`] runs to the
//! next instant at which submissions complete and reports them.
//!
//! Simulation-backed providers (Falkon, GRAM4+PBS) live in `falkon-exp`;
//! this module provides [`IdealProvider`], a zero-overhead fixed-size worker
//! pool used for unit tests, ideal baselines, and the MPI-style comparison.

use crate::dag::{NodeId, WfTask};
use crate::Micros;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Identifies a submission within one provider.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubmissionId(pub u64);

impl fmt::Debug for SubmissionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// A unit of work handed to a provider: its tasks run serially on one
/// resource (a cluster of size 1 is a plain task).
#[derive(Clone, Debug)]
pub struct Submission {
    /// Engine-assigned id.
    pub id: SubmissionId,
    /// The tasks, in execution order.
    pub tasks: Vec<(NodeId, WfTask)>,
}

impl Submission {
    /// Total serial runtime of the bundled tasks.
    pub fn runtime_us(&self) -> Micros {
        self.tasks.iter().map(|(_, t)| t.runtime_us).sum()
    }
}

/// A completed submission with its per-task finish times.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Which submission finished.
    pub id: SubmissionId,
    /// Finish time of each contained task (same order as submitted).
    pub task_finish_us: Vec<(NodeId, Micros)>,
    /// When the whole submission finished.
    pub finished_us: Micros,
}

/// Where the engine sends ready work. Implementations decide scheduling,
/// queueing, and overhead costs.
pub trait Provider {
    /// Accept a submission at time `now`.
    fn submit(&mut self, now: Micros, submission: Submission);

    /// Run to the next instant at which submissions complete and return
    /// that instant with everything that completed there, or `None` once
    /// no submission is open.
    fn advance(&mut self) -> Option<(Micros, Vec<Completion>)>;
}

/// A zero-overhead pool of `slots` workers: a submission starts as soon as
/// a worker frees up, tasks inside a submission run back-to-back.
pub struct IdealProvider {
    /// Worker next-free times.
    workers: Vec<Micros>,
    /// Open submissions by finish time, and their completions.
    done: BinaryHeap<Reverse<(Micros, u64)>>,
    records: HashMap<u64, Completion>,
}

impl IdealProvider {
    /// Create a pool with `slots` workers.
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0, "need at least one worker");
        IdealProvider {
            workers: vec![0; slots as usize],
            done: BinaryHeap::new(),
            records: HashMap::new(),
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
        self.done.push(Reverse((t, sub.id.0)));
        self.records.insert(
            sub.id.0,
            Completion {
                id: sub.id,
                task_finish_us: finishes,
                finished_us: t,
            },
        );
    }

    fn advance(&mut self) -> Option<(Micros, Vec<Completion>)> {
        let &Reverse((at, _)) = self.done.peek()?;
        let mut out = Vec::new();
        while self.done.peek().is_some_and(|&Reverse((t, _))| t == at) {
            let Reverse((_, id)) = self.done.pop().expect("peeked");
            out.push(self.records.remove(&id).expect("recorded"));
        }
        Some((at, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(id: u64, runtimes: &[Micros]) -> Submission {
        Submission {
            id: SubmissionId(id),
            tasks: runtimes
                .iter()
                .enumerate()
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
        assert_eq!((t, done.len(), done[0].id), (10, 1, SubmissionId(1)));
        let (t, done) = p.advance().expect("one open");
        assert_eq!((t, done[0].finished_us), (20, 20));
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
        assert_eq!(done.len(), 1);
        let f = &done[0].task_finish_us;
        assert_eq!(f[0].1, 15);
        assert_eq!(f[1].1, 35);
        assert_eq!(f[2].1, 65);
        assert_eq!(done[0].finished_us, 65);
    }
}
