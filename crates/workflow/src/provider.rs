//! Execution providers: where the engine sends ready tasks.
//!
//! Swift's provider abstraction is what let the paper swap GRAM4+PBS for
//! Falkon without modifying applications (Section 3.5: the Falkon provider
//! is 840 lines of Java, comparable to the GRAM providers). Our engine uses
//! the same shape: a [`Provider`] accepts [`Submission`]s (one or more tasks
//! executed serially as a unit — a unit of one task normally, several when
//! clustering) and reports completions with timestamps.
//!
//! Simulation-backed providers (Falkon, GRAM4+PBS) live in `falkon-exp`;
//! this module provides [`IdealProvider`], a zero-overhead fixed-size worker
//! pool used for unit tests, ideal baselines, and the MPI-style comparison.

use crate::dag::{NodeId, WfTask};
use crate::Micros;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

    /// The next time something will complete, if any work is pending.
    fn next_wakeup(&self) -> Option<Micros>;

    /// Collect completions with `finished_us <= now`.
    fn poll(&mut self, now: Micros) -> Vec<Completion>;

    /// Outstanding submissions.
    fn pending(&self) -> usize;
}

/// A zero-overhead pool of `slots` workers: ready submissions start as soon
/// as a worker frees up, tasks inside a submission run back-to-back.
pub struct IdealProvider {
    /// Worker next-free times.
    workers: Vec<Micros>,
    /// Completions not yet polled.
    done: BinaryHeap<Reverse<(Micros, u64)>>,
    records: std::collections::HashMap<u64, Completion>,
    /// Submissions waiting for a worker (FIFO).
    waiting: std::collections::VecDeque<Submission>,
    pending: usize,
}

impl IdealProvider {
    /// Create a pool with `slots` workers.
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0, "need at least one worker");
        IdealProvider {
            workers: vec![0; slots as usize],
            done: BinaryHeap::new(),
            records: std::collections::HashMap::new(),
            waiting: std::collections::VecDeque::new(),
            pending: 0,
        }
    }

    fn try_start(&mut self, now: Micros) {
        while let Some(sub) = self.waiting.pop_front() {
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
    }
}

impl Provider for IdealProvider {
    fn submit(&mut self, now: Micros, submission: Submission) {
        self.pending += 1;
        self.waiting.push_back(submission);
        self.try_start(now);
    }

    fn next_wakeup(&self) -> Option<Micros> {
        self.done.peek().map(|Reverse((t, _))| *t)
    }

    fn poll(&mut self, now: Micros) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(&Reverse((t, id))) = self.done.peek() {
            if t > now {
                break;
            }
            self.done.pop();
            self.pending -= 1;
            out.push(self.records.remove(&id).expect("recorded"));
        }
        out
    }

    fn pending(&self) -> usize {
        self.pending
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
        assert_eq!(p.next_wakeup(), Some(10));
        let done = p.poll(10);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, SubmissionId(1));
        let done = p.poll(20);
        assert_eq!(done[0].finished_us, 20);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn parallel_workers() {
        let mut p = IdealProvider::new(4);
        for i in 0..4 {
            p.submit(0, sub(i, &[100]));
        }
        let done = p.poll(100);
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn clustered_tasks_run_serially_with_per_task_finishes() {
        let mut p = IdealProvider::new(1);
        p.submit(5, sub(1, &[10, 20, 30]));
        let done = p.poll(100);
        assert_eq!(done.len(), 1);
        let f = &done[0].task_finish_us;
        assert_eq!(f[0].1, 15);
        assert_eq!(f[1].1, 35);
        assert_eq!(f[2].1, 65);
        assert_eq!(done[0].finished_us, 65);
    }

    #[test]
    fn poll_respects_now() {
        let mut p = IdealProvider::new(1);
        p.submit(0, sub(1, &[50]));
        assert!(p.poll(49).is_empty());
        assert_eq!(p.poll(50).len(), 1);
    }
}
