//! The batch-scheduler model.
//!
//! A [`BatchScheduler`] owns a fixed pool of nodes and a FIFO job queue. On
//! every poll cycle it walks the queue and starts any job whose node request
//! fits the free pool, charging the serial per-job dispatch overhead that
//! bounds sustained throughput (0.45 jobs/sec for the paper's PBS). Task
//! jobs complete on their own; service jobs (Falkon executor allocations)
//! run until cancelled or wall-time expiry. Freed nodes return to the pool
//! only after the profile's release latency.

use crate::job::{DoneReason, JobId, JobSpec, JobState};
use crate::profile::LrmProfile;
use crate::Micros;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Inputs to the scheduler.
#[derive(Clone, Debug)]
pub enum LrmInput {
    /// Enqueue a job.
    Submit(JobSpec),
    /// Cancel a queued or active job.
    Cancel(JobId),
    /// Timer: process internal events (poll cycles, completions) up to now.
    Tick,
}

/// Outputs of the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LrmOutput {
    /// A job changed state.
    State {
        /// The job.
        job: JobId,
        /// Its new state.
        state: JobState,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Internal {
    /// The scheduler finished dispatching this job; it becomes Active.
    Activate(JobId),
    /// A task job's payload (plus cleanup) finished.
    Complete(JobId),
    /// A service job hit its wall-time limit.
    WalltimeExpire(JobId),
    /// Nodes return to the free pool.
    FreeNodes(u32),
}

#[derive(Clone, Debug)]
struct Job {
    spec: JobSpec,
    state: JobState,
    /// Time the job was (or will be) activated.
    activated_us: Option<Micros>,
    /// Nodes have been reserved (dispatch in progress or done).
    nodes_reserved: bool,
}

/// Monotonic scheduler counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LrmStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs started.
    pub started: u64,
    /// Jobs completed (any reason).
    pub finished: u64,
    /// Poll cycles executed.
    pub polls: u64,
}

/// A batch scheduler over `nodes` nodes with a cost [`LrmProfile`].
pub struct BatchScheduler {
    profile: LrmProfile,
    total_nodes: u32,
    free_nodes: u32,
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, Job>,
    internal: BinaryHeap<Reverse<(Micros, u64, Internal)>>,
    next_seq: u64,
    next_poll_us: Micros,
    /// The scheduler's serial dispatch pipeline: next job can start
    /// dispatching no earlier than this.
    sched_free_at_us: Micros,
    stats: LrmStats,
}

impl BatchScheduler {
    /// Create a scheduler managing `nodes` nodes.
    pub fn new(profile: LrmProfile, nodes: u32) -> Self {
        BatchScheduler {
            profile,
            total_nodes: nodes,
            free_nodes: nodes,
            queue: VecDeque::new(),
            jobs: HashMap::new(),
            internal: BinaryHeap::new(),
            next_seq: 0,
            next_poll_us: profile.poll_interval_us,
            sched_free_at_us: 0,
            stats: LrmStats::default(),
        }
    }

    /// The cost profile in use.
    pub fn profile(&self) -> LrmProfile {
        self.profile
    }

    /// Nodes currently free (what `showq`-style system functions report).
    pub fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Monotonic counters.
    pub fn stats(&self) -> LrmStats {
        self.stats
    }

    /// A job's current state, if known.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(&job).map(|j| j.state)
    }

    /// The next instant at which `Tick` must be delivered.
    pub fn next_wakeup(&self) -> Option<Micros> {
        let internal = self.internal.peek().map(|Reverse((t, _, _))| *t);
        // Polls only matter when the head job could actually be admitted;
        // otherwise the next state change comes from an internal event
        // (completion / node release), which re-arms the poll. This keeps
        // drivers from spinning on fine poll intervals while the head of
        // the FIFO waits for nodes.
        let head_fits = self
            .queue
            .front()
            .and_then(|id| self.jobs.get(id))
            .is_some_and(|j| j.spec.nodes <= self.free_nodes);
        let poll = head_fits.then_some(self.next_poll_us);
        match (internal, poll) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn push_internal(&mut self, at: Micros, kind: Internal) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.internal.push(Reverse((at, seq, kind)));
    }

    /// Feed one input at time `now`; actions are appended to `out`.
    pub fn handle(&mut self, now: Micros, input: LrmInput, out: &mut Vec<LrmOutput>) {
        // Always bring internal state up to `now` first.
        self.advance(now, out);
        match input {
            LrmInput::Submit(spec) => {
                assert!(
                    spec.nodes <= self.total_nodes,
                    "job requests {} nodes but the cluster has {}",
                    spec.nodes,
                    self.total_nodes
                );
                self.stats.submitted += 1;
                self.jobs.insert(
                    spec.id,
                    Job {
                        spec,
                        state: JobState::Queued,
                        activated_us: None,
                        nodes_reserved: false,
                    },
                );
                self.queue.push_back(spec.id);
                out.push(LrmOutput::State {
                    job: spec.id,
                    state: JobState::Queued,
                });
            }
            LrmInput::Cancel(job) => {
                let Some(j) = self.jobs.get(&job) else { return };
                match j.state {
                    JobState::Queued => {
                        self.queue.retain(|&q| q != job);
                        self.finish(now, job, DoneReason::Cancelled, out);
                    }
                    JobState::Active => {
                        self.finish(now, job, DoneReason::Cancelled, out);
                    }
                    JobState::Done(_) => {}
                }
            }
            LrmInput::Tick => {}
        }
    }

    /// Process poll cycles and internal events up to `now`.
    fn advance(&mut self, now: Micros, out: &mut Vec<LrmOutput>) {
        loop {
            let next_internal = self.internal.peek().map(|Reverse((t, _, _))| *t);
            let next_poll = self.next_poll_us;
            let fire_internal = next_internal.is_some_and(|t| t <= now && t <= next_poll);
            if fire_internal {
                let Reverse((t, _, kind)) = self.internal.pop().expect("peeked");
                self.fire(t, kind, out);
                continue;
            }
            if next_poll <= now {
                if self.queue.is_empty() {
                    // Nothing to schedule: fast-forward the poll clock past
                    // the idle gap instead of replaying O(gap/interval)
                    // no-op cycles.
                    let interval = self.profile.poll_interval_us.max(1);
                    let missed = (now - next_poll) / interval + 1;
                    self.next_poll_us = next_poll + missed * interval;
                    continue;
                }
                self.poll(next_poll, out);
                self.next_poll_us = next_poll + self.profile.poll_interval_us.max(1);
                continue;
            }
            break;
        }
    }

    fn fire(&mut self, t: Micros, kind: Internal, out: &mut Vec<LrmOutput>) {
        match kind {
            Internal::Activate(job) => {
                let Some(j) = self.jobs.get_mut(&job) else {
                    return;
                };
                if j.state != JobState::Queued {
                    return; // cancelled while dispatching
                }
                j.state = JobState::Active;
                j.activated_us = Some(t);
                self.stats.started += 1;
                out.push(LrmOutput::State {
                    job,
                    state: JobState::Active,
                });
                let spec = j.spec;
                match spec.runtime_us {
                    Some(rt) => {
                        let payload_end = t + self.profile.startup_us + rt;
                        let wall_end = t + spec.walltime_us;
                        if payload_end + self.profile.cleanup_us <= wall_end {
                            let done = payload_end + self.profile.cleanup_us;
                            self.push_internal(done, Internal::Complete(job));
                        } else {
                            self.push_internal(wall_end, Internal::WalltimeExpire(job));
                        }
                    }
                    None => {
                        self.push_internal(t + spec.walltime_us, Internal::WalltimeExpire(job));
                    }
                }
            }
            Internal::Complete(job) => {
                if self
                    .jobs
                    .get(&job)
                    .is_some_and(|j| j.state == JobState::Active)
                {
                    self.finish(t, job, DoneReason::Completed, out);
                }
            }
            Internal::WalltimeExpire(job) => {
                if self
                    .jobs
                    .get(&job)
                    .is_some_and(|j| j.state == JobState::Active)
                {
                    self.finish(t, job, DoneReason::WalltimeExpired, out);
                }
            }
            Internal::FreeNodes(n) => {
                self.free_nodes += n;
                debug_assert!(self.free_nodes <= self.total_nodes);
            }
        }
    }

    fn finish(&mut self, t: Micros, job: JobId, reason: DoneReason, out: &mut Vec<LrmOutput>) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        let must_free_nodes = j.nodes_reserved;
        j.state = JobState::Done(reason);
        self.stats.finished += 1;
        out.push(LrmOutput::State {
            job,
            state: JobState::Done(reason),
        });
        if must_free_nodes {
            j.nodes_reserved = false;
            let nodes = j.spec.nodes;
            let release_at = t + self.profile.node_release_us;
            self.push_internal(release_at, Internal::FreeNodes(nodes));
        }
    }

    /// One scheduling cycle: start queued jobs that fit the free pool.
    fn poll(&mut self, t: Micros, _out: &mut Vec<LrmOutput>) {
        self.stats.polls += 1;
        // FIFO without backfilling: the head of the queue blocks smaller
        // jobs behind it (conventional default; the paper's virtual-cluster
        // queue-wait pathologies depend on this).
        while let Some(&head) = self.queue.front() {
            let Some(j) = self.jobs.get(&head) else {
                self.queue.pop_front();
                continue;
            };
            if j.spec.nodes > self.free_nodes {
                break;
            }
            self.queue.pop_front();
            self.free_nodes -= j.spec.nodes;
            self.jobs.get_mut(&head).expect("present").nodes_reserved = true;
            // Serial dispatch pipeline: each job costs dispatch_overhead of
            // scheduler time.
            let start = self.sched_free_at_us.max(t) + self.profile.dispatch_overhead_us;
            self.sched_free_at_us = start;
            self.push_internal(start, Internal::Activate(head));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{IDEAL, PBS_V2_1_8};

    fn run_until_quiet(
        s: &mut BatchScheduler,
        mut now: Micros,
    ) -> (Vec<(Micros, LrmOutput)>, Micros) {
        let mut log = Vec::new();
        let mut out = Vec::new();
        while let Some(t) = s.next_wakeup() {
            now = now.max(t);
            s.handle(now, LrmInput::Tick, &mut out);
            for o in out.drain(..) {
                log.push((now, o));
            }
            if now > 1_000_000_000_000 {
                panic!("runaway scheduler");
            }
        }
        (log, now)
    }

    #[test]
    fn single_task_job_lifecycle() {
        let mut s = BatchScheduler::new(PBS_V2_1_8, 4);
        let mut out = Vec::new();
        s.handle(0, LrmInput::Submit(JobSpec::task(1, 10_000_000)), &mut out);
        assert_eq!(
            out,
            vec![LrmOutput::State {
                job: JobId(1),
                state: JobState::Queued
            }]
        );
        let (log, _) = run_until_quiet(&mut s, 0);
        let states: Vec<JobState> = log
            .iter()
            .map(|(_, LrmOutput::State { state, .. })| *state)
            .collect();
        assert_eq!(
            states,
            vec![JobState::Active, JobState::Done(DoneReason::Completed)]
        );
        // Active no earlier than the first poll plus dispatch overhead.
        let (t_active, _) = log[0];
        assert!(t_active >= PBS_V2_1_8.poll_interval_us + PBS_V2_1_8.dispatch_overhead_us);
        assert_eq!(s.free_nodes(), 4);
    }

    #[test]
    fn dispatch_overhead_serializes_starts() {
        let mut s = BatchScheduler::new(PBS_V2_1_8, 100);
        let mut out = Vec::new();
        for i in 0..10 {
            s.handle(0, LrmInput::Submit(JobSpec::task(i, 0)), &mut out);
        }
        let (log, _) = run_until_quiet(&mut s, 0);
        let actives: Vec<Micros> = log
            .iter()
            .filter(|(_, LrmOutput::State { state, .. })| *state == JobState::Active)
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(actives.len(), 10);
        for pair in actives.windows(2) {
            assert_eq!(pair[1] - pair[0], PBS_V2_1_8.dispatch_overhead_us);
        }
    }

    #[test]
    fn pbs_throughput_close_to_paper() {
        // Table 2: 100 sleep-0 jobs on 64 nodes took ≈224 s (0.45 tasks/s).
        let mut s = BatchScheduler::new(PBS_V2_1_8, 64);
        let mut out = Vec::new();
        for i in 0..100 {
            s.handle(0, LrmInput::Submit(JobSpec::task(i, 0)), &mut out);
        }
        let (log, _) = run_until_quiet(&mut s, 0);
        let t_end = log
            .iter()
            .filter(|(_, LrmOutput::State { state, .. })| matches!(state, JobState::Done(_)))
            .map(|(t, _)| *t)
            .max()
            .unwrap();
        let total_s = t_end as f64 / 1e6;
        let rate = 100.0 / total_s;
        assert!(
            (0.25..0.7).contains(&rate),
            "PBS rate = {rate:.2} tasks/s (total {total_s:.0} s)"
        );
    }

    /// How many of `jobs` wait in the queue.
    fn queued(s: &BatchScheduler, jobs: impl IntoIterator<Item = u64>) -> usize {
        let state = |j| s.job_state(JobId(j));
        jobs.into_iter()
            .filter(|&j| state(j) == Some(JobState::Queued))
            .count()
    }

    #[test]
    fn nodes_limit_concurrency() {
        let mut s = BatchScheduler::new(IDEAL, 2);
        let mut out = Vec::new();
        for i in 0..4 {
            s.handle(0, LrmInput::Submit(JobSpec::task(i, 1_000_000)), &mut out);
        }
        // After the first poll (IDEAL cycle = 1 ms) only two can run.
        s.handle(1_000, LrmInput::Tick, &mut out);
        assert_eq!(s.free_nodes(), 0);
        assert_eq!(queued(&s, 0..4), 2);
        let (_, _) = run_until_quiet(&mut s, 1_000);
        assert_eq!(s.stats().finished, 4);
        assert_eq!(s.free_nodes(), 2);
    }

    #[test]
    fn fifo_head_blocks_queue() {
        let mut s = BatchScheduler::new(IDEAL, 4);
        let mut out = Vec::new();
        // Occupy all 4 nodes with a long job.
        s.handle(
            0,
            LrmInput::Submit(JobSpec::service(1, 4, 50_000_000)),
            &mut out,
        );
        s.handle(1_000, LrmInput::Tick, &mut out);
        // A 4-node job queues, then a 1-node job behind it.
        s.handle(
            1_001,
            LrmInput::Submit(JobSpec::service(2, 4, 1_000_000)),
            &mut out,
        );
        s.handle(1_002, LrmInput::Submit(JobSpec::task(3, 0)), &mut out);
        s.handle(10_000, LrmInput::Tick, &mut out);
        // Nothing free: both still queued (no backfilling).
        assert_eq!(queued(&s, 2..4), 2);
    }

    #[test]
    fn service_job_runs_until_cancelled() {
        let mut s = BatchScheduler::new(IDEAL, 8);
        let mut out = Vec::new();
        s.handle(
            0,
            LrmInput::Submit(JobSpec::service(1, 8, 3_600_000_000)),
            &mut out,
        );
        s.handle(5_000, LrmInput::Tick, &mut out);
        assert_eq!(s.job_state(JobId(1)), Some(JobState::Active));
        assert_eq!(s.free_nodes(), 0);
        out.clear();
        s.handle(100_000, LrmInput::Cancel(JobId(1)), &mut out);
        assert_eq!(
            out,
            vec![LrmOutput::State {
                job: JobId(1),
                state: JobState::Done(DoneReason::Cancelled)
            }]
        );
        s.handle(101_000, LrmInput::Tick, &mut out);
        assert_eq!(s.free_nodes(), 8);
    }

    #[test]
    fn service_job_expires_at_walltime() {
        let mut s = BatchScheduler::new(IDEAL, 1);
        let mut out = Vec::new();
        s.handle(
            0,
            LrmInput::Submit(JobSpec::service(1, 1, 10_000_000)),
            &mut out,
        );
        let (log, _) = run_until_quiet(&mut s, 0);
        assert!(log
            .iter()
            .any(|(_, LrmOutput::State { state, .. })| matches!(
                state,
                JobState::Done(DoneReason::WalltimeExpired)
            )));
        assert_eq!(s.free_nodes(), 1);
    }

    #[test]
    fn cancel_queued_job() {
        let mut s = BatchScheduler::new(PBS_V2_1_8, 1);
        let mut out = Vec::new();
        s.handle(0, LrmInput::Submit(JobSpec::task(1, 0)), &mut out);
        out.clear();
        s.handle(1, LrmInput::Cancel(JobId(1)), &mut out);
        assert_eq!(
            out,
            vec![LrmOutput::State {
                job: JobId(1),
                state: JobState::Done(DoneReason::Cancelled)
            }]
        );
        assert_eq!(queued(&s, [1]), 0);
        // Free pool untouched (job never started).
        assert_eq!(s.free_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "requests")]
    fn oversized_job_rejected() {
        let mut s = BatchScheduler::new(IDEAL, 2);
        let mut out = Vec::new();
        s.handle(0, LrmInput::Submit(JobSpec::service(1, 3, 1)), &mut out);
    }

    #[test]
    fn poll_quantizes_start_times() {
        // A job submitted just after a poll waits nearly a full cycle —
        // the 5–65 s executor-creation variance of Section 4.6.
        let mut s = BatchScheduler::new(PBS_V2_1_8, 1);
        let mut out = Vec::new();
        let poll = PBS_V2_1_8.poll_interval_us;
        s.handle(poll + 1, LrmInput::Submit(JobSpec::task(1, 0)), &mut out);
        let (log, _) = run_until_quiet(&mut s, poll + 1);
        let (t_active, _) = log
            .iter()
            .find(|(_, LrmOutput::State { state, .. })| *state == JobState::Active)
            .unwrap();
        assert!(*t_active >= 2 * poll, "started before the next poll cycle");
    }
}
