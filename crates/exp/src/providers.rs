//! Workflow providers backed by the simulator.
//!
//! These are the three execution paths of the Section 5 application
//! experiments: submit through Falkon, submit each task straight through
//! GRAM4+PBS, or submit clustered batches through GRAM4+PBS (the engine
//! does the clustering; the provider just runs bigger submissions).

use crate::lrm::gram::{Gram, GramInput, GramOutput};
use crate::lrm::job::{JobSpec, JobState};
use crate::lrm::profile::LrmProfile;
use crate::lrm::scheduler::BatchScheduler;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use crate::workflow::dag::NodeId;
use crate::workflow::provider::{Provider, Submission};
use crate::Micros;
use falkon_proto::task::TaskSpec;
use std::collections::HashMap;

/// The open submissions of a simulated provider, by the downstream id
/// (Falkon task, GRAM job) each went out as.
#[derive(Default)]
struct Ledger {
    subs: HashMap<u64, Vec<(NodeId, Micros)>>,
    next_id: u64,
}

impl Ledger {
    /// Open `sub`: its downstream id, and its tasks' total runtime (a
    /// cluster runs serially, as one downstream unit).
    fn open(&mut self, sub: &Submission) -> (u64, Micros) {
        let id = self.next_id;
        self.next_id += 1;
        let tasks = sub.tasks.iter().map(|(n, t)| (*n, t.runtime_us)).collect();
        self.subs.insert(id, tasks);
        (id, sub.runtime_us())
    }

    /// Close downstream `id`, finished at `finished_us`, onto `done`;
    /// nothing if it is not open. The cluster ran serially on one resource,
    /// so each task finished earlier than the whole by the runtimes of the
    /// tasks after it.
    fn close(&mut self, id: u64, finished_us: Micros, done: &mut Vec<(NodeId, Micros)>) {
        let Some(tasks) = self.subs.remove(&id) else {
            return;
        };
        let (first, mut end) = (done.len(), finished_us);
        for &(node, runtime) in tasks.iter().rev() {
            done.push((node, end));
            end = end.saturating_sub(runtime);
        }
        done[first..].reverse();
    }
}

/// Workflow provider dispatching through a simulated Falkon deployment.
pub struct FalkonProvider {
    sim: SimFalkon,
    ledger: Ledger,
}

impl FalkonProvider {
    /// Build over a fresh simulated deployment.
    pub fn new(config: SimFalkonConfig) -> FalkonProvider {
        FalkonProvider {
            sim: SimFalkon::new(config),
            ledger: Ledger::default(),
        }
    }

    /// Access the underlying simulator (for outcome extraction).
    pub fn sim(&self) -> &SimFalkon {
        &self.sim
    }
}

impl Provider for FalkonProvider {
    fn submit(&mut self, now: Micros, submission: Submission) {
        let (task, total) = self.ledger.open(&submission);
        let spec = vec![TaskSpec::sleep_us(task, total)];
        self.sim.submit(now.max(self.sim.now()), spec);
    }

    fn advance(&mut self) -> Option<(Micros, Vec<(NodeId, Micros)>)> {
        let mut done = Vec::new();
        // A provisioned deployment always has a next event: stop once
        // nothing is open.
        while done.is_empty() && !self.ledger.subs.is_empty() {
            let t = self.sim.next_wakeup()?;
            let ledger = &mut self.ledger;
            self.sim.advance_to(t, |r| {
                ledger.close(r.result.id.0, r.completed_us, &mut done);
            });
            // A permanently failed task would otherwise deadlock the
            // workflow engine (it waits for a completion that never
            // comes). Surface it.
            assert_eq!(
                self.sim.failed(),
                0,
                "simulated Falkon abandoned {} task(s) after exhausting replays; \
                 raise ReplayPolicy::timeout_slack_us for this workload",
                self.sim.failed()
            );
        }
        (!done.is_empty()).then(|| (self.sim.now(), done))
    }
}

/// Workflow provider submitting each submission as a GRAM4 job to a batch
/// scheduler (the paper's "GRAM4+PBS" and — with engine-side clustering —
/// "GRAM4+PBS clustered" baselines).
pub struct GramProvider {
    gram: Gram,
    ledger: Ledger,
    now: Micros,
    /// Completed and not yet handed out by `advance`.
    done: Vec<(NodeId, Micros)>,
}

impl GramProvider {
    /// Build over a GRAM gateway fronting `profile` × `nodes`.
    pub fn new(profile: LrmProfile, nodes: u32) -> GramProvider {
        GramProvider {
            gram: Gram::new(BatchScheduler::new(profile, nodes)),
            ledger: Ledger::default(),
            now: 0,
            done: Vec::new(),
        }
    }

    /// Deliver the gateway's next wakeup if it is due by `until`, closing
    /// the jobs it reports done at the exact instant it fired.
    fn tick(&mut self, until: Micros) -> bool {
        let Some(t) = self.gram.next_wakeup().filter(|&t| t <= until) else {
            return false;
        };
        self.now = t.max(self.now);
        let mut out = Vec::new();
        self.gram.handle(self.now, GramInput::Tick, &mut out);
        self.close(self.now, out);
        true
    }

    /// Close the jobs `out` reports done, as finished at `at`.
    fn close(&mut self, at: Micros, out: Vec<GramOutput>) {
        for GramOutput::Notification { job, state } in out {
            if let JobState::Done(_) = state {
                self.ledger.close(job.0, at, &mut self.done);
            }
        }
    }
}

impl Provider for GramProvider {
    fn submit(&mut self, now: Micros, submission: Submission) {
        // Catch up to `now` first; what completes on the way is kept for
        // the next `advance`.
        while self.tick(now) {}
        self.now = self.now.max(now);
        let (job, total) = self.ledger.open(&submission);
        let mut out = Vec::new();
        let spec = JobSpec::task(job, total);
        self.gram.handle(now, GramInput::Submit(spec), &mut out);
        self.close(now, out);
    }

    fn advance(&mut self) -> Option<(Micros, Vec<(NodeId, Micros)>)> {
        while self.done.is_empty() && !self.ledger.subs.is_empty() {
            let t = self.gram.next_wakeup()?;
            while self.tick(t) {}
        }
        (!self.done.is_empty()).then(|| (self.now, std::mem::take(&mut self.done)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrm::profile::PBS_V2_1_8;
    use crate::workflow::apps::fmri;
    use crate::workflow::engine::WorkflowEngine;

    /// Tasks `first..`, one per runtime (a cluster when several).
    fn sub(first: usize, runtimes_s: &[u64]) -> Submission {
        use crate::workflow::dag::WfTask;
        let tasks = (first..).zip(runtimes_s);
        Submission {
            tasks: tasks
                .map(|(i, &r)| (NodeId(i), WfTask::new(format!("t{i}"), "s", r * 1_000_000)))
                .collect(),
        }
    }

    /// Three submissions at 0, one of them a cluster of tasks 1–3, and a
    /// fourth ten minutes after the first completion, past what else is due
    /// by then: each task completes exactly once, a cluster's together, at
    /// instants that never decrease, and `advance` has nothing more once all
    /// are in.
    fn keeps_the_contract(p: &mut impl Provider) {
        p.submit(0, sub(0, &[5]));
        p.submit(0, sub(1, &[1, 2, 3]));
        p.submit(0, sub(4, &[4]));
        let mut late = Some(sub(5, &[2]));
        let (mut seen, mut last) = ([None; 6], 0);
        while let Some((at, done)) = p.advance() {
            assert!(at >= last, "instant {at} after {last}");
            last = at;
            for (node, _) in done {
                assert_eq!(seen[node.0].replace(at), None, "{node:?} completes twice");
            }
            if let Some(s) = late.take() {
                p.submit(at + 600_000_000, s);
            }
        }
        assert!(seen.iter().all(Option::is_some), "each task completes");
        assert!(
            seen[1] == seen[2] && seen[2] == seen[3],
            "a cluster completes together"
        );
        assert!(p.advance().is_none());
    }

    #[test]
    fn providers_keep_the_contract() {
        keeps_the_contract(&mut crate::workflow::provider::IdealProvider::new(2));
        let config = SimFalkonConfig {
            executors: 2,
            ..SimFalkonConfig::default()
        };
        keeps_the_contract(&mut FalkonProvider::new(config));
        // Provisioned, the deployment always has a next event.
        use falkon_core::policy::{AcquisitionPolicy, ProvisionerPolicy, ReleasePolicy};
        let policy = ProvisionerPolicy {
            min_executors: 0,
            max_executors: 2,
            acquisition: AcquisitionPolicy::AllAtOnce,
            release: ReleasePolicy::DistributedIdle,
            allocation_duration_us: 3_600_000_000,
            poll_interval_us: 1_000_000,
        };
        let config = SimFalkonConfig {
            executors: 0,
            provisioner: Some((policy, PBS_V2_1_8, 2)),
            ..SimFalkonConfig::default()
        };
        keeps_the_contract(&mut FalkonProvider::new(config));
        keeps_the_contract(&mut GramProvider::new(PBS_V2_1_8, 2));
    }

    #[test]
    fn falkon_provider_runs_fmri_slice() {
        let dag = fmri::dag(8); // 32 tasks
        let mut provider = FalkonProvider::new(SimFalkonConfig {
            executors: 8,
            ..SimFalkonConfig::default()
        });
        let report = WorkflowEngine::new().run(&dag, &mut provider);
        assert_eq!(report.finish_us.len(), 32);
        assert!(report.makespan_us > 0);
    }

    #[test]
    fn gram_provider_runs_small_fan() {
        use crate::workflow::dag::{Dag, WfTask};
        let mut dag = Dag::new();
        for i in 0..4 {
            dag.add(WfTask::new(format!("t{i}"), "s", 10_000_000));
        }
        let mut provider = GramProvider::new(PBS_V2_1_8, 8);
        let report = WorkflowEngine::new().run(&dag, &mut provider);
        assert_eq!(report.finish_us.len(), 4);
        // PBS's scheduling cycle and GRAM's overheads put the makespan far
        // above 10 s.
        assert!(
            report.makespan_s() > 60.0,
            "makespan = {}",
            report.makespan_s()
        );
    }

    #[test]
    fn clustering_reduces_gram_submissions() {
        use crate::workflow::dag::{Dag, WfTask};
        let build = || {
            let mut dag = Dag::new();
            for i in 0..16 {
                dag.add(WfTask::new(format!("t{i}"), "s", 1_000_000));
            }
            dag
        };
        let mut plain = GramProvider::new(PBS_V2_1_8, 8);
        let r1 = WorkflowEngine::new().run(&build(), &mut plain);
        let mut clustered = GramProvider::new(PBS_V2_1_8, 8);
        let r2 = WorkflowEngine::with_clustering(8).run(&build(), &mut clustered);
        assert!(r2.submissions < r1.submissions);
        assert!(
            r2.makespan_us < r1.makespan_us,
            "clustered {} vs plain {}",
            r2.makespan_s(),
            r1.makespan_s()
        );
    }
}
