//! Client-side session: submit task bundles, track completions.
//!
//! Mirrors the paper's client API: create an instance (receiving an EPR),
//! submit arrays of tasks (optionally bundled), receive results as the
//! dispatcher pushes them (notification and retrieval in one message).
//! The client acknowledges what it has taken (`ResultsAck`) every
//! [`ACK_EVERY`] results and whenever nothing is left outstanding; until
//! then the server keeps the results for a client that reconnects.
//! Sans-io like the rest of the crate.

use crate::ids::InstanceId;
use crate::Micros;
use falkon_proto::bundle::{bundles, BundleConfig};
use falkon_proto::message::Message;
use falkon_proto::task::{TaskResult, TaskSpec};

/// Unacknowledged results after which a client acknowledges them: what a
/// server keeps per instance stays near this, for one write per this many.
pub const ACK_EVERY: u64 = 256;

/// Inputs to the client state machine (messages from the dispatcher).
#[derive(Clone, Debug)]
pub enum ClientEvent {
    /// The driver connected us; begin by creating an instance.
    Start,
    /// The dispatcher created our instance.
    InstanceCreated {
        /// Our EPR.
        instance: InstanceId,
    },
    /// The dispatcher accepted a submission.
    SubmitAcked {
        /// Tasks accepted.
        accepted: u64,
    },
    /// The dispatcher delivered results `{8}`–`{10}`.
    Results {
        /// Completed results.
        results: Vec<TaskResult>,
    },
}

/// Outputs of the client state machine.
#[derive(Clone, Debug)]
pub enum ClientAction {
    /// Send a message to the dispatcher.
    Send(Message),
    /// All submitted tasks have completed.
    WorkloadComplete,
}

/// A Falkon client session. Queue tasks with [`Client::enqueue`], drive it
/// with events, and take delivered results with [`Client::take_results`].
/// It keeps nothing per task: a count of what is outstanding, and the
/// results delivered and not yet taken.
pub struct Client {
    bundle: BundleConfig,
    instance: Option<InstanceId>,
    /// Tasks waiting for the instance to be created.
    staged: Vec<TaskSpec>,
    outstanding: u64,
    /// Results delivered and not yet taken.
    results: Vec<TaskResult>,
    /// Results delivered and not yet acknowledged.
    unacked: u64,
}

impl Client {
    /// Create a client with the given bundling configuration.
    pub fn new(bundle: BundleConfig) -> Self {
        Client {
            bundle,
            instance: None,
            staged: Vec::new(),
            outstanding: 0,
            results: Vec::new(),
            unacked: 0,
        }
    }

    /// Our EPR, once created.
    pub fn instance(&self) -> Option<InstanceId> {
        self.instance
    }

    /// Tasks submitted but not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Results delivered and not yet taken.
    pub fn completions(&self) -> &[TaskResult] {
        &self.results
    }

    /// Take the results delivered since the last call. A driver that
    /// calls this after every pickup keeps the client's memory flat.
    pub fn take_results(&mut self) -> Vec<TaskResult> {
        std::mem::take(&mut self.results)
    }

    /// Queue tasks for submission. If the instance already exists, returns
    /// the submit actions immediately; otherwise tasks are staged until
    /// [`ClientEvent::InstanceCreated`] arrives, moved in whole if nothing
    /// is staged yet. The client keeps no timestamps, so `_now` is unused.
    pub fn enqueue(&mut self, _now: Micros, tasks: Vec<TaskSpec>, out: &mut Vec<ClientAction>) {
        self.outstanding += tasks.len() as u64;
        match self.instance {
            Some(instance) => self.submit(instance, tasks, out),
            None if self.staged.is_empty() => self.staged = tasks,
            None => self.staged.extend(tasks),
        }
    }

    /// One `Submit` per bundle; tasks that fit one bundle are sent as they
    /// came, with no list of bundles made around them.
    fn submit(&self, instance: InstanceId, tasks: Vec<TaskSpec>, out: &mut Vec<ClientAction>) {
        let send = |tasks| ClientAction::Send(Message::Submit { instance, tasks });
        match tasks.len() {
            0 => {}
            n if n <= self.bundle.max_bundle => out.push(send(tasks)),
            _ => out.extend(bundles(tasks, self.bundle.max_bundle).into_iter().map(send)),
        }
    }

    /// Feed one event; actions are appended to `out`.
    pub fn on_event(&mut self, _now: Micros, ev: ClientEvent, out: &mut Vec<ClientAction>) {
        match ev {
            ClientEvent::Start => {
                out.push(ClientAction::Send(Message::CreateInstance));
            }
            ClientEvent::InstanceCreated { instance } => {
                self.instance = Some(instance);
                let staged = std::mem::take(&mut self.staged);
                self.submit(instance, staged, out);
            }
            ClientEvent::SubmitAcked { .. } => {}
            ClientEvent::Results { results } => {
                // Complete once per time the outstanding count reaches zero.
                let before = self.outstanding;
                self.outstanding = before.saturating_sub(results.len() as u64);
                self.unacked += results.len() as u64;
                let due = self.unacked >= ACK_EVERY || self.outstanding == 0 && self.unacked > 0;
                if let Some(instance) = self.instance.filter(|_| due) {
                    let count = std::mem::take(&mut self.unacked);
                    out.push(ClientAction::Send(Message::ResultsAck { instance, count }));
                }
                if self.results.is_empty() {
                    self.results = results;
                } else {
                    self.results.extend(results);
                }
                if before > 0 && self.outstanding == 0 {
                    out.push(ClientAction::WorkloadComplete);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_proto::task::TaskId;

    fn step(c: &mut Client, now: Micros, ev: ClientEvent) -> Vec<ClientAction> {
        let mut out = Vec::new();
        c.on_event(now, ev, &mut out);
        out
    }

    #[test]
    fn start_requests_instance() {
        let mut c = Client::new(BundleConfig::default());
        let acts = step(&mut c, 0, ClientEvent::Start);
        assert!(matches!(
            &acts[0],
            ClientAction::Send(Message::CreateInstance)
        ));
    }

    #[test]
    fn staged_tasks_flush_on_instance_creation() {
        let mut c = Client::new(BundleConfig::of(2));
        let mut out = Vec::new();
        c.enqueue(0, (0..5).map(|i| TaskSpec::sleep(i, 0)).collect(), &mut out);
        assert!(out.is_empty(), "no instance yet");
        let acts = step(
            &mut c,
            1,
            ClientEvent::InstanceCreated {
                instance: InstanceId(7),
            },
        );
        // 5 tasks in bundles of 2 → 3 submits.
        assert_eq!(acts.len(), 3);
        assert!(acts.iter().all(|a| matches!(
            a,
            ClientAction::Send(Message::Submit {
                instance: InstanceId(7),
                ..
            })
        )));
    }

    #[test]
    fn enqueue_after_instance_submits_directly() {
        let mut c = Client::new(BundleConfig::of(10));
        step(
            &mut c,
            0,
            ClientEvent::InstanceCreated {
                instance: InstanceId(1),
            },
        );
        let mut out = Vec::new();
        c.enqueue(1, vec![TaskSpec::sleep(1, 0)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    fn pushed_results_complete_the_workload() {
        let mut c = Client::new(BundleConfig::default());
        step(
            &mut c,
            0,
            ClientEvent::InstanceCreated {
                instance: InstanceId(1),
            },
        );
        let mut out = Vec::new();
        c.enqueue(10, vec![TaskSpec::sleep(1, 0)], &mut out);
        let acts = step(
            &mut c,
            30,
            ClientEvent::Results {
                results: vec![TaskResult::success(TaskId(1))],
            },
        );
        // Nothing is fetched: the result is acknowledged, and that is all.
        assert!(matches!(
            &acts[..],
            [
                ClientAction::Send(Message::ResultsAck { count: 1, .. }),
                ClientAction::WorkloadComplete
            ]
        ));
        assert_eq!(c.completions().len(), 1);
        assert_eq!(c.completions()[0].id, TaskId(1));
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn completion_emitted_once() {
        let mut c = Client::new(BundleConfig::default());
        step(
            &mut c,
            0,
            ClientEvent::InstanceCreated {
                instance: InstanceId(1),
            },
        );
        let mut out = Vec::new();
        c.enqueue(
            0,
            vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 0)],
            &mut out,
        );
        let acts = step(
            &mut c,
            1,
            ClientEvent::Results {
                results: vec![TaskResult::success(TaskId(1))],
            },
        );
        assert!(acts.is_empty());
        let acts = step(
            &mut c,
            2,
            ClientEvent::Results {
                results: vec![TaskResult::success(TaskId(2))],
            },
        );
        assert!(matches!(
            &acts[..],
            [
                ClientAction::Send(Message::ResultsAck { count: 2, .. }),
                ClientAction::WorkloadComplete
            ]
        ));
        // Duplicate empty delivery does not re-emit.
        let acts = step(&mut c, 3, ClientEvent::Results { results: vec![] });
        assert!(acts.is_empty());
    }

    fn with_instance(tasks: u64) -> Client {
        let mut c = Client::new(BundleConfig::default());
        let created = ClientEvent::InstanceCreated {
            instance: InstanceId(1),
        };
        step(&mut c, 0, created);
        let mut out = Vec::new();
        c.enqueue(
            0,
            (0..tasks).map(|i| TaskSpec::sleep(i, 0)).collect(),
            &mut out,
        );
        c
    }

    fn deliver(c: &mut Client, ids: std::ops::Range<u64>) -> Vec<ClientAction> {
        let results = ids.map(|i| TaskResult::success(TaskId(i))).collect();
        step(c, 1, ClientEvent::Results { results })
    }

    #[test]
    fn taken_results_leave_completions() {
        let mut c = with_instance(3);
        deliver(&mut c, 0..2);
        let taken: Vec<TaskId> = c.take_results().iter().map(|r| r.id).collect();
        assert_eq!(taken, [TaskId(0), TaskId(1)]);
        assert!(c.completions().is_empty());
        deliver(&mut c, 2..3);
        assert_eq!(c.completions().len(), 1);
        assert_eq!(c.completions()[0].id, TaskId(2));
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn workload_completes_once_when_results_are_taken_mid_run() {
        let mut c = with_instance(4);
        assert!(deliver(&mut c, 0..2).is_empty());
        c.take_results();
        let acts = deliver(&mut c, 2..4);
        assert!(matches!(
            &acts[..],
            [ClientAction::Send(_), ClientAction::WorkloadComplete]
        ));
        c.take_results();
        // A late, empty delivery (a reconnecting client's fetch) does not
        // re-emit.
        assert!(deliver(&mut c, 0..0).is_empty());
    }

    #[test]
    fn empty_workload_never_completes() {
        let mut c = with_instance(0);
        assert!(deliver(&mut c, 0..0).is_empty());
        c.take_results();
        assert!(deliver(&mut c, 0..0).is_empty());
    }

    #[test]
    fn acknowledges_every_ack_every_results_and_at_the_end() {
        let mut c = with_instance(ACK_EVERY + 3);
        assert!(deliver(&mut c, 0..ACK_EVERY - 1).is_empty());
        let acts = deliver(&mut c, ACK_EVERY - 1..ACK_EVERY + 1);
        let [ClientAction::Send(Message::ResultsAck { instance, count })] = &acts[..] else {
            panic!("expected one ack, got {acts:?}");
        };
        assert_eq!((*instance, *count), (InstanceId(1), ACK_EVERY + 1));
        assert!(deliver(&mut c, ACK_EVERY + 1..ACK_EVERY + 2).is_empty());
        let acts = deliver(&mut c, ACK_EVERY + 2..ACK_EVERY + 3);
        assert!(matches!(
            &acts[..],
            [
                ClientAction::Send(Message::ResultsAck { count: 2, .. }),
                ClientAction::WorkloadComplete
            ]
        ));
    }

    /// The ack goes out when exactly `ACK_EVERY` results are waiting.
    #[test]
    fn acknowledges_at_exactly_ack_every_results() {
        let mut c = with_instance(ACK_EVERY + 1);
        let acts = deliver(&mut c, 0..ACK_EVERY);
        assert!(matches!(
            &acts[..],
            [ClientAction::Send(Message::ResultsAck {
                count: ACK_EVERY,
                ..
            })]
        ));
    }

    /// Results delivered to a client holding none are taken as they came,
    /// without a copy; later ones join them.
    #[test]
    fn results_delivered_to_an_empty_client_are_kept_without_a_copy() {
        let mut c = with_instance(3);
        let results: Vec<TaskResult> = (0..2).map(|i| TaskResult::success(TaskId(i))).collect();
        let buffer = results.as_ptr();
        step(&mut c, 1, ClientEvent::Results { results });
        assert_eq!(c.completions().as_ptr(), buffer);
        deliver(&mut c, 2..3);
        let ids: Vec<u64> = c.take_results().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    /// A reconnecting client can be sent results it already has: more
    /// results than are outstanding complete the workload once.
    #[test]
    fn more_results_than_outstanding_complete_the_workload_once() {
        let mut c = with_instance(1);
        let acts = deliver(&mut c, 0..2);
        assert!(matches!(
            &acts[..],
            [ClientAction::Send(_), ClientAction::WorkloadComplete]
        ));
        assert_eq!(c.outstanding(), 0);
    }
}
