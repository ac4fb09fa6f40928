//! Which endpoint serves an executor or an instance, decided in one place
//! for every driver (DESIGN.md §10.3); `K` is the driver's endpoint key. A
//! `Register` binds its executor where it arrived. `Submit` and
//! `GetResults` rebind their instance there and `DestroyInstance` unbinds
//! it, so a client that reconnects is answered where it now is.
//! `InstanceCreated` and `Status` go to the endpoint whose message caused
//! them, and `InstanceCreated` binds its instance there. A close forgets
//! only the bindings that still lead to the closing endpoint.
//!
//! Every `Results` is kept until the instance's endpoint acknowledges it
//! (`ResultsAck`), and goes again, ahead of the answer, to an endpoint
//! that a `Submit` or `GetResults` moves its instance to: results that
//! went to a connection that died unread, or came while the instance had
//! none, reach the client that comes back. `DestroyInstance` drops them.

use crate::dispatcher::{DispatcherAction, TaskRecord};
use crate::ids::{ExecutorId, InstanceId};
use falkon_proto::message::Message;
use falkon_proto::task::TaskResult;
use std::collections::HashMap;

/// The executor and instance bindings of one server (module docs). The
/// ids come off the wire, so the maps keep std's keyed hasher.
#[derive(Debug)]
pub struct Switchboard<K> {
    /// Each bound executor's endpoint, and the number of its latest
    /// registration.
    executors: HashMap<ExecutorId, (K, u64)>,
    instances: HashMap<InstanceId, K>,
    /// Each instance's unacknowledged results, in the order they went out.
    kept: HashMap<InstanceId, Vec<TaskResult>>,
    registrations: u64,
}

impl<K> Default for Switchboard<K> {
    fn default() -> Self {
        Switchboard {
            executors: HashMap::new(),
            instances: HashMap::new(),
            kept: HashMap::new(),
            registrations: 0,
        }
    }
}

impl<K: Copy + PartialEq> Switchboard<K> {
    /// `msg` arrived on endpoint `from`: bind what it names there, sending
    /// an instance that moves here what it has kept.
    pub fn heard(&mut self, from: K, msg: &Message, mut send: impl FnMut(K, Message)) {
        match *msg {
            Message::Register { executor, .. } => {
                self.registrations += 1;
                self.executors.insert(executor, (from, self.registrations));
            }
            Message::Submit { instance, .. } | Message::GetResults { instance } => {
                let moved = self.instances.insert(instance, from) != Some(from);
                if let Some(results) = self.kept.get(&instance).filter(|_| moved).cloned() {
                    send(from, Message::Results { results });
                }
            }
            Message::ResultsAck { instance, count } => {
                let bound = self.instances.get(&instance) == Some(&from);
                let Some(kept) = self.kept.get_mut(&instance).filter(|_| bound) else {
                    return;
                };
                kept.drain(..kept.len().min(count as usize));
                if kept.is_empty() {
                    self.kept.remove(&instance);
                }
            }
            Message::DestroyInstance { instance } => {
                self.instances.remove(&instance);
                self.kept.remove(&instance);
            }
            _ => {}
        }
    }

    /// Where `msg` for instance `id` goes; `cause` sent what it answers.
    /// `Results` are kept (module docs).
    pub fn to_instance(&mut self, id: InstanceId, msg: &Message, cause: Option<K>) -> Option<K> {
        match (msg, cause) {
            (Message::InstanceCreated { .. }, Some(at)) => _ = self.instances.insert(id, at),
            (Message::Results { results }, _) if !results.is_empty() => {
                self.kept.entry(id).or_default().extend_from_slice(results);
            }
            _ => {}
        }
        self.instances.get(&id).copied()
    }

    /// Drain a dispatcher's `actions`: each message to `send` with its
    /// endpoint (dropped if it has none), each completion onto `records`.
    /// `cause` is the endpoint whose message the machine answered.
    pub fn route(
        &mut self,
        actions: &mut Vec<DispatcherAction>,
        cause: Option<K>,
        records: &mut Vec<TaskRecord>,
        mut send: impl FnMut(K, Message),
    ) {
        for act in actions.drain(..) {
            let (to, msg) = match act {
                DispatcherAction::ToExecutor { executor, msg } => {
                    (self.executors.get(&executor).map(|b| b.0), msg)
                }
                DispatcherAction::ToClient { instance, msg } => {
                    (self.to_instance(instance, &msg, cause), msg)
                }
                DispatcherAction::ToProvisioner { status } => (cause, Message::Status { status }),
                DispatcherAction::TaskDone { record, .. } => {
                    records.push(record);
                    continue;
                }
                DispatcherAction::TaskFailed { .. } => continue,
            };
            if let Some(to) = to {
                send(to, msg);
            }
        }
    }

    /// Endpoint `at` closed: forget every binding that still leads there.
    /// Returns the executors that lost their route, in registration order.
    pub fn close(&mut self, at: K) -> Vec<ExecutorId> {
        let mut lost: Vec<_> = self.executors.extract_if(|_, b| b.0 == at).collect();
        lost.sort_unstable_by_key(|(_, (_, n))| *n);
        self.instances.retain(|_, k| *k != at);
        lost.into_iter().map(|(executor, _)| executor).collect()
    }
}

#[cfg(test)]
mod tests {
    //! Binding, rebinding and loss are pinned against a model in
    //! `tests/switchboard_model.rs`; these pin the rest of `route`.
    use super::*;
    use falkon_proto::message::DispatcherStatus;

    fn sent(sb: &mut Switchboard<u8>, acts: Vec<DispatcherAction>, cause: Option<u8>) -> Vec<u8> {
        let (mut acts, mut records, mut to) = (acts, Vec::new(), Vec::new());
        sb.route(&mut acts, cause, &mut records, |k, _| to.push(k));
        to
    }

    fn to_client(i: u64, msg: Message) -> DispatcherAction {
        DispatcherAction::ToClient {
            instance: InstanceId(i),
            msg,
        }
    }

    #[test]
    fn answers_go_to_the_cause_and_instance_created_binds_there() {
        let mut sb = Switchboard::default();
        let created = to_client(
            4,
            Message::InstanceCreated {
                instance: InstanceId(4),
            },
        );
        let status = DispatcherAction::ToProvisioner {
            status: DispatcherStatus::default(),
        };
        assert_eq!(sent(&mut sb, vec![created, status], Some(3)), [3, 3]);
        let ack = || {
            to_client(
                4,
                Message::SubmitAck {
                    instance: InstanceId(4),
                    accepted: 1,
                },
            )
        };
        assert_eq!(sent(&mut sb, vec![ack()], None), [3]);
        sb.close(3);
        assert_eq!(sent(&mut sb, vec![ack()], None), []);
        // Nor is it kept for the next endpoint: only results are.
        assert_eq!(heard(&mut sb, 5, submit(4)), []);
    }

    /// What `heard` sends.
    fn heard(sb: &mut Switchboard<u8>, from: u8, msg: Message) -> Vec<(u8, Message)> {
        let mut to = Vec::new();
        sb.heard(from, &msg, |k, m| to.push((k, m)));
        to
    }

    fn submit(i: u64) -> Message {
        Message::Submit {
            instance: InstanceId(i),
            tasks: vec![],
        }
    }

    fn fetch(i: u64) -> Message {
        Message::GetResults {
            instance: InstanceId(i),
        }
    }

    fn ack(i: u64, count: u64) -> Message {
        Message::ResultsAck {
            instance: InstanceId(i),
            count,
        }
    }

    fn results(ids: &[u64]) -> Message {
        let results = ids
            .iter()
            .map(|&i| TaskResult::success(falkon_proto::task::TaskId(i)))
            .collect();
        Message::Results { results }
    }

    /// Instance 4 bound at endpoint 3, which was sent results 1 and 2 and
    /// closed, and result 3 pushed to it since.
    fn orphaned() -> Switchboard<u8> {
        let mut sb = Switchboard::default();
        assert_eq!(heard(&mut sb, 3, submit(4)), []);
        assert_eq!(
            sent(&mut sb, vec![to_client(4, results(&[1, 2]))], None),
            [3]
        );
        sb.close(3);
        assert_eq!(sent(&mut sb, vec![to_client(4, results(&[3]))], None), []);
        sb
    }

    #[test]
    fn kept_results_go_to_the_endpoint_an_instance_moves_to_ahead_of_the_answer() {
        let mut sb = orphaned();
        // A driver feeds `heard` and `route` the same sink.
        let mut to = heard(&mut sb, 5, fetch(4));
        let mut acts = vec![to_client(4, results(&[]))];
        sb.route(&mut acts, Some(5), &mut Vec::new(), |k, m| to.push((k, m)));
        assert_eq!(to, [(5, results(&[1, 2, 3])), (5, results(&[]))]);
        // Kept until acknowledged, then gone.
        assert_eq!(heard(&mut sb, 6, submit(4)), [(6, results(&[1, 2, 3]))]);
        assert_eq!(heard(&mut sb, 6, ack(4, 3)), []);
        assert_eq!(heard(&mut sb, 7, submit(4)), []);
    }

    #[test]
    fn an_ack_counts_from_the_front_and_only_from_the_bound_endpoint() {
        let mut sb = Switchboard::default();
        assert_eq!(heard(&mut sb, 3, submit(4)), []);
        assert_eq!(
            sent(&mut sb, vec![to_client(4, results(&[1, 2, 3]))], None),
            [3]
        );
        assert_eq!(heard(&mut sb, 9, ack(4, 3)), [], "not bound at 9");
        assert_eq!(heard(&mut sb, 3, ack(4, 2)), []);
        // Another message on the same endpoint sends nothing again; a
        // move does, even before the old endpoint's close is seen.
        assert_eq!(heard(&mut sb, 3, fetch(4)), []);
        assert_eq!(heard(&mut sb, 5, fetch(4)), [(5, results(&[3]))]);
    }

    #[test]
    fn destroy_drops_kept_results() {
        let mut sb = orphaned();
        let destroy = Message::DestroyInstance {
            instance: InstanceId(4),
        };
        assert_eq!(heard(&mut sb, 5, destroy), []);
        assert_eq!(heard(&mut sb, 5, submit(4)), []);
    }

    #[test]
    fn route_collects_records_and_drops_failures() {
        let mut sb: Switchboard<u8> = Switchboard::default();
        let record = TaskRecord {
            result: falkon_proto::task::TaskResult::success(falkon_proto::task::TaskId(1)),
            enqueued_us: 0,
            dispatched_us: 0,
            completed_us: 0,
            executor: ExecutorId(1),
            attempts: 1,
        };
        let mut acts = vec![
            DispatcherAction::TaskDone {
                instance: InstanceId(1),
                record,
            },
            DispatcherAction::TaskFailed {
                instance: InstanceId(1),
                task: falkon_proto::task::TaskId(2),
                attempts: 3,
            },
        ];
        let mut records = Vec::new();
        sb.route(&mut acts, None, &mut records, |_, _| {
            panic!("nothing to send")
        });
        assert!(acts.is_empty());
        assert_eq!(records.len(), 1);
    }
}
