//! Which endpoint serves an executor or an instance, for the servers of
//! [`crate::node`]; `K` is the endpoint key. A `Register` binds
//! its executor where it arrived. `Submit` and `GetResults` rebind their
//! instance there and `DestroyInstance` unbinds it, so a client that
//! reconnects is answered where it now is. `InstanceCreated` binds its
//! instance where the message that caused it came from. A close forgets
//! only the bindings that still lead to the closing endpoint.
//!
//! Every `Results` is kept until the instance's endpoint acknowledges it
//! (`ResultsAck`), and goes again, ahead of the answer, to an endpoint
//! that a `Submit` or `GetResults` moves its instance to: results that
//! went to a connection that died unread, or came while the instance had
//! none, reach the client that comes back. `DestroyInstance` drops them.

use crate::ids::{ExecutorId, InstanceId};
use crate::table::{DenseMap, DENSE_ID_CAP};
use falkon_proto::message::Message;
use falkon_proto::task::TaskResult;
use std::collections::HashMap;

/// The bindings of one server (module docs): an executor's endpoint,
/// dense by id; instance ids come off the wire, so the rest keep std's
/// keyed hasher.
#[derive(Debug)]
pub struct Switchboard<K> {
    executors: DenseMap<ExecutorId, K>,
    instances: HashMap<InstanceId, K>,
    /// Each instance's unacknowledged results, in the order they went out.
    kept: HashMap<InstanceId, Vec<TaskResult>>,
}

impl<K> Default for Switchboard<K> {
    fn default() -> Self {
        Switchboard {
            executors: DenseMap::new(),
            instances: HashMap::new(),
            kept: HashMap::new(),
        }
    }
}

impl<K: Copy + PartialEq> Switchboard<K> {
    /// `msg` arrived on endpoint `from`: bind what it names there, sending
    /// (onto `out`) an instance that moves here what it has kept.
    pub fn heard(&mut self, from: K, msg: &Message, out: &mut Vec<(K, Message)>) {
        match *msg {
            // The dispatcher refuses an id at or above the cap, as here.
            Message::Register { executor, .. } if executor.0 < DENSE_ID_CAP => {
                self.executors.insert(executor, from);
            }
            Message::Submit { instance, .. } | Message::GetResults { instance } => {
                let moved = self.instances.insert(instance, from) != Some(from);
                if let Some(results) = self.kept.get(&instance).filter(|_| moved).cloned() {
                    out.push((from, Message::Results { results }));
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

    /// Where a message for executor `id` goes.
    pub fn to_executor(&self, id: ExecutorId) -> Option<K> {
        self.executors.get(id).copied()
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

    /// Endpoint `at` closed: forget every binding that still leads there.
    /// Returns the executors that lost their route, in ascending id order.
    pub fn close(&mut self, at: K) -> Vec<ExecutorId> {
        let bound = self.executors.iter().filter(|(_, k)| **k == at);
        let lost: Vec<_> = bound.map(|(executor, _)| executor).collect();
        for executor in &lost {
            self.executors.remove(*executor);
        }
        self.instances.retain(|_, k| *k != at);
        lost
    }
}

#[cfg(test)]
mod tests {
    //! Binding, rebinding and loss are pinned against a model in
    //! `tests/switchboard_model.rs`; these pin the rest of addressing.
    use super::*;

    /// Where each message for instance `i` goes, if anywhere.
    fn sent(sb: &mut Switchboard<u8>, msgs: Vec<(u64, Message)>, cause: Option<u8>) -> Vec<u8> {
        let to = msgs
            .iter()
            .map(|(i, msg)| sb.to_instance(InstanceId(*i), msg, cause));
        to.flatten().collect()
    }

    fn to_client(i: u64, msg: Message) -> (u64, Message) {
        (i, msg)
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
        assert_eq!(sent(&mut sb, vec![created], Some(3)), [3]);
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
        sb.heard(from, &msg, &mut to);
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
        // What `heard` sends goes out ahead of the answer.
        assert_eq!(heard(&mut sb, 5, fetch(4)), [(5, results(&[1, 2, 3]))]);
        assert_eq!(
            sb.to_instance(InstanceId(4), &results(&[]), Some(5)),
            Some(5)
        );
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
}
