//! Which endpoint serves an executor or an instance, decided in one place
//! for every driver (DESIGN.md §10.3); `K` is the driver's endpoint key. A
//! `Register` binds its executor where it arrived. `Submit` and
//! `GetResults` rebind their instance there and `DestroyInstance` unbinds
//! it, so a client that reconnects is answered where it now is.
//! `InstanceCreated` and `Status` go to the endpoint whose message caused
//! them, and `InstanceCreated` binds its instance there. A close forgets
//! only the bindings that still lead to the closing endpoint.

use crate::dispatcher::{DispatcherAction, TaskRecord};
use crate::ids::{ExecutorId, InstanceId};
use falkon_proto::message::Message;
use std::collections::HashMap;

/// The executor and instance bindings of one server (module docs). The
/// ids come off the wire, so the maps keep std's keyed hasher.
#[derive(Debug)]
pub struct Switchboard<K> {
    /// Each bound executor's endpoint, and the number of its latest
    /// registration.
    executors: HashMap<ExecutorId, (K, u64)>,
    instances: HashMap<InstanceId, K>,
    registrations: u64,
}

impl<K> Default for Switchboard<K> {
    fn default() -> Self {
        Switchboard {
            executors: HashMap::new(),
            instances: HashMap::new(),
            registrations: 0,
        }
    }
}

impl<K: Copy + PartialEq> Switchboard<K> {
    /// `msg` arrived on endpoint `from`: bind what it names there.
    pub fn heard(&mut self, from: K, msg: &Message) {
        match *msg {
            Message::Register { executor, .. } => {
                self.registrations += 1;
                self.executors.insert(executor, (from, self.registrations));
            }
            Message::Submit { instance, .. } | Message::GetResults { instance } => {
                self.instances.insert(instance, from);
            }
            Message::DestroyInstance { instance } => _ = self.instances.remove(&instance),
            _ => {}
        }
    }

    /// Where `msg` for instance `id` goes; `cause` sent what it answers.
    pub fn to_instance(&mut self, id: InstanceId, msg: &Message, cause: Option<K>) -> Option<K> {
        if let (Message::InstanceCreated { .. }, Some(at)) = (msg, cause) {
            self.instances.insert(id, at);
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
        let notify = || {
            to_client(
                4,
                Message::ClientNotify {
                    instance: InstanceId(4),
                    ready: 1,
                },
            )
        };
        assert_eq!(sent(&mut sb, vec![notify()], None), [3]);
        sb.close(3);
        assert_eq!(sent(&mut sb, vec![notify()], None), []);
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
