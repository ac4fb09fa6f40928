//! Model test for the switchboard (`switchboard.rs`).
//!
//! The reference is the structure the socket dispatcher kept before the
//! switchboard replaced it: an executor → connection map and an instance
//! → connection map. Random interleavings of `Register`, client messages
//! naming an instance (`Submit`, `GetResults`, `DestroyInstance`),
//! `InstanceCreated` answered on a connection, results pushed to an
//! instance, and closes are fed to both. After every step, every
//! executor's and every instance's destination must agree, and a close
//! must lose exactly the executors whose route still led to the closing
//! connection, each once, in ascending id order.
//!
//! The model also keeps every result pushed to an instance, in order,
//! until a `ResultsAck` from the instance's connection takes some off the
//! front or a `DestroyInstance` drops them. A `Submit` or `GetResults`
//! that moves the instance to another connection is first answered with
//! everything kept there. Every pushed result must end up acknowledged
//! exactly once or dropped by a destroy.

use falkon_core::Switchboard;
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::{TaskId, TaskResult};
use proptest::prelude::*;
use std::collections::HashMap;

const EXECUTORS: u64 = 6;
const INSTANCES: u64 = 3;

#[derive(Clone, Debug)]
enum Op {
    Register(u64, u8),
    Submit(u64, u8),
    GetResults(u64, u8),
    Destroy(u64, u8),
    Created(u64, u8),
    Push(u64),
    Ack(u64, u8, u64),
    Close(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let (e, i, conn) = (0..EXECUTORS, 0..INSTANCES, 0u8..4);
    prop_oneof![
        (e, conn.clone()).prop_map(|(e, c)| Op::Register(e, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::Submit(i, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::GetResults(i, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::Destroy(i, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::Created(i, c)),
        i.clone().prop_map(Op::Push),
        (i, conn.clone(), 0u64..4).prop_map(|(i, c, n)| Op::Ack(i, c, n)),
        conn.prop_map(Op::Close),
    ]
}

#[derive(Default)]
struct Model {
    exec_conn: HashMap<ExecutorId, u8>,
    inst_conn: HashMap<InstanceId, u8>,
    /// Per instance, the ids of the results pushed and not acknowledged.
    kept: HashMap<InstanceId, Vec<u64>>,
}

impl Model {
    fn close(&mut self, conn: u8) -> Vec<ExecutorId> {
        let mut lost: Vec<_> = self
            .exec_conn
            .iter()
            .filter(|(_, c)| **c == conn)
            .map(|(e, _)| *e)
            .collect();
        lost.sort_unstable_by_key(|e| e.0);
        self.exec_conn.retain(|_, c| *c != conn);
        self.inst_conn.retain(|_, c| *c != conn);
        lost
    }

    /// A `Submit` or `GetResults` for `instance` arrived on `conn`: what
    /// is sent there first.
    fn rebind(&mut self, instance: InstanceId, conn: u8) -> Vec<(u8, Vec<u64>)> {
        if self.inst_conn.insert(instance, conn) == Some(conn) {
            return Vec::new();
        }
        let kept = self.kept.get(&instance).filter(|k| !k.is_empty());
        kept.map(|k| (conn, k.clone())).into_iter().collect()
    }
}

/// What `heard` sends for `msg` from `from`, as result ids.
fn heard(sb: &mut Switchboard<u8>, from: u8, msg: Message) -> Vec<(u8, Vec<u64>)> {
    let mut sent = Vec::new();
    sb.heard(from, &msg, &mut sent);
    sent.into_iter().map(|(k, msg)| (k, ids(msg))).collect()
}

/// The ids of a `Results` message.
fn ids(msg: Message) -> Vec<u64> {
    match msg {
        Message::Results { results } => results.iter().map(|r| r.id.0).collect(),
        other => panic!("kept results came back as {other:?}"),
    }
}

/// Where each executor's and each instance's next message would go.
fn destinations(sb: &mut Switchboard<u8>) -> Vec<Option<u8>> {
    let execs = (0..EXECUTORS).map(|e| sb.to_executor(ExecutorId(e)));
    let execs: Vec<_> = execs.collect();
    let insts = (0..INSTANCES).map(|i| {
        let instance = InstanceId(i);
        let ack = Message::SubmitAck {
            instance,
            accepted: 0,
        };
        sb.to_instance(instance, &ack, None)
    });
    execs.into_iter().chain(insts).collect()
}

fn model_destinations(m: &Model) -> Vec<Option<u8>> {
    let execs = (0..EXECUTORS).map(|e| m.exec_conn.get(&ExecutorId(e)).copied());
    let insts = (0..INSTANCES).map(|i| m.inst_conn.get(&InstanceId(i)).copied());
    execs.chain(insts).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn switchboard_matches_the_per_connection_routes_it_replaced(
        ops in prop::collection::vec(arb_op(), 0..80),
    ) {
        let mut sb: Switchboard<u8> = Switchboard::default();
        let mut m = Model::default();
        // Every result id pushed, and each one's fate: acknowledged or
        // dropped by a destroy.
        let mut pushed = 0u64;
        let mut fates: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Register(e, c) => {
                    let executor = ExecutorId(e);
                    let msg = Message::Register { executor, host: "h".into() };
                    prop_assert_eq!(heard(&mut sb, c, msg), vec![]);
                    m.exec_conn.insert(executor, c);
                }
                Op::Submit(i, c) => {
                    let instance = InstanceId(i);
                    let got = heard(&mut sb, c, Message::Submit { instance, tasks: vec![] });
                    prop_assert_eq!(got, m.rebind(instance, c));
                }
                Op::GetResults(i, c) => {
                    let instance = InstanceId(i);
                    let got = heard(&mut sb, c, Message::GetResults { instance });
                    prop_assert_eq!(got, m.rebind(instance, c));
                }
                Op::Destroy(i, c) => {
                    let instance = InstanceId(i);
                    let got = heard(&mut sb, c, Message::DestroyInstance { instance });
                    prop_assert_eq!(got, vec![]);
                    m.inst_conn.remove(&instance);
                    fates.extend(m.kept.remove(&instance).into_iter().flatten());
                }
                Op::Created(i, c) => {
                    let instance = InstanceId(i);
                    let created = Message::InstanceCreated { instance };
                    prop_assert_eq!(sb.to_instance(instance, &created, Some(c)), Some(c));
                    m.inst_conn.insert(instance, c);
                }
                Op::Push(i) => {
                    let instance = InstanceId(i);
                    let id = pushed;
                    pushed += 1;
                    let push = Message::Results { results: vec![TaskResult::success(TaskId(id))] };
                    prop_assert_eq!(sb.to_instance(instance, &push, None), m.inst_conn.get(&instance).copied());
                    m.kept.entry(instance).or_default().push(id);
                }
                Op::Ack(i, c, n) => {
                    let instance = InstanceId(i);
                    let got = heard(&mut sb, c, Message::ResultsAck { instance, count: n });
                    prop_assert_eq!(got, vec![]);
                    if m.inst_conn.get(&instance) == Some(&c) {
                        if let Some(kept) = m.kept.get_mut(&instance) {
                            fates.extend(kept.drain(..kept.len().min(n as usize)));
                        }
                    }
                }
                Op::Close(c) => prop_assert_eq!(sb.close(c), m.close(c)),
            }
            prop_assert_eq!(destinations(&mut sb), model_destinations(&m));
        }
        // What is still kept goes to a fresh connection, which takes it.
        for i in 0..INSTANCES {
            let instance = InstanceId(i);
            let got = heard(&mut sb, 9, Message::GetResults { instance });
            prop_assert_eq!(got.clone(), m.rebind(instance, 9));
            let taken: Vec<u64> = got.into_iter().flat_map(|(_, ids)| ids).collect();
            let count = taken.len() as u64;
            prop_assert_eq!(heard(&mut sb, 9, Message::ResultsAck { instance, count }), vec![]);
            prop_assert_eq!(heard(&mut sb, 8, Message::GetResults { instance }), vec![], "all taken");
            fates.extend(taken);
        }
        fates.sort_unstable();
        prop_assert_eq!(fates, (0..pushed).collect::<Vec<_>>(), "each result exactly once");
    }
}
