//! Model test for the switchboard (`switchboard.rs`).
//!
//! The reference is the structure the socket dispatcher kept before the
//! switchboard replaced it: an executor → connection map, an instance →
//! connection map, and per connection the executors bound there, in the
//! order of their latest `Register`s. Random interleavings of
//! `Register`, client messages naming an instance (`Submit`, `GetResults`,
//! `DestroyInstance`), `InstanceCreated` answered on a connection, and
//! closes are fed to both. After every step, every executor's and every
//! instance's destination must agree, and a close must lose the same
//! executors in the same order: each one once, only while its route still
//! led to the closing connection.

use falkon_core::dispatcher::DispatcherAction;
use falkon_core::Switchboard;
use falkon_proto::message::{ExecutorId, InstanceId, Message};
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
    Close(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let (e, i, conn) = (0..EXECUTORS, 0..INSTANCES, 0u8..4);
    prop_oneof![
        (e, conn.clone()).prop_map(|(e, c)| Op::Register(e, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::Submit(i, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::GetResults(i, c)),
        (i.clone(), conn.clone()).prop_map(|(i, c)| Op::Destroy(i, c)),
        (i, conn.clone()).prop_map(|(i, c)| Op::Created(i, c)),
        conn.prop_map(Op::Close),
    ]
}

#[derive(Default)]
struct Model {
    exec_conn: HashMap<ExecutorId, u8>,
    inst_conn: HashMap<InstanceId, u8>,
    /// Per connection, the executors whose `Register` bound them there.
    log: HashMap<u8, Vec<ExecutorId>>,
}

impl Model {
    fn close(&mut self, conn: u8) -> Vec<ExecutorId> {
        let mut lost = Vec::new();
        for e in self.log.remove(&conn).unwrap_or_default() {
            if self.exec_conn.get(&e) == Some(&conn) {
                self.exec_conn.remove(&e);
                lost.push(e);
            }
        }
        self.inst_conn.retain(|_, c| *c != conn);
        lost
    }
}

/// Where each executor's and each instance's next message would go.
fn destinations(sb: &mut Switchboard<u8>) -> Vec<Option<u8>> {
    let execs = (0..EXECUTORS).map(|e| DispatcherAction::ToExecutor {
        executor: ExecutorId(e),
        msg: Message::Deregister {
            executor: ExecutorId(e),
        },
    });
    let insts = (0..INSTANCES).map(|i| DispatcherAction::ToClient {
        instance: InstanceId(i),
        msg: Message::Results { results: vec![] },
    });
    let route = |act| {
        let mut to = None;
        sb.route(&mut vec![act], None, &mut Vec::new(), |k, _| to = Some(k));
        to
    };
    execs.chain(insts).map(route).collect()
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
        for op in ops {
            match op {
                Op::Register(e, c) => {
                    let executor = ExecutorId(e);
                    sb.heard(c, &Message::Register { executor, host: "h".into() });
                    m.exec_conn.insert(executor, c);
                    let log = m.log.entry(c).or_default();
                    log.retain(|&x| x != executor);
                    log.push(executor);
                }
                Op::Submit(i, c) => {
                    let instance = InstanceId(i);
                    sb.heard(c, &Message::Submit { instance, tasks: vec![] });
                    m.inst_conn.insert(instance, c);
                }
                Op::GetResults(i, c) => {
                    let instance = InstanceId(i);
                    sb.heard(c, &Message::GetResults { instance });
                    m.inst_conn.insert(instance, c);
                }
                Op::Destroy(i, c) => {
                    let instance = InstanceId(i);
                    sb.heard(c, &Message::DestroyInstance { instance });
                    m.inst_conn.remove(&instance);
                }
                Op::Created(i, c) => {
                    let instance = InstanceId(i);
                    let mut created = vec![DispatcherAction::ToClient {
                        instance,
                        msg: Message::InstanceCreated { instance },
                    }];
                    let mut to = Vec::new();
                    sb.route(&mut created, Some(c), &mut Vec::new(), |k, _| to.push(k));
                    prop_assert_eq!(to, vec![c]);
                    m.inst_conn.insert(instance, c);
                }
                Op::Close(c) => prop_assert_eq!(sb.close(c), m.close(c)),
            }
            prop_assert_eq!(destinations(&mut sb), model_destinations(&m));
        }
    }
}
