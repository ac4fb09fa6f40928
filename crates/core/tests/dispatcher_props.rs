//! Property-based stress tests for the dispatcher state machine.
//!
//! A randomized driver plays executor and client against a `Dispatcher`:
//! messages are delivered in arbitrary orders, results are randomly dropped
//! (forcing timeout replays), and executors randomly crash. The invariants:
//!
//! 1. every submitted task is eventually reported exactly once
//!    (completed or permanently failed) — no loss, no duplication;
//! 2. the dispatcher fully drains (no queued/running tasks remain);
//! 3. executor bookkeeping never underflows (checked implicitly by absence
//!    of panics and by the busy count returning to zero).
//!
//! A second script has executors ask for work at any moment, as a
//! pre-fetching executor does, and report one task at a time: after every
//! event no executor holds more than one bundle beyond its running task.

use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent};
use falkon_core::policy::ReplayPolicy;
use falkon_core::DispatcherConfig;
use falkon_proto::message::{ExecutorId, InstanceId, Message, NotifyKey};
use falkon_proto::task::{TaskId, TaskResult, TaskSpec};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// One pending in-flight message from dispatcher to an executor.
#[derive(Debug)]
enum Wire {
    Notify(ExecutorId, NotifyKey),
    Work(ExecutorId, Vec<TaskSpec>),
    Ack(ExecutorId, Vec<TaskSpec>),
}

struct World {
    d: Dispatcher,
    now: u64,
    wires: VecDeque<Wire>,
    /// Tasks an executor has finished running, result not yet delivered.
    exec_done: HashMap<ExecutorId, Vec<TaskResult>>,
    alive: HashSet<ExecutorId>,
    instance: InstanceId,
    done_tasks: HashMap<TaskId, u32>,
    failed_tasks: HashSet<TaskId>,
}

impl World {
    fn new(n_exec: u64) -> World {
        let cfg = DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 10,
                timeout_slack_us: 1_000,
                runtime_factor: 1.0,
                retry_on_failure: false,
                io_slack_us_per_mib: 10_000_000,
            },
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(cfg);
        let mut out = Vec::new();
        d.on_event(0, DispatcherEvent::CreateInstance, &mut out);
        let instance = match &out[0] {
            DispatcherAction::ToClient {
                msg: Message::InstanceCreated { instance },
                ..
            } => *instance,
            other => panic!("unexpected {other:?}"),
        };
        let mut w = World {
            d,
            now: 1,
            wires: VecDeque::new(),
            exec_done: HashMap::new(),
            alive: HashSet::new(),
            instance,
            done_tasks: HashMap::new(),
            failed_tasks: HashSet::new(),
        };
        for e in 0..n_exec {
            w.feed(DispatcherEvent::Register {
                executor: ExecutorId(e),
            });
            w.alive.insert(ExecutorId(e));
        }
        w
    }

    fn feed(&mut self, ev: DispatcherEvent) {
        let mut out = Vec::new();
        self.d.on_event(self.now, ev, &mut out);
        for act in out {
            match act {
                DispatcherAction::ToExecutor { executor, msg } => match msg {
                    Message::Notify { key } => self.wires.push_back(Wire::Notify(executor, key)),
                    Message::Work { tasks } => self.wires.push_back(Wire::Work(executor, tasks)),
                    Message::ResultAck { piggybacked } => {
                        self.wires.push_back(Wire::Ack(executor, piggybacked))
                    }
                    _ => {}
                },
                DispatcherAction::TaskDone { record, .. } => {
                    *self.done_tasks.entry(record.result.id).or_insert(0) += 1;
                }
                DispatcherAction::TaskFailed { task, .. } => {
                    assert!(
                        self.failed_tasks.insert(task),
                        "task failed twice: {task:?}"
                    );
                }
                _ => {}
            }
        }
    }

    /// Deliver one wire message, if any; `drop_result` silently loses the
    /// execution result (forcing a replay), `crash` kills the executor.
    fn step(&mut self, pick: usize, drop_result: bool, crash: bool) {
        self.now += 7;
        if crash && !self.alive.is_empty() {
            let victims: Vec<_> = self.alive.iter().copied().collect();
            let victim = victims[pick % victims.len()];
            self.alive.remove(&victim);
            self.exec_done.remove(&victim);
            // Drop wires destined to the dead executor.
            self.wires.retain(|w| match w {
                Wire::Notify(e, _) | Wire::Work(e, _) | Wire::Ack(e, _) => *e != victim,
            });
            self.feed(DispatcherEvent::ExecutorLost { executor: victim });
            return;
        }
        // Deliver a buffered executor-side completion sometimes.
        if pick.is_multiple_of(3) {
            if let Some((&e, _)) = self.exec_done.iter().find(|(_, v)| !v.is_empty()) {
                let results = self.exec_done.get_mut(&e).unwrap().drain(..).collect();
                self.feed(DispatcherEvent::Result {
                    executor: e,
                    results,
                });
                return;
            }
        }
        if self.wires.is_empty() {
            return;
        }
        let idx = pick % self.wires.len();
        let wire = self.wires.remove(idx).unwrap();
        match wire {
            Wire::Notify(e, key) => {
                if self.alive.contains(&e) {
                    self.feed(DispatcherEvent::GetWork { executor: e, key });
                }
            }
            Wire::Work(e, tasks) | Wire::Ack(e, tasks) => {
                if self.alive.contains(&e) {
                    for t in tasks {
                        if drop_result {
                            // Result lost in flight: dispatcher must replay.
                        } else {
                            self.exec_done
                                .entry(e)
                                .or_default()
                                .push(TaskResult::success(t.id));
                        }
                    }
                }
            }
        }
    }

    /// Advance time past all deadlines and let the system quiesce.
    fn drain(&mut self) {
        for _ in 0..10_000 {
            // Deliver everything outstanding deterministically.
            while let Some(wire) = self.wires.pop_front() {
                match wire {
                    Wire::Notify(e, key) => {
                        if self.alive.contains(&e) {
                            self.feed(DispatcherEvent::GetWork { executor: e, key });
                        }
                    }
                    Wire::Work(e, tasks) | Wire::Ack(e, tasks) => {
                        if self.alive.contains(&e) {
                            for t in tasks {
                                self.exec_done
                                    .entry(e)
                                    .or_default()
                                    .push(TaskResult::success(t.id));
                            }
                        }
                    }
                }
            }
            let pending: Vec<ExecutorId> = self
                .exec_done
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(&e, _)| e)
                .collect();
            for e in pending {
                let results = self.exec_done.get_mut(&e).unwrap().drain(..).collect();
                self.feed(DispatcherEvent::Result {
                    executor: e,
                    results,
                });
            }
            if drained(&self.d) && self.wires.is_empty() {
                return;
            }
            // Fire any deadline timers.
            if let Some(dl) = self.d.next_deadline() {
                self.now = self.now.max(dl + 1);
                self.feed(DispatcherEvent::CheckDeadlines);
            } else if self.wires.is_empty() && !drained(&self.d) {
                // Queued tasks with no live executor: add a rescue executor.
                let e = ExecutorId(1_000_000);
                if self.alive.insert(e) {
                    self.feed(DispatcherEvent::Register { executor: e });
                }
            }
        }
        panic!("world failed to quiesce");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_task_lost_or_duplicated(
        n_tasks in 1u64..60,
        n_exec in 1u64..8,
        script in prop::collection::vec((any::<u16>(), 0u8..100, 0u8..100), 0..400),
    ) {
        let mut w = World::new(n_exec);
        let tasks: Vec<TaskSpec> = (0..n_tasks).map(|i| TaskSpec::sleep(i, 0)).collect();
        let instance = w.instance;
        w.feed(DispatcherEvent::Submit { instance, tasks });
        for (pick, p_drop, p_crash) in script {
            let drop_result = p_drop < 15;   // 15% of deliveries lose the result
            let crash = p_crash < 3;          // 3% executor crash
            w.step(pick as usize, drop_result, crash);
            // Occasionally fire deadline checks mid-run.
            if pick % 11 == 0 {
                if let Some(dl) = w.d.next_deadline() {
                    if dl <= w.now {
                        w.feed(DispatcherEvent::CheckDeadlines);
                    }
                }
            }
        }
        w.drain();

        // Invariant 1: exactly-once accounting.
        let mut seen = HashSet::new();
        for (id, count) in &w.done_tasks {
            prop_assert_eq!(*count, 1, "task {:?} completed {} times", id, count);
            prop_assert!(seen.insert(*id));
        }
        for id in &w.failed_tasks {
            prop_assert!(seen.insert(*id), "task {:?} both completed and failed", id);
        }
        prop_assert_eq!(seen.len() as u64, n_tasks, "tasks unaccounted for");

        // Invariant 2: fully drained.
        prop_assert!(drained(&w.d));

        // Invariant 3: stats are consistent.
        let stats = w.d.stats();
        prop_assert_eq!(stats.submitted, n_tasks);
        prop_assert_eq!(stats.completed + stats.failed, n_tasks);
    }
}

/// The tasks each `ToExecutor` in `out` hands over, by executor.
/// No queued and no running task.
fn drained(d: &Dispatcher) -> bool {
    let status = d.status();
    status.queued_tasks == 0 && status.running_tasks == 0
}

fn handed(out: &[DispatcherAction]) -> Vec<(ExecutorId, Vec<TaskId>)> {
    let ids = |tasks: &[TaskSpec]| tasks.iter().map(|t| t.id).collect();
    out.iter()
        .filter_map(|act| match act {
            DispatcherAction::ToExecutor {
                executor,
                msg: Message::Work { tasks } | Message::ResultAck { piggybacked: tasks },
            } => Some((*executor, ids(tasks))),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_executor_holds_one_bundle_beyond_its_running_task(
        work_bundle in 1usize..4,
        n_exec in 1u64..4,
        script in prop::collection::vec((any::<u16>(), any::<bool>()), 0..300),
    ) {
        let mut d = Dispatcher::new(DispatcherConfig { work_bundle, ..DispatcherConfig::default() });
        let mut out = Vec::new();
        d.on_event(0, DispatcherEvent::CreateInstance, &mut out);
        for e in 0..n_exec {
            d.on_event(0, DispatcherEvent::Register { executor: ExecutorId(e) }, &mut out);
        }
        let tasks = (0..200).map(|i| TaskSpec::sleep(i, 0)).collect();
        d.on_event(0, DispatcherEvent::Submit { instance: InstanceId(1), tasks }, &mut out);
        let mut held: HashMap<ExecutorId, VecDeque<TaskId>> = HashMap::new();
        for (now, (pick, report)) in (1..).zip(script) {
            let executor = ExecutorId(u64::from(pick) % n_exec);
            let running = held.entry(executor).or_default();
            let ev = match running.front() {
                Some(&id) if report => {
                    running.pop_front();
                    DispatcherEvent::Result { executor, results: vec![TaskResult::success(id)] }
                }
                _ => DispatcherEvent::GetWork { executor, key: NotifyKey(0) },
            };
            out.clear();
            d.on_event(now, ev, &mut out);
            for (e, ids) in handed(&out) {
                let tasks = held.entry(e).or_default();
                tasks.extend(ids);
                prop_assert!(tasks.len() <= work_bundle + 1, "{:?} holds {}", e, tasks.len());
            }
        }
    }
}
