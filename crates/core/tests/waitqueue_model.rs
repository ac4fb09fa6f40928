//! Model test for the dispatcher's wait queue.
//!
//! The dispatcher keeps queued tasks bundle by bundle and, inside a bundle,
//! as runs of one shape beside a column of ids (`waitqueue.rs`). The
//! reference here is the structure that replaced: one flat
//! `VecDeque<(instance, spec, attempts, enqueued_us)>`, a whole `TaskSpec`
//! per task. Random interleavings of Submit (empty bundles included),
//! GetWork and piggy-backed hand-outs with and without data-aware dispatch,
//! failed results that are retried, timeout replays (each re-entering as a
//! bundle of one) and `DestroyInstance` are fed to a real [`Dispatcher`]
//! and to the model. Bundles are uniform, two shapes in alternating runs,
//! all-distinct (`with_data`: object = id) or short runs over three shared
//! objects, so a data-aware scan takes the first, the middle and the last
//! task of a run and crosses run and bundle boundaries. After every step
//! the tasks handed out (whole specs, in order, per message), the
//! completion records' instance, enqueue time and attempt count, the
//! abandoned tasks, `status().queued_tasks` and `status().running_tasks`
//! must agree.

use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent};
use falkon_core::policy::ReplayPolicy;
use falkon_core::DispatcherConfig;
use falkon_proto::message::{ExecutorId, InstanceId, Message, NotifyKey};
use falkon_proto::task::{DataAccess, DataLocation, TaskId, TaskResult, TaskSpec};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// What one dispatcher event visibly did to the queue.
#[derive(Debug, Default, PartialEq)]
struct Effects {
    /// Tasks per `Work` / `ResultAck` message, in message order.
    handed: Vec<(ExecutorId, Vec<TaskSpec>)>,
    /// `(task, instance, enqueued_us, attempts)` per completion record.
    done: Vec<(TaskId, InstanceId, u64, u32)>,
    /// `(task, attempts)` per abandoned task.
    failed: Vec<(TaskId, u32)>,
}

fn feed(d: &mut Dispatcher, now: u64, ev: DispatcherEvent) -> Effects {
    let mut out = Vec::new();
    d.on_event(now, ev, &mut out);
    let mut fx = Effects::default();
    for act in out {
        match act {
            DispatcherAction::ToExecutor {
                executor,
                msg: Message::Work { tasks } | Message::ResultAck { piggybacked: tasks },
            } => fx.handed.push((executor, tasks)),
            DispatcherAction::TaskDone { instance, record } => {
                fx.done.push((
                    record.result.id,
                    instance,
                    record.enqueued_us,
                    record.result.attempts,
                ));
            }
            DispatcherAction::TaskFailed { task, attempts, .. } => fx.failed.push((task, attempts)),
            _ => {}
        }
    }
    fx
}

struct Run {
    instance: InstanceId,
    spec: TaskSpec,
    executor: ExecutorId,
    attempts: u32,
    enqueued_us: u64,
    deadline_us: u64,
}

/// The flat reference: what the dispatcher did with one entry per task.
struct Model {
    cfg: DispatcherConfig,
    instances: HashSet<InstanceId>,
    queue: VecDeque<(InstanceId, TaskSpec, u32, u64)>,
    /// Ordered, so "the k-th running task" is the same task every run.
    running: BTreeMap<TaskId, Run>,
    /// `(object, executor)`: the executor has staged the object.
    staged: HashSet<(u64, ExecutorId)>,
}

impl Model {
    fn take_work(&mut self, now: u64, executor: ExecutorId) -> Vec<TaskSpec> {
        // No executor holds more than a bundle beyond its running task.
        let bundle = self.cfg.work_bundle.max(1);
        let held = self
            .running
            .values()
            .filter(|r| r.executor == executor)
            .count();
        let n = bundle
            .min(self.queue.len())
            .min((bundle + 1).saturating_sub(held));
        let mut handed = Vec::new();
        for _ in 0..n {
            let window = self.cfg.data_aware_window.min(self.queue.len());
            let hit = (0..window)
                .filter(|_| self.cfg.data_aware)
                .find(|&i| {
                    self.queue[i]
                        .1
                        .data()
                        .is_some_and(|d| self.staged.contains(&(d.object, executor)))
                })
                .unwrap_or(0);
            let (instance, spec, attempts, enqueued_us) =
                self.queue.remove(hit).expect("n is bounded by the length");
            handed.push(spec.clone());
            self.running.insert(
                spec.id,
                Run {
                    instance,
                    deadline_us: now + self.cfg.replay.deadline_for(&spec),
                    spec,
                    executor,
                    attempts: attempts + 1,
                    enqueued_us,
                },
            );
        }
        handed
    }

    fn submit(&mut self, now: u64, instance: InstanceId, tasks: &[TaskSpec]) {
        if self.instances.contains(&instance) {
            for spec in tasks {
                self.queue.push_back((instance, spec.clone(), 0, now));
            }
        }
    }

    fn get_work(&mut self, now: u64, executor: ExecutorId) -> Effects {
        Effects {
            handed: vec![(executor, self.take_work(now, executor))],
            ..Effects::default()
        }
    }

    fn result(&mut self, now: u64, executor: ExecutorId, result: &TaskResult) -> Effects {
        let mut fx = Effects::default();
        if self
            .running
            .get(&result.id)
            .is_some_and(|r| r.executor == executor)
        {
            let r = self.running.remove(&result.id).expect("checked");
            if let (true, Some(data)) = (self.cfg.data_aware, r.spec.data()) {
                self.staged.insert((data.object, executor));
            }
            let replay = &self.cfg.replay;
            if !result.is_success() && replay.retry_on_failure && r.attempts <= replay.max_retries {
                self.queue
                    .push_back((r.instance, r.spec, r.attempts, r.enqueued_us));
            } else {
                fx.done
                    .push((result.id, r.instance, r.enqueued_us, r.attempts));
            }
        }
        let piggybacked = if self.cfg.piggyback {
            self.take_work(now, executor)
        } else {
            Vec::new()
        };
        fx.handed.push((executor, piggybacked));
        fx
    }

    fn check_deadlines(&mut self, now: u64) -> Effects {
        let mut fx = Effects::default();
        let mut due: Vec<(u64, TaskId)> = self
            .running
            .values()
            .filter(|r| r.deadline_us <= now)
            .map(|r| (r.deadline_us, r.spec.id))
            .collect();
        due.sort_unstable();
        for (_, id) in due {
            let r = self.running.remove(&id).expect("collected above");
            if r.attempts > self.cfg.replay.max_retries {
                fx.failed.push((id, r.attempts));
            } else {
                self.queue
                    .push_back((r.instance, r.spec, r.attempts, r.enqueued_us));
            }
        }
        fx
    }

    fn destroy(&mut self, instance: InstanceId) {
        self.instances.remove(&instance);
        self.queue.retain(|q| q.0 != instance);
        self.running.retain(|_, r| r.instance != instance);
    }
}

const EXECUTORS: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bundle_queue_matches_the_flat_queue(
        data_aware in any::<bool>(),
        piggyback in any::<bool>(),
        work_bundle in 1usize..4,
        window in 1usize..12,
        script in prop::collection::vec((0u8..10, any::<u16>(), any::<u16>()), 1..300),
    ) {
        let cfg = DispatcherConfig {
            piggyback,
            work_bundle,
            data_aware,
            data_aware_window: window,
            replay: ReplayPolicy {
                max_retries: 2,
                timeout_slack_us: 50,
                runtime_factor: 1.0,
                retry_on_failure: true,
                io_slack_us_per_mib: 10,
            },
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(cfg);
        let mut now = 0u64;
        let mut instances = Vec::new();
        for _ in 0..2 {
            let mut out = Vec::new();
            d.on_event(now, DispatcherEvent::CreateInstance, &mut out);
            match &out[0] {
                DispatcherAction::ToClient { instance, .. } => instances.push(*instance),
                other => panic!("unexpected {other:?}"),
            }
        }
        for e in 0..EXECUTORS {
            let register = DispatcherEvent::Register {
                executor: ExecutorId(e),
            };
            feed(&mut d, now, register);
        }
        let mut m = Model {
            cfg,
            instances: instances.iter().copied().collect(),
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            staged: HashSet::new(),
        };
        let mut next_id = 0u64;

        for (step, (kind, a, b)) in script.into_iter().enumerate() {
            now += 1 + (b % 40) as u64;
            let (got, want) = match kind {
                0 | 1 => {
                    let instance = instances[(a % 2) as usize];
                    let reads = |spec: TaskSpec, object: u16| {
                        let (fs, read) = (DataLocation::SharedFs, DataAccess::Read);
                        spec.with_object(object as u64 % 3, 1 << 20, fs, read)
                    };
                    let run = 1 + a / 64 % 3;
                    let tasks: Vec<TaskSpec> = (0..b % 10)
                        .map(|j| {
                            let spec = TaskSpec::sleep(next_id, 0);
                            next_id += 1;
                            match a / 2 % 4 {
                                // Uniform: one run.
                                0 if a / 8 % 2 == 0 => spec,
                                0 => reads(spec, a),
                                // Two shapes, in alternating runs of `run`.
                                1 if j / run % 2 == 0 => spec,
                                1 => reads(spec, a),
                                // All distinct: every task a run of one.
                                2 => spec.with_data(1 << 20, DataLocation::SharedFs, DataAccess::Read),
                                // Runs of `run` over three shared objects.
                                _ => reads(spec, a + j / run),
                            }
                        })
                        .collect();
                    m.submit(now, instance, &tasks);
                    let got = feed(&mut d, now, DispatcherEvent::Submit { instance, tasks });
                    (got, Effects::default())
                }
                2..=4 => {
                    let executor = ExecutorId(a as u64 % EXECUTORS);
                    let key = NotifyKey(0);
                    (
                        feed(&mut d, now, DispatcherEvent::GetWork { executor, key }),
                        m.get_work(now, executor),
                    )
                }
                5..=7 => {
                    let Some(r) = m.running.values().nth(a as usize % m.running.len().max(1))
                    else {
                        continue;
                    };
                    // Mostly the owner reports; now and then a stranger
                    // does, which the dispatcher must treat as a duplicate.
                    let executor = match b % 11 {
                        0 => ExecutorId((r.executor.0 + 1) % EXECUTORS),
                        _ => r.executor,
                    };
                    let result = match b % 4 {
                        0 => TaskResult::failure(r.spec.id, 1),
                        _ => TaskResult::success(r.spec.id),
                    };
                    let want = m.result(now, executor, &result);
                    let results = vec![result];
                    (
                        feed(&mut d, now, DispatcherEvent::Result { executor, results }),
                        want,
                    )
                }
                8 => {
                    now += (a % 200) as u64;
                    (
                        feed(&mut d, now, DispatcherEvent::CheckDeadlines),
                        m.check_deadlines(now),
                    )
                }
                _ if a % 8 == 0 => {
                    let instance = instances[(b % 2) as usize];
                    m.destroy(instance);
                    (
                        feed(&mut d, now, DispatcherEvent::DestroyInstance { instance }),
                        Effects::default(),
                    )
                }
                _ => continue,
            };
            prop_assert_eq!(&got, &want, "step {} (op {})", step, kind);
            let status = d.status();
            prop_assert_eq!(status.queued_tasks, m.queue.len() as u64, "step {}", step);
            prop_assert_eq!(status.running_tasks, m.running.len() as u64, "step {}", step);
        }
    }
}
