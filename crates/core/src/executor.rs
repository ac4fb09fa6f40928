//! The Falkon executor (paper Section 3.2–3.3).
//!
//! An executor registers with the dispatcher, then loops: receive a
//! notification (push) → request work (pull) → run the task(s) → deliver
//! results → receive the acknowledgement, which may piggy-back the next
//! task(s). Under the distributed resource-release policy it deregisters
//! itself after a configurable idle time.
//!
//! Like the dispatcher this is a sans-io state machine; the driver performs
//! the actual process execution when it sees [`ExecutorAction::Run`] and
//! reports back with [`ExecutorEvent::TaskCompleted`].

use crate::ids::{ExecutorId, NotifyKey};
use crate::Micros;
use falkon_obs::{Counters, NoopProbe, ObsEvent, ObsEventKind, Probe};
use falkon_proto::message::Message;
use falkon_proto::task::{TaskResult, TaskSpec};
use std::collections::VecDeque;

/// Executor configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecutorConfig {
    /// Self-release after this much idle time (distributed release policy);
    /// `None` means never self-release.
    pub idle_release_us: Option<Micros>,
    /// Pre-fetch: request new work before finishing the current task
    /// (listed as future work in the paper, implemented here as an
    /// extension; off by default to match the paper's experiments).
    pub prefetch: bool,
}

/// Inputs to the executor state machine.
#[derive(Clone, Debug)]
pub enum ExecutorEvent {
    /// The executor process started; begin registration.
    Start,
    /// The dispatcher accepted our registration.
    RegisterAcked,
    /// A work-available notification `{3}` arrived.
    Notified {
        /// The key to present when pulling work.
        key: NotifyKey,
    },
    /// The dispatcher answered our `GetWork` with task(s) `{5}`.
    WorkReceived {
        /// Assigned tasks (possibly empty if we lost the race).
        tasks: Vec<TaskSpec>,
    },
    /// The driver finished executing a task.
    TaskCompleted {
        /// The task's result.
        result: TaskResult,
    },
    /// The dispatcher acknowledged our results `{7}`, possibly piggy-backing
    /// new work.
    ResultAcked {
        /// New tasks delivered in the acknowledgement.
        piggybacked: Vec<TaskSpec>,
    },
    /// Timer: the idle-release deadline passed.
    IdleTimeout,
}

/// Outputs of the executor state machine.
#[derive(Clone, Debug)]
pub enum ExecutorAction {
    /// Send a protocol message to the dispatcher.
    Send(Message),
    /// Execute a task; report back with [`ExecutorEvent::TaskCompleted`].
    Run(TaskSpec),
    /// Terminate this executor process (after deregistering).
    Shutdown,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Created, not yet started.
    New,
    /// Register sent, awaiting ack.
    Registering,
    /// Registered and waiting for a notification.
    Idle,
    /// GetWork sent, awaiting tasks.
    Pulling,
    /// Running task(s).
    Running,
    /// Results sent, awaiting ack.
    Reporting,
    /// Deregistered.
    Done,
}

/// Aggregate executor counters (monotonic): one per event kind the machine
/// emits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks executed to completion.
    pub tasks_run: u64,
    /// Tasks started (equals `tasks_run` unless one is in flight).
    tasks_started: u64,
    /// Results delivered to the dispatcher.
    results_reported: u64,
}

/// The Falkon executor state machine. See module docs.
///
/// Generic over a [`Probe`] like [`crate::dispatcher::Dispatcher`]; the machine counts
/// the three event kinds it emits itself, so [`Executor::stats`] and
/// [`Executor::counters`] work with the default [`NoopProbe`].
pub struct Executor<P: Probe = NoopProbe> {
    id: ExecutorId,
    /// Sent once, in `Register`, and given up there.
    host: Box<str>,
    /// [`ExecutorConfig::idle_release_us`], [`NEVER`] for `None`.
    idle_release_us: Micros,
    /// When the executor last became idle (for the release policy),
    /// [`NEVER`] while it is not idle.
    idle_since_us: Micros,
    /// Tasks received but not yet started (work_bundle > 1 or pre-fetch),
    /// allocated when the first one has to wait: one task at a time never
    /// needs it.
    #[expect(
        clippy::box_collection,
        reason = "8 bytes where an empty `VecDeque` is 32, in each of 100,000 simulated machines"
    )]
    backlog: Option<Box<VecDeque<TaskSpec>>>,
    /// Results finished but not yet delivered.
    finished: Vec<TaskResult>,
    stats: ExecutorStats,
    /// `ResultsReported` events emitted (`stats.results_reported` is the
    /// sum of what they carried).
    reports: u64,
    phase: Phase,
    /// [`ExecutorConfig::prefetch`].
    prefetch: bool,
    /// A pre-fetch `GetWork` is in flight.
    prefetch_inflight: bool,
    probe: P,
}

// A simulated pool holds one machine per executor, 100,000 in Figure 9's arm.
const _: () = assert!(std::mem::size_of::<Executor>() <= 120);

/// The idle times that never come: no idle start while busy, no limit
/// without self-release (or with one as long as time).
const NEVER: Micros = Micros::MAX;

impl Executor {
    /// Create an executor with the given identity and configuration.
    pub fn new(id: ExecutorId, host: impl Into<String>, config: ExecutorConfig) -> Self {
        Executor::with_probe(id, host, config, NoopProbe)
    }
}

impl<P: Probe> Executor<P> {
    /// Create an executor that reports lifecycle events to `probe`.
    pub fn with_probe(
        id: ExecutorId,
        host: impl Into<String>,
        config: ExecutorConfig,
        probe: P,
    ) -> Self {
        Executor {
            id,
            host: host.into().into_boxed_str(),
            idle_release_us: config.idle_release_us.unwrap_or(NEVER),
            idle_since_us: NEVER,
            backlog: None,
            finished: Vec::new(),
            stats: ExecutorStats::default(),
            reports: 0,
            phase: Phase::New,
            prefetch: config.prefetch,
            prefetch_inflight: false,
            probe,
        }
    }

    #[inline]
    fn emit(&mut self, now: Micros, event: ObsEvent) {
        match event {
            ObsEvent::TaskStarted => self.stats.tasks_started += 1,
            ObsEvent::TaskFinished => self.stats.tasks_run += 1,
            ObsEvent::ResultsReported { count } => {
                self.reports += 1;
                self.stats.results_reported += count;
            }
            _ => unreachable!("not an executor event: {event:?}"),
        }
        self.probe.on_event(now, &event);
    }

    /// This executor's id.
    pub fn id(&self) -> ExecutorId {
        self.id
    }

    /// Monotonic counters (always on, probe or not).
    pub fn stats(&self) -> ExecutorStats {
        self.stats
    }

    /// The same counts as per-kind event [`Counters`]: what a `Counters`
    /// probe mounted on this machine would hold.
    pub fn counters(&self) -> Counters {
        use ObsEventKind as Kind;
        let s = &self.stats;
        let mut c = Counters::new();
        c.add(Kind::TaskStarted, s.tasks_started, s.tasks_started);
        c.add(Kind::TaskFinished, s.tasks_run, s.tasks_run);
        c.add(Kind::ResultsReported, self.reports, s.results_reported);
        c
    }

    /// The mounted probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the machine, yielding the mounted probe (drivers collect a
    /// finished run's recorder this way).
    pub fn into_probe(self) -> P {
        self.probe
    }

    fn backlog_is_empty(&self) -> bool {
        self.backlog.as_ref().is_none_or(|b| b.is_empty())
    }

    /// Queue `tasks` behind the backlog.
    fn defer(&mut self, tasks: std::vec::IntoIter<TaskSpec>) {
        if tasks.len() > 0 {
            self.backlog.get_or_insert_default().extend(tasks);
        }
    }

    /// The absolute time at which the idle-release timer fires, if armed.
    pub fn idle_deadline_us(&self) -> Option<Micros> {
        let (limit, since) = (self.idle_release_us, self.idle_since_us);
        (limit != NEVER && since != NEVER).then(|| since.saturating_add(limit))
    }

    /// Feed one event; actions are appended to `out`.
    pub fn on_event(&mut self, now: Micros, ev: ExecutorEvent, out: &mut Vec<ExecutorAction>) {
        match ev {
            ExecutorEvent::Start => {
                assert_eq!(self.phase, Phase::New, "Start must be the first event");
                self.phase = Phase::Registering;
                out.push(ExecutorAction::Send(Message::Register {
                    executor: self.id,
                    host: std::mem::take(&mut self.host).into_string(),
                }));
            }
            ExecutorEvent::RegisterAcked => {
                if self.phase == Phase::Registering {
                    self.phase = Phase::Idle;
                    self.idle_since_us = now;
                }
            }
            ExecutorEvent::Notified { key } => {
                // Only answer if we are actually free; a busy executor
                // ignores stray notifications (it will pick work up via
                // piggy-backing).
                if self.phase == Phase::Idle {
                    self.phase = Phase::Pulling;
                    self.idle_since_us = NEVER;
                    out.push(ExecutorAction::Send(Message::GetWork {
                        executor: self.id,
                        key,
                    }));
                }
            }
            ExecutorEvent::WorkReceived { tasks } => {
                match self.phase {
                    Phase::Pulling => {
                        if tasks.is_empty() {
                            // Lost the race for the queue: back to idle.
                            self.phase = Phase::Idle;
                            self.idle_since_us = now;
                        } else {
                            self.start_next(now, tasks, out);
                        }
                    }
                    // A `Work` that reaches a running executor answers its
                    // pre-fetch: queue the work locally so it starts the
                    // moment the current task finishes (Section 6
                    // "Pre-fetching").
                    Phase::Running => {
                        self.prefetch_inflight = false;
                        self.defer(tasks.into_iter());
                    }
                    // Pre-fetch answer that lost the race with the current
                    // task's completion: the machine already moved on to
                    // Reporting (awaiting the result ack) or Idle. The work
                    // must not be dropped — queue it, and start immediately
                    // when idle.
                    Phase::Reporting | Phase::Idle => {
                        self.prefetch_inflight = false;
                        if self.phase == Phase::Idle && !tasks.is_empty() {
                            self.idle_since_us = NEVER;
                            self.start_next(now, tasks, out);
                        } else {
                            self.defer(tasks.into_iter());
                        }
                    }
                    _ => {}
                }
            }
            ExecutorEvent::TaskCompleted { result } => {
                self.finished.push(result);
                self.emit(now, ObsEvent::TaskFinished);
                if self.prefetch {
                    // Pre-fetch mode reports each result immediately and
                    // keeps computing from the local backlog — communication
                    // overlaps execution.
                    self.report(now, out);
                    if !self.backlog_is_empty() {
                        self.start_next(now, Vec::new(), out);
                    } else {
                        self.phase = Phase::Reporting;
                    }
                } else if !self.backlog_is_empty() {
                    // More local work before reporting (work_bundle > 1).
                    self.start_next(now, Vec::new(), out);
                } else {
                    self.phase = Phase::Reporting;
                    self.report(now, out);
                }
            }
            ExecutorEvent::ResultAcked { piggybacked } => {
                match self.phase {
                    Phase::Reporting => {
                        if piggybacked.is_empty() && self.backlog_is_empty() {
                            self.phase = Phase::Idle;
                            self.idle_since_us = now;
                        } else {
                            self.start_next(now, piggybacked, out);
                        }
                    }
                    // Only a pre-fetching executor reports while a task
                    // runs: the ack (possibly piggy-backing work) arrives
                    // while the next task is already running.
                    Phase::Running => {
                        self.defer(piggybacked.into_iter());
                    }
                    _ => {}
                }
            }
            ExecutorEvent::IdleTimeout => {
                // Distributed release policy: only fire if genuinely idle
                // past the deadline (the timer may race with new work).
                let expired = self
                    .idle_deadline_us()
                    .is_some_and(|deadline| now >= deadline);
                if self.phase == Phase::Idle && expired {
                    self.phase = Phase::Done;
                    out.push(ExecutorAction::Send(Message::Deregister {
                        executor: self.id,
                    }));
                    out.push(ExecutorAction::Shutdown);
                }
            }
        }
    }

    /// Deliver every finished result in one `Result` message.
    fn report(&mut self, now: Micros, out: &mut Vec<ExecutorAction>) {
        let results = std::mem::take(&mut self.finished);
        let count = results.len() as u64;
        self.emit(now, ObsEvent::ResultsReported { count });
        let executor = self.id;
        out.push(ExecutorAction::Send(Message::Result { executor, results }));
    }

    /// Take `delivered` work (FIFO behind the backlog) and start the next
    /// task. No task is running here: one runs exactly while the phase is
    /// `Running`, which only this enters (the 1:1 executor-to-CPU
    /// mapping). A free executor starts the head of the delivery straight
    /// from the message, so the usual one-task `Work` never allocates a
    /// backlog.
    fn start_next(&mut self, now: Micros, delivered: Vec<TaskSpec>, out: &mut Vec<ExecutorAction>) {
        self.phase = Phase::Running;
        let mut delivered = delivered.into_iter();
        let queued = self.backlog.as_mut().and_then(|b| b.pop_front());
        let next = queued.or_else(|| delivered.next());
        self.defer(delivered);
        if let Some(task) = next {
            self.emit(now, ObsEvent::TaskStarted);
            out.push(ExecutorAction::Run(task));
        }
        // Section 6 "Pre-fetching": request the next task before this one
        // completes, overlapping communication and execution.
        if self.prefetch && self.backlog_is_empty() && !self.prefetch_inflight {
            self.prefetch_inflight = true;
            out.push(ExecutorAction::Send(Message::GetWork {
                executor: self.id,
                key: NotifyKey(0),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_proto::task::TaskId;

    fn step(e: &mut Executor, now: Micros, ev: ExecutorEvent) -> Vec<ExecutorAction> {
        let mut out = Vec::new();
        e.on_event(now, ev, &mut out);
        out
    }

    fn registered_executor(config: ExecutorConfig) -> Executor {
        let mut e = Executor::new(ExecutorId(1), "n1", config);
        let acts = step(&mut e, 0, ExecutorEvent::Start);
        assert!(matches!(
            acts[0],
            ExecutorAction::Send(Message::Register { .. })
        ));
        step(&mut e, 1, ExecutorEvent::RegisterAcked);
        e
    }

    /// Whether `e` is idle as the dispatcher sees it: a notification gets
    /// a `GetWork` (which takes it out of idle).
    pub(super) fn answers_notify(e: &mut Executor) -> bool {
        let acts = step(e, 1_000, ExecutorEvent::Notified { key: NotifyKey(9) });
        matches!(&acts[..], [ExecutorAction::Send(Message::GetWork { .. })])
    }

    #[test]
    fn registration_flow() {
        let mut e = registered_executor(ExecutorConfig::default());
        assert!(answers_notify(&mut e));
    }

    #[test]
    fn notify_pull_run_report_cycle() {
        let mut e = registered_executor(ExecutorConfig::default());
        let acts = step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(5) });
        assert!(matches!(
            &acts[0],
            ExecutorAction::Send(Message::GetWork {
                key: NotifyKey(5),
                ..
            })
        ));
        let acts = step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        assert!(matches!(&acts[0], ExecutorAction::Run(t) if t.id == TaskId(1)));
        let acts = step(
            &mut e,
            30,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(1)),
            },
        );
        match &acts[0] {
            ExecutorAction::Send(Message::Result { results, .. }) => {
                assert_eq!(results.len(), 1)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Ack without piggyback: idle again.
        step(
            &mut e,
            40,
            ExecutorEvent::ResultAcked {
                piggybacked: vec![],
            },
        );
        assert!(answers_notify(&mut e));
        assert_eq!(e.stats().tasks_run, 1);
    }

    #[test]
    fn piggybacked_work_runs_immediately() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        step(
            &mut e,
            30,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(1)),
            },
        );
        let acts = step(
            &mut e,
            40,
            ExecutorEvent::ResultAcked {
                piggybacked: vec![TaskSpec::sleep(2, 0)],
            },
        );
        assert!(matches!(&acts[0], ExecutorAction::Run(t) if t.id == TaskId(2)));
        assert!(!answers_notify(&mut e));
    }

    #[test]
    fn empty_work_response_returns_to_idle() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(&mut e, 20, ExecutorEvent::WorkReceived { tasks: vec![] });
        assert!(answers_notify(&mut e));
    }

    #[test]
    fn busy_executor_ignores_notifications() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        let acts = step(&mut e, 25, ExecutorEvent::Notified { key: NotifyKey(2) });
        assert!(acts.is_empty(), "busy executor must not answer notify");
    }

    #[test]
    fn work_bundle_runs_sequentially_then_reports_batch() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let acts = step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 0)],
            },
        );
        assert_eq!(acts.len(), 1, "one task at a time");
        let acts = step(
            &mut e,
            30,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(1)),
            },
        );
        assert!(matches!(&acts[0], ExecutorAction::Run(t) if t.id == TaskId(2)));
        let acts = step(
            &mut e,
            40,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(2)),
            },
        );
        match &acts[0] {
            ExecutorAction::Send(Message::Result { results, .. }) => {
                assert_eq!(results.len(), 2, "batched result delivery")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Ids of the tasks `acts` starts.
    fn started(acts: &[ExecutorAction]) -> Vec<u64> {
        acts.iter()
            .filter_map(|a| match a {
                ExecutorAction::Run(t) => Some(t.id.0),
                _ => None,
            })
            .collect()
    }

    fn complete(e: &mut Executor, now: Micros, id: u64) -> Vec<ExecutorAction> {
        let result = TaskResult::success(TaskId(id));
        step(e, now, ExecutorEvent::TaskCompleted { result })
    }

    #[test]
    fn lone_task_starts_straight_from_the_message() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        let acts = step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        assert_eq!(started(&acts), [1]);
        complete(&mut e, 30, 1);
        let piggybacked = vec![TaskSpec::sleep(2, 0)];
        let acts = step(&mut e, 40, ExecutorEvent::ResultAcked { piggybacked });
        assert_eq!(started(&acts), [2]);
        assert!(e.backlog.is_none(), "one task at a time never queues");
    }

    #[test]
    fn bundles_and_prefetched_work_run_in_arrival_order() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = (1..=3).map(|i| TaskSpec::sleep(i, 0)).collect();
        let mut order = started(&step(&mut e, 20, ExecutorEvent::WorkReceived { tasks }));
        for id in 1..=3 {
            order.extend(started(&complete(&mut e, 20 + id, id)));
        }
        assert_eq!(order, [1, 2, 3]);

        let mut e = registered_executor(ExecutorConfig {
            idle_release_us: None,
            prefetch: true,
        });
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        let mut order = started(&step(&mut e, 20, ExecutorEvent::WorkReceived { tasks }));
        // The pre-fetch answer and a piggy-backed task both arrive behind
        // a running task.
        let tasks = vec![TaskSpec::sleep(2, 0), TaskSpec::sleep(3, 0)];
        order.extend(started(&step(
            &mut e,
            21,
            ExecutorEvent::WorkReceived { tasks },
        )));
        order.extend(started(&complete(&mut e, 22, 1)));
        let piggybacked = vec![TaskSpec::sleep(4, 0)];
        order.extend(started(&step(
            &mut e,
            23,
            ExecutorEvent::ResultAcked { piggybacked },
        )));
        for id in 2..=4 {
            order.extend(started(&complete(&mut e, 22 + id, id)));
        }
        assert_eq!(order, [1, 2, 3, 4]);
    }

    #[test]
    fn idle_release_deregisters() {
        let cfg = ExecutorConfig {
            idle_release_us: Some(15_000_000),
            prefetch: false,
        };
        let mut e = registered_executor(cfg);
        assert_eq!(e.idle_deadline_us(), Some(1 + 15_000_000));
        let acts = step(&mut e, 16_000_000, ExecutorEvent::IdleTimeout);
        assert!(matches!(
            &acts[0],
            ExecutorAction::Send(Message::Deregister { .. })
        ));
        assert!(matches!(&acts[1], ExecutorAction::Shutdown));
    }

    #[test]
    fn idle_timeout_races_with_new_work() {
        let cfg = ExecutorConfig {
            idle_release_us: Some(15_000_000),
            prefetch: false,
        };
        let mut e = registered_executor(cfg);
        // Work arrives before the timer fires…
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        // …so a stale timeout must be ignored.
        let acts = step(&mut e, 16_000_000, ExecutorEvent::IdleTimeout);
        assert!(acts.is_empty());
    }

    #[test]
    fn premature_timeout_ignored() {
        let cfg = ExecutorConfig {
            idle_release_us: Some(15_000_000),
            prefetch: false,
        };
        let mut e = registered_executor(cfg);
        let acts = step(&mut e, 5_000_000, ExecutorEvent::IdleTimeout);
        assert!(acts.is_empty());
    }

    #[test]
    fn no_idle_release_when_unconfigured() {
        let e = registered_executor(ExecutorConfig::default());
        assert_eq!(e.idle_deadline_us(), None);
    }

    /// The timer that fires at the deadline itself releases.
    #[test]
    fn an_idle_timeout_at_its_deadline_releases() {
        let cfg = ExecutorConfig {
            idle_release_us: Some(100),
            prefetch: false,
        };
        let mut e = registered_executor(cfg);
        assert_eq!(e.idle_deadline_us(), Some(101));
        let acts = step(&mut e, 101, ExecutorEvent::IdleTimeout);
        assert!(matches!(
            &acts[..],
            [
                ExecutorAction::Send(Message::Deregister { .. }),
                ExecutorAction::Shutdown
            ]
        ));
    }

    /// A `RegisterAck` that arrives while a task runs changes nothing: no
    /// idle timer starts and a notification is still ignored.
    #[test]
    fn a_stray_register_ack_leaves_a_running_executor_running() {
        let cfg = ExecutorConfig {
            idle_release_us: Some(100),
            prefetch: false,
        };
        let mut e = registered_executor(cfg);
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        step(&mut e, 30, ExecutorEvent::RegisterAcked);
        assert_eq!(e.idle_deadline_us(), None);
        assert!(!answers_notify(&mut e));
    }

    fn idle_releasing(limit: Micros) -> Executor {
        registered_executor(ExecutorConfig {
            idle_release_us: Some(limit),
            prefetch: false,
        })
    }

    /// An executor without pre-fetch asks for work once per notification,
    /// runs a bundle one task at a time, reports it in one `Result`, and
    /// counts each of those steps once.
    #[test]
    fn a_plain_executor_asks_once_per_notification_and_counts_each_step() {
        let mut e = idle_releasing(100);
        let acts = step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        assert!(matches!(
            &acts[..],
            [ExecutorAction::Send(Message::GetWork { .. })]
        ));
        assert_eq!(e.idle_deadline_us(), None, "not idle while pulling");
        // A second notification while it pulls asks nothing more.
        assert!(step(&mut e, 15, ExecutorEvent::Notified { key: NotifyKey(2) }).is_empty());
        let tasks = vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 0)];
        let acts = step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        assert!(matches!(&acts[..], [ExecutorAction::Run(t)] if t.id == TaskId(1)));
        let result = TaskResult::success(TaskId(1));
        let acts = step(&mut e, 30, ExecutorEvent::TaskCompleted { result });
        assert!(matches!(&acts[..], [ExecutorAction::Run(t)] if t.id == TaskId(2)));
        let result = TaskResult::success(TaskId(2));
        let acts = step(&mut e, 40, ExecutorEvent::TaskCompleted { result });
        assert!(matches!(
            &acts[..],
            [ExecutorAction::Send(Message::Result { .. })]
        ));
        use ObsEventKind as Kind;
        let c = e.counters();
        let counted = [Kind::TaskStarted, Kind::TaskFinished].map(|k| (c.count(k), c.value(k)));
        assert_eq!(counted, [(2, 2), (2, 2)]);
        assert_eq!(c.count(Kind::ResultsReported), 1);
        assert_eq!(c.value(Kind::ResultsReported), 2);
    }

    /// The idle timer restarts when a pull finds nothing and when the
    /// last result is acknowledged.
    #[test]
    fn the_idle_timer_starts_whenever_the_executor_becomes_idle() {
        let mut e = idle_releasing(100);
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(&mut e, 50, ExecutorEvent::WorkReceived { tasks: vec![] });
        assert_eq!(e.idle_deadline_us(), Some(150));
        step(&mut e, 60, ExecutorEvent::Notified { key: NotifyKey(2) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        step(&mut e, 70, ExecutorEvent::WorkReceived { tasks });
        let result = TaskResult::success(TaskId(1));
        step(&mut e, 80, ExecutorEvent::TaskCompleted { result });
        let piggybacked = vec![];
        step(&mut e, 90, ExecutorEvent::ResultAcked { piggybacked });
        assert_eq!(e.idle_deadline_us(), Some(190));
    }

    /// A released executor answers nothing and releases only once.
    #[test]
    fn a_released_executor_stays_released() {
        let mut e = idle_releasing(100);
        assert_eq!(step(&mut e, 101, ExecutorEvent::IdleTimeout).len(), 2);
        assert!(step(&mut e, 300, ExecutorEvent::IdleTimeout).is_empty());
        assert!(!answers_notify(&mut e));
    }

    /// An idle limit as long as time puts the deadline at the end of time.
    #[test]
    fn an_endless_idle_limit_never_comes_due() {
        let mut e = Executor::new(
            ExecutorId(1),
            "n1",
            ExecutorConfig {
                idle_release_us: Some(Micros::MAX - 1),
                prefetch: false,
            },
        );
        step(&mut e, 0, ExecutorEvent::Start);
        step(&mut e, 10, ExecutorEvent::RegisterAcked);
        assert_eq!(e.idle_deadline_us(), Some(Micros::MAX));
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::tests::answers_notify;
    use super::*;
    use falkon_proto::task::TaskId;
    use std::cell::Cell;

    thread_local! {
        /// The `GetWork`s this test's executor has sent.
        static GET_WORK_SENT: Cell<u64> = const { Cell::new(0) };
    }

    fn step(e: &mut Executor, now: Micros, ev: ExecutorEvent) -> Vec<ExecutorAction> {
        let mut out = Vec::new();
        e.on_event(now, ev, &mut out);
        let asks = out
            .iter()
            .filter(|a| matches!(a, ExecutorAction::Send(Message::GetWork { .. })))
            .count();
        GET_WORK_SENT.with(|n| n.set(n.get() + asks as u64));
        out
    }

    fn prefetching_executor() -> Executor {
        let mut e = Executor::new(
            ExecutorId(1),
            "n1",
            ExecutorConfig {
                idle_release_us: None,
                prefetch: true,
            },
        );
        step(&mut e, 0, ExecutorEvent::Start);
        step(&mut e, 1, ExecutorEvent::RegisterAcked);
        e
    }

    #[test]
    fn prefetch_requests_next_task_while_running() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let acts = step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 5)],
            },
        );
        // Run the task AND immediately pre-fetch the next one.
        assert!(matches!(&acts[0], ExecutorAction::Run(t) if t.id == TaskId(1)));
        assert!(matches!(
            &acts[1],
            ExecutorAction::Send(Message::GetWork { .. })
        ));
    }

    #[test]
    fn prefetched_work_starts_without_round_trip() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 5)],
            },
        );
        // Pre-fetch answer arrives while task 1 still runs.
        let acts = step(
            &mut e,
            25,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(2, 5)],
            },
        );
        assert!(acts.is_empty(), "queued locally, nothing to send yet");
        // On completion: result goes out AND task 2 starts in the same step.
        let acts = step(
            &mut e,
            30,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(1)),
            },
        );
        assert!(matches!(
            &acts[0],
            ExecutorAction::Send(Message::Result { .. })
        ));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ExecutorAction::Run(t) if t.id == TaskId(2))));
    }

    /// A pre-fetch answer that reaches the executor after its last task's
    /// ack made it idle starts at once, with no notification.
    #[test]
    fn a_prefetched_work_that_reaches_an_idle_executor_starts_at_once() {
        let mut e = Executor::new(
            ExecutorId(1),
            "n1",
            ExecutorConfig {
                idle_release_us: Some(100),
                prefetch: true,
            },
        );
        step(&mut e, 0, ExecutorEvent::Start);
        step(&mut e, 1, ExecutorEvent::RegisterAcked);
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        let result = TaskResult::success(TaskId(1));
        step(&mut e, 30, ExecutorEvent::TaskCompleted { result });
        let piggybacked = vec![];
        step(&mut e, 40, ExecutorEvent::ResultAcked { piggybacked });
        assert_eq!(e.idle_deadline_us(), Some(140));
        let tasks = vec![TaskSpec::sleep(2, 0)];
        let acts = step(&mut e, 50, ExecutorEvent::WorkReceived { tasks });
        assert!(matches!(&acts[0], ExecutorAction::Run(t) if t.id == TaskId(2)));
        assert_eq!(e.idle_deadline_us(), None);
    }

    #[test]
    fn empty_prefetch_answer_is_harmless() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 5)],
            },
        );
        // Queue was empty at the dispatcher.
        step(&mut e, 22, ExecutorEvent::WorkReceived { tasks: vec![] });
        // Completion falls back to the normal report-then-ack path.
        let acts = step(
            &mut e,
            30,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(1)),
            },
        );
        assert!(matches!(
            &acts[0],
            ExecutorAction::Send(Message::Result { .. })
        ));
        step(
            &mut e,
            35,
            ExecutorEvent::ResultAcked {
                piggybacked: vec![],
            },
        );
        assert!(answers_notify(&mut e));
    }

    #[test]
    fn piggyback_during_prefetch_run_extends_backlog() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(
            &mut e,
            20,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(1, 5)],
            },
        );
        step(
            &mut e,
            25,
            ExecutorEvent::WorkReceived {
                tasks: vec![TaskSpec::sleep(2, 5)],
            },
        );
        step(
            &mut e,
            30,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(1)),
            },
        );
        // Ack of task 1's result piggy-backs task 3 while task 2 runs.
        let acts = step(
            &mut e,
            32,
            ExecutorEvent::ResultAcked {
                piggybacked: vec![TaskSpec::sleep(3, 5)],
            },
        );
        assert!(acts.is_empty());
        let acts = step(
            &mut e,
            40,
            ExecutorEvent::TaskCompleted {
                result: TaskResult::success(TaskId(2)),
            },
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, ExecutorAction::Run(t) if t.id == TaskId(3))));
        assert_eq!(e.stats().tasks_run, 2);
    }

    /// The `GetWork`s the executor has sent (one executor per test thread).
    fn requests() -> u64 {
        GET_WORK_SENT.with(Cell::get)
    }

    fn finish(e: &mut Executor, now: Micros, id: u64) -> Vec<ExecutorAction> {
        let result = TaskResult::success(TaskId(id));
        step(e, now, ExecutorEvent::TaskCompleted { result })
    }

    /// An empty pre-fetch answer that reaches an idle executor leaves it
    /// idle: it still answers a notification.
    #[test]
    fn an_empty_prefetch_answer_to_an_idle_executor_leaves_it_idle() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        finish(&mut e, 30, 1);
        let piggybacked = vec![];
        step(&mut e, 40, ExecutorEvent::ResultAcked { piggybacked });
        assert!(step(&mut e, 50, ExecutorEvent::WorkReceived { tasks: vec![] }).is_empty());
        assert!(answers_notify(&mut e));
    }

    /// Each answered pre-fetch lets the next one go, whether the answer
    /// came while a task ran or after it finished.
    #[test]
    fn each_prefetch_answer_lets_the_next_prefetch_go() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0)];
        step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        assert_eq!(requests(), 2);
        let tasks = vec![TaskSpec::sleep(2, 0)];
        step(&mut e, 25, ExecutorEvent::WorkReceived { tasks });
        finish(&mut e, 30, 1);
        assert_eq!(requests(), 3, "the answer came while task 1 ran");
        finish(&mut e, 40, 2);
        let tasks = vec![TaskSpec::sleep(3, 0)];
        step(&mut e, 45, ExecutorEvent::WorkReceived { tasks });
        let piggybacked = vec![];
        step(&mut e, 50, ExecutorEvent::ResultAcked { piggybacked });
        assert_eq!(requests(), 4, "the answer came after task 2 finished");
    }

    /// No pre-fetch goes out while a backlog waits, nor while one is
    /// already in flight.
    #[test]
    fn a_prefetch_waits_for_the_backlog_and_for_the_last_prefetch() {
        let mut e = prefetching_executor();
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        let tasks = vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 0)];
        let acts = step(&mut e, 20, ExecutorEvent::WorkReceived { tasks });
        assert!(matches!(&acts[..], [ExecutorAction::Run(_)]), "{acts:?}");
        assert_eq!(requests(), 1);
        finish(&mut e, 30, 1);
        assert_eq!(requests(), 2, "the backlog ran dry");
        let piggybacked = vec![TaskSpec::sleep(3, 0)];
        step(&mut e, 35, ExecutorEvent::ResultAcked { piggybacked });
        finish(&mut e, 40, 2);
        assert_eq!(requests(), 2, "one pre-fetch in flight at a time");
    }
}
