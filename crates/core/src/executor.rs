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
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Executor configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Default)]
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
    pub tasks_started: u64,
    /// `GetWork` requests sent (notifications answered + pre-fetches).
    pub work_requests: u64,
    /// Results delivered to the dispatcher.
    pub results_reported: u64,
}

/// The Falkon executor state machine. See module docs.
///
/// Generic over a [`Probe`] like [`crate::Dispatcher`]; the machine counts
/// the four event kinds it emits itself, so [`Executor::stats`] and
/// [`Executor::counters`] work with the default [`NoopProbe`].
pub struct Executor<P: Probe = NoopProbe> {
    id: ExecutorId,
    host: String,
    config: ExecutorConfig,
    phase: Phase,
    /// Tasks received but not yet started (work_bundle > 1 or pre-fetch).
    backlog: VecDeque<TaskSpec>,
    /// Results finished but not yet delivered.
    finished: Vec<TaskResult>,
    /// Outstanding (running) task count.
    running: usize,
    /// When the executor last became idle (for the release policy).
    idle_since_us: Option<Micros>,
    /// A pre-fetch `GetWork` is in flight.
    prefetch_inflight: bool,
    stats: ExecutorStats,
    /// `ResultsReported` events emitted (`stats.results_reported` is the
    /// sum of what they carried).
    reports: u64,
    probe: P,
}

// A simulated pool holds one machine per executor, 100,000 in Figure 9's arm.
const _: () = assert!(std::mem::size_of::<Executor>() <= 192);

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
            host: host.into(),
            config,
            phase: Phase::New,
            backlog: VecDeque::new(),
            finished: Vec::new(),
            running: 0,
            idle_since_us: None,
            prefetch_inflight: false,
            stats: ExecutorStats::default(),
            reports: 0,
            probe,
        }
    }

    #[inline]
    fn emit(&mut self, now: Micros, event: ObsEvent) {
        match event {
            ObsEvent::TaskStarted => self.stats.tasks_started += 1,
            ObsEvent::TaskFinished => self.stats.tasks_run += 1,
            ObsEvent::WorkRequested => self.stats.work_requests += 1,
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
        c.add(Kind::WorkRequested, s.work_requests, s.work_requests);
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

    /// Whether the executor has shut down.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Whether the executor is registered and idle (no work anywhere).
    pub fn is_idle(&self) -> bool {
        self.phase == Phase::Idle && self.backlog.is_empty() && self.running == 0
    }

    /// The absolute time at which the idle-release timer fires, if armed.
    pub fn idle_deadline_us(&self) -> Option<Micros> {
        match (self.config.idle_release_us, self.idle_since_us) {
            (Some(limit), Some(since)) => Some(since.saturating_add(limit)),
            _ => None,
        }
    }

    /// Feed one event; actions are appended to `out`.
    pub fn on_event(&mut self, now: Micros, ev: ExecutorEvent, out: &mut Vec<ExecutorAction>) {
        match ev {
            ExecutorEvent::Start => {
                assert_eq!(self.phase, Phase::New, "Start must be the first event");
                self.phase = Phase::Registering;
                out.push(ExecutorAction::Send(Message::Register {
                    executor: self.id,
                    host: self.host.clone(),
                }));
            }
            ExecutorEvent::RegisterAcked => {
                if self.phase == Phase::Registering {
                    self.phase = Phase::Idle;
                    self.idle_since_us = Some(now);
                }
            }
            ExecutorEvent::Notified { key } => {
                // Only answer if we are actually free; a busy executor
                // ignores stray notifications (it will pick work up via
                // piggy-backing).
                if self.phase == Phase::Idle {
                    self.phase = Phase::Pulling;
                    self.idle_since_us = None;
                    self.emit(now, ObsEvent::WorkRequested);
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
                            self.idle_since_us = Some(now);
                        } else {
                            self.start_next(now, tasks, out);
                        }
                    }
                    // Pre-fetch answer while running: queue the work locally
                    // so it starts the moment the current task finishes
                    // (Section 6 "Pre-fetching").
                    Phase::Running if self.prefetch_inflight => {
                        self.prefetch_inflight = false;
                        self.backlog.extend(tasks);
                    }
                    // Pre-fetch answer that lost the race with the current
                    // task's completion: the machine already moved on to
                    // Reporting (awaiting the result ack) or Idle. The work
                    // must not be dropped — queue it, and start immediately
                    // when idle.
                    Phase::Reporting | Phase::Idle if self.prefetch_inflight => {
                        self.prefetch_inflight = false;
                        if self.phase == Phase::Idle && !tasks.is_empty() {
                            self.idle_since_us = None;
                            self.start_next(now, tasks, out);
                        } else {
                            self.backlog.extend(tasks);
                        }
                    }
                    _ => {}
                }
            }
            ExecutorEvent::TaskCompleted { result } => {
                self.running = self.running.saturating_sub(1);
                self.finished.push(result);
                self.emit(now, ObsEvent::TaskFinished);
                if self.config.prefetch {
                    // Pre-fetch mode reports each result immediately and
                    // keeps computing from the local backlog — communication
                    // overlaps execution.
                    self.report(now, out);
                    if !self.backlog.is_empty() {
                        self.start_next(now, Vec::new(), out);
                    } else {
                        self.phase = Phase::Reporting;
                    }
                } else if !self.backlog.is_empty() {
                    // More local work before reporting (work_bundle > 1).
                    self.start_next(now, Vec::new(), out);
                } else if self.running == 0 {
                    self.phase = Phase::Reporting;
                    self.report(now, out);
                }
            }
            ExecutorEvent::ResultAcked { piggybacked } => {
                match self.phase {
                    Phase::Reporting => {
                        if piggybacked.is_empty() && self.backlog.is_empty() && self.running == 0 {
                            self.phase = Phase::Idle;
                            self.idle_since_us = Some(now);
                        } else {
                            self.start_next(now, piggybacked, out);
                        }
                    }
                    // Pre-fetch mode: acks (possibly piggy-backing work)
                    // arrive while the next task is already running.
                    Phase::Running if self.config.prefetch => {
                        self.backlog.extend(piggybacked);
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
    /// task if none is running. A free executor starts the head of the
    /// delivery straight from the message, so the usual one-task `Work`
    /// never allocates a backlog.
    fn start_next(&mut self, now: Micros, delivered: Vec<TaskSpec>, out: &mut Vec<ExecutorAction>) {
        self.phase = Phase::Running;
        let mut delivered = delivered.into_iter();
        // One task at a time per executor (1:1 executor-to-CPU mapping).
        let next = if self.running == 0 {
            self.backlog.pop_front().or_else(|| delivered.next())
        } else {
            None
        };
        self.backlog.extend(delivered);
        if let Some(task) = next {
            self.running = 1;
            self.emit(now, ObsEvent::TaskStarted);
            out.push(ExecutorAction::Run(task));
        }
        // Section 6 "Pre-fetching": request the next task before this one
        // completes, overlapping communication and execution.
        if self.config.prefetch && self.backlog.is_empty() && !self.prefetch_inflight {
            self.prefetch_inflight = true;
            self.emit(now, ObsEvent::WorkRequested);
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

    #[test]
    fn registration_flow() {
        let e = registered_executor(ExecutorConfig::default());
        assert!(e.is_idle());
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
        assert!(e.is_idle());
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
        assert!(!e.is_idle());
    }

    #[test]
    fn empty_work_response_returns_to_idle() {
        let mut e = registered_executor(ExecutorConfig::default());
        step(&mut e, 10, ExecutorEvent::Notified { key: NotifyKey(1) });
        step(&mut e, 20, ExecutorEvent::WorkReceived { tasks: vec![] });
        assert!(e.is_idle());
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
        assert_eq!(e.backlog.capacity(), 0, "one task at a time never queues");
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
        assert!(e.is_done());
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
        assert!(!e.is_done());
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
        assert!(!e.is_done());
    }

    #[test]
    fn no_idle_release_when_unconfigured() {
        let e = registered_executor(ExecutorConfig::default());
        assert_eq!(e.idle_deadline_us(), None);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use falkon_proto::task::TaskId;

    fn step(e: &mut Executor, now: Micros, ev: ExecutorEvent) -> Vec<ExecutorAction> {
        let mut out = Vec::new();
        e.on_event(now, ev, &mut out);
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
        assert!(e.is_idle());
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
}
