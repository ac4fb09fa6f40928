//! The streamlined Falkon dispatcher (paper Sections 3.2–3.4).
//!
//! The dispatcher accepts task bundles from clients, keeps a single FIFO wait
//! queue (the *next-available* dispatch policy), notifies idle executors that
//! work is available (push), hands tasks to executors that ask for them
//! (pull), collects results, piggy-backs new tasks on result
//! acknowledgements, and re-dispatches tasks whose responses are lost or
//! failed (the replay policy). It deliberately omits multiple queues,
//! priorities, accounting and per-task resource limits — that is the point of
//! the paper.
//!
//! This is a sans-io state machine: [`Dispatcher::on_event`] consumes a
//! [`DispatcherEvent`] with an explicit timestamp and appends
//! [`DispatcherAction`]s for the driver (real sockets or simulator) to carry
//! out.

use crate::config::DispatcherConfig;
use crate::ids::{ExecutorId, InstanceId, NotifyKey, TaskId};
use crate::table::{DenseMap, FxHashMap, FxHashSet, DENSE_ID_CAP};
use crate::waitqueue::{with_id, Queued, WaitQueue};
use crate::Micros;
use falkon_obs::{Counters, NoopProbe, ObsEvent, ObsEventKind, Probe};
use falkon_proto::message::{DispatcherStatus, Message};
use falkon_proto::task::{DataSpec, TaskResult, TaskSpec};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Inputs to the dispatcher state machine.
#[derive(Clone, Debug)]
pub enum DispatcherEvent {
    /// A client requests a new instance (factory pattern).
    CreateInstance,
    /// A client submits a bundle of tasks `{1}`.
    Submit {
        /// Target instance.
        instance: InstanceId,
        /// The submitted bundle.
        tasks: Vec<TaskSpec>,
    },
    /// An executor registers. (The host name its `Register` message
    /// carries is not kept: nothing here reads it.)
    Register {
        /// The new executor's id.
        executor: ExecutorId,
    },
    /// An executor answers a notification and asks for work `{4}`.
    GetWork {
        /// The requesting executor.
        executor: ExecutorId,
        /// The notification key being answered.
        key: NotifyKey,
    },
    /// An executor delivers results `{6}`.
    Result {
        /// The reporting executor.
        executor: ExecutorId,
        /// Completed results.
        results: Vec<TaskResult>,
    },
    /// An executor deregisters cleanly (e.g. idle-time self-release).
    Deregister {
        /// The departing executor.
        executor: ExecutorId,
    },
    /// The driver detected an executor failure (connection lost / crash).
    ExecutorLost {
        /// The failed executor.
        executor: ExecutorId,
    },
    /// A client retrieves the results not yet pushed to it `{9}` (what a
    /// reconnecting client asks for).
    GetResults {
        /// The instance to drain.
        instance: InstanceId,
    },
    /// The provisioner polls dispatcher state `{POLL}`.
    StatusPoll,
    /// Timer: scan for tasks whose response deadline has passed.
    CheckDeadlines,
    /// A client destroys its instance.
    DestroyInstance {
        /// The instance to destroy.
        instance: InstanceId,
    },
}

/// Per-task accounting record attached to completions (drives Tables 3/4 and
/// the throughput figures).
#[derive(Clone, Debug, PartialEq)]
pub struct TaskRecord {
    /// The task's result as reported by the executor.
    pub result: TaskResult,
    /// When the task first entered the wait queue.
    pub enqueued_us: Micros,
    /// When it was last dispatched to an executor.
    pub dispatched_us: Micros,
    /// When its result arrived.
    pub completed_us: Micros,
    /// The executor that ran it.
    pub executor: ExecutorId,
    /// Total dispatch attempts (1 = no retries).
    pub attempts: u32,
}

const _: () = assert!(std::mem::size_of::<TaskRecord>() <= 72);

impl TaskRecord {
    /// Time spent waiting in the dispatch queue (µs).
    pub fn queue_time_us(&self) -> Micros {
        self.dispatched_us.saturating_sub(self.enqueued_us)
    }

    /// Observed execution time including dispatch cost (µs).
    pub fn exec_time_us(&self) -> Micros {
        self.completed_us.saturating_sub(self.dispatched_us)
    }
}

/// Outputs of the dispatcher state machine.
#[derive(Clone, Debug)]
pub enum DispatcherAction {
    /// Send a protocol message to a client instance.
    ToClient {
        /// Destination instance.
        instance: InstanceId,
        /// The message (InstanceCreated, SubmitAck, Results).
        msg: Message,
    },
    /// Send a protocol message to an executor.
    ToExecutor {
        /// Destination executor.
        executor: ExecutorId,
        /// The message (Notify, Work, ResultAck, RegisterAck…).
        msg: Message,
    },
    /// Answer a provisioner `{POLL}` with a state snapshot.
    ToProvisioner {
        /// The snapshot.
        status: DispatcherStatus,
    },
    /// A task completed; accounting record for harnesses.
    TaskDone {
        /// The owning instance.
        instance: InstanceId,
        /// The accounting record.
        record: TaskRecord,
    },
    /// A task exhausted its retries and was abandoned.
    TaskFailed {
        /// The owning instance.
        instance: InstanceId,
        /// The failed task.
        task: TaskId,
        /// Attempts made.
        attempts: u32,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ExecStatus {
    /// Registered, no outstanding work, not yet notified.
    Idle,
    /// Sent a `Notify`, awaiting its `GetWork`.
    Notified,
    /// Has outstanding tasks.
    Busy,
}

#[derive(Debug)]
struct ExecState {
    status: ExecStatus,
    outstanding: u32,
}

// One slot per executor id, 100,000 in Figure 9's arm.
const _: () = assert!(std::mem::size_of::<Option<ExecState>>() <= 8);

/// A task in flight, keyed by its id in `running`. Its spec is that id
/// under its run's shape, the handle the wait queue gave it out with, and
/// its deadline follows from the shape ([`Dispatcher::deadline_of`]).
#[derive(Clone, Debug)]
struct Running {
    instance: InstanceId,
    shape: Arc<TaskSpec>,
    executor: ExecutorId,
    attempts: u32,
    enqueued_us: Micros,
    dispatched_us: Micros,
}

const _: () = assert!(std::mem::size_of::<Running>() <= 48);

/// Aggregate dispatcher counters (monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Tasks accepted from clients.
    pub submitted: u64,
    /// Tasks dispatched to executors (incl. retries).
    pub dispatched: u64,
    /// Tasks completed successfully (result recorded).
    pub completed: u64,
    /// Tasks abandoned after exhausting retries.
    pub failed: u64,
    /// Replays triggered by timeout or failure.
    pub retries: u64,
    /// Results ignored because the task was no longer tracked (late
    /// duplicates after a timeout replay).
    pub duplicate_results: u64,
    /// `Notify` messages sent.
    pub notifies: u64,
    /// Tasks handed out via piggy-backing on a `ResultAck`.
    pub piggybacked: u64,
    /// Data-aware dispatch: tasks matched to an executor that already had
    /// their data object.
    pub data_locality_hits: u64,
}

/// Every field maps to one [`ObsEventKind`] only a dispatcher emits, so
/// counters merged over several dispatchers (and more) give their sum.
impl From<&Counters> for DispatcherStats {
    fn from(c: &Counters) -> DispatcherStats {
        DispatcherStats {
            submitted: c.value(ObsEventKind::TaskSubmitted),
            dispatched: c.count(ObsEventKind::TaskDispatched),
            completed: c.count(ObsEventKind::TaskCompleted),
            failed: c.count(ObsEventKind::TaskFailed),
            retries: c.count(ObsEventKind::TaskRetried),
            duplicate_results: c.count(ObsEventKind::DuplicateResult),
            notifies: c.count(ObsEventKind::NotifySent),
            piggybacked: c.value(ObsEventKind::TaskPiggybacked),
            data_locality_hits: c.count(ObsEventKind::DataLocalityHit),
        }
    }
}

/// The Falkon dispatcher state machine. See module docs.
///
/// Generic over a [`Probe`] that observes the lifecycle event stream; the
/// default [`NoopProbe`] costs nothing, and [`Dispatcher::stats`] is always
/// available because the machine keeps internal [`Counters`] regardless of
/// the mounted probe.
pub struct Dispatcher<P: Probe = NoopProbe> {
    config: DispatcherConfig,
    next_instance: u64,
    next_notify_key: u64,
    /// Dense: the dispatcher assigns instance ids sequentially from 1.
    instances: DenseMap<InstanceId, Instance>,
    /// Dense: drivers assign executor ids sequentially (guarded by
    /// [`DENSE_ID_CAP`] at registration since the id arrives on the wire).
    executors: DenseMap<ExecutorId, ExecState>,
    /// Next-available dispatch order; may contain stale ids (lazily skipped).
    idle: VecDeque<ExecutorId>,
    /// The FIFO wait queue, bundle by bundle: O(live queue), given back as
    /// it drains.
    queue: WaitQueue,
    /// Task ids span the whole 2 M-task run (sparse at any instant), so this
    /// stays a true map — with the fast seed-free hasher.
    running: FxHashMap<TaskId, Running>,
    /// Min-heap of (deadline, task) with lazy deletion: an entry is live
    /// while the task runs with that deadline ([`Dispatcher::is_live`]).
    deadlines: BinaryHeap<std::cmp::Reverse<(Micros, TaskId)>>,
    counters: Counters,
    probe: P,
    busy_count: u64,
    notified_count: u64,
    /// Which executors have staged which data objects (data-aware dispatch;
    /// populated from completed tasks' data specs). Tracked per executor —
    /// a conservative proxy for the per-node caches the executors actually
    /// share: co-located executors' hits are under-counted, never over-.
    object_cache: FxHashMap<u64, FxHashSet<ExecutorId>>,
}

#[derive(Debug, Default)]
struct Instance {
    /// Tasks submitted but not yet completed/failed.
    pending: u64,
    /// Results not yet pushed to the client.
    ready: Vec<TaskResult>,
}

impl Dispatcher {
    /// Create a dispatcher with the given configuration and no probe.
    pub fn new(config: DispatcherConfig) -> Self {
        Dispatcher::with_probe(config, NoopProbe)
    }
}

impl<P: Probe> Dispatcher<P> {
    /// Create a dispatcher that reports lifecycle events to `probe`.
    pub fn with_probe(config: DispatcherConfig, probe: P) -> Self {
        Dispatcher {
            config,
            next_instance: 1,
            next_notify_key: 1,
            instances: DenseMap::new(),
            executors: DenseMap::new(),
            idle: VecDeque::new(),
            queue: WaitQueue::default(),
            running: FxHashMap::default(),
            deadlines: BinaryHeap::new(),
            counters: Counters::new(),
            probe,
            busy_count: 0,
            notified_count: 0,
            object_cache: FxHashMap::default(),
        }
    }

    #[inline]
    fn emit(&mut self, now: Micros, event: ObsEvent) {
        self.counters.observe(&event);
        self.probe.on_event(now, &event);
    }

    /// Change an executor's status, maintaining the busy/notified counters
    /// and the idle queue. Returns false if the executor is unknown.
    fn set_status(&mut self, now: Micros, executor: ExecutorId, new: ExecStatus) -> bool {
        let Some(st) = self.executors.get_mut(executor) else {
            return false;
        };
        let old = st.status;
        if old == new {
            return true;
        }
        st.status = new;
        match old {
            ExecStatus::Busy => self.busy_count -= 1,
            ExecStatus::Notified => self.notified_count -= 1,
            ExecStatus::Idle => {}
        }
        match new {
            ExecStatus::Busy => {
                self.busy_count += 1;
                self.emit(now, ObsEvent::ExecutorBusy);
            }
            ExecStatus::Notified => self.notified_count += 1,
            ExecStatus::Idle => {
                self.idle.push_back(executor);
                self.emit(now, ObsEvent::ExecutorIdle);
            }
        }
        true
    }

    /// Monotonic counters — a derived view of the internal event
    /// [`Counters`].
    pub fn stats(&self) -> DispatcherStats {
        DispatcherStats::from(&self.counters)
    }

    /// The internal per-kind event counters (always on, probe or not).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The mounted probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Current state snapshot (what `{POLL}` returns).
    pub fn status(&self) -> DispatcherStatus {
        DispatcherStatus {
            queued_tasks: self.queue.len() as u64,
            running_tasks: self.running.len() as u64,
            registered_executors: self.executors.len() as u64,
            busy_executors: self.busy_count,
        }
    }

    /// Earliest pending response deadline, for driver timer scheduling.
    /// Discards stale (lazily deleted) heap entries as a side effect.
    pub fn next_deadline(&mut self) -> Option<Micros> {
        while let Some(std::cmp::Reverse((dl, task))) = self.deadlines.peek().copied() {
            if self.is_live(dl, task) {
                return Some(dl);
            }
            self.deadlines.pop();
        }
        None
    }

    /// Feed one event; actions are appended to `out`.
    pub fn on_event(&mut self, now: Micros, ev: DispatcherEvent, out: &mut Vec<DispatcherAction>) {
        match ev {
            DispatcherEvent::CreateInstance => {
                let id = InstanceId(self.next_instance);
                self.next_instance += 1;
                self.instances.insert(id, Instance::default());
                out.push(DispatcherAction::ToClient {
                    instance: id,
                    msg: Message::InstanceCreated { instance: id },
                });
            }
            DispatcherEvent::Submit { instance, tasks } => {
                let accepted = if self.instances.contains_key(instance) {
                    let n = tasks.len() as u64;
                    self.queue.push(instance, now, 0, tasks);
                    if let Some(inst) = self.instances.get_mut(instance) {
                        inst.pending += n;
                    }
                    self.emit(now, ObsEvent::TaskSubmitted { count: n });
                    n
                } else {
                    0
                };
                out.push(DispatcherAction::ToClient {
                    instance,
                    msg: Message::SubmitAck { instance, accepted },
                });
                self.pump(now, out);
                self.emit(
                    now,
                    ObsEvent::QueueDepth {
                        depth: self.queue.len() as u64,
                    },
                );
            }
            DispatcherEvent::Register { executor } => {
                // The id arrives on the wire; the dense table below indexes
                // by it directly, so an absurd id must not be allowed to
                // size the table. Real drivers assign ids sequentially.
                if executor.0 >= DENSE_ID_CAP {
                    return;
                }
                // Re-registration of a live id (e.g. an executor restarting
                // after a crash the driver didn't notice): retire the old
                // incarnation first so counters stay balanced and its
                // in-flight tasks are replayed.
                if self.executors.contains_key(executor) {
                    self.remove_executor(now, executor, out);
                }
                self.executors.insert(
                    executor,
                    ExecState {
                        status: ExecStatus::Idle,
                        outstanding: 0,
                    },
                );
                self.idle.push_back(executor);
                self.emit(now, ObsEvent::ExecutorRegistered);
                out.push(DispatcherAction::ToExecutor {
                    executor,
                    msg: Message::RegisterAck { executor },
                });
                self.pump(now, out);
            }
            DispatcherEvent::GetWork { executor, key: _ } => {
                if !self.executors.contains_key(executor) {
                    // Unknown executor: tell it there is nothing.
                    out.push(DispatcherAction::ToExecutor {
                        executor,
                        msg: Message::Work { tasks: Vec::new() },
                    });
                    return;
                }
                let tasks = self.take_work(now, executor);
                if tasks.is_empty() {
                    // Only transition to idle if nothing is still outstanding
                    // (an executor with in-flight work stays busy).
                    if self
                        .executors
                        .get(executor)
                        .expect("checked above")
                        .outstanding
                        == 0
                    {
                        self.set_idle(now, executor);
                    }
                } else {
                    self.set_busy(now, executor, tasks.len());
                }
                out.push(DispatcherAction::ToExecutor {
                    executor,
                    msg: Message::Work { tasks },
                });
                self.pump(now, out);
                self.emit(
                    now,
                    ObsEvent::QueueDepth {
                        depth: self.queue.len() as u64,
                    },
                );
            }
            DispatcherEvent::Result { executor, results } => {
                for result in results {
                    self.finish_task(now, executor, result, out);
                }
                // Piggy-back new work on the acknowledgement when possible.
                let piggybacked = if self.config.piggyback && self.executors.contains_key(executor)
                {
                    let tasks = self.take_work(now, executor);
                    if !tasks.is_empty() {
                        self.set_busy(now, executor, tasks.len());
                        self.emit(
                            now,
                            ObsEvent::TaskPiggybacked {
                                count: tasks.len() as u64,
                            },
                        );
                    }
                    tasks
                } else {
                    Vec::new()
                };
                if piggybacked.is_empty() {
                    if let Some(st) = self.executors.get(executor) {
                        if st.outstanding == 0 {
                            self.set_idle(now, executor);
                        }
                    }
                }
                out.push(DispatcherAction::ToExecutor {
                    executor,
                    msg: Message::ResultAck { piggybacked },
                });
                self.pump(now, out);
                self.emit(
                    now,
                    ObsEvent::QueueDepth {
                        depth: self.queue.len() as u64,
                    },
                );
            }
            DispatcherEvent::Deregister { executor }
            | DispatcherEvent::ExecutorLost { executor } => {
                self.remove_executor(now, executor, out);
                self.pump(now, out);
            }
            DispatcherEvent::GetResults { instance } => {
                let results = self
                    .instances
                    .get_mut(instance)
                    .map(|inst| std::mem::take(&mut inst.ready))
                    .unwrap_or_default();
                out.push(DispatcherAction::ToClient {
                    instance,
                    msg: Message::Results { results },
                });
            }
            DispatcherEvent::StatusPoll => {
                out.push(DispatcherAction::ToProvisioner {
                    status: self.status(),
                });
            }
            DispatcherEvent::CheckDeadlines => {
                self.check_deadlines(now, out);
                self.pump(now, out);
            }
            DispatcherEvent::DestroyInstance { instance } => {
                self.instances.remove(instance);
                // Purge queued tasks belonging to the destroyed instance;
                // running tasks will complete and be dropped as duplicates,
                // but their executors' bookkeeping must be released now or
                // those executors would stay Busy forever.
                self.queue.purge(instance);
                // Sorted so executor-slot release order (and thus the idle
                // queue) never depends on map iteration order.
                let mut orphaned: Vec<TaskId> = self
                    .running
                    .iter()
                    .filter(|(_, r)| r.instance == instance)
                    .map(|(id, _)| *id)
                    .collect();
                orphaned.sort_unstable();
                for id in orphaned {
                    let r = self.running.remove(&id).expect("collected above");
                    self.release_executor_slot(now, r.executor);
                }
                self.pump(now, out);
            }
        }
    }

    /// Pick the queue position to serve next for `executor`: front (the
    /// next-available policy), or — with data-aware dispatch — the first
    /// task within the scan window whose data object this executor has
    /// already staged.
    fn pick_task(&mut self, now: Micros, executor: ExecutorId) -> Queued {
        if self.config.data_aware {
            let cache = &self.object_cache;
            let staged = |data: Option<DataSpec>| {
                data.is_some_and(|data| {
                    cache
                        .get(&data.object)
                        .is_some_and(|s| s.contains(&executor))
                })
            };
            if let Some(hit) = self.queue.take_first(self.config.data_aware_window, staged) {
                self.emit(now, ObsEvent::DataLocalityHit);
                return hit;
            }
        }
        self.queue.pop_front().expect("checked non-empty")
    }

    /// Pop up to `work_bundle` tasks for `executor` and mark them running.
    /// An executor holds at most one bundle beyond the task it runs: the
    /// paper's pre-fetch is one request ahead (§6), not a hoard.
    fn take_work(&mut self, now: Micros, executor: ExecutorId) -> Vec<TaskSpec> {
        let bundle = self.config.work_bundle.max(1);
        let held = self.executors.get(executor).map_or(0, |st| st.outstanding);
        let room = (bundle + 1).saturating_sub(held as usize);
        let n = bundle.min(self.queue.len()).min(room);
        let mut tasks = Vec::with_capacity(n);
        for _ in 0..n {
            let q = self.pick_task(now, executor);
            let r = Running {
                instance: q.instance,
                shape: q.shape,
                executor,
                attempts: q.attempts + 1,
                enqueued_us: q.enqueued_us,
                dispatched_us: now,
            };
            self.deadlines
                .push(std::cmp::Reverse((self.deadline_of(&r), q.id)));
            tasks.push(with_id(&r.shape, q.id));
            self.running.insert(q.id, r);
            self.emit(
                now,
                ObsEvent::TaskDispatched {
                    queue_us: now.saturating_sub(q.enqueued_us),
                },
            );
        }
        tasks
    }

    /// When `r`'s attempt times out.
    fn deadline_of(&self, r: &Running) -> Micros {
        r.dispatched_us
            .saturating_add(self.config.replay.deadline_for(&r.shape))
    }

    /// Whether the heap entry `(dl, task)` describes the running `task`. (An
    /// earlier attempt dispatched in the same microsecond has the same
    /// entry, which expires the live one at its own deadline.)
    fn is_live(&self, dl: Micros, task: TaskId) -> bool {
        self.running
            .get(&task)
            .is_some_and(|r| self.deadline_of(r) == dl)
    }

    fn set_idle(&mut self, now: Micros, executor: ExecutorId) {
        self.set_status(now, executor, ExecStatus::Idle);
    }

    fn set_busy(&mut self, now: Micros, executor: ExecutorId, added: usize) {
        if self.set_status(now, executor, ExecStatus::Busy) {
            if let Some(st) = self.executors.get_mut(executor) {
                st.outstanding += added as u32;
            }
        }
    }

    /// One of `executor`'s in-flight tasks is no longer its responsibility:
    /// decrement `outstanding` and return it to the idle pool at zero.
    fn release_executor_slot(&mut self, now: Micros, executor: ExecutorId) {
        let freed = if let Some(st) = self.executors.get_mut(executor) {
            st.outstanding = st.outstanding.saturating_sub(1);
            st.outstanding == 0 && st.status == ExecStatus::Busy
        } else {
            false
        };
        if freed {
            self.set_idle(now, executor);
        }
    }

    /// Retire an executor (deregistration, failure, or supersession by a
    /// re-registration): drop its state, fix the counters, and replay its
    /// in-flight tasks.
    fn remove_executor(
        &mut self,
        now: Micros,
        executor: ExecutorId,
        out: &mut Vec<DispatcherAction>,
    ) {
        if let Some(st) = self.executors.remove(executor) {
            match st.status {
                ExecStatus::Busy => self.busy_count -= 1,
                ExecStatus::Notified => self.notified_count -= 1,
                ExecStatus::Idle => {}
            }
            self.emit(now, ObsEvent::ExecutorReleased);
        }
        // Replay any tasks that were outstanding on this executor, in task-id
        // order so replays are deterministic.
        let mut orphaned: Vec<TaskId> = self
            .running
            .iter()
            .filter(|(_, r)| r.executor == executor)
            .map(|(id, _)| *id)
            .collect();
        orphaned.sort_unstable();
        for id in orphaned {
            let r = self.running.remove(&id).expect("collected above");
            self.replay(now, id, r, out);
        }
    }

    /// Record a completed task and update executor bookkeeping.
    fn finish_task(
        &mut self,
        now: Micros,
        executor: ExecutorId,
        result: TaskResult,
        out: &mut Vec<DispatcherAction>,
    ) {
        let Some(r) = self.running.get(&result.id) else {
            self.emit(now, ObsEvent::DuplicateResult);
            return;
        };
        // A result from a different executor than the one we dispatched to
        // means the task was replayed; the original owner's late result is a
        // duplicate.
        if r.executor != executor {
            self.emit(now, ObsEvent::DuplicateResult);
            return;
        }
        let r = self.running.remove(&result.id).expect("checked above");
        if let Some(st) = self.executors.get_mut(executor) {
            st.outstanding = st.outstanding.saturating_sub(1);
        }
        // Data-aware dispatch: this executor now has the task's data staged.
        if self.config.data_aware {
            if let Some(data) = r.shape.data {
                self.object_cache
                    .entry(data.object)
                    .or_default()
                    .insert(executor);
            }
        }
        let failed = !result.is_success();
        if failed
            && self.config.replay.retry_on_failure
            && r.attempts <= self.config.replay.max_retries
        {
            self.requeue(now, result.id, &r);
            return;
        }
        self.emit(
            now,
            ObsEvent::TaskCompleted {
                queue_us: r.dispatched_us.saturating_sub(r.enqueued_us),
                exec_us: result.executor_time_us,
                overhead_us: now
                    .saturating_sub(r.enqueued_us)
                    .saturating_sub(result.executor_time_us),
            },
        );
        let record = TaskRecord {
            result: result.clone(),
            enqueued_us: r.enqueued_us,
            dispatched_us: r.dispatched_us,
            completed_us: now,
            executor,
            attempts: r.attempts,
        };
        out.push(DispatcherAction::TaskDone {
            instance: r.instance,
            record,
        });
        self.deliver(now, r.instance, result, out);
    }

    /// Put task `id` back on the queue for attempt `r.attempts + 1`.
    fn requeue(&mut self, now: Micros, id: TaskId, r: &Running) {
        self.emit(now, ObsEvent::TaskRetried);
        let spec = with_id(&r.shape, id);
        self.queue
            .push(r.instance, r.enqueued_us, r.attempts, vec![spec]);
    }

    /// Hand a final result to its instance and push the waiting results
    /// `{8}`–`{10}` in one `Results` once `client_notify_batch` of them are
    /// waiting or the instance has none left pending.
    fn deliver(
        &mut self,
        now: Micros,
        instance: InstanceId,
        result: TaskResult,
        out: &mut Vec<DispatcherAction>,
    ) {
        let Some(inst) = self.instances.get_mut(instance) else {
            return;
        };
        inst.pending = inst.pending.saturating_sub(1);
        inst.ready.push(result);
        let delivered = inst.ready.len() as u64;
        if delivered < self.config.client_notify_batch && inst.pending > 0 {
            return;
        }
        let results = std::mem::take(&mut inst.ready);
        out.push(DispatcherAction::ToClient {
            instance,
            msg: Message::Results { results },
        });
        self.emit(now, ObsEvent::TaskDelivered { count: delivered });
    }

    /// Re-dispatch or abandon task `id` per the replay policy.
    fn replay(&mut self, now: Micros, id: TaskId, r: Running, out: &mut Vec<DispatcherAction>) {
        if r.attempts > self.config.replay.max_retries {
            self.emit(now, ObsEvent::TaskFailed);
            out.push(DispatcherAction::TaskFailed {
                instance: r.instance,
                task: id,
                attempts: r.attempts,
            });
            // Also surface a synthesized failure so clients can complete.
            let failure = TaskResult::failure(id, -1)
                .with_output(None, Some("falkon: retries exhausted".to_string()));
            self.deliver(now, r.instance, failure, out);
        } else {
            self.requeue(now, id, &r);
        }
    }

    /// Expire overdue tasks (lost responses) and replay them.
    fn check_deadlines(&mut self, now: Micros, out: &mut Vec<DispatcherAction>) {
        while let Some(std::cmp::Reverse((dl, task))) = self.deadlines.peek().copied() {
            if dl > now {
                break;
            }
            self.deadlines.pop();
            // Lazy deletion: only act if the entry still describes the
            // current incarnation of the task.
            if !self.is_live(dl, task) {
                continue;
            }
            let r = self.running.remove(&task).expect("checked above");
            // The executor that lost the task has one fewer outstanding.
            self.release_executor_slot(now, r.executor);
            self.replay(now, task, r, out);
        }
    }

    /// Notify idle executors while work is queued (the push half of the
    /// hybrid model).
    fn pump(&mut self, now: Micros, out: &mut Vec<DispatcherAction>) {
        let bundle = self.config.work_bundle.max(1) as u64;
        // Notify idle executors until every queued task is covered by an
        // outstanding notification (each notified executor will claim up to
        // `work_bundle` tasks when it answers).
        while self.notified_count * bundle < self.queue.len() as u64 {
            // Skip stale idle entries (deregistered or already re-notified).
            let executor = loop {
                let Some(e) = self.idle.pop_front() else {
                    return;
                };
                if self
                    .executors
                    .get(e)
                    .is_some_and(|st| st.status == ExecStatus::Idle)
                {
                    break e;
                }
            };
            let key = NotifyKey(self.next_notify_key);
            self.next_notify_key += 1;
            self.set_status(now, executor, ExecStatus::Notified);
            self.emit(now, ObsEvent::NotifySent);
            out.push(DispatcherAction::ToExecutor {
                executor,
                msg: Message::Notify { key },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplayPolicy;

    fn dispatcher() -> Dispatcher {
        Dispatcher::new(DispatcherConfig::default())
    }

    /// Convenience: feed an event, return actions.
    fn step(d: &mut Dispatcher, now: Micros, ev: DispatcherEvent) -> Vec<DispatcherAction> {
        let mut out = Vec::new();
        d.on_event(now, ev, &mut out);
        out
    }

    fn create_instance(d: &mut Dispatcher) -> InstanceId {
        let acts = step(d, 0, DispatcherEvent::CreateInstance);
        match &acts[0] {
            DispatcherAction::ToClient {
                msg: Message::InstanceCreated { instance },
                ..
            } => *instance,
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn instance_creation_returns_epr() {
        let mut d = dispatcher();
        let i1 = create_instance(&mut d);
        let i2 = create_instance(&mut d);
        assert_ne!(i1, i2);
    }

    #[test]
    fn submit_then_register_dispatches() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        let acts = step(
            &mut d,
            10,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        // No executors yet: just the ack.
        assert_eq!(acts.len(), 1);
        assert_eq!(d.status().queued_tasks, 1);

        let acts = step(
            &mut d,
            20,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        // RegisterAck + Notify.
        assert!(acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToExecutor {
                msg: Message::Notify { .. },
                ..
            }
        )));
    }

    #[test]
    fn full_task_lifecycle_with_piggyback() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        step(
            &mut d,
            10,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 0)],
            },
        );
        // Executor answers the notify.
        let acts = step(
            &mut d,
            20,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        let tasks = acts
            .iter()
            .find_map(|a| match a {
                DispatcherAction::ToExecutor {
                    msg: Message::Work { tasks },
                    ..
                } => Some(tasks.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(tasks.len(), 1, "paper uses work_bundle=1");
        assert_eq!(d.status().busy_executors, 1);

        // First result: the second task must be piggy-backed on the ack.
        let acts = step(
            &mut d,
            30,
            DispatcherEvent::Result {
                executor: ExecutorId(1),
                results: vec![TaskResult::success(TaskId(1))],
            },
        );
        let piggy = acts
            .iter()
            .find_map(|a| match a {
                DispatcherAction::ToExecutor {
                    msg: Message::ResultAck { piggybacked },
                    ..
                } => Some(piggybacked.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(piggy.len(), 1);
        assert_eq!(piggy[0].id, TaskId(2));
        assert!(acts
            .iter()
            .any(|a| matches!(a, DispatcherAction::TaskDone { .. })));
        assert_eq!(d.stats().piggybacked, 1);

        // Second result: nothing left; executor goes idle.
        step(
            &mut d,
            40,
            DispatcherEvent::Result {
                executor: ExecutorId(1),
                results: vec![TaskResult::success(TaskId(2))],
            },
        );
        assert_eq!((d.status().queued_tasks, d.status().running_tasks), (0, 0));
        assert_eq!(d.status().busy_executors, 0);
        assert_eq!(d.stats().completed, 2);
    }

    #[test]
    fn no_piggyback_falls_back_to_notify() {
        let mut d = Dispatcher::new(DispatcherConfig {
            piggyback: false,
            ..DispatcherConfig::default()
        });
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 0)],
            },
        );
        step(
            &mut d,
            2,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        let acts = step(
            &mut d,
            3,
            DispatcherEvent::Result {
                executor: ExecutorId(1),
                results: vec![TaskResult::success(TaskId(1))],
            },
        );
        // Ack carries no work…
        let piggy = acts
            .iter()
            .find_map(|a| match a {
                DispatcherAction::ToExecutor {
                    msg: Message::ResultAck { piggybacked },
                    ..
                } => Some(piggybacked.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(piggy, 0);
        // …but a fresh Notify goes out for the remaining task.
        assert!(acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToExecutor {
                msg: Message::Notify { .. },
                ..
            }
        )));
    }

    /// The results of the one `Results` among `acts`, if there is one.
    fn pushed(acts: &[DispatcherAction]) -> Option<Vec<TaskResult>> {
        acts.iter().find_map(|a| match a {
            DispatcherAction::ToClient {
                msg: Message::Results { results },
                ..
            } => Some(results.clone()),
            _ => None,
        })
    }

    #[test]
    fn results_retrievable_by_client() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        step(
            &mut d,
            2,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        let acts = step(
            &mut d,
            3,
            DispatcherEvent::Result {
                executor: ExecutorId(1),
                results: vec![TaskResult::success(TaskId(1))],
            },
        );
        // The result is pushed to the client as it is delivered.
        let results = pushed(&acts).expect("a Results push");
        assert_eq!(results.len(), 1);
        // Nothing is left for a fetch.
        let acts = step(&mut d, 4, DispatcherEvent::GetResults { instance: inst });
        assert_eq!(pushed(&acts).map(|r| r.len()), Some(0));
    }

    #[test]
    fn timeout_replays_task() {
        let cfg = DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 3,
                timeout_slack_us: 100,
                runtime_factor: 1.0,
                retry_on_failure: false,
                io_slack_us_per_mib: 10_000_000,
            },
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(cfg);
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(7, 0)],
            },
        );
        step(
            &mut d,
            2,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        assert_eq!(d.next_deadline(), Some(102));
        // Deadline passes with no result: task goes back to the queue and a
        // fresh notify is pumped out.
        let acts = step(&mut d, 200, DispatcherEvent::CheckDeadlines);
        assert_eq!(d.stats().retries, 1);
        assert_eq!(d.status().queued_tasks + d.status().running_tasks, 1);
        // The executor became idle again and got re-notified.
        assert!(acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToExecutor {
                msg: Message::Notify { .. },
                ..
            }
        )));
    }

    #[test]
    fn late_result_after_timeout_is_duplicate() {
        let cfg = DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 3,
                timeout_slack_us: 100,
                runtime_factor: 1.0,
                retry_on_failure: false,
                io_slack_us_per_mib: 10_000_000,
            },
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(cfg);
        let inst = create_instance(&mut d);
        for e in 1..=2u64 {
            step(
                &mut d,
                0,
                DispatcherEvent::Register {
                    executor: ExecutorId(e),
                },
            );
        }
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(7, 0)],
            },
        );
        step(
            &mut d,
            2,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        step(&mut d, 200, DispatcherEvent::CheckDeadlines);
        // Replayed task claimed by executor 2.
        step(
            &mut d,
            201,
            DispatcherEvent::GetWork {
                executor: ExecutorId(2),
                key: NotifyKey(2),
            },
        );
        // The original executor's late result must not double-complete.
        step(
            &mut d,
            250,
            DispatcherEvent::Result {
                executor: ExecutorId(1),
                results: vec![TaskResult::success(TaskId(7))],
            },
        );
        assert_eq!(d.stats().duplicate_results, 1);
        assert_eq!(d.stats().completed, 0);
        // Executor 2's result completes it exactly once.
        step(
            &mut d,
            260,
            DispatcherEvent::Result {
                executor: ExecutorId(2),
                results: vec![TaskResult::success(TaskId(7))],
            },
        );
        assert_eq!(d.stats().completed, 1);
        assert_eq!((d.status().queued_tasks, d.status().running_tasks), (0, 0));
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let cfg = DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 1,
                timeout_slack_us: 10,
                runtime_factor: 1.0,
                retry_on_failure: false,
                io_slack_us_per_mib: 10_000_000,
            },
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(cfg);
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(9, 0)],
            },
        );
        let mut now = 2;
        let mut failure = None;
        for _ in 0..5 {
            step(
                &mut d,
                now,
                DispatcherEvent::GetWork {
                    executor: ExecutorId(1),
                    key: NotifyKey(0),
                },
            );
            now += 100;
            let acts = step(&mut d, now, DispatcherEvent::CheckDeadlines);
            if acts
                .iter()
                .any(|a| matches!(a, DispatcherAction::TaskFailed { .. }))
            {
                failure = pushed(&acts);
                break;
            }
        }
        // The client is pushed a (synthesized) result with the failure.
        let results = failure.expect("task should fail after retries exhausted");
        assert_eq!(d.stats().failed, 1);
        assert_eq!((d.status().queued_tasks, d.status().running_tasks), (0, 0));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, TaskId(9));
        assert!(!results[0].is_success());
    }

    #[test]
    fn executor_lost_replays_its_tasks() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        for e in 1..=2u64 {
            step(
                &mut d,
                0,
                DispatcherEvent::Register {
                    executor: ExecutorId(e),
                },
            );
        }
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        step(
            &mut d,
            2,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        assert_eq!(d.status().running_tasks, 1);
        let acts = step(
            &mut d,
            3,
            DispatcherEvent::ExecutorLost {
                executor: ExecutorId(1),
            },
        );
        assert_eq!(d.status().registered_executors, 1);
        assert_eq!(d.stats().retries, 1);
        // Task is re-notified to executor 2.
        assert!(acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToExecutor {
                executor: ExecutorId(2),
                msg: Message::Notify { .. },
            }
        )));
    }

    #[test]
    fn retry_on_failure_replays_failed_results() {
        let cfg = DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 5,
                timeout_slack_us: 1_000_000,
                runtime_factor: 1.0,
                retry_on_failure: true,
                io_slack_us_per_mib: 10_000_000,
            },
            ..DispatcherConfig::default()
        };
        let mut d = Dispatcher::new(cfg);
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(3, 0)],
            },
        );
        step(
            &mut d,
            2,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        step(
            &mut d,
            3,
            DispatcherEvent::Result {
                executor: ExecutorId(1),
                results: vec![TaskResult::failure(TaskId(3), 1)],
            },
        );
        assert_eq!(d.stats().retries, 1);
        assert_eq!(d.stats().completed, 0);
        assert_eq!(d.status().queued_tasks + d.status().running_tasks, 1);
    }

    #[test]
    fn submit_to_unknown_instance_rejected() {
        let mut d = dispatcher();
        let acts = step(
            &mut d,
            0,
            DispatcherEvent::Submit {
                instance: InstanceId(999),
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToClient {
                msg: Message::SubmitAck { accepted: 0, .. },
                ..
            }
        )));
        assert_eq!(d.status().queued_tasks, 0);
    }

    #[test]
    fn empty_submit_queues_nothing() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        step(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(1),
            },
        );
        let acts = step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: Vec::new(),
            },
        );
        // Acknowledged, but nothing to notify anyone about.
        assert_eq!(acts.len(), 1);
        assert_eq!(d.status().queued_tasks, 0);
        assert_eq!((d.status().queued_tasks, d.status().running_tasks), (0, 0));
        // The next bundle is served from the front of the queue, not from
        // behind an empty batch.
        step(
            &mut d,
            2,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: vec![TaskSpec::sleep(7, 0)],
            },
        );
        let acts = step(
            &mut d,
            3,
            DispatcherEvent::GetWork {
                executor: ExecutorId(1),
                key: NotifyKey(1),
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToExecutor {
                msg: Message::Work { tasks },
                ..
            } if tasks.len() == 1 && tasks[0].id == TaskId(7)
        )));
    }

    #[test]
    fn destroy_instance_purges_queue() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: (0..10).map(|i| TaskSpec::sleep(i, 0)).collect(),
            },
        );
        assert_eq!(d.status().queued_tasks, 10);
        step(
            &mut d,
            2,
            DispatcherEvent::DestroyInstance { instance: inst },
        );
        assert_eq!(d.status().queued_tasks, 0);
    }

    #[test]
    fn status_poll_reports_snapshot() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: (0..5).map(|i| TaskSpec::sleep(i, 0)).collect(),
            },
        );
        let acts = step(&mut d, 2, DispatcherEvent::StatusPoll);
        match &acts[0] {
            DispatcherAction::ToProvisioner { status } => {
                assert_eq!(status.queued_tasks, 5);
                assert_eq!(status.registered_executors, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn many_executors_all_get_notified() {
        let mut d = dispatcher();
        let inst = create_instance(&mut d);
        for e in 0..50u64 {
            step(
                &mut d,
                0,
                DispatcherEvent::Register {
                    executor: ExecutorId(e),
                },
            );
        }
        let acts = step(
            &mut d,
            1,
            DispatcherEvent::Submit {
                instance: inst,
                tasks: (0..50).map(|i| TaskSpec::sleep(i, 0)).collect(),
            },
        );
        let notifies = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    DispatcherAction::ToExecutor {
                        msg: Message::Notify { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(notifies, 50);
    }
}
