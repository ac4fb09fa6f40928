//! A complete simulated Falkon deployment in virtual time.
//!
//! The socket runtime's `falkon-core` nodes and machines — a
//! [`DispatcherNode`] per dispatcher host and, with
//! [`SimFalkonConfig::forwarder`], a [`ForwarderNode`] over them (paper
//! Section 6) — in a discrete-event loop with the calibrated [`CostModel`],
//! the `falkon-lrm` batch scheduler (when provisioning) and the `falkon-fs`
//! staging model (when tasks declare data): the paper's at-scale
//! experiments, 54,000 executors, 2,000,000 tasks, and the Table 3/4
//! provisioning study.
//!
//! Cost accounting:
//! * Each dispatcher is a serial resource: every message that arrives at
//!   its node and every send from its outbox occupies it for
//!   `dispatcher_msg_cpu_us`, queued behind its `free_at`. Optional
//!   stop-the-world GC pauses (Figure 8) push `free_at` further.
//! * Executors charge `executor_task_overhead_us` (with log-normal jitter)
//!   per task on top of the payload runtime and any staging I/O.
//! * Every hop pays `network_latency_us`, but the clients' steps and the
//!   forwarder's are free: a client's `Submit` travels, while creating its
//!   instance and acknowledging results reach the node at once, and the
//!   node's answer to them is uncosted.

use crate::costs::{CostModel, ALLOC_REQUEST_OVERHEAD_US};
use crate::Micros;
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::dispatcher::{DispatcherStats, TaskRecord};
use falkon_core::executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent};
use falkon_core::ids::AllocationId;
use falkon_core::mapping;
use falkon_core::policy::ProvisionerPolicy;
use falkon_core::provisioner::{Provisioner, ProvisionerAction, ProvisionerEvent};
use falkon_core::{DenseMap, DispatcherConfig, DispatcherNode, ForwarderNode};
use falkon_fs::ClusterFs;
use falkon_lrm::job::{JobId, JobSpec, JobState};
use falkon_lrm::profile::LrmProfile;
use falkon_lrm::scheduler::{BatchScheduler, LrmInput, LrmOutput};
use falkon_obs::{ObsEventKind, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::{ExecutorId, Message};
use falkon_proto::task::{TaskResult, TaskSpec};
use falkon_sim::{EventQueue, SimRng, SimTime, TimeSeries};

/// Configuration of a simulated deployment.
#[derive(Clone, Debug)]
pub struct SimFalkonConfig {
    /// Dispatcher tunables (piggy-backing, replay, …).
    pub dispatcher: DispatcherConfig,
    /// Executor tunables (idle self-release for the distributed policy).
    pub executor: ExecutorConfig,
    /// The calibrated cost model.
    pub costs: CostModel,
    /// Client→dispatcher bundle size.
    pub bundle_size: usize,
    /// Static executor pool size per dispatcher (ignored when a
    /// provisioner is set).
    pub executors: u32,
    /// Mount a forwarder over this many dispatchers (paper Section 6);
    /// executor `e` serves dispatcher `e / executors`. `None` = one
    /// dispatcher and no forwarder. Takes no provisioner.
    pub forwarder: Option<usize>,
    /// Executors per physical node (paper: 2 for dual-CPU nodes; 900 for
    /// the 54K-executor emulation).
    pub executors_per_node: u32,
    /// Dynamic provisioning: the policy, and the LRM profile and node count
    /// its allocations come from; `None` = static pool started at t=0.
    pub provisioner: Option<(ProvisionerPolicy, LrmProfile, u32)>,
    /// Client submission rate, tasks/sec (`None` = submit instantly).
    pub client_submit_rate: Option<f64>,
    /// Metrics sampling period (0 = no time series).
    pub sample_interval_us: Micros,
    /// Executor-side data caching (paper Section 6 future work): once a
    /// node has staged a shared-FS object, later tasks on that node read it
    /// from local disk. Pair with `DispatcherConfig::data_aware` to send
    /// tasks where their data already is.
    pub data_caching: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimFalkonConfig {
    fn default() -> Self {
        SimFalkonConfig {
            dispatcher: DispatcherConfig {
                client_notify_batch: 10_000,
                ..DispatcherConfig::default()
            },
            executor: ExecutorConfig::default(),
            costs: CostModel::no_security(),
            bundle_size: 300,
            executors: 64,
            forwarder: None,
            executors_per_node: 2,
            provisioner: None,
            client_submit_rate: None,
            sample_interval_us: 0,
            data_caching: false,
            seed: 42,
        }
    }
}

/// Aggregate outcome of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Per-task dispatcher records, in completion order: filled by
    /// [`SimFalkon::run_until_drained`] only (the deployment itself keeps
    /// none).
    pub records: Vec<TaskRecord>,
    /// Virtual time of the last completion.
    pub makespan_us: Micros,
    /// Tasks completed.
    pub tasks: u64,
    /// Aggregate throughput, tasks/sec.
    pub throughput: f64,
    /// Sampled queue length over time.
    pub queue_series: TimeSeries,
    /// Sampled busy-executor count over time.
    pub busy_series: TimeSeries,
    /// Sampled registered-executor count over time.
    pub registered_series: TimeSeries,
    /// Sampled allocated-but-not-yet-registered count over time.
    pub(crate) allocated_series: TimeSeries,
    /// Mean queue time per task, µs.
    pub avg_queue_us: f64,
    /// Mean (dispatch→completion) time per task, µs.
    pub avg_exec_us: f64,
    /// CPU-seconds of payload actually executed.
    used_cpu_us: u64,
    /// Executor-seconds that were registered but idle.
    wasted_cpu_us: u64,
    /// First-level allocation requests issued (0 for a static pool).
    pub allocations: u64,
}

impl SimOutcome {
    /// `resources_used / (used + wasted)` — Table 4's resource utilization.
    pub fn resource_utilization(&self) -> f64 {
        let total = self.used_cpu_us + self.wasted_cpu_us;
        if total == 0 {
            0.0
        } else {
            self.used_cpu_us as f64 / total as f64
        }
    }
}

/// A node's endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    /// The workload's client.
    Client,
    /// An executor, by index.
    Exec(u32),
    /// Forwarder slot `d`'s link: dispatcher node `d`'s client.
    Link(u32),
}

/// Indices are `u32` here, which keeps an event 48 bytes.
enum Ev {
    /// What an endpoint (coded by [`SimFalkon::travel`]) said reaches its
    /// dispatcher node and enters its CPU queue; `None` is its close.
    DispArrive(u32, Option<Message>),
    /// The node takes it in.
    DispProcess(u32, Option<Message>),
    /// Deadline timer at a dispatcher node.
    DispDeadlineCheck(u32),
    /// A message arrives at an executor.
    ExecRecv(u32, Message),
    /// A task payload finishes on an executor.
    ExecDone(u32, TaskResult),
    /// A provisioned executor's process starts (begins registration). A
    /// static pool's executors start in [`SimFalkon::new`] instead.
    ExecStart(u32),
    /// An executor's idle-release timer fires.
    ExecIdleCheck(u32),
    /// The provisioner polls dispatcher state.
    ProvisionerPoll,
    /// The LRM has internal work due.
    LrmWake,
    /// Metrics sampling tick.
    Sample,
    /// The client's next bundle is due. The event carries the rest of the
    /// submission and re-arms itself, so a bundle exists only from the
    /// moment it is sent.
    ClientSubmit(Box<dyn ExactSizeIterator<Item = TaskSpec>>),
    /// A provisioner allocation request reaches the LRM (after the GRAM-like
    /// request-handling overhead).
    LrmSubmit(JobSpec),
}

// A static pool's registrations are one event per executor at once.
const _: () = assert!(std::mem::size_of::<Ev>() <= 48);

/// Per-executor hot state, struct-of-arrays.
///
/// The event loop touches one or two scalar fields per delivery (a liveness
/// check, a busy-time credit), so the table keeps each field in its own
/// dense vector: at 100k executors the flags and counters the inner loop
/// actually reads stay in a handful of hot cache lines instead of striding
/// over one large per-executor struct (the `Executor` machine alone would
/// push every neighbouring flag out of the line). Indexed by executor id;
/// rows are append-only and all vectors grow in lock-step.
struct ExecutorTable {
    /// The sans-io executor machines (cold relative to the columns below:
    /// touched only when a machine actually runs an event).
    machines: Vec<Executor>,
    /// First-level allocation backing each executor of a provisioned
    /// deployment; a static pool, which has none, keeps no column.
    allocation: Vec<AllocationId>,
    /// Registration time, for wasted-CPU accounting.
    registered_at: Vec<Option<Micros>>,
    /// Payload µs actually executed (credited on completion).
    busy_us: Vec<u64>,
    /// Death time (walltime kill or idle self-release); `None` while alive.
    dead_at: Vec<Option<Micros>>,
}

impl ExecutorTable {
    /// A table with room for exactly `rows`: a static pool knows its size,
    /// and columns doubled up to 100,000 rows leave a third of their final
    /// size behind as holes.
    fn with_capacity(rows: usize) -> ExecutorTable {
        ExecutorTable {
            machines: Vec::with_capacity(rows),
            allocation: Vec::new(),
            registered_at: Vec::with_capacity(rows),
            busy_us: Vec::with_capacity(rows),
            dead_at: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.machines.len()
    }

    fn push(&mut self, machine: Executor, allocation: Option<AllocationId>) {
        // `allocation` is indexed by executor id, so a pool is either all
        // static or all provisioned; one mixed row would misattribute every
        // allocation after it.
        let rows = if allocation.is_some() { self.len() } else { 0 };
        assert_eq!(
            self.allocation.len(),
            rows,
            "a static and a provisioned executor in one table"
        );
        self.machines.push(machine);
        self.allocation.extend(allocation);
        self.registered_at.push(None);
        self.busy_us.push(0);
        self.dead_at.push(None);
    }

    fn alive(&self, e: u32) -> bool {
        self.dead_at[e as usize].is_none()
    }

    /// Mark executor `e` dead at `now`; false if it already was.
    fn kill(&mut self, e: u32, now: Micros) -> bool {
        let alive = self.alive(e);
        if alive {
            self.dead_at[e as usize] = Some(now);
        }
        alive
    }
}

/// Bookkeeping for one first-level allocation, keyed by [`AllocationId`] in
/// a dense table. The LRM job id is always `JobId(allocation.0)` (asserted
/// where the job is created), so no job→allocation map is needed.
struct AllocInfo {
    /// Executor indices started under this allocation.
    executors: Vec<u32>,
    /// Executors to start once the LRM grants the job.
    pending: u32,
}

/// One dispatcher host: the node, its serial CPU (messages queue behind
/// `free_at`) and its armed deadline.
struct Host {
    node: DispatcherNode<End, Recorder>,
    free_at: Micros,
    deadline_armed: Option<Micros>,
    gc_counter: u64,
}

/// The simulated deployment. Drive with [`SimFalkon::submit`] +
/// [`SimFalkon::run_until_drained`] (or its fold,
/// [`SimFalkon::run_until_drained_with`]), or incrementally with the fold
/// `SimFalkon::advance_to` (used by the workflow providers). Either way
/// each task record is handed out as the task completes; the deployment
/// keeps running totals, not history.
pub struct SimFalkon {
    config: SimFalkonConfig,
    queue: EventQueue<Ev>,
    now: Micros,
    rng: SimRng,
    /// The dispatchers, indexed as the forwarder's slots.
    hosts: Vec<Host>,
    forwarder: Option<ForwarderNode<End, Recorder>>,
    /// The workload's client.
    client: Client,
    executors: ExecutorTable,
    /// Scratch buffer for executor actions, reused across events so the
    /// steady-state loop performs no per-event allocation. Taken with
    /// `mem::take` while in use (handlers are not re-entrant; if one ever
    /// recurses it degrades to a fresh allocation, never to aliasing).
    exec_out: Vec<ExecutorAction>,
    /// The provisioner and the LRM its allocations come from.
    provisioned: Option<(Provisioner, BatchScheduler)>,
    lrm_wake_armed: Option<Micros>,
    fs: ClusterFs,
    /// Records completed by the event being handled; the loop that ran the
    /// event hands them on before the next one.
    done: Vec<TaskRecord>,
    submitted: u64,
    gc_pauses: u64,
    // allocation bookkeeping
    allocs: DenseMap<AllocationId, AllocInfo>,
    /// Tasks completed, and the running totals [`SimOutcome`] reports over
    /// them, accumulated in completion order.
    completed: u64,
    last_completion_us: Option<Micros>,
    queue_us_sum: f64,
    exec_us_sum: f64,
    /// Per-node sets of cached data objects (data-caching extension).
    node_caches: Vec<std::collections::HashSet<u64>>,
    // metrics
    queue_series: TimeSeries,
    busy_series: TimeSeries,
    registered_series: TimeSeries,
    allocated_series: TimeSeries,
    starting_executors: u32,
}

impl SimFalkon {
    /// Build a deployment. A static pool starts (and registers) its
    /// executors immediately; a provisioned deployment starts empty and
    /// begins polling. Panics on a forwarder over no dispatcher, or with a
    /// provisioner (which polls, samples and collects one dispatcher).
    pub fn new(config: SimFalkonConfig) -> SimFalkon {
        crate::trace::begin_run();
        assert!(
            config.forwarder.is_none() || config.provisioner.is_none(),
            "a provisioner serves one dispatcher, not a forwarder's"
        );
        let rng = SimRng::seed_from_u64(config.seed);
        let dispatchers = config.forwarder.unwrap_or(1);
        let pool = config.executors * dispatchers as u32;
        let static_pool = match config.provisioner {
            None => pool as usize,
            Some(_) => 0,
        };
        let host = || Host {
            node: DispatcherNode::new(config.dispatcher, Recorder::new()),
            free_at: 0,
            deadline_armed: None,
            gc_counter: 0,
        };
        let mut sim = SimFalkon {
            hosts: (0..dispatchers).map(|_| host()).collect(),
            forwarder: config
                .forwarder
                .map(|k| ForwarderNode::new(k, Recorder::new())),
            client: Client::new(BundleConfig::of(config.bundle_size.max(1))),
            executors: ExecutorTable::with_capacity(static_pool),
            exec_out: Vec::new(),
            provisioned: config
                .provisioner
                .map(|(p, l, n)| (Provisioner::new(p), BatchScheduler::new(l, n))),
            lrm_wake_armed: None,
            fs: {
                // Provisioned deployments start with `executors == 0`; size
                // the filesystem for the provisioner's upper bound instead.
                let pool = config
                    .provisioner
                    .map(|(p, _, _)| p.max_executors)
                    .unwrap_or(pool)
                    .max(pool);
                ClusterFs::new((pool / config.executors_per_node).max(1))
            },
            done: Vec::new(),
            submitted: 0,
            gc_pauses: 0,
            allocs: DenseMap::new(),
            completed: 0,
            last_completion_us: None,
            // `-0.0` is what `Iterator::sum` starts from: a run with no
            // completions reads the same as a sum over no records.
            queue_us_sum: -0.0,
            exec_us_sum: -0.0,
            node_caches: Vec::new(),
            queue_series: TimeSeries::new(),
            busy_series: TimeSeries::new(),
            registered_series: TimeSeries::new(),
            allocated_series: TimeSeries::new(),
            starting_executors: 0,
            queue: EventQueue::new(),
            now: 0,
            rng,
            config,
        };
        // Every client creates its instance at t=0, uncosted (module
        // docs): each slot's link, then the workload's.
        let links = sim.config.forwarder.unwrap_or(0);
        for d in 0..links {
            sim.forward(|fwd, now| fwd.admit(now, d, End::Link(d as u32)));
        }
        sim.client_step(|c, out| c.on_event(0, ClientEvent::Start, out));
        if let Some((p, _)) = &sim.provisioned {
            let poll = p.poll_interval_us();
            sim.schedule(poll, Ev::ProvisionerPoll);
        } else {
            // Static pool: all executors start here, at t=0, in index order
            // (registration costs still apply through the dispatcher CPU
            // model).
            for e in 0..pool {
                sim.spawn_executor(e, None);
                sim.executor_event(e, ExecutorEvent::Start);
            }
        }
        if sim.config.sample_interval_us > 0 {
            sim.schedule(sim.config.sample_interval_us, Ev::Sample);
        }
        sim
    }

    /// Queue `ev` for virtual time `at`.
    fn schedule(&mut self, at: Micros, ev: Ev) {
        self.queue.push(SimTime::from_micros(at), ev);
    }

    /// Add executor `index`'s machine. Its host name is empty: the
    /// dispatcher keeps none, and nothing else here reads it.
    fn spawn_executor(&mut self, index: u32, allocation: Option<AllocationId>) {
        debug_assert_eq!(index as usize, self.executors.len());
        self.executors.push(
            Executor::new(
                ExecutorId(index as u64),
                String::new(),
                self.config.executor,
            ),
            allocation,
        );
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> Micros {
        self.now
    }

    /// Number of stop-the-world GC pauses taken.
    pub(crate) fn gc_pauses(&self) -> u64 {
        self.gc_pauses
    }

    /// The dispatchers' monotonic counters, summed.
    pub fn dispatcher_stats(&self) -> DispatcherStats {
        DispatcherStats::from(&self.obs().counters)
    }

    /// The merged observability recorder: the dispatchers' and the
    /// forwarder's event streams (counters and histograms of virtual-time
    /// durations) plus every executor's counter shard. The recorder is
    /// fixed-size, so the copy is bucket counts, not samples.
    pub fn obs(&self) -> Recorder {
        let mut obs = Recorder::new();
        let fwd = self.forwarder.iter().map(|f| f.machine().probe());
        let nodes = self.hosts.iter().map(|h| h.node.machine().probe());
        for probe in nodes.chain(fwd) {
            obs.merge(probe);
        }
        for m in &self.executors.machines {
            obs.merge_counters(&m.counters());
        }
        obs
    }

    /// Submit tasks at time `at` (must be ≥ the current time). Respects the
    /// configured bundle size and client submit rate.
    pub fn submit(&mut self, at: Micros, tasks: Vec<TaskSpec>) {
        self.submit_stream(at, tasks.into_iter());
    }

    /// [`SimFalkon::submit`] for tasks that need not exist yet: the client
    /// draws each bundle from `tasks` when the bundle is due, so a long
    /// paced run holds the bundles in flight, not the whole workload.
    pub fn submit_stream(
        &mut self,
        at: Micros,
        tasks: impl ExactSizeIterator<Item = TaskSpec> + 'static,
    ) {
        assert!(at >= self.now, "submission in the past");
        self.submitted += tasks.len() as u64;
        if tasks.len() > 0 {
            self.schedule(at, Ev::ClientSubmit(Box::new(tasks)));
        }
    }

    /// Earliest pending event, if any.
    pub fn next_wakeup(&self) -> Option<Micros> {
        self.queue.peek_time().map(|t| t.as_micros())
    }

    /// Handle every event at or before `t`, handing each task's record to
    /// `each` as the task completes. Events run whether or not work is
    /// outstanding: a provisioned deployment polls, releases and samples
    /// between workflow stages.
    pub(crate) fn advance_to(&mut self, t: Micros, each: impl FnMut(TaskRecord)) {
        self.run_events(Some(t), each);
        self.now = self.now.max(t);
    }

    /// Tasks permanently failed (replay retries exhausted).
    pub fn failed(&self) -> u64 {
        let failed = |h: &Host| h.node.machine().counters().count(ObsEventKind::TaskFailed);
        self.hosts.iter().map(failed).sum()
    }

    /// [`SimFalkon::run_until_drained_with`], collecting every record it
    /// hands out into [`SimOutcome::records`]: for runs small enough to keep
    /// one `TaskRecord` per task.
    pub fn run_until_drained(&mut self) -> SimOutcome {
        let mut records = Vec::new();
        let mut out = self.run_until_drained_with(|r| records.push(r));
        out.records = records;
        out
    }

    /// Run until every submitted task has completed or permanently failed
    /// (or no events remain), handing `each` task's record over as the task
    /// completes. Returns the outcome with no records in it.
    pub fn run_until_drained_with(&mut self, each: impl FnMut(TaskRecord)) -> SimOutcome {
        self.run_events(None, each);
        self.outcome()
    }

    /// The one event loop: handle events in time order through `until`,
    /// or with `None` until every submitted task has completed or failed,
    /// handing each completed task's record to `each`.
    fn run_events(&mut self, until: Option<Micros>, mut each: impl FnMut(TaskRecord)) {
        let deadline = until.map_or(SimTime::MAX, SimTime::from_micros);
        let mut guard: u64 = 0;
        while until.is_some() || self.completed + self.failed() < self.submitted {
            let Some((at, ev)) = self.queue.pop_at_or_before(deadline) else {
                break;
            };
            self.now = at.as_micros();
            self.handle(ev);
            self.done.drain(..).for_each(&mut each);
            guard += 1;
            assert!(
                guard < 500_000_000,
                "simulation livelock: {} of {} tasks after {} events",
                self.completed,
                self.submitted,
                guard
            );
        }
    }

    /// The outcome at the current instant, without records.
    pub fn outcome(&self) -> SimOutcome {
        let makespan_us = self.last_completion_us.unwrap_or(self.now);
        let n = self.completed.max(1) as f64;
        let used_cpu_us: u64 = self.executors.busy_us.iter().sum();
        let wasted_cpu_us: u64 = self
            .executors
            .registered_at
            .iter()
            .zip(&self.executors.dead_at)
            .zip(&self.executors.busy_us)
            .filter_map(|((reg, dead), &busy)| {
                let reg = (*reg)?;
                let end = dead.unwrap_or(makespan_us.max(reg));
                Some(end.saturating_sub(reg).saturating_sub(busy))
            })
            .sum();
        SimOutcome {
            tasks: self.completed,
            makespan_us,
            throughput: self.completed as f64 / (makespan_us.max(1) as f64 / 1e6),
            records: Vec::new(),
            queue_series: self.queue_series.clone(),
            busy_series: self.busy_series.clone(),
            registered_series: self.registered_series.clone(),
            allocated_series: self.allocated_series.clone(),
            avg_queue_us: self.queue_us_sum / n,
            avg_exec_us: self.exec_us_sum / n,
            used_cpu_us,
            wasted_cpu_us,
            allocations: self.provisioned.as_ref().map_or(0, |(p, _)| {
                p.counters().count(ObsEventKind::AllocationRequested)
            }),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::ClientSubmit(mut rest) => {
                let tasks: Vec<TaskSpec> =
                    rest.by_ref().take(self.config.bundle_size.max(1)).collect();
                if rest.len() > 0 {
                    // Unpaced bundles go 1 µs apart, which keeps them FIFO.
                    let gap = self
                        .config
                        .client_submit_rate
                        .map_or(1, |rate| (tasks.len() as f64 / rate * 1e6) as Micros);
                    self.schedule(self.now + gap.max(1), Ev::ClientSubmit(rest));
                }
                let now = self.now;
                self.client_step(|c, out| c.enqueue(now, tasks, out));
            }
            Ev::DispArrive(from, msg) => {
                // Enter the dispatcher's serial CPU queue.
                let done = self.charge_dispatcher_send(self.host_of(self.end(from)));
                self.schedule(done, Ev::DispProcess(from, msg));
            }
            Ev::DispProcess(from, msg) => {
                let from = self.end(from);
                self.dispatch(self.host_of(from), true, |node, now| match msg {
                    Some(msg) => node.heard(now, from, msg),
                    None => node.closed(now, from),
                });
            }
            Ev::DispDeadlineCheck(n) => {
                self.hosts[n as usize].deadline_armed = None;
                self.dispatch(n as usize, true, |node, now| node.on_deadline(now));
            }
            Ev::ExecRecv(e, msg) => self.executor_recv(e, msg),
            Ev::ExecDone(e, result) => {
                // Busy time is credited on completion: an executor killed
                // mid-task (allocation walltime/cancel) did not finish the
                // work, so it must not count as used CPU.
                if self.executors.alive(e) {
                    self.executors.busy_us[e as usize] += result.executor_time_us;
                }
                let ev = ExecutorEvent::TaskCompleted { result };
                self.executor_event(e, ev);
            }
            Ev::ExecStart(e) => {
                self.starting_executors = self.starting_executors.saturating_sub(1);
                self.executor_event(e, ExecutorEvent::Start);
            }
            Ev::ExecIdleCheck(e) => {
                // Only fire if the deadline genuinely passed (the machine
                // re-checks internally too).
                if self.executors.alive(e) {
                    self.executor_event(e, ExecutorEvent::IdleTimeout);
                }
            }
            Ev::ProvisionerPoll => {
                // {POLL}: provisioner reads dispatcher state; answering the
                // poll costs dispatcher CPU like any other message.
                self.charge_dispatcher_send(0);
                if let Some((p, _)) = &self.provisioned {
                    let next = self.now + p.poll_interval_us();
                    self.schedule(next, Ev::ProvisionerPoll);
                }
                let status = self.hosts[0].node.machine().status();
                let lrm_available = self.provisioned.as_ref().map(|(_, l)| l.free_nodes());
                self.provision(ProvisionerEvent::Status {
                    status,
                    lrm_available,
                });
            }
            Ev::LrmSubmit(spec) => self.lrm(LrmInput::Submit(spec)),
            Ev::LrmWake => {
                self.lrm_wake_armed = None;
                self.lrm(LrmInput::Tick);
            }
            Ev::Sample => {
                let (mut queued, mut busy, mut registered) = (0, 0, 0);
                for st in self.hosts.iter().map(|h| h.node.machine().status()) {
                    queued += st.queued_tasks;
                    busy += st.busy_executors;
                    registered += st.registered_executors;
                }
                let t = SimTime::from_micros(self.now);
                self.queue_series.push(t, queued as f64);
                self.busy_series.push(t, busy as f64);
                self.registered_series.push(t, registered as f64);
                self.allocated_series
                    .push(t, self.starting_executors as f64);
                // Keep sampling while anything remains outstanding.
                if self.completed < self.submitted || registered > 0 {
                    let next = self.now + self.config.sample_interval_us;
                    self.schedule(next, Ev::Sample);
                }
            }
        }
    }

    /// The endpoint [`SimFalkon::travel`] coded as `code`.
    fn end(&self, code: u32) -> End {
        let links = self.forwarder.as_ref().map_or(0, |_| self.hosts.len());
        match u32::MAX - code {
            0 => End::Client,
            d if (d as usize) <= links => End::Link(d - 1),
            _ => End::Exec(code),
        }
    }

    /// The dispatcher node endpoint `at` talks to (always 0 with one
    /// node, whose pool may be provisioned past `executors`).
    fn host_of(&self, at: End) -> usize {
        match at {
            End::Client => 0,
            End::Link(d) => d as usize,
            End::Exec(e) => (e / self.config.executors.max(1)) as usize % self.hosts.len(),
        }
    }

    /// What endpoint `from` says (`None`: it closed) reaches its dispatcher
    /// node after network latency. In the event, executor `e` is `e`, and
    /// the client and slot `d`'s link count down from `u32::MAX`.
    fn travel(&mut self, from: End, msg: Option<Message>) {
        let code = match from {
            End::Client => u32::MAX,
            End::Link(d) => u32::MAX - 1 - d,
            End::Exec(e) => e,
        };
        let at = self.now + self.config.costs.network_latency_us;
        self.schedule(at, Ev::DispArrive(code, msg));
    }

    /// A client's message to its dispatcher node: a `Submit` travels; the
    /// rest is heard at once, uncosted (module docs).
    fn send_up(&mut self, from: End, msg: Message) {
        if matches!(msg, Message::Submit { .. }) {
            return self.travel(from, Some(msg));
        }
        let heard = |node: &mut DispatcherNode<End, Recorder>, now| node.heard(now, from, msg);
        self.dispatch(self.host_of(from), false, heard);
    }

    /// Node `n` takes one input; then its completions (whose GC pauses
    /// delay the sends), and its sends, each charged when `costed`.
    fn dispatch(
        &mut self,
        n: usize,
        costed: bool,
        input: impl FnOnce(&mut DispatcherNode<End, Recorder>, Micros),
    ) {
        input(&mut self.hosts[n].node, self.now);
        let mut records = std::mem::take(&mut self.hosts[n].node.records);
        for record in records.drain(..) {
            crate::trace::record(&record);
            self.completed += 1;
            self.last_completion_us = self.last_completion_us.max(Some(record.completed_us));
            self.queue_us_sum += record.queue_time_us() as f64;
            self.exec_us_sum += record.exec_time_us() as f64;
            self.done.push(record);
            self.maybe_gc(n);
        }
        self.hosts[n].node.records = records;
        let latency = self.config.costs.network_latency_us;
        let mut out = std::mem::take(&mut self.hosts[n].node.outbox);
        for (to, msg) in out.drain(..) {
            let sent = match costed {
                true => self.charge_dispatcher_send(n),
                false => self.now,
            };
            match to {
                End::Exec(e) => self.schedule(sent + latency, Ev::ExecRecv(e, msg)),
                End::Client => self.client_recv(msg),
                End::Link(_) => self.forward(|fwd, now| fwd.heard(now, to, msg)),
            }
        }
        self.hosts[n].node.outbox = out;
        if costed {
            self.arm_deadline(n);
        }
    }

    /// The forwarder takes one input, free, and what it says goes on: to
    /// the workload's client, or down a slot's link.
    fn forward(&mut self, input: impl FnOnce(&mut ForwarderNode<End, Recorder>, Micros)) {
        let fwd = self.forwarder.as_mut().expect("a link is a forwarder's");
        input(fwd, self.now);
        for (to, msg) in std::mem::take(&mut fwd.outbox) {
            match to {
                End::Client => self.client_recv(msg),
                _ => self.send_up(to, msg),
            }
        }
    }

    /// The workload's client takes a message from its server.
    fn client_recv(&mut self, msg: Message) {
        if let Some(ev) = mapping::message_to_client_event(msg) {
            let now = self.now;
            self.client_step(|c, out| c.on_event(now, ev, out));
        }
    }

    /// Run the workload's client on one step and send what it sends; the
    /// results pushed to it `{8}`–`{10}` leave the measured path here.
    fn client_step(&mut self, f: impl FnOnce(&mut Client, &mut Vec<ClientAction>)) {
        let mut out = Vec::new();
        f(&mut self.client, &mut out);
        drop(self.client.take_results());
        for act in out {
            match (act, &self.forwarder) {
                (ClientAction::Send(msg), Some(_)) => {
                    self.forward(|fwd, now| fwd.heard(now, End::Client, msg))
                }
                (ClientAction::Send(msg), None) => self.send_up(End::Client, msg),
                (ClientAction::WorkloadComplete, _) => {}
            }
        }
    }

    fn charge_dispatcher_send(&mut self, n: usize) -> Micros {
        let host = &mut self.hosts[n];
        host.free_at = host.free_at.max(self.now) + self.config.costs.dispatcher_msg_cpu_us;
        host.free_at
    }

    /// Stop-the-world GC model (Figure 8), one collector per dispatcher.
    fn maybe_gc(&mut self, n: usize) {
        let every = self.config.costs.gc_every_done;
        if every == 0 {
            return;
        }
        let host = &mut self.hosts[n];
        host.gc_counter += 1;
        if host.gc_counter >= every {
            host.gc_counter = 0;
            let queued = host.node.machine().status().queued_tasks as f64;
            let pause = (queued * self.config.costs.gc_pause_per_queued_us) as Micros;
            let pause = pause.max(self.config.costs.gc_pause_min_us);
            host.free_at = host.free_at.max(self.now) + pause;
            self.gc_pauses += 1;
        }
    }

    fn arm_deadline(&mut self, n: usize) {
        let host = &mut self.hosts[n];
        if let Some(dl) = host.node.next_deadline() {
            let fire = dl.max(self.now + 1);
            if host.deadline_armed.is_none_or(|armed| fire < armed) {
                host.deadline_armed = Some(fire);
                self.schedule(fire, Ev::DispDeadlineCheck(n as u32));
            }
        }
    }

    fn arm_lrm(&mut self) {
        if let Some(next) = self.provisioned.as_ref().and_then(|(_, l)| l.next_wakeup()) {
            let fire = next.max(self.now);
            if self.lrm_wake_armed.is_none_or(|armed| fire < armed) {
                self.lrm_wake_armed = Some(fire);
                self.schedule(fire, Ev::LrmWake);
            }
        }
    }

    /// Deliver a message to an executor and run its machine.
    fn executor_recv(&mut self, e: u32, msg: Message) {
        if !self.executors.alive(e) {
            return;
        }
        if matches!(msg, Message::RegisterAck { .. }) {
            self.executors.registered_at[e as usize].get_or_insert(self.now);
        }
        let Some(ev) = falkon_core::mapping::message_to_executor_event(msg) else {
            return;
        };
        self.executor_event(e, ev);
    }

    fn executor_event(&mut self, e: u32, ev: ExecutorEvent) {
        if !self.executors.alive(e) {
            return;
        }
        let mut out = std::mem::take(&mut self.exec_out);
        self.executors.machines[e as usize].on_event(self.now, ev, &mut out);
        for act in out.drain(..) {
            match act {
                ExecutorAction::Send(msg) => self.travel(End::Exec(e), Some(msg)),
                ExecutorAction::Run(spec) => self.run_task(e, spec),
                ExecutorAction::Shutdown => self.shutdown_executor(e),
            }
        }
        self.exec_out = out;
        // Arm the idle-release timer if the machine is now idle.
        let deadline = self.executors.machines[e as usize].idle_deadline_us();
        if let Some(dl) = deadline {
            self.schedule(dl.max(self.now + 1), Ev::ExecIdleCheck(e));
        }
    }

    /// Model one task execution: staging + payload + jittered overhead.
    fn run_task(&mut self, e: u32, spec: TaskSpec) {
        let node = e / self.config.executors_per_node.max(1);
        let mut duration = spec.runtime_us();
        if let Some(mut data) = spec.data() {
            if self.config.data_caching {
                if self.node_caches.len() <= node as usize {
                    self.node_caches
                        .resize_with(node as usize + 1, Default::default);
                }
                let cache = &mut self.node_caches[node as usize];
                if data.location == falkon_proto::task::DataLocation::SharedFs {
                    if cache.contains(&data.object) {
                        // Cache hit: the object is already on this node's
                        // disk — read locally instead of from GPFS.
                        data.location = falkon_proto::task::DataLocation::LocalDisk;
                    } else {
                        cache.insert(data.object);
                    }
                }
            }
            let io_done = self.fs.stage(self.now, node as usize, data);
            duration += io_done.saturating_sub(self.now);
        }
        let c = self.config.costs;
        let overhead = if c.executor_task_overhead_us == 0 {
            0
        } else if c.executor_overhead_sigma <= 0.0 {
            c.executor_task_overhead_us
        } else {
            self.rng.heavy_tail(
                c.executor_task_overhead_us as f64,
                c.executor_overhead_sigma,
                c.executor_overhead_cap_us as f64,
            ) as Micros
        };
        let total = duration + overhead;
        let mut result = TaskResult::success(spec.id);
        result.executor_time_us = total;
        self.schedule(self.now + total, Ev::ExecDone(e, result));
    }

    fn shutdown_executor(&mut self, e: u32) {
        if !self.executors.kill(e, self.now) {
            return;
        }
        // The provisioner releases the allocation when its last executor
        // has gone (the paper's per-resource distributed release).
        if let Some(&alloc) = self.executors.allocation.get(e as usize) {
            self.provision(ProvisionerEvent::ExecutorTerminated { allocation: alloc });
        }
    }

    /// Feed the provisioner one event and carry out its actions.
    fn provision(&mut self, ev: ProvisionerEvent) {
        let mut out = Vec::new();
        if let Some((p, _)) = self.provisioned.as_mut() {
            p.on_event(self.now, ev, &mut out);
        }
        for act in out {
            self.provisioner_action(act);
        }
    }

    /// Feed the LRM one input and carry out the job changes it reports.
    fn lrm(&mut self, input: LrmInput) {
        let mut out = Vec::new();
        if let Some((_, lrm)) = self.provisioned.as_mut() {
            lrm.handle(self.now, input, &mut out);
        }
        self.lrm_outputs(out);
        self.arm_lrm();
    }

    fn provisioner_action(&mut self, act: ProvisionerAction) {
        match act {
            ProvisionerAction::RequestAllocation {
                allocation,
                executors,
                duration_us,
            } => {
                // Allocation and LRM job share one id space (the provisioner
                // assigns allocation ids sequentially, and this is the only
                // place jobs are created), so the job↔allocation "maps" are
                // the identity.
                // Nodes requested = executors / executors_per_node.
                let nodes = executors.div_ceil(self.config.executors_per_node.max(1));
                let spec = JobSpec::service(allocation.0, nodes, duration_us);
                // The request reaches the LRM only after the GRAM-like
                // handling overhead; delivering it as a timed event keeps
                // the scheduler's clock causal.
                let submit_at = self.now + ALLOC_REQUEST_OVERHEAD_US;
                self.schedule(submit_at, Ev::LrmSubmit(spec));
                self.allocs.insert(
                    allocation,
                    AllocInfo {
                        executors: Vec::new(),
                        // Remember how many executors to start on grant.
                        pending: executors,
                    },
                );
            }
            ProvisionerAction::ReleaseAllocation { allocation } => {
                if self.allocs.contains_key(allocation) {
                    self.lrm(LrmInput::Cancel(JobId(allocation.0)));
                }
            }
        }
    }

    fn lrm_outputs(&mut self, outs: Vec<LrmOutput>) {
        for LrmOutput::State { job, state } in outs {
            // Inverse of `JobId(allocation.0)` at submission.
            let alloc = AllocationId(job.0);
            let Some(info) = self.allocs.get_mut(alloc) else {
                continue;
            };
            match state {
                JobState::Active => {
                    let count = std::mem::take(&mut info.pending);
                    let first = self.executors.len() as u32;
                    info.executors.extend(first..first + count);
                    self.provision(ProvisionerEvent::AllocationGranted {
                        allocation: alloc,
                        executors: count,
                    });
                    // Start the executors after JVM startup.
                    for idx in first..first + count {
                        self.spawn_executor(idx, Some(alloc));
                        self.starting_executors += 1;
                        let start = self.now + self.config.costs.executor_startup_us;
                        self.schedule(start, Ev::ExecStart(idx));
                    }
                }
                JobState::Done(_) => {
                    // Kill any executors still alive under this allocation.
                    let victims = std::mem::take(&mut info.executors);
                    self.allocs.remove(alloc);
                    for v in victims {
                        if self.executors.kill(v, self.now) {
                            self.travel(End::Exec(v), None);
                        }
                    }
                    self.provision(ProvisionerEvent::AllocationEnded { allocation: alloc });
                }
                JobState::Queued => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;
    use falkon_core::policy::{AcquisitionPolicy, ReleasePolicy};

    fn sleep_tasks(n: u64, secs: u64) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec::sleep(i, secs)).collect()
    }

    #[test]
    fn static_pool_completes_workload() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 8,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(100, 0));
        let out = sim.run_until_drained();
        assert_eq!(out.tasks, 100);
        assert!(out.makespan_us > 0);
    }

    #[test]
    fn throughput_matches_dispatch_bound() {
        // Plenty of executors, sleep-0 tasks: the dispatcher CPU is the
        // bottleneck, so throughput should approach ≈487/s.
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 128,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(5_000, 0));
        let out = sim.run_until_drained();
        assert!(
            (400.0..520.0).contains(&out.throughput),
            "throughput = {:.0}",
            out.throughput
        );
    }

    #[test]
    fn single_executor_bound() {
        // One executor without security ≈28 tasks/s.
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 1,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(300, 0));
        let out = sim.run_until_drained();
        assert!(
            (20.0..32.0).contains(&out.throughput),
            "throughput = {:.0}",
            out.throughput
        );
    }

    #[test]
    fn secure_mode_halves_throughput() {
        let mut open = SimFalkon::new(SimFalkonConfig {
            executors: 128,
            ..SimFalkonConfig::default()
        });
        open.submit(0, sleep_tasks(3_000, 0));
        let t_open = open.run_until_drained().throughput;

        let mut sec = SimFalkon::new(SimFalkonConfig {
            executors: 128,
            costs: CostModel::secure(),
            ..SimFalkonConfig::default()
        });
        sec.submit(0, sleep_tasks(3_000, 0));
        let t_sec = sec.run_until_drained().throughput;
        let ratio = t_open / t_sec;
        assert!((1.9..3.0).contains(&ratio), "ratio = {ratio:.2}");
    }

    #[test]
    fn long_tasks_scale_linearly_with_executors() {
        // 60 s tasks on 32 executors: 64 tasks → 2 waves ≈ 120 s.
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 32,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(64, 60));
        let out = sim.run_until_drained();
        let s = out.makespan_us as f64 / 1e6;
        assert!((120.0..130.0).contains(&s), "makespan = {s:.1}");
    }

    #[test]
    fn provisioned_run_acquires_and_releases() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            provisioner: Some((
                ProvisionerPolicy {
                    min_executors: 0,
                    max_executors: 8,
                    acquisition: AcquisitionPolicy::AllAtOnce,
                    release: ReleasePolicy::DistributedIdle,
                    allocation_duration_us: 3_600_000_000,
                    poll_interval_us: 1_000_000,
                },
                falkon_lrm::profile::PBS_V2_1_8,
                8,
            )),
            executor: ExecutorConfig {
                idle_release_us: Some(15_000_000),
                prefetch: false,
            },
            executors_per_node: 1,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(16, 10));
        let out = sim.run_until_drained();
        assert_eq!(out.tasks, 16);
        assert!(out.allocations >= 1);
        // Queue time must include the PBS poll wait (≥ ~60 s first poll).
        assert!(
            out.avg_queue_us > 30_000_000.0,
            "avg queue = {:.1}s",
            out.avg_queue_us / 1e6
        );
    }

    #[test]
    fn gc_model_inserts_pauses() {
        let run = |costs| {
            let mut sim = SimFalkon::new(SimFalkonConfig {
                executors: 64,
                costs,
                client_submit_rate: Some(2_000.0),
                ..SimFalkonConfig::default()
            });
            sim.submit(0, sleep_tasks(20_000, 0));
            let out = sim.run_until_drained();
            assert_eq!(out.tasks, 20_000);
            (out.throughput, sim.gc_pauses())
        };
        let (with_gc, pauses) = run(CostModel::endurance(Scale::Full));
        assert!(pauses > 0, "expected GC pauses");
        let (without, none) = run(CostModel::no_security());
        assert_eq!(none, 0);
        assert!(
            with_gc < without,
            "GC must reduce throughput: {with_gc} >= {without}"
        );
    }

    #[test]
    fn declared_data_is_staged_under_the_default_config() {
        use falkon_proto::task::{DataAccess, DataLocation};
        let makespan = |task: TaskSpec| {
            let mut sim = SimFalkon::new(SimFalkonConfig::default());
            sim.submit(0, vec![task]);
            sim.run_until_drained().makespan_us
        };
        let bare = makespan(TaskSpec::sleep(0, 0));
        let gib =
            TaskSpec::sleep(0, 0).with_data(1 << 30, DataLocation::SharedFs, DataAccess::Read);
        let staged = makespan(gib);
        // 1 GiB on one of GPFS's 8 I/O nodes (≈48 MB/s each) takes ≈22 s.
        assert!(
            staged > bare + 20_000_000,
            "staged {staged} µs, bare {bare} µs"
        );
    }

    #[test]
    fn streamed_client_makes_each_bundle_when_it_is_due() {
        use std::cell::Cell;
        use std::rc::Rc;
        // 100 tasks/s in bundles of 10: one bundle every 100 ms.
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 4,
            bundle_size: 10,
            client_submit_rate: Some(100.0),
            ..SimFalkonConfig::default()
        });
        let made = Rc::new(Cell::new(0usize));
        let counter = Rc::clone(&made);
        sim.submit_stream(
            0,
            (0..100usize).map(move |i| {
                counter.set(counter.get() + 1);
                TaskSpec::sleep(i as u64, 0)
            }),
        );
        assert_eq!(sim.submitted, 100, "the total is known up front");
        assert_eq!(
            made.get(),
            0,
            "nothing exists before the first bundle is due"
        );
        sim.advance_to(250_000, drop);
        assert_eq!(made.get(), 30, "bundles due at 0, 100 and 200 ms");
        let out = sim.run_until_drained();
        assert_eq!((made.get(), out.tasks), (100, 100));
    }

    impl SimFalkon {
        /// The client's instance.
        fn instance(&self) -> falkon_proto::message::InstanceId {
            self.client.instance().expect("created in new")
        }

        /// Results some node keeps for lack of an acknowledgement: what
        /// each sends an endpoint that instance 1 (every node's one
        /// instance here) moves to.
        fn kept(&mut self) -> usize {
            let (now, to) = (self.now, End::Exec(u32::MAX));
            let fetch = || Message::GetResults {
                instance: falkon_proto::message::InstanceId(1),
            };
            let count = |outbox: &mut Vec<(End, Message)>| {
                let results = outbox.drain(..).map(|(_, m)| match m {
                    Message::Results { results } => results.len(),
                    _ => 0,
                });
                results.sum::<usize>()
            };
            let mut kept = 0;
            if let Some(f) = &mut self.forwarder {
                f.heard(now, to, fetch());
                kept += count(&mut f.outbox);
            }
            for h in &mut self.hosts {
                h.node.heard(now, to, fetch());
                kept += count(&mut h.node.outbox);
            }
            kept
        }
    }

    #[test]
    fn paced_run_leaves_no_results_with_the_client() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 8,
            bundle_size: 50,
            client_submit_rate: Some(400.0),
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(1_000, 0));
        assert_eq!(sim.run_until_drained().tasks, 1_000);
        let client = &sim.client;
        assert_eq!(client.outstanding(), 0, "every result reached it");
        assert!(client.completions().is_empty(), "and it kept none");
    }

    #[test]
    fn client_is_pushed_every_result() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 8,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(500, 0));
        assert_eq!(sim.run_until_drained().tasks, 500);
        // Nothing is left waiting for a client that already has it.
        let instance = sim.instance();
        let node = &mut sim.hosts[0].node;
        node.heard(sim.now, End::Client, Message::GetResults { instance });
        assert!(matches!(
            &node.outbox[..],
            [(End::Client, Message::Results { results })] if results.is_empty()
        ));
    }

    #[test]
    fn every_result_is_acknowledged_to_the_node_that_kept_it() {
        for forwarder in [None, Some(3)] {
            let mut sim = SimFalkon::new(SimFalkonConfig {
                executors: 4,
                forwarder,
                bundle_size: 50,
                client_submit_rate: Some(400.0),
                ..SimFalkonConfig::default()
            });
            sim.submit(0, sleep_tasks(600, 0));
            assert_eq!(sim.run_until_drained().tasks, 600);
            assert_eq!(sim.instance().0, 1);
            assert_eq!(sim.kept(), 0, "{forwarder:?}");
        }
    }

    #[test]
    fn forwarder_spreads_every_task_over_its_dispatchers_once() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 4,
            forwarder: Some(3),
            bundle_size: 50,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(600, 0));
        let out = sim.run_until_drained();
        assert_eq!(out.tasks, 600);
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.result.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<_>>(), "each task exactly once");
        // Executor `e` serves dispatcher `e / 4`: all three did work.
        let mut served: Vec<u64> = out.records.iter().map(|r| r.executor.0 / 4).collect();
        served.sort_unstable();
        served.dedup();
        assert_eq!(served, [0, 1, 2]);
        assert_eq!(sim.dispatcher_stats().completed, 600);
        let obs = sim.obs().counters;
        assert_eq!(obs.value(falkon_obs::ObsEventKind::ResultsRouted), 600);
    }

    #[test]
    #[should_panic(expected = "at least one dispatcher")]
    fn forwarder_over_no_dispatcher_is_rejected() {
        SimFalkon::new(SimFalkonConfig {
            forwarder: Some(0),
            ..SimFalkonConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "a provisioner serves one dispatcher")]
    fn forwarder_with_a_provisioner_is_rejected() {
        SimFalkon::new(SimFalkonConfig {
            forwarder: Some(2),
            provisioner: Some((
                ProvisionerPolicy {
                    min_executors: 0,
                    max_executors: 8,
                    acquisition: AcquisitionPolicy::AllAtOnce,
                    release: ReleasePolicy::DistributedIdle,
                    allocation_duration_us: 3_600_000_000,
                    poll_interval_us: 1_000_000,
                },
                falkon_lrm::profile::PBS_V2_1_8,
                8,
            )),
            ..SimFalkonConfig::default()
        });
    }

    #[test]
    fn incremental_driving_for_providers() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 4,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(4, 1));
        let mut done = Vec::new();
        while done.len() < 4 {
            let t = sim.next_wakeup().expect("work outstanding");
            sim.advance_to(t, |r| done.push(r.result.id));
        }
        assert_eq!(done.len(), 4);
        // Second wave reuses the live pool.
        let now = sim.now();
        sim.submit(now, (10..14).map(|i| TaskSpec::sleep(i, 0)).collect());
        while done.len() < 8 {
            let t = sim.next_wakeup().expect("work outstanding");
            sim.advance_to(t, |r| done.push(r.result.id));
        }
        done.sort_unstable();
        let ids = [0, 1, 2, 3, 10, 11, 12, 13];
        assert_eq!(done, ids.map(falkon_proto::task::TaskId));
    }
}
