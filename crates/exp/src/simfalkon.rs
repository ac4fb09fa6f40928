//! A complete simulated Falkon deployment in virtual time.
//!
//! The *same* `falkon-core` state machines used by the real runtime are
//! mounted into a discrete-event loop together with the calibrated
//! [`CostModel`], the `falkon-lrm` batch scheduler (when provisioning), and
//! the `falkon-fs` staging model (when tasks declare data). This is what
//! reproduces the paper's at-scale experiments: 54,000 executors, 2,000,000
//! tasks, and the Table 3/4 provisioning study.
//!
//! Cost accounting:
//! * The dispatcher is a serial resource: every inbound and outbound
//!   message occupies it for `dispatcher_msg_cpu_us`; messages queue behind
//!   `disp_free_at`. Optional stop-the-world GC pauses (Figure 8) push
//!   `disp_free_at` further.
//! * Executors charge `executor_task_overhead_us` (with log-normal jitter)
//!   per task on top of the payload runtime and any staging I/O.
//! * Every hop pays `network_latency_us`.

use crate::costs::CostModel;
use crate::Micros;
use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent, TaskRecord};
use falkon_core::executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent};
use falkon_core::ids::AllocationId;
use falkon_core::policy::ProvisionerPolicy;
use falkon_core::provisioner::{Provisioner, ProvisionerAction, ProvisionerEvent};
use falkon_core::DenseMap;
use falkon_core::DispatcherConfig;
use falkon_fs::{ClusterFs, FsConfig};
use falkon_lrm::job::{JobId, JobSpec, JobState};
use falkon_lrm::profile::LrmProfile;
use falkon_lrm::scheduler::{BatchScheduler, LrmInput, LrmOutput};
use falkon_obs::Recorder;
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::{TaskId, TaskResult, TaskSpec};
use falkon_sim::{EventQueue, SimRng, TimeSeries};

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
    /// Static executor pool size (ignored when a provisioner is set).
    pub executors: u32,
    /// Executors per physical node (paper: 2 for dual-CPU nodes; 900 for
    /// the 54K-executor emulation).
    pub executors_per_node: u32,
    /// Dynamic provisioning policy; `None` = static pool started at t=0.
    pub provisioner: Option<ProvisionerPolicy>,
    /// LRM profile + node count backing the provisioner.
    pub lrm: Option<(LrmProfile, u32)>,
    /// Extra latency for each allocation request reaching the LRM (GRAM4
    /// handling, ≈2 s in the paper).
    pub alloc_request_overhead_us: Micros,
    /// Filesystem model for tasks that declare data staging.
    pub fs: Option<FsConfig>,
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
            executors_per_node: 2,
            provisioner: None,
            lrm: None,
            alloc_request_overhead_us: 2_000_000,
            fs: None,
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
    pub allocated_series: TimeSeries,
    /// Mean queue time per task, µs.
    pub avg_queue_us: f64,
    /// Mean (dispatch→completion) time per task, µs.
    pub avg_exec_us: f64,
    /// CPU-seconds of payload actually executed.
    pub used_cpu_us: u64,
    /// Executor-seconds that were registered but idle.
    pub wasted_cpu_us: u64,
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

enum Ev {
    /// A message arrives at the dispatcher host (enter the CPU queue).
    DispArrive(DispatcherEvent),
    /// The dispatcher finishes processing an event.
    DispProcess(DispatcherEvent),
    /// Deadline timer at the dispatcher.
    DispDeadlineCheck,
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
    /// The sans-io executor machines (cold relative to the flags below:
    /// touched only when a machine actually runs an event).
    machines: Vec<Executor>,
    /// First-level allocation backing each executor (`None` = static pool).
    allocation: Vec<Option<AllocationId>>,
    /// Liveness flag, checked on every delivery.
    alive: Vec<bool>,
    /// Registration time, for wasted-CPU accounting.
    registered_at: Vec<Option<Micros>>,
    /// Payload µs actually executed (credited on completion).
    busy_us: Vec<u64>,
    /// Death time (walltime kill or idle self-release).
    dead_at: Vec<Option<Micros>>,
}

impl ExecutorTable {
    /// A table with room for exactly `rows`: a static pool knows its size,
    /// and six columns doubled up to 100,000 rows leave a third of their
    /// final size behind as holes.
    fn with_capacity(rows: usize) -> ExecutorTable {
        ExecutorTable {
            machines: Vec::with_capacity(rows),
            allocation: Vec::with_capacity(rows),
            alive: Vec::with_capacity(rows),
            registered_at: Vec::with_capacity(rows),
            busy_us: Vec::with_capacity(rows),
            dead_at: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.machines.len()
    }

    fn push(&mut self, machine: Executor, allocation: Option<AllocationId>) {
        self.machines.push(machine);
        self.allocation.push(allocation);
        self.alive.push(true);
        self.registered_at.push(None);
        self.busy_us.push(0);
        self.dead_at.push(None);
    }
}

/// Bookkeeping for one first-level allocation, keyed by [`AllocationId`] in
/// a dense table. The LRM job id is always `JobId(allocation.0)` (asserted
/// where the job is created), so no job→allocation map is needed.
struct AllocInfo {
    /// Executor indices started under this allocation.
    executors: Vec<u32>,
    /// Executors still alive (last one out cancels the LRM job).
    live: u32,
    /// Executors to start once the LRM grants the job.
    pending: u32,
}

/// The simulated deployment. Drive with [`SimFalkon::submit`] +
/// [`SimFalkon::run_until_drained`] (or its fold,
/// [`SimFalkon::run_until_drained_with`]), or incrementally via
/// [`SimFalkon::advance_to`] / [`SimFalkon::drain_completions`] (used by
/// the workflow providers). Either way each task record is handed out as
/// the task completes; the deployment keeps running totals, not history.
pub struct SimFalkon {
    config: SimFalkonConfig,
    queue: EventQueue<Ev>,
    now: Micros,
    rng: SimRng,
    dispatcher: Dispatcher<Recorder>,
    disp_free_at: Micros,
    deadline_armed: Option<Micros>,
    executors: ExecutorTable,
    /// Scratch buffers for machine actions, reused across events so the
    /// steady-state loop performs no per-event allocation. Taken with
    /// `mem::take` while in use (handlers are not re-entrant; if one ever
    /// recurses it degrades to a fresh allocation, never to aliasing).
    disp_out: Vec<DispatcherAction>,
    exec_out: Vec<ExecutorAction>,
    provisioner: Option<Provisioner>,
    lrm: Option<BatchScheduler>,
    lrm_wake_armed: Option<Micros>,
    fs: Option<ClusterFs>,
    instance: Option<InstanceId>,
    /// Records completed by the event being handled; the loop that ran the
    /// event hands them on before the next one.
    done: Vec<TaskRecord>,
    /// Completions under [`SimFalkon::advance_to`] not yet taken by
    /// [`SimFalkon::drain_completions`].
    pending: Vec<(TaskId, Micros)>,
    submitted: u64,
    failed: u64,
    gc_counter: u64,
    gc_pauses: u64,
    // allocation bookkeeping
    allocs: DenseMap<AllocationId, AllocInfo>,
    allocations_requested: u64,
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
    /// begins polling.
    pub fn new(config: SimFalkonConfig) -> SimFalkon {
        crate::trace::begin_run();
        let rng = SimRng::seed_from_u64(config.seed);
        let static_pool = match config.provisioner {
            None => config.executors as usize,
            Some(_) => 0,
        };
        let mut sim = SimFalkon {
            dispatcher: Dispatcher::with_probe(config.dispatcher, Recorder::new()),
            disp_free_at: 0,
            deadline_armed: None,
            executors: ExecutorTable::with_capacity(static_pool),
            disp_out: Vec::new(),
            exec_out: Vec::new(),
            provisioner: config.provisioner.map(Provisioner::new),
            lrm: config.lrm.map(|(p, nodes)| BatchScheduler::new(p, nodes)),
            lrm_wake_armed: None,
            fs: config.fs.map(|f| {
                // Provisioned deployments start with `executors == 0`; size
                // the filesystem for the provisioner's upper bound instead.
                let pool = config
                    .provisioner
                    .map(|p| p.max_executors)
                    .unwrap_or(config.executors)
                    .max(config.executors);
                ClusterFs::new(f, (pool / config.executors_per_node).max(1))
            }),
            instance: None,
            done: Vec::new(),
            pending: Vec::new(),
            submitted: 0,
            failed: 0,
            gc_counter: 0,
            gc_pauses: 0,
            allocs: DenseMap::new(),
            allocations_requested: 0,
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
        // Create the client instance synchronously (negligible cost).
        let mut out = Vec::new();
        sim.dispatcher
            .on_event(0, DispatcherEvent::CreateInstance, &mut out);
        for act in out {
            if let DispatcherAction::ToClient {
                msg: Message::InstanceCreated { instance },
                ..
            } = act
            {
                sim.instance = Some(instance);
            }
        }
        if let Some(p) = &sim.provisioner {
            let poll = p.poll_interval_us();
            sim.queue
                .push(falkon_sim::SimTime::from_micros(poll), Ev::ProvisionerPoll);
        } else {
            // Static pool: all executors start here, at t=0, in index order
            // (registration costs still apply through the dispatcher CPU
            // model).
            for e in 0..sim.config.executors {
                sim.spawn_executor(e, None);
                sim.executor_event(e, ExecutorEvent::Start);
            }
        }
        if sim.config.sample_interval_us > 0 {
            sim.queue.push(
                falkon_sim::SimTime::from_micros(sim.config.sample_interval_us),
                Ev::Sample,
            );
        }
        sim
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

    /// The client instance id.
    pub fn instance(&self) -> InstanceId {
        self.instance.expect("created in new")
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Number of stop-the-world GC pauses taken.
    pub fn gc_pauses(&self) -> u64 {
        self.gc_pauses
    }

    /// The dispatcher's monotonic counters.
    pub fn dispatcher_stats(&self) -> falkon_core::dispatcher::DispatcherStats {
        self.dispatcher.stats()
    }

    /// The merged observability recorder: the dispatcher's event stream
    /// (counters and histograms of virtual-time durations) plus every
    /// executor's counter shard. The recorder is fixed-size, so the copy
    /// is bucket counts, not samples.
    pub fn obs(&self) -> Recorder {
        let mut obs = self.dispatcher.probe().clone();
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
            self.queue.push(
                falkon_sim::SimTime::from_micros(at),
                Ev::ClientSubmit(Box::new(tasks)),
            );
        }
    }

    /// Earliest pending event, if any.
    pub fn next_wakeup(&self) -> Option<Micros> {
        self.queue.peek_time().map(|t| t.as_micros())
    }

    /// Tasks that completed under [`SimFalkon::advance_to`] since the last
    /// call (for provider use).
    pub fn drain_completions(&mut self) -> Vec<(TaskId, Micros)> {
        std::mem::take(&mut self.pending)
    }

    /// Process all events with time ≤ `t`. What completes is held for
    /// [`SimFalkon::drain_completions`].
    pub fn advance_to(&mut self, t: Micros) {
        let deadline = falkon_sim::SimTime::from_micros(t);
        while let Some((at, ev)) = self.queue.pop_at_or_before(deadline) {
            self.now = at.as_micros();
            self.handle(ev);
            let done = self.done.drain(..);
            self.pending
                .extend(done.map(|r| (r.result.id, r.completed_us)));
        }
        self.now = self.now.max(t);
    }

    /// Tasks permanently failed (replay retries exhausted).
    pub fn failed(&self) -> u64 {
        self.failed
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
    /// completes. Returns the outcome summary with no records in it; the
    /// sampled series are **moved** into it. Use the borrowing
    /// [`SimFalkon::outcome`] for mid-run snapshots.
    pub fn run_until_drained_with(&mut self, mut each: impl FnMut(TaskRecord)) -> SimOutcome {
        let mut guard: u64 = 0;
        while (self.completed + self.failed) < self.submitted {
            let Some((at, ev)) = self.queue.pop() else {
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
        let mut out = self.summary();
        out.queue_series = std::mem::take(&mut self.queue_series);
        out.busy_series = std::mem::take(&mut self.busy_series);
        out.registered_series = std::mem::take(&mut self.registered_series);
        out.allocated_series = std::mem::take(&mut self.allocated_series);
        out
    }

    /// Build the outcome summary at the current instant, cloning the
    /// series (incremental drivers keep the sim alive).
    pub fn outcome(&self) -> SimOutcome {
        let mut out = self.summary();
        out.queue_series = self.queue_series.clone();
        out.busy_series = self.busy_series.clone();
        out.registered_series = self.registered_series.clone();
        out.allocated_series = self.allocated_series.clone();
        out
    }

    /// The scalar aggregates of the outcome (records/series left empty for
    /// the caller to fill by clone or move).
    fn summary(&self) -> SimOutcome {
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
            queue_series: TimeSeries::new(),
            busy_series: TimeSeries::new(),
            registered_series: TimeSeries::new(),
            allocated_series: TimeSeries::new(),
            avg_queue_us: self.queue_us_sum / n,
            avg_exec_us: self.exec_us_sum / n,
            used_cpu_us,
            wasted_cpu_us,
            allocations: self.allocations_requested,
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
                    self.queue.push(
                        falkon_sim::SimTime::from_micros(self.now + gap.max(1)),
                        Ev::ClientSubmit(rest),
                    );
                }
                let instance = self.instance();
                self.send_to_dispatcher(DispatcherEvent::Submit { instance, tasks });
            }
            Ev::DispArrive(ev) => {
                // Enter the dispatcher's serial CPU queue.
                let start = self.disp_free_at.max(self.now);
                let done = start + self.config.costs.dispatcher_msg_cpu_us;
                self.disp_free_at = done;
                self.queue
                    .push(falkon_sim::SimTime::from_micros(done), Ev::DispProcess(ev));
            }
            Ev::DispProcess(ev) => self.dispatch(ev),
            Ev::DispDeadlineCheck => {
                self.deadline_armed = None;
                self.dispatch(DispatcherEvent::CheckDeadlines);
            }
            Ev::ExecRecv(e, msg) => self.executor_recv(e, msg),
            Ev::ExecDone(e, result) => {
                // Busy time is credited on completion: an executor killed
                // mid-task (allocation walltime/cancel) did not finish the
                // work, so it must not count as used CPU.
                if self.executors.alive[e as usize] {
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
                if self.executors.alive[e as usize] {
                    self.executor_event(e, ExecutorEvent::IdleTimeout);
                }
            }
            Ev::ProvisionerPoll => {
                // {POLL}: provisioner reads dispatcher state; answering the
                // poll costs dispatcher CPU like any other message.
                self.charge_dispatcher_send();
                let status = self.dispatcher.status();
                let lrm_available = self.lrm.as_ref().map(|l| l.free_nodes());
                let mut out = Vec::new();
                if let Some(p) = self.provisioner.as_mut() {
                    p.on_event(
                        self.now,
                        ProvisionerEvent::Status {
                            status,
                            lrm_available,
                        },
                        &mut out,
                    );
                    let next = self.now + p.poll_interval_us();
                    self.queue
                        .push(falkon_sim::SimTime::from_micros(next), Ev::ProvisionerPoll);
                }
                for act in out {
                    self.provisioner_action(act);
                }
            }
            Ev::LrmSubmit(spec) => {
                let mut out = Vec::new();
                if let Some(lrm) = self.lrm.as_mut() {
                    lrm.handle(self.now, LrmInput::Submit(spec), &mut out);
                }
                self.lrm_outputs(out);
                self.arm_lrm();
            }
            Ev::LrmWake => {
                self.lrm_wake_armed = None;
                let mut out = Vec::new();
                if let Some(lrm) = self.lrm.as_mut() {
                    lrm.handle(self.now, LrmInput::Tick, &mut out);
                }
                self.lrm_outputs(out);
                self.arm_lrm();
            }
            Ev::Sample => {
                let st = self.dispatcher.status();
                let t = falkon_sim::SimTime::from_micros(self.now);
                self.queue_series.push(t, st.queued_tasks as f64);
                self.busy_series.push(t, st.busy_executors as f64);
                self.registered_series
                    .push(t, st.registered_executors as f64);
                self.allocated_series
                    .push(t, self.starting_executors as f64);
                // Keep sampling while anything remains outstanding.
                if self.completed < self.submitted || st.registered_executors > 0 {
                    let next = self.now + self.config.sample_interval_us;
                    self.queue
                        .push(falkon_sim::SimTime::from_micros(next), Ev::Sample);
                }
            }
        }
    }

    /// Send an event into the dispatcher CPU queue after network latency.
    fn send_to_dispatcher(&mut self, ev: DispatcherEvent) {
        let at = self.now + self.config.costs.network_latency_us;
        self.queue
            .push(falkon_sim::SimTime::from_micros(at), Ev::DispArrive(ev));
    }

    /// Run the dispatcher machine and route its actions.
    fn dispatch(&mut self, ev: DispatcherEvent) {
        let mut out = std::mem::take(&mut self.disp_out);
        self.dispatcher.on_event(self.now, ev, &mut out);
        let mut notified = false;
        for act in out.drain(..) {
            match act {
                DispatcherAction::ToExecutor { executor, msg } => {
                    // Outgoing messages also consume dispatcher CPU.
                    let sent = self.charge_dispatcher_send();
                    let at = sent + self.config.costs.network_latency_us;
                    self.queue.push(
                        falkon_sim::SimTime::from_micros(at),
                        Ev::ExecRecv(executor.0 as u32, msg),
                    );
                }
                DispatcherAction::ToClient { msg, .. } => {
                    // Client-side handling is not on the measured path; the
                    // send still costs dispatcher CPU.
                    self.charge_dispatcher_send();
                    notified |= matches!(msg, Message::ClientNotify { .. });
                }
                DispatcherAction::TaskDone { record, .. } => {
                    crate::trace::record(&record);
                    self.completed += 1;
                    self.last_completion_us =
                        self.last_completion_us.max(Some(record.completed_us));
                    self.queue_us_sum += record.queue_time_us() as f64;
                    self.exec_us_sum += record.exec_time_us() as f64;
                    self.done.push(record);
                    self.maybe_gc();
                }
                DispatcherAction::TaskFailed { .. } => {
                    self.failed += 1;
                }
                DispatcherAction::ToProvisioner { .. } => {}
            }
        }
        if notified {
            // The client picks its results up when told they are ready
            // (messages {9,10}), so the dispatcher holds none it has
            // announced. Uncosted, like every client-side step.
            let instance = self.instance();
            self.dispatcher
                .on_event(self.now, DispatcherEvent::GetResults { instance }, &mut out);
            out.clear();
        }
        self.disp_out = out;
        self.arm_deadline();
    }

    fn charge_dispatcher_send(&mut self) -> Micros {
        let start = self.disp_free_at.max(self.now);
        let done = start + self.config.costs.dispatcher_msg_cpu_us;
        self.disp_free_at = done;
        done
    }

    /// Stop-the-world GC model (Figure 8).
    fn maybe_gc(&mut self) {
        let every = self.config.costs.gc_every_done;
        if every == 0 {
            return;
        }
        self.gc_counter += 1;
        if self.gc_counter >= every {
            self.gc_counter = 0;
            let queued = self.dispatcher.status().queued_tasks as f64;
            let pause = (queued * self.config.costs.gc_pause_per_queued_us) as Micros;
            let pause = pause.max(self.config.costs.gc_pause_min_us);
            self.disp_free_at = self.disp_free_at.max(self.now) + pause;
            self.gc_pauses += 1;
        }
    }

    fn arm_deadline(&mut self) {
        if let Some(dl) = self.dispatcher.next_deadline() {
            let fire = dl.max(self.now + 1);
            if self.deadline_armed.is_none_or(|armed| fire < armed) {
                self.deadline_armed = Some(fire);
                self.queue.push(
                    falkon_sim::SimTime::from_micros(fire),
                    Ev::DispDeadlineCheck,
                );
            }
        }
    }

    fn arm_lrm(&mut self) {
        if let Some(next) = self.lrm.as_ref().and_then(|l| l.next_wakeup()) {
            let fire = next.max(self.now);
            if self.lrm_wake_armed.is_none_or(|armed| fire < armed) {
                self.lrm_wake_armed = Some(fire);
                self.queue
                    .push(falkon_sim::SimTime::from_micros(fire), Ev::LrmWake);
            }
        }
    }

    /// Deliver a message to an executor and run its machine.
    fn executor_recv(&mut self, e: u32, msg: Message) {
        if !self.executors.alive[e as usize] {
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
        if !self.executors.alive[e as usize] {
            return;
        }
        let mut out = std::mem::take(&mut self.exec_out);
        self.executors.machines[e as usize].on_event(self.now, ev, &mut out);
        for act in out.drain(..) {
            match act {
                ExecutorAction::Send(msg) => {
                    let Some(ev) = falkon_core::mapping::executor_message_to_dispatcher_event(msg)
                    else {
                        continue;
                    };
                    self.send_to_dispatcher(ev);
                }
                ExecutorAction::Run(spec) => self.run_task(e, spec),
                ExecutorAction::Shutdown => self.shutdown_executor(e),
            }
        }
        self.exec_out = out;
        // Arm the idle-release timer if the machine is now idle.
        let deadline = self.executors.machines[e as usize].idle_deadline_us();
        if let Some(dl) = deadline {
            self.queue.push(
                falkon_sim::SimTime::from_micros(dl.max(self.now + 1)),
                Ev::ExecIdleCheck(e),
            );
        }
    }

    /// Model one task execution: staging + payload + jittered overhead.
    fn run_task(&mut self, e: u32, spec: TaskSpec) {
        let node = e / self.config.executors_per_node.max(1);
        let mut duration = spec.runtime_us();
        if let (Some(fs), Some(mut data)) = (self.fs.as_mut(), spec.data) {
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
            let io_done = fs.stage(self.now, node as usize, data);
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
        self.queue.push(
            falkon_sim::SimTime::from_micros(self.now + total),
            Ev::ExecDone(e, result),
        );
    }

    fn shutdown_executor(&mut self, e: u32) {
        if !self.executors.alive[e as usize] {
            return;
        }
        self.executors.alive[e as usize] = false;
        self.executors.dead_at[e as usize] = Some(self.now);
        let alloc = self.executors.allocation[e as usize];
        if let Some(alloc) = alloc {
            if let Some(p) = self.provisioner.as_mut() {
                let mut out = Vec::new();
                p.on_event(
                    self.now,
                    ProvisionerEvent::ExecutorTerminated { allocation: alloc },
                    &mut out,
                );
                for act in out {
                    self.provisioner_action(act);
                }
            }
            // When the last executor of an allocation exits, release the
            // LRM job (the paper's per-resource distributed release).
            if let Some(info) = self.allocs.get_mut(alloc) {
                info.live = info.live.saturating_sub(1);
                if info.live == 0 {
                    let job = JobId(alloc.0);
                    let mut out = Vec::new();
                    if let Some(lrm) = self.lrm.as_mut() {
                        lrm.handle(self.now, LrmInput::Cancel(job), &mut out);
                    }
                    self.lrm_outputs(out);
                    self.arm_lrm();
                }
            }
        }
    }

    fn provisioner_action(&mut self, act: ProvisionerAction) {
        match act {
            ProvisionerAction::RequestAllocation {
                allocation,
                executors,
                duration_us,
            } => {
                self.allocations_requested += 1;
                // Allocation and LRM job share one id space (the provisioner
                // assigns allocation ids sequentially, and this is the only
                // place jobs are created), so the job↔allocation "maps" are
                // the identity.
                let job = JobId(allocation.0);
                // Nodes requested = executors / executors_per_node.
                let nodes = executors.div_ceil(self.config.executors_per_node.max(1));
                let spec = JobSpec {
                    id: job,
                    nodes,
                    runtime_us: None,
                    walltime_us: duration_us,
                };
                // The request reaches the LRM only after the GRAM-like
                // handling overhead; delivering it as a timed event keeps
                // the scheduler's clock causal.
                let submit_at = self.now + self.config.alloc_request_overhead_us;
                self.queue.push(
                    falkon_sim::SimTime::from_micros(submit_at),
                    Ev::LrmSubmit(spec),
                );
                self.allocs.insert(
                    allocation,
                    AllocInfo {
                        executors: Vec::new(),
                        live: 0,
                        // Remember how many executors to start on grant.
                        pending: executors,
                    },
                );
            }
            ProvisionerAction::ReleaseAllocation { allocation } => {
                if self.allocs.contains_key(allocation) {
                    let mut out = Vec::new();
                    if let Some(lrm) = self.lrm.as_mut() {
                        lrm.handle(self.now, LrmInput::Cancel(JobId(allocation.0)), &mut out);
                    }
                    self.lrm_outputs(out);
                    self.arm_lrm();
                }
            }
        }
    }

    fn lrm_outputs(&mut self, outs: Vec<LrmOutput>) {
        for LrmOutput::State { job, state } in outs {
            // Inverse of `JobId(allocation.0)` at submission.
            let alloc = AllocationId(job.0);
            if !self.allocs.contains_key(alloc) {
                continue;
            }
            match state {
                JobState::Active => {
                    let count = match self.allocs.get_mut(alloc) {
                        Some(info) => std::mem::take(&mut info.pending),
                        None => 0,
                    };
                    if let Some(p) = self.provisioner.as_mut() {
                        let mut pout = Vec::new();
                        p.on_event(
                            self.now,
                            ProvisionerEvent::AllocationGranted {
                                allocation: alloc,
                                executors: count,
                            },
                            &mut pout,
                        );
                        for act in pout {
                            self.provisioner_action(act);
                        }
                    }
                    // Start the executors after JVM startup.
                    let first = self.executors.len() as u32;
                    for idx in first..first + count {
                        self.spawn_executor(idx, Some(alloc));
                        self.starting_executors += 1;
                        let start = self.now + self.config.costs.executor_startup_us;
                        self.queue
                            .push(falkon_sim::SimTime::from_micros(start), Ev::ExecStart(idx));
                    }
                    if let Some(info) = self.allocs.get_mut(alloc) {
                        info.executors.extend(first..first + count);
                        info.live += count;
                    }
                }
                JobState::Done(_) => {
                    // Kill any executors still alive under this allocation.
                    let victims = self
                        .allocs
                        .remove(alloc)
                        .map(|info| info.executors)
                        .unwrap_or_default();
                    for v in victims {
                        if self.executors.alive[v as usize] {
                            self.executors.alive[v as usize] = false;
                            self.executors.dead_at[v as usize] = Some(self.now);
                            let id = ExecutorId(v as u64);
                            self.send_to_dispatcher(DispatcherEvent::ExecutorLost { executor: id });
                        }
                    }
                    if let Some(p) = self.provisioner.as_mut() {
                        let mut pout = Vec::new();
                        p.on_event(
                            self.now,
                            ProvisionerEvent::AllocationEnded { allocation: alloc },
                            &mut pout,
                        );
                        for act in pout {
                            self.provisioner_action(act);
                        }
                    }
                }
                JobState::Queued => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            provisioner: Some(ProvisionerPolicy {
                min_executors: 0,
                max_executors: 8,
                acquisition: AcquisitionPolicy::AllAtOnce,
                release: ReleasePolicy::DistributedIdle {
                    idle_us: 15_000_000,
                },
                allocation_duration_us: 3_600_000_000,
                poll_interval_us: 1_000_000,
            }),
            executor: ExecutorConfig {
                idle_release_us: Some(15_000_000),
                prefetch: false,
            },
            executors_per_node: 1,
            lrm: Some((falkon_lrm::profile::PBS_V2_1_8, 8)),
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
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 64,
            costs: CostModel::with_gc(),
            client_submit_rate: Some(2_000.0),
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(20_000, 0));
        let out = sim.run_until_drained();
        assert_eq!(out.tasks, 20_000);
        assert!(sim.gc_pauses() > 0, "expected GC pauses");
        let no_gc_bound = CostModel::no_security().dispatch_bound_tps();
        assert!(
            out.throughput < no_gc_bound,
            "GC must reduce throughput: {} >= {}",
            out.throughput,
            no_gc_bound
        );
    }

    #[test]
    fn data_staging_slows_tasks() {
        use falkon_proto::task::{DataAccess, DataLocation};
        let cfg = SimFalkonConfig {
            executors: 128,
            executors_per_node: 2,
            fs: Some(FsConfig::default()),
            ..SimFalkonConfig::default()
        };
        let mut sim = SimFalkon::new(cfg.clone());
        let tasks: Vec<TaskSpec> = (0..200)
            .map(|i| {
                TaskSpec::sleep(i, 0).with_data(
                    1 << 20,
                    DataLocation::SharedFs,
                    DataAccess::ReadWrite,
                )
            })
            .collect();
        sim.submit(0, tasks);
        let with_io = sim.run_until_drained();

        let mut dry = SimFalkon::new(cfg);
        dry.submit(0, sleep_tasks(200, 0));
        let without_io = dry.run_until_drained();
        assert!(with_io.makespan_us > without_io.makespan_us);
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
        assert_eq!(sim.submitted(), 100, "the total is known up front");
        assert_eq!(
            made.get(),
            0,
            "nothing exists before the first bundle is due"
        );
        sim.advance_to(250_000);
        assert_eq!(made.get(), 30, "bundles due at 0, 100 and 200 ms");
        let out = sim.run_until_drained();
        assert_eq!((made.get(), out.tasks), (100, 100));
    }

    #[test]
    fn client_picks_results_up_when_notified() {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 8,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, sleep_tasks(500, 0));
        assert_eq!(sim.run_until_drained().tasks, 500);
        // Nothing is left waiting for a client that already has it.
        let instance = sim.instance();
        let mut out = Vec::new();
        sim.dispatcher
            .on_event(sim.now, DispatcherEvent::GetResults { instance }, &mut out);
        assert!(matches!(
            &out[..],
            [DispatcherAction::ToClient {
                msg: Message::Results { results },
                ..
            }] if results.is_empty()
        ));
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
            let t = sim.next_wakeup().expect("work pending");
            sim.advance_to(t);
            done.extend(sim.drain_completions());
        }
        assert_eq!(done.len(), 4);
        // Second wave reuses the live pool.
        let now = sim.now();
        sim.submit(now, (10..14).map(|i| TaskSpec::sleep(i, 0)).collect());
        while done.len() < 8 {
            let t = sim.next_wakeup().expect("work pending");
            sim.advance_to(t);
            done.extend(sim.drain_completions());
        }
        assert_eq!(done.len(), 8);
    }
}
