//! What the benchmark runs and what it reports: the five workloads, the
//! four end-to-end metrics and the per-layer metric names.
//!
//! Every number here is a constant. Nothing is adapted at run time: a
//! workload's task count depends only on `--seconds`, so two runs of the
//! same command measure the same work.

use falkon_core::DispatcherConfig;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the driver passes,
/// and the default without the flag.
pub const RUN_SECONDS: u64 = 15;

/// Trials per run for the socket workloads. Every end-to-end value is the
/// median over the trials, so one descheduled trial cannot move it.
pub const TRIALS: u32 = 5;

/// Tasks per client submit message (the paper's measured optimum).
pub const BUNDLE: usize = 300;

/// Pre-shared key of the secure workload (any value; both ends share it).
pub const PSK: u64 = 0xFA1C0;

/// How the executors of a socket workload are driven.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// `run_executors_mux`: every executor of one dispatcher multiplexed on
    /// one generator thread; task bodies run inline (sleep-0 only).
    Mux,
    /// `run_executor_probe`: one thread per executor, really sleeping.
    Threads,
}

/// What the tasks of a workload look like.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskKind {
    /// `TaskSpec::sleep(id, 0)`: every string interned, ~20 B on the wire.
    Sleep0,
    /// Sleep-0 with 8 seeded environment pairs of 128 B: ~1 KiB on the
    /// wire, no string internable.
    Fat,
    /// `TaskSpec::sleep_us(id, us)`: the executor really sleeps.
    SleepUs(u64),
}

/// One deployment over real localhost sockets.
#[derive(Clone, Copy, Debug)]
pub struct SocketSpec {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `0` mounts a flat `DispatcherServer`; `n > 0` a `ForwarderServer`
    /// over `n` dispatchers.
    pub forwarder_dispatchers: usize,
    /// Executors connected to each dispatcher.
    pub executors_per_dispatcher: usize,
    /// `.sharded(1)` when true, the builder's default transport otherwise.
    pub sharded: bool,
    /// PSK security on every connection.
    pub secure: bool,
    /// `client_notify_batch` of the dispatcher machine (1 = its default).
    pub client_notify_batch: u64,
    /// How executors are driven.
    pub exec: ExecMode,
    /// Task shape.
    pub tasks: TaskKind,
    /// Tasks measured per second of `--seconds`. A sizing constant taken
    /// from scratch runs at the commit that defined the benchmark (see
    /// README.md), chosen so a trial's window lasts about `seconds / K`.
    pub tasks_per_budget_second: u64,
    /// Tasks per `run_client` call; the window is back-to-back waves.
    pub wave: u64,
    /// Tasks of the discarded warm-up wave.
    pub warmup: u64,
    /// Tasks of the whole window under `--quick`.
    pub quick_window: u64,
}

impl SocketSpec {
    /// Dispatchers executors connect to (1 for a flat deployment).
    pub fn dispatchers(&self) -> usize {
        self.forwarder_dispatchers.max(1)
    }

    /// Executors over all dispatchers.
    pub fn executors(&self) -> usize {
        self.dispatchers() * self.executors_per_dispatcher
    }

    /// The dispatcher machine's configuration.
    pub fn dispatcher_config(&self) -> DispatcherConfig {
        DispatcherConfig {
            client_notify_batch: self.client_notify_batch,
            ..DispatcherConfig::default()
        }
    }

    /// Security setting of every connection.
    pub fn security(&self) -> Option<u64> {
        self.secure.then_some(PSK)
    }

    /// Tasks of the warm-up wave (the quick scale warms up with as little
    /// as it measures).
    pub fn warmup_tasks(&self, quick: bool) -> u64 {
        if quick {
            self.quick_window
        } else {
            self.warmup
        }
    }

    /// Tasks in one trial's measured window: a whole number of waves.
    pub fn window_tasks(&self, seconds: u64, trials: u32, quick: bool) -> u64 {
        if quick {
            return self.quick_window;
        }
        let want = self.tasks_per_budget_second * seconds / u64::from(trials);
        (want / self.wave).max(1) * self.wave
    }
}

/// Fig. 3 regime: message-count-bound peak throughput.
pub const FLAT_SAT: SocketSpec = SocketSpec {
    name: "flat_sat",
    forwarder_dispatchers: 0,
    executors_per_dispatcher: 64,
    sharded: true,
    secure: false,
    client_notify_batch: 1000,
    exec: ExecMode::Mux,
    tasks: TaskKind::Sleep0,
    tasks_per_budget_second: 75_000,
    wave: 30_000,
    warmup: 30_000,
    quick_window: 3_000,
};

/// The security experiment with byte-heavy tasks.
pub const FAT_SECURE: SocketSpec = SocketSpec {
    name: "fat_secure",
    forwarder_dispatchers: 0,
    executors_per_dispatcher: 64,
    // Not sharded: on the sharded transport a secure peer's first frame
    // can be left in the FrameCursor after the handshake (README.md,
    // "Known hang").
    sharded: false,
    secure: true,
    client_notify_batch: 1000,
    exec: ExecMode::Mux,
    tasks: TaskKind::Fat,
    tasks_per_budget_second: 28_000,
    wave: 12_000,
    warmup: 12_000,
    quick_window: 1_200,
};

/// The paper-scale three-tier deployment: 2 dispatchers x 512 executors.
pub const TIER3_1K: SocketSpec = SocketSpec {
    name: "tier3_1k",
    forwarder_dispatchers: 2,
    executors_per_dispatcher: 512,
    sharded: true,
    secure: false,
    client_notify_batch: 1000,
    exec: ExecMode::Mux,
    tasks: TaskKind::Sleep0,
    tasks_per_budget_second: 95_000,
    wave: 30_000,
    warmup: 30_000,
    quick_window: 3_000,
};

/// Fig. 6 regime: 1 ms tasks on 4 really-sleeping executors.
pub const SHORT_TASKS: SocketSpec = SocketSpec {
    name: "short_tasks",
    forwarder_dispatchers: 0,
    executors_per_dispatcher: 4,
    sharded: true,
    secure: false,
    client_notify_batch: 1,
    exec: ExecMode::Threads,
    tasks: TaskKind::SleepUs(1000),
    tasks_per_budget_second: 3_000,
    wave: 3_000,
    warmup: 600,
    quick_window: 300,
};

/// Name of the simulator workload (it has no `SocketSpec`).
pub const REPRO_FULL: &str = "repro_full";

/// The socket workloads, in report order.
pub const SOCKET_WORKLOADS: [SocketSpec; 4] = [FLAT_SAT, FAT_SECURE, TIER3_1K, SHORT_TASKS];

/// Every workload name, in the order of `BENCHMARK.json`. `short_tasks`
/// comes after the socket-free `repro_full`: for 10-15 s after a
/// socket-heavy process ends, this VM charges `short_tasks` twice its CPU
/// per task (README.md), so a driver that goes down the list never runs it
/// straight after one.
pub const WORKLOADS: [&str; 5] = [
    "flat_sat",
    "fat_secure",
    "tier3_1k",
    REPRO_FULL,
    "short_tasks",
];

/// Look a socket workload up by name.
pub fn socket_spec(name: &str) -> Option<SocketSpec> {
    SOCKET_WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// A metric's name, unit and whether a larger value is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the median by which the metric may
    /// worsen before it counts as a regression (0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: 0.0,
    }
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("tasks_per_s", "tasks/s", true, 0.25),
    e2e("cpu_us_per_task", "us", false, 0.25),
    e2e("rss_peak_mib", "MiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// The per-layer metrics every traced run reports. A metric that does not
/// apply to the workload reads 0 (README.md lists which apply where).
pub const PER_LAYER: [MetricDef; 48] = [
    layer("proto.encode_ns_per_task", "ns", false),
    layer("proto.decode_ns_per_task", "ns", false),
    layer("proto.frame_ns_per_task", "ns", false),
    layer("proto.seal_ns_per_task", "ns", false),
    layer("proto.open_ns_per_task", "ns", false),
    layer("proto.wire_bytes_per_task", "bytes", false),
    layer("proto.frames_per_task", "count", false),
    layer("core.dispatcher_ns_per_task", "ns", false),
    layer("core.executor_ns_per_task", "ns", false),
    layer("core.client_ns_per_task", "ns", false),
    layer("core.forwarder_ns_per_task", "ns", false),
    layer("core.piggyback_ratio", "ratio", true),
    layer("core.getwork_per_task", "count", false),
    layer("core.notify_per_task", "count", false),
    layer("core.retries", "count", false),
    layer("core.duplicate_results", "count", false),
    layer("core.queue_wait_p50_us", "us", false),
    layer("core.overhead_p50_us", "us", false),
    layer("core.overhead_p99_us", "us", false),
    layer("obs.record_ns_per_task", "ns", false),
    layer("obs.retained_bytes_per_task", "bytes", false),
    layer("rt.server_cpu_us_per_task", "us", false),
    layer("rt.peer_exec_cpu_us_per_task", "us", false),
    layer("rt.peer_client_cpu_us_per_task", "us", false),
    layer("rt.server_wakes_per_task", "count", false),
    layer("rt.peer_wakes_per_task", "count", false),
    layer("rt.allocs_per_task", "count", false),
    layer("rt.alloc_bytes_per_task", "bytes", false),
    layer("rt.inproc_us_per_task", "us", false),
    layer("rt.poll_wait_ns", "ns", false),
    layer("rt.unattributed_us_per_task", "us", false),
    layer("rt.setup_server_start_ms", "ms", false),
    layer("rt.setup_connect_ms", "ms", false),
    layer("rt.setup_warmup_ms", "ms", false),
    layer("rt.shutdown_ms", "ms", false),
    layer("rt.threads_peak", "count", false),
    layer("rt.turnaround_p50_us", "us", false),
    layer("rt.turnaround_p99_us", "us", false),
    layer("sim.event_queue_mevents_per_s", "Mevents/s", true),
    layer("exp.simfalkon_tasks_per_s", "tasks/s", true),
    layer("exp.fig8_ms", "ms", false),
    layer("exp.fig9_ms", "ms", false),
    layer("exp.fig3_ms", "ms", false),
    layer("exp.ablations_ms", "ms", false),
    layer("exp.fig6_ms", "ms", false),
    layer("exp.rest_ms", "ms", false),
    layer("pool.jobs2_speedup", "x", true),
    layer("trace.overhead_pct", "%", false),
];
