//! One trial of a socket workload: build a fresh deployment, warm it up,
//! measure a window of back-to-back client waves, tear it down and check
//! that every task completed exactly once.
//!
//! The deployment is driven only through the repository's public API. The
//! benchmark's own threads carry fixed names (`sut`, `gen-exec`,
//! `gen-client`) so per-thread CPU can be grouped by who started the work.

use crate::alloc;
use crate::gen::TrialTasks;
use crate::spec::{ExecMode, SocketSpec, BUNDLE};
use crate::sys::{self, Group, GroupUsage, ThreadSampler};
use falkon_core::dispatcher::{DispatcherStats, TaskRecord};
use falkon_core::executor::ExecutorConfig;
use falkon_obs::{Counters, ObsEvent, ObsEventKind, Probe, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::ExecutorId;
use falkon_proto::task::TaskSpec;
use falkon_rt::forwarder::ForwarderServer;
use falkon_rt::muxpeer::run_executors_mux;
use falkon_rt::tcp::{
    run_client, run_executor, run_executor_probe, DispatcherServer, ServerConfig, TcpSecurity,
};
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A timed interval recorded by the benchmark around one of its own calls.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed (`trial`, `setup.connect`, `wave[3]`, ...).
    pub name: String,
    /// Start, microseconds since the run's epoch.
    pub start_us: u64,
    /// End, microseconds since the run's epoch.
    pub end_us: u64,
    /// Index (in the same list) of the span this one happened inside.
    pub parent: Option<usize>,
    /// Trial number; spans of one trial share it.
    pub trial: u32,
    /// Process CPU microseconds spent during the span, where the benchmark
    /// read the clock at both ends (the window and its waves).
    pub cpu_us: Option<u64>,
}

impl Span {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e3
    }
}

/// Span recorder: kept in memory, written out when the run ends.
pub struct Spans {
    epoch: Instant,
    trial: u32,
    /// The spans recorded so far.
    pub list: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, trial: u32) -> Spans {
        Spans {
            epoch,
            trial,
            list: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record a finished interval.
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.list.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            trial: self.trial,
            cpu_us: None,
        });
        self.list.len() - 1
    }

    /// Open a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.add(name, now, now, parent)
    }

    /// End an open span now.
    pub fn close(&mut self, id: usize) {
        let now = self.us(Instant::now());
        self.list[id].end_us = now;
    }
}

/// Milliseconds of the first span called `name`, 0 if there is none.
pub fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().find(|s| s.name == name).map_or(0.0, Span::ms)
}

/// Why a closure run under [`with_deadline`] produced no value.
#[derive(Debug, PartialEq, Eq)]
pub enum Abandoned {
    /// The deadline passed; the closure's thread is left behind.
    TimedOut,
    /// The closure panicked.
    Panicked,
}

/// Run `f` on its own thread and wait at most `limit` for its value. On
/// expiry the thread is abandoned, not joined: it may be blocked on a peer
/// that will never answer, and the caller ends the process.
pub fn with_deadline<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Abandoned> {
    let (tx, rx) = channel();
    let worker = thread::Builder::new()
        .name("trial".into())
        .spawn(move || {
            // The receiver is gone only after a timeout; nothing to do then.
            let _ = tx.send(f());
        })
        .expect("spawn trial thread");
    match rx.recv_timeout(limit) {
        Ok(v) => {
            worker.join().map_err(|_| Abandoned::Panicked)?;
            Ok(v)
        }
        Err(RecvTimeoutError::Timeout) => Err(Abandoned::TimedOut),
        Err(RecvTimeoutError::Disconnected) => Err(Abandoned::Panicked),
    }
}

fn spawn_named<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .expect("spawn benchmark thread")
}

fn join<T>(h: JoinHandle<T>, what: &str) -> Result<T, String> {
    h.join().map_err(|_| format!("{what} thread panicked"))
}

/// The running server side of a deployment.
enum Server {
    Flat(DispatcherServer),
    Tier3(ForwarderServer),
}

/// What the server side hands back at shutdown, merged over tiers.
struct ServerOutcome {
    records: Vec<TaskRecord>,
    stats: DispatcherStats,
    /// Lifecycle events, histograms and the wire counters of every
    /// server-side connection.
    recorder: Recorder,
}

fn add_stats(a: &mut DispatcherStats, b: &DispatcherStats) {
    a.submitted += b.submitted;
    a.dispatched += b.dispatched;
    a.completed += b.completed;
    a.failed += b.failed;
    a.retries += b.retries;
    a.duplicate_results += b.duplicate_results;
    a.notifies += b.notifies;
    a.piggybacked += b.piggybacked;
    a.data_locality_hits += b.data_locality_hits;
}

impl Server {
    fn start(spec: &SocketSpec) -> io::Result<Server> {
        let mut b = ServerConfig::builder()
            .dispatcher(spec.dispatcher_config())
            .security(spec.security());
        if spec.sharded {
            b = b.sharded(1);
        }
        if spec.forwarder_dispatchers > 0 {
            b = b.forwarder(spec.forwarder_dispatchers);
        }
        let config = b
            .build()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Ok(if spec.forwarder_dispatchers > 0 {
            Server::Tier3(ForwarderServer::start(config)?)
        } else {
            Server::Flat(DispatcherServer::start(config)?)
        })
    }

    fn client_addr(&self) -> SocketAddr {
        match self {
            Server::Flat(s) => s.addr,
            Server::Tier3(s) => s.addr,
        }
    }

    fn executor_addrs(&self) -> Vec<SocketAddr> {
        match self {
            Server::Flat(s) => vec![s.addr],
            Server::Tier3(s) => s.dispatcher_addrs().to_vec(),
        }
    }

    fn shutdown(self) -> ServerOutcome {
        match self {
            Server::Flat(s) => {
                let (records, stats, recorder) = s.shutdown();
                ServerOutcome {
                    records,
                    stats,
                    recorder,
                }
            }
            Server::Tier3(s) => {
                let (fwd, dispatchers) = s.shutdown();
                let mut out = ServerOutcome {
                    records: Vec::new(),
                    stats: DispatcherStats::default(),
                    recorder: fwd.recorder,
                };
                out.recorder.merge_counters(&fwd.upstream_wire);
                out.recorder.merge_counters(&fwd.downstream_wire);
                for (records, stats, recorder) in dispatchers {
                    out.records.extend(records);
                    add_stats(&mut out.stats, &stats);
                    out.recorder.merge(&recorder);
                }
                out
            }
        }
    }
}

/// What one executor generator thread observed.
struct ExecOutcome {
    tasks: u64,
    wire: Counters,
    /// `TaskFinished` to next `TaskStarted` gaps in microseconds (traced
    /// `run_executor_probe` threads only).
    turnaround_us: Vec<u64>,
}

/// Records, on one executor, the gap between finishing a task and
/// starting the next: the dispatch turnaround, undiluted by the task body.
#[derive(Default)]
struct TurnaroundProbe {
    finished_at: Option<u64>,
    gaps_us: Vec<u64>,
}

impl Probe for TurnaroundProbe {
    fn on_event(&mut self, now: u64, event: &ObsEvent) {
        match event {
            ObsEvent::TaskFinished => self.finished_at = Some(now),
            ObsEvent::TaskStarted => {
                if let Some(t) = self.finished_at.take() {
                    self.gaps_us.push(now.saturating_sub(t));
                }
            }
            _ => {}
        }
    }
}

fn spawn_executors(
    spec: &SocketSpec,
    addrs: &[SocketAddr],
    traced: bool,
) -> Vec<JoinHandle<io::Result<ExecOutcome>>> {
    let security: TcpSecurity = spec.security();
    let per = spec.executors_per_dispatcher;
    let config = ExecutorConfig::default();
    let outcome = |tasks, wire, turnaround_us| ExecOutcome {
        tasks,
        wire,
        turnaround_us,
    };
    let mut handles = Vec::new();
    for (d, &addr) in addrs.iter().enumerate() {
        let first_id = (d * per) as u64;
        match spec.exec {
            ExecMode::Mux => handles.push(spawn_named(sys::COMM_EXEC, move || {
                run_executors_mux(addr, first_id, per, config, security)
                    .map(|o| outcome(o.tasks, o.wire, Vec::new()))
            })),
            ExecMode::Threads => {
                for i in 0..per as u64 {
                    let id = ExecutorId(first_id + i);
                    handles.push(spawn_named(sys::COMM_EXEC, move || {
                        if traced {
                            let probe = TurnaroundProbe::default();
                            run_executor_probe(addr, id, config, security, probe)
                                .map(|(o, p)| outcome(o.tasks, o.wire, p.gaps_us))
                        } else {
                            run_executor(addr, id, config, security)
                                .map(|o| outcome(o.tasks, o.wire, Vec::new()))
                        }
                    }));
                }
            }
        }
    }
    handles
}

/// What the client thread tells the controller.
enum ClientMsg {
    WarmupDone,
    WindowDone(Box<WindowResult>),
    Failed(String),
}

struct WindowResult {
    /// Completions the client saw, warm-up included.
    done: u64,
    wire: Counters,
    start: Instant,
    end: Instant,
    /// Process CPU over `start..end`, read on the client thread so the
    /// interval is exactly the window.
    cpu_ns: u64,
    /// Start, end and process CPU nanoseconds of each wave.
    waves: Vec<(Instant, Instant, u64)>,
}

fn client_thread(
    addr: SocketAddr,
    tasks: TrialTasks,
    security: TcpSecurity,
    tx: Sender<ClientMsg>,
    go: Receiver<()>,
) {
    let bundle = BundleConfig::of(BUNDLE);
    let mut wire = Counters::new();
    let mut done = 0u64;
    let mut wave = |tasks: Vec<TaskSpec>| -> Result<(), String> {
        let out = run_client(addr, tasks, bundle, security).map_err(|e| format!("client: {e}"))?;
        done += out.done;
        wire.merge(&out.wire);
        Ok(())
    };
    if let Err(e) = wave(tasks.warmup) {
        let _ = tx.send(ClientMsg::Failed(e));
        return;
    }
    if tx.send(ClientMsg::WarmupDone).is_err() || go.recv().is_err() {
        return;
    }
    let mut waves = Vec::with_capacity(tasks.waves.len());
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    let (mut w0, mut c0) = (start, cpu0);
    for w in tasks.waves {
        if let Err(e) = wave(w) {
            let _ = tx.send(ClientMsg::Failed(e));
            return;
        }
        let (w1, c1) = (Instant::now(), sys::process_cpu_ns());
        waves.push((w0, w1, c1 - c0));
        (w0, c0) = (w1, c1);
    }
    let end = w0;
    let cpu_ns = c0 - cpu0;
    let result = WindowResult {
        done,
        wire,
        start,
        end,
        cpu_ns,
        waves,
    };
    if tx.send(ClientMsg::WindowDone(Box::new(result))).is_ok() {
        // Stay alive until the controller has taken its last per-thread
        // sample, so this thread's CPU is still readable.
        let _ = go.recv();
    }
}

/// Layer numbers taken from a traced trial.
#[derive(Clone, Debug, Default)]
pub struct TrialLayers {
    /// CPU and wakes of the system under test.
    pub server: GroupUsage,
    /// CPU and wakes of the executor generator threads.
    pub peer_exec: GroupUsage,
    /// CPU and wakes of the client generator thread.
    pub peer_client: GroupUsage,
    /// CPU and wakes of the benchmark's own controller, which in a traced
    /// trial is the sampler.
    pub bench: GroupUsage,
    /// Most threads alive at once during the window.
    pub threads_peak: usize,
    /// Allocation calls over the window.
    pub allocs: u64,
    /// Bytes requested over the window.
    pub alloc_bytes: u64,
    /// Frames sent by any party over the whole trial.
    pub frames: u64,
    /// Bytes sent by any party over the whole trial.
    pub wire_bytes: u64,
    /// Dispatcher counters at shutdown, summed over dispatchers.
    pub stats: DispatcherStats,
    /// Queue wait p50 from the server's recorder.
    pub queue_wait_p50_us: u64,
    /// Dispatch overhead p50 from the server's recorder.
    pub overhead_p50_us: u64,
    /// Dispatch overhead p99 from the server's recorder.
    pub overhead_p99_us: u64,
    /// Samples behind the three quantiles above.
    pub overhead_samples: usize,
    /// Executor turnaround gaps (`short_tasks` only).
    pub turnaround_us: Vec<u64>,
}

/// What one trial measured.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// Tasks the program was asked to run (warm-up + window).
    pub attempted: u64,
    /// Tasks not completed exactly once.
    pub failed: u64,
    /// Tasks in the measured window.
    pub window_tasks: u64,
    /// Window wall time on the client clock.
    pub window_s: f64,
    /// Process CPU over the window.
    pub cpu_ns: u64,
    /// Trial start to warm-up done.
    pub setup_s: f64,
    /// The benchmark's spans for this trial.
    pub spans: Vec<Span>,
    /// Accounting checks that did not hold (empty when correct).
    pub problems: Vec<String>,
    /// Layer numbers (traced trials only).
    pub layers: Option<TrialLayers>,
}

impl TrialOutcome {
    /// Window throughput.
    pub fn tasks_per_s(&self) -> f64 {
        self.window_tasks as f64 / self.window_s
    }

    /// Process CPU microseconds per window task.
    pub fn cpu_us_per_task(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.window_tasks as f64
    }
}

/// How often a traced trial samples per-thread CPU during the window.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Run one trial. `limit` bounds the wait for executors to connect; the
/// caller bounds the whole trial with [`with_deadline`].
pub fn run_trial(
    spec: SocketSpec,
    tasks: TrialTasks,
    trial: u32,
    traced: bool,
    epoch: Instant,
    limit: Duration,
) -> Result<TrialOutcome, String> {
    let expected_ids = tasks.sorted_ids();
    let window_tasks = tasks.window_len();
    let attempted = expected_ids.len() as u64;
    let security = spec.security();

    let t_trial = Instant::now();
    let mut spans = Spans::new(epoch, trial);
    let root = spans.open("trial", None);

    let s = spans.open("setup.server_start", Some(root));
    let server = join(
        spawn_named(sys::COMM_SERVER, move || Server::start(&spec)),
        "server start",
    )?
    .map_err(|e| format!("server start: {e}"))?;
    spans.close(s);

    let s = spans.open("setup.connect", Some(root));
    let addrs = server.executor_addrs();
    let execs = spawn_executors(&spec, &addrs, traced);
    // Each dispatcher must hold its executors' connections, plus the
    // forwarder's downstream link in a three-tier deployment.
    let links = usize::from(spec.forwarder_dispatchers > 0);
    let ports: Vec<(u16, usize)> = addrs
        .iter()
        .map(|a| (a.port(), spec.executors_per_dispatcher + links))
        .collect();
    sys::wait_established(&ports, t_trial + limit).map_err(|e| format!("connect: {e}"))?;
    spans.close(s);

    let (tx, from_client) = channel();
    let (go, go_rx) = channel();
    let client_addr = server.client_addr();
    let client = spawn_named(sys::COMM_CLIENT, move || {
        client_thread(client_addr, tasks, security, tx, go_rx)
    });
    let s = spans.open("setup.warmup", Some(root));
    match from_client.recv() {
        Ok(ClientMsg::WarmupDone) => {}
        Ok(ClientMsg::Failed(e)) => return Err(e),
        Ok(ClientMsg::WindowDone(_)) | Err(_) => return Err("client ended in warm-up".into()),
    }
    spans.close(s);
    let setup_s = t_trial.elapsed().as_secs_f64();

    // The window. A traced trial counts allocations and samples per-thread
    // CPU while it waits; an untraced one only waits.
    let mut sampler = None;
    let mut alloc0 = alloc::snapshot();
    if traced {
        alloc::set_enabled(true);
        alloc0 = alloc::snapshot();
        sampler = Some(ThreadSampler::start().map_err(|e| format!("thread sampler: {e}"))?);
    }
    go.send(()).map_err(|_| "client ended before the window")?;
    let window = loop {
        let msg = match sampler.as_mut() {
            None => from_client
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(_) => from_client.recv_timeout(SAMPLE_EVERY),
        };
        match msg {
            Ok(ClientMsg::WindowDone(w)) => break w,
            Ok(ClientMsg::Failed(e)) => return Err(e),
            Ok(ClientMsg::WarmupDone) => return Err("client repeated warm-up".into()),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(s) = sampler.as_mut() {
                    s.sample().map_err(|e| format!("thread sampler: {e}"))?;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Err("client thread died".into()),
        }
    };
    let mut layers = None;
    if let Some(mut s) = sampler {
        s.sample().map_err(|e| format!("thread sampler: {e}"))?;
        let alloc1 = alloc::snapshot();
        alloc::set_enabled(false);
        layers = Some(TrialLayers {
            server: s.usage(Group::Server),
            peer_exec: s.usage(Group::PeerExec),
            peer_client: s.usage(Group::PeerClient),
            bench: s.usage(Group::Bench),
            threads_peak: s.threads_peak(),
            allocs: alloc1.allocs - alloc0.allocs,
            alloc_bytes: alloc1.bytes - alloc0.bytes,
            ..TrialLayers::default()
        });
    }
    let _ = go.send(());
    join(client, "client")?;
    let w_span = spans.add("window", window.start, window.end, Some(root));
    spans.list[w_span].cpu_us = Some(window.cpu_ns / 1000);
    for (i, &(w0, w1, cpu_ns)) in window.waves.iter().enumerate() {
        let id = spans.add(&format!("wave[{i}]"), w0, w1, Some(w_span));
        spans.list[id].cpu_us = Some(cpu_ns / 1000);
    }

    let s = spans.open("teardown.shutdown", Some(root));
    let mut out = join(
        spawn_named(sys::COMM_SERVER, move || server.shutdown()),
        "server shutdown",
    )?;
    let mut exec_tasks = 0u64;
    let mut wire = window.wire;
    let mut turnaround_us = Vec::new();
    for h in execs {
        let e = join(h, "executor")?.map_err(|e| format!("executor: {e}"))?;
        exec_tasks += e.tasks;
        wire.merge(&e.wire);
        turnaround_us.extend(e.turnaround_us);
    }
    spans.close(s);
    spans.close(root);

    // Exactly-once: the ids the dispatchers recorded are the ids submitted.
    let mut got: Vec<u64> = out.records.iter().map(|r| r.result.id.0).collect();
    got.sort_unstable();
    let failed = count_not_exactly_once(&expected_ids, &got);
    let mut problems = Vec::new();
    let mut check = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("{what}: {got}, expected {want}"));
        }
    };
    check("tasks not completed exactly once", failed, 0);
    check("client completions", window.done, attempted);
    check("dispatcher completed", out.stats.completed, attempted);
    check("tasks run by executors", exec_tasks, attempted);
    check(
        "executors registered",
        out.recorder
            .counters
            .count(ObsEventKind::ExecutorRegistered),
        spec.executors() as u64,
    );
    check("retries", out.stats.retries, 0);
    check("duplicate results", out.stats.duplicate_results, 0);
    check("tasks abandoned", out.stats.failed, 0);

    if let Some(l) = layers.as_mut() {
        wire.merge(&out.recorder.counters);
        l.frames = wire.count(ObsEventKind::BundleEncoded);
        l.wire_bytes = wire.value(ObsEventKind::BundleEncoded);
        l.stats = out.stats;
        l.queue_wait_p50_us = out.recorder.queue_time_us.quantile(0.5);
        l.overhead_p50_us = out.recorder.overhead_us.quantile(0.5);
        l.overhead_p99_us = out.recorder.overhead_us.quantile(0.99);
        l.overhead_samples = out.recorder.overhead_us.count();
        l.turnaround_us = turnaround_us;
    }

    Ok(TrialOutcome {
        attempted,
        failed,
        window_tasks,
        window_s: (window.end - window.start).as_secs_f64(),
        cpu_ns: window.cpu_ns,
        setup_s,
        spans: spans.list,
        problems,
        layers,
    })
}

/// How many of the sorted `expected` ids do not appear exactly once in the
/// sorted `got` ids. Ids in `got` that were never submitted count too.
pub fn count_not_exactly_once(expected: &[u64], got: &[u64]) -> u64 {
    let mut bad = 0u64;
    let mut g = 0usize;
    for &id in expected {
        while g < got.len() && got[g] < id {
            bad += 1; // recorded but never submitted
            g += 1;
        }
        let mut seen = 0;
        while g < got.len() && got[g] == id {
            seen += 1;
            g += 1;
        }
        if seen != 1 {
            bad += 1;
        }
    }
    bad + (got.len() - g) as u64
}
