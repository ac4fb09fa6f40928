//! Falkon over real TCP sockets.
//!
//! The dispatcher listens on a socket; executors and clients connect and
//! exchange length-delimited frames of the `falkon-proto` binary encoding.
//! With security enabled, each connection performs the toy
//! GSISecureConversation handshake first and seals every frame. This is the
//! deployment the `tcp_cluster` example and the TCP throughput benchmarks
//! use; it exercises the exact Figure 2 message sequence over a real
//! network stack (localhost).
//!
//! Every socket here — server side and peer side — is a [`Conn`] serviced
//! by the one readiness loop in [`crate::engine`] (DESIGN.md §10.3). A
//! [`DispatcherServer`] is that loop mounted as [`crate::server`] shard
//! threads plus one core thread that owns the sans-io [`Dispatcher`]
//! machine and blocks on a single channel: connection events from the
//! shards and the stop request, bounded only by the machine's own next
//! deadline. [`run_executor`] and [`run_client`] mount the same loop over
//! one connection on the caller's thread; the machine runs inline in the
//! loop's callbacks, so there is no reader thread and no channel hop.
//!
//! No wait in this module is a fixed sleep or a read-timeout cadence
//! (`falkon-lint`'s `rt_cadence` rule pins this).

use crate::clock::Clock;
pub use crate::conn::TcpSecurity;
use crate::conn::{Closed, Conn, Inbound};
use crate::engine::{Engine, Handler, Token};
use crate::exec::{route_actions, Dest};
use crate::server::{ConnHandle, ConnId, ServerEvent, Shards};
use crossbeam::channel::{unbounded, Receiver, Sender};
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::dispatcher::{
    Dispatcher, DispatcherAction, DispatcherEvent, DispatcherStats, TaskRecord,
};
use falkon_core::executor::ExecutorConfig;
use falkon_core::DispatcherConfig;
use falkon_obs::{Counters, NoopProbe, Probe, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::TaskSpec;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};

// ---------------------------------------------------------------------------
// Server configuration
// ---------------------------------------------------------------------------

/// Validated configuration for [`DispatcherServer::start`] and
/// [`crate::forwarder::ForwarderServer::start`]. Build one with
/// [`ServerConfig::builder`]; nonsense values (zero shards, zero
/// dispatchers) are rejected with a typed [`ConfigError`] instead of
/// panicking at runtime.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    dispatcher: DispatcherConfig,
    security: TcpSecurity,
    shards: usize,
    forwarder_dispatchers: Option<usize>,
}

impl ServerConfig {
    /// Start building a config. Defaults: default [`DispatcherConfig`], no
    /// security, one shard thread, no forwarder tier.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder(ServerConfig {
            dispatcher: DispatcherConfig::default(),
            security: None,
            shards: 1,
            forwarder_dispatchers: None,
        })
    }

    /// The configured security setting.
    pub fn security(&self) -> TcpSecurity {
        self.security
    }

    /// Shard threads per tier.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Downstream dispatcher count of the forwarder tier, if
    /// [`ServerConfigBuilder::forwarder`] selected one.
    pub fn forwarder_dispatchers(&self) -> Option<usize> {
        self.forwarder_dispatchers
    }

    /// The config one tier down: identical but for the forwarder field —
    /// what [`crate::forwarder::ForwarderServer`] hands to each
    /// [`DispatcherServer`] it mounts.
    pub(crate) fn without_forwarder(mut self) -> ServerConfig {
        self.forwarder_dispatchers = None;
        self
    }
}

/// Builder for [`ServerConfig`].
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder(ServerConfig);

impl ServerConfigBuilder {
    /// The sans-io dispatcher machine's tunables.
    pub fn dispatcher(mut self, config: DispatcherConfig) -> Self {
        self.0.dispatcher = config;
        self
    }

    /// `Some(psk)` enables the GSISecureConversation stand-in on every
    /// connection.
    pub fn security(mut self, security: TcpSecurity) -> Self {
        self.0.security = security;
        self
    }

    /// Service each tier's connections with `shards` event-loop threads
    /// (round-robin assignment at accept time).
    pub fn sharded(mut self, shards: usize) -> Self {
        self.0.shards = shards;
        self
    }

    /// Mount a forwarder tier over `dispatchers` downstream dispatcher
    /// cores (the paper's 3-tier deployment). The shard count, security,
    /// and dispatcher-machine settings apply to every tier: the
    /// forwarder's client-facing listener and each downstream
    /// [`DispatcherServer`]. Consumed by
    /// [`crate::forwarder::ForwarderServer::start`];
    /// [`DispatcherServer::start`] ignores it.
    pub fn forwarder(mut self, dispatchers: usize) -> Self {
        self.0.forwarder_dispatchers = Some(dispatchers);
        self
    }

    /// Validate and finish.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        if self.0.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.0.forwarder_dispatchers == Some(0) {
            return Err(ConfigError::ZeroDispatchers);
        }
        Ok(self.0)
    }
}

/// Rejected [`ServerConfig`] values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `sharded(0)`: a server needs at least one shard thread.
    ZeroShards,
    /// `forwarder(0)`: a forwarder tier needs at least one downstream
    /// dispatcher to route to.
    ZeroDispatchers,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "a server needs at least 1 shard"),
            ConfigError::ZeroDispatchers => {
                write!(f, "forwarder tier needs at least 1 downstream dispatcher")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------------
// The dispatcher server and core
// ---------------------------------------------------------------------------

/// What a stopped dispatcher hands back: per-task records, machine
/// counters, and the observability recorder.
pub type DispatcherOutcome = (Vec<TaskRecord>, DispatcherStats, Recorder);

/// Handle to a running TCP dispatcher.
pub struct DispatcherServer {
    /// The bound address (connect executors/clients here).
    pub addr: SocketAddr,
    events: Sender<ServerEvent>,
    shards: Shards,
    core: JoinHandle<DispatcherOutcome>,
}

impl DispatcherServer {
    /// Bind and start a dispatcher on `127.0.0.1:0` (ephemeral port).
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let (events, rx) = unbounded::<ServerEvent>();
        let shards = Shards::bind(config.security, config.shards, &events)?;
        let dispatcher = config.dispatcher;
        let core = thread::spawn(move || dispatcher_core(dispatcher, rx));
        Ok(DispatcherServer {
            addr: shards.addr,
            events,
            shards,
            core,
        })
    }

    /// Stop the server, returning dispatcher records, stats, and the merged
    /// observability recorder — lifecycle events plus the wire counters of
    /// *every* connection. The core stops first, dropping its connection
    /// handles; the shards then flush, close, and join.
    pub fn shutdown(self) -> DispatcherOutcome {
        self.events.send(ServerEvent::Stop).ok();
        let (records, stats, mut obs) = self.core.join().expect("core thread");
        let wire = self.shards.shutdown();
        obs.merge_counters(&wire.accepted);
        obs.merge_counters(&wire.dialed);
        (records, stats, obs)
    }
}

/// Upper bound on events absorbed per wakeup, so one chatty connection
/// cannot starve deadline checks.
pub(crate) const MAX_DRAIN: usize = 256;

/// Which connection serves which executor and instance, and the handles
/// to reach them.
#[derive(Default)]
struct Routes {
    conns: HashMap<ConnId, ConnHandle>,
    exec_conn: HashMap<ExecutorId, ConnId>,
    inst_conn: HashMap<InstanceId, ConnId>,
    conn_execs: HashMap<ConnId, Vec<ExecutorId>>,
    records: Vec<TaskRecord>,
}

impl Routes {
    /// Deliver the machine's pending actions. `current` is the connection
    /// whose message produced them: fresh instances bind to it, and a
    /// status poll is answered on it.
    fn deliver(&mut self, out: &mut Vec<DispatcherAction>, current: Option<ConnId>) {
        route_actions(out, &mut self.records, |dest, msg| {
            let conn = match dest {
                Dest::Executor(executor) => self.exec_conn.get(&executor).copied(),
                Dest::Client(instance) => {
                    if let (Message::InstanceCreated { instance }, Some(c)) = (&msg, current) {
                        self.inst_conn.insert(*instance, c);
                    }
                    self.inst_conn.get(&instance).copied()
                }
                Dest::Provisioner => current,
            };
            if let Some(handle) = conn.and_then(|c| self.conns.get(&c)) {
                handle.send(msg);
            }
        });
    }
}

/// The dispatcher state machine driven by server events.
fn dispatcher_core(config: DispatcherConfig, rx: Receiver<ServerEvent>) -> DispatcherOutcome {
    let clock = Clock::start();
    let mut d = Dispatcher::with_probe(config, Recorder::new());
    let mut routes = Routes::default();
    let mut out: Vec<DispatcherAction> = Vec::new();
    'run: while let Ok(first) = clock.recv_until(&rx, d.next_deadline()) {
        // Clock read must follow the wait (deadline checks compare to now);
        // one read covers the whole drained batch.
        let now = clock.now_us();
        let Some(first) = first else {
            d.on_event(now, DispatcherEvent::CheckDeadlines, &mut out);
            routes.deliver(&mut out, None);
            continue;
        };
        let mut next = Some(first);
        let mut drained = 0usize;
        while let Some(ev) = next.take() {
            match ev {
                ServerEvent::Connected(id, handle, _) => {
                    routes.conns.insert(id, handle);
                }
                ServerEvent::Closed(id) => {
                    routes.conns.remove(&id);
                    // Any executors on this connection are lost.
                    for executor in routes.conn_execs.remove(&id).unwrap_or_default() {
                        routes.exec_conn.remove(&executor);
                        d.on_event(now, DispatcherEvent::ExecutorLost { executor }, &mut out);
                    }
                    routes.deliver(&mut out, None);
                }
                ServerEvent::Msg(id, msg) => {
                    // Remember which connection each executor registered on.
                    if let Message::Register { executor, .. } = &msg {
                        routes.exec_conn.insert(*executor, id);
                        routes.conn_execs.entry(id).or_default().push(*executor);
                    }
                    if let Some(ev) = falkon_core::mapping::message_to_dispatcher_event(msg) {
                        d.on_event(now, ev, &mut out);
                        routes.deliver(&mut out, Some(id));
                    }
                }
                ServerEvent::Stop => break 'run,
            }
            drained += 1;
            if drained < MAX_DRAIN {
                next = rx.try_recv().ok();
            }
        }
    }
    (routes.records, d.stats(), d.probe().clone())
}

// ---------------------------------------------------------------------------
// Peers
// ---------------------------------------------------------------------------

/// What a finished TCP executor observed: work done plus the wire-level
/// counters of its connection — enough for a test to balance byte totals
/// against the dispatcher's.
pub struct TcpRunOutcome {
    /// Tasks this executor ran.
    pub tasks: u64,
    /// Frame counts and sealed byte totals, both directions.
    pub wire: Counters,
}

/// A TCP client run's result with its wire-level counters.
pub struct TcpClientOutcome {
    /// Completions observed before the workload-complete edge.
    pub done: u64,
    /// Wall time from first submit to workload completion.
    pub elapsed_us: u64,
    /// Frame counts and sealed byte totals, both directions.
    pub wire: Counters,
}

/// Run an executor against a TCP dispatcher until the connection closes or
/// the idle-release policy fires, with the default `NoopProbe` mounted on
/// the machine. See [`run_executor_probe`] to mount a real probe.
pub fn run_executor(
    addr: SocketAddr,
    id: ExecutorId,
    config: ExecutorConfig,
    security: TcpSecurity,
) -> io::Result<TcpRunOutcome> {
    run_executor_probe(addr, id, config, security, NoopProbe).map(|(outcome, _)| outcome)
}

/// Run an executor with `probe` mounted on the sans-io machine, returning
/// the run outcome alongside the probe: [`crate::muxpeer`]'s pool with one
/// member. The dispatcher closing on us is a normal end-of-run; a real
/// socket error is surfaced.
pub fn run_executor_probe<P: Probe>(
    addr: SocketAddr,
    id: ExecutorId,
    config: ExecutorConfig,
    security: TcpSecurity,
    probe: P,
) -> io::Result<(TcpRunOutcome, P)> {
    let mut probe = Some(probe);
    let make = || probe.take().expect("a pool of one mounts one probe");
    let mut pool = crate::muxpeer::run_pool(addr, id.0, 1, config, security, make)?;
    if let Some(e) = pool.socket_error {
        return Err(e);
    }
    let outcome = TcpRunOutcome {
        tasks: pool.outcome.tasks,
        wire: pool.outcome.wire,
    };
    Ok((outcome, pool.probes.pop().expect("one machine ran")))
}

/// One client workload over one connection: the [`Handler`] of
/// [`run_client`].
struct ClientRun {
    clock: Clock,
    client: Client,
    /// The workload, until `Opened` submits it.
    tasks: Vec<TaskSpec>,
    actions: Vec<ClientAction>,
    t0: u64,
    /// `(completions, elapsed µs)` once the workload completed.
    done: Option<(u64, u64)>,
    closed: Option<Closed>,
}

impl Handler<()> for ClientRun {
    fn inbound(&mut self, _: Token, conn: &mut Conn, _: &mut (), ev: Inbound) -> io::Result<bool> {
        match ev {
            Inbound::Opened => {
                self.client
                    .on_event(self.clock.now_us(), ClientEvent::Start, &mut self.actions);
                self.t0 = self.clock.now_us();
                let tasks = std::mem::take(&mut self.tasks);
                if tasks.is_empty() {
                    self.done = Some((0, 0));
                }
                self.client.enqueue(self.t0, tasks, &mut self.actions);
            }
            Inbound::Msg(msg) => {
                if let Some(ev) = falkon_core::mapping::message_to_client_event(msg) {
                    self.client
                        .on_event(self.clock.now_us(), ev, &mut self.actions);
                }
            }
            Inbound::Deadline => {}
        }
        // Everything queued here leaves in one write on the next turn —
        // partially, if the socket is full, while results keep being read.
        for act in self.actions.drain(..) {
            match act {
                ClientAction::Send(msg) => conn.enqueue(&msg)?,
                ClientAction::WorkloadComplete => {
                    let done = self.client.completions().len() as u64;
                    self.done = Some((done, self.clock.now_us() - self.t0));
                }
            }
        }
        Ok(self.done.is_some())
    }

    fn closed(&mut self, _: Token, _: (), closed: Closed) {
        self.closed = Some(closed);
    }
}

/// Run a client workload against a TCP dispatcher, returning completions,
/// elapsed µs, and the connection's wire counters. (The client machine
/// mounts no probe — its observable behaviour is the completion records
/// the dispatcher keeps.)
pub fn run_client(
    addr: SocketAddr,
    tasks: Vec<TaskSpec>,
    bundle: BundleConfig,
    security: TcpSecurity,
) -> io::Result<TcpClientOutcome> {
    let clock = Clock::start();
    let mut engine = Engine::new(clock);
    engine.add(Conn::new(TcpStream::connect(addr)?, security, clock)?, ());
    let mut run = ClientRun {
        clock,
        client: Client::new(bundle),
        tasks,
        actions: Vec::new(),
        t0: 0,
        done: None,
        closed: None,
    };
    while engine.live() > 0 {
        engine.turn(&[], &mut run)?;
    }
    let closed = run.closed.expect("the connection closed");
    match run.done {
        Some((done, elapsed_us)) => Ok(TcpClientOutcome {
            done,
            elapsed_us,
            wire: closed.wire,
        }),
        // Disconnected before the workload completed: a dead dispatcher is
        // an error for a client (unlike an executor, which it releases).
        None => Err(closed
            .cause
            .unwrap_or_else(|| io::ErrorKind::UnexpectedEof.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deploy(n_exec: usize, security: TcpSecurity, n_tasks: u64, shards: usize) -> (u64, u64) {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 64,
                ..DispatcherConfig::default()
            })
            .security(security)
            .sharded(shards)
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let mut execs = Vec::new();
        for i in 0..n_exec {
            let cfg = ExecutorConfig::default();
            execs.push(thread::spawn(move || {
                run_executor(addr, ExecutorId(i as u64), cfg, security)
            }));
        }
        let tasks: Vec<TaskSpec> = (0..n_tasks).map(|i| TaskSpec::sleep(i, 0)).collect();
        let client = run_client(addr, tasks, BundleConfig::of(50), security).expect("client run");
        let (records, stats, obs) = server.shutdown();
        for e in execs {
            e.join().expect("executor thread").ok();
        }
        assert_eq!(records.len() as u64, n_tasks);
        assert_eq!(stats.completed, n_tasks);
        assert_eq!(
            obs.counters.count(falkon_obs::ObsEventKind::TaskCompleted),
            n_tasks
        );
        (client.done, client.elapsed_us)
    }

    #[test]
    fn tcp_plain_roundtrip() {
        let (done, _) = deploy(2, None, 100, 1);
        assert_eq!(done, 100);
    }

    #[test]
    fn tcp_secure_roundtrip() {
        let (done, _) = deploy(2, Some(0xFA1C0), 100, 1);
        assert_eq!(done, 100);
    }

    #[test]
    fn tcp_many_executors() {
        let (done, _) = deploy(8, None, 400, 1);
        assert_eq!(done, 400);
    }

    #[test]
    fn tcp_sharded_plain_roundtrip() {
        let (done, _) = deploy(4, None, 200, 2);
        assert_eq!(done, 200);
    }

    #[test]
    fn tcp_sharded_secure_roundtrip() {
        let (done, _) = deploy(3, Some(0xFA1C0), 150, 2);
        assert_eq!(done, 150);
    }

    #[test]
    fn tcp_more_shards_than_connections() {
        let (done, _) = deploy(2, None, 120, 4);
        assert_eq!(done, 120);
    }

    #[test]
    fn tcp_empty_workload_completes() {
        let (done, _) = deploy(1, None, 0, 1);
        assert_eq!(done, 0);
    }

    #[test]
    fn builder_rejects_zero_shards() {
        let err = ServerConfig::builder().sharded(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroShards);
        assert!(format!("{err}").contains("shard"));
    }
}
