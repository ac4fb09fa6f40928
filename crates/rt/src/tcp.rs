//! Falkon over real TCP sockets: the Figure 2 message sequence in
//! length-delimited frames of the `falkon-proto` encoding, each connection
//! opening with the toy GSISecureConversation handshake and sealing every
//! frame when security is on. The `tcp_cluster` example and `benchmark/`
//! use it.
//!
//! Every socket here is a [`Conn`] on the one readiness loop of
//! [`crate::engine`] (DESIGN.md §10.3). A [`DispatcherServer`] is one
//! thread running it (`server::run`) with a [`DispatcherNode`] inside the
//! turn, its endpoints the connections' tokens. [`run_executor`] and
//! [`run_client`] run the same loop on the caller's thread.
//!
//! No wait in this module is a fixed sleep or a read-timeout cadence
//! (`clippy.toml`'s `disallowed-methods` pins this).

use crate::clock::Clock;
pub use crate::conn::TcpSecurity;
use crate::conn::{Closed, Conn, Inbound};
use crate::engine::{Engine, Handler, Token};
use crate::muxpeer::MuxOutcome;
use crate::server::{self, Control, Mount};
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::dispatcher::{DispatcherStats, TaskRecord};
use falkon_core::executor::ExecutorConfig;
use falkon_core::{DispatcherConfig, DispatcherNode};
use falkon_obs::{Counters, NoopProbe, Probe, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::{ExecutorId, Message};
use falkon_proto::task::TaskSpec;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};

// ---------------------------------------------------------------------------
// Server configuration
// ---------------------------------------------------------------------------

/// Validated configuration for [`DispatcherServer::start`] and
/// [`crate::forwarder::ForwarderServer::start`]. Build one with
/// [`ServerConfig::builder`]; a nonsense value (zero dispatchers) is
/// rejected with a typed [`ConfigError`] instead of panicking at runtime.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    dispatcher: DispatcherConfig,
    security: TcpSecurity,
    forwarder_dispatchers: Option<usize>,
}

impl ServerConfig {
    /// Start building a config. Defaults: default [`DispatcherConfig`], no
    /// security, no forwarder tier.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder(ServerConfig {
            dispatcher: DispatcherConfig::default(),
            security: None,
            forwarder_dispatchers: None,
        })
    }

    /// The configured security setting.
    pub fn security(&self) -> TcpSecurity {
        self.security
    }

    /// Downstream dispatcher count of the forwarder tier, if
    /// [`ServerConfigBuilder::forwarder`] selected one.
    pub(crate) fn forwarder_dispatchers(&self) -> Option<usize> {
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

    /// Does nothing: a server is one thread. Kept solely because the
    /// frozen `benchmark/src/trial.rs` calls `.sharded(1)`; drop the call,
    /// then the method (ROADMAP item 8(e), which waits on item 9).
    #[doc(hidden)]
    pub fn sharded(self, _shards: usize) -> Self {
        self
    }

    /// Mount a forwarder tier over `dispatchers` downstream dispatchers
    /// (the paper's 3-tier deployment). The security and
    /// dispatcher-machine settings apply to every tier: the
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
        if self.0.forwarder_dispatchers == Some(0) {
            return Err(ConfigError::ZeroDispatchers);
        }
        Ok(self.0)
    }
}

/// Rejected [`ServerConfig`] values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `forwarder(0)`: a forwarder tier needs at least one downstream
    /// dispatcher to route to.
    ZeroDispatchers,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDispatchers => {
                write!(f, "forwarder tier needs at least 1 downstream dispatcher")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------------
// The dispatcher server
// ---------------------------------------------------------------------------

/// What a stopped dispatcher hands back: per-task records, machine
/// counters, and the observability recorder.
pub(crate) type DispatcherOutcome = (Vec<TaskRecord>, DispatcherStats, Recorder);

/// Handle to a running TCP dispatcher.
pub struct DispatcherServer {
    /// The bound address (connect executors/clients here).
    pub addr: SocketAddr,
    control: Control<()>,
    thread: JoinHandle<DispatcherMount>,
}

impl DispatcherServer {
    /// Bind and start a dispatcher on `127.0.0.1:0` (ephemeral port): one
    /// thread, whatever the number of connections.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let (control, bound) = server::bind(config.security)?;
        let addr = bound.addr;
        let mount = DispatcherMount {
            clock: bound.clock,
            node: DispatcherNode::new(config.dispatcher, Recorder::new()),
            wire: Counters::new(),
        };
        let thread = thread::spawn(move || server::run(bound, mount));
        Ok(DispatcherServer {
            addr,
            control,
            thread,
        })
    }

    /// Stop the server (its thread flushes and closes every connection),
    /// returning records, stats, and the recorder with every connection's
    /// wire counters merged in.
    pub fn shutdown(self) -> DispatcherOutcome {
        drop(self.control);
        let mount = self.thread.join().expect("server thread");
        let stats = mount.node.machine().stats();
        let mut obs = mount.node.machine().probe().clone();
        obs.merge_counters(&mount.wire);
        (mount.node.records, stats, obs)
    }
}

/// The dispatcher's [`Mount`]: the node, run inside the engine turn.
struct DispatcherMount {
    clock: Clock,
    node: DispatcherNode<Token, Recorder>,
    /// Wire counters of every finished connection.
    wire: Counters,
}

impl Handler<()> for DispatcherMount {
    fn inbound(&mut self, token: Token, _: &mut Conn, _: &mut (), ev: Inbound) -> io::Result<bool> {
        if let Inbound::Msg(msg) = ev {
            self.node.heard(self.clock.now_us(), token, msg);
        }
        Ok(false)
    }

    fn closed(&mut self, token: Token, _: (), closed: Closed) {
        self.wire.merge(&closed.wire);
        // Our own stop closing everything is the end of the run, not a loss.
        if !closed.local {
            self.node.closed(self.clock.now_us(), token);
        }
    }
}

impl Mount for DispatcherMount {
    type Peer = ();

    fn outbox(&mut self) -> &mut Vec<(Token, Message)> {
        &mut self.node.outbox
    }

    fn next_deadline(&mut self) -> Option<u64> {
        self.node.next_deadline()
    }

    fn on_deadline(&mut self) {
        self.node.on_deadline(self.clock.now_us());
    }
}

// ---------------------------------------------------------------------------
// Peers
// ---------------------------------------------------------------------------

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
) -> io::Result<MuxOutcome> {
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
) -> io::Result<(MuxOutcome, P)> {
    let mut probe = Some(probe);
    let make = || probe.take().expect("a pool of one mounts one probe");
    let stream = [TcpStream::connect(addr)];
    let mut pool = crate::muxpeer::run_pool(stream, id.0, config, security, false, make)?;
    if let Some(e) = pool.socket_error {
        return Err(e);
    }
    Ok((pool.outcome, pool.probes.pop().expect("one machine ran")))
}

/// One client workload over one connection: the [`Handler`] of
/// [`run_client`].
struct ClientRun {
    clock: Clock,
    client: Client,
    /// Tasks per `Submit`.
    bundle: usize,
    /// The workload as it was handed in, cut into bundles as the socket
    /// takes them: nothing is copied, and nothing is encoded far ahead.
    tasks: std::vec::IntoIter<TaskSpec>,
    actions: Vec<ClientAction>,
    t0: u64,
    /// Results taken from the machine so far.
    completed: u64,
    /// `(completions, elapsed µs)` once the workload completed; the run ends.
    done: Option<(u64, u64)>,
    closed: Option<Closed>,
}

impl ClientRun {
    /// Queue the machine's messages on `conn`. The machine reports the
    /// workload complete each time nothing is outstanding; with tasks left
    /// to cut, that is not the end of the run.
    fn send(&mut self, conn: &mut Conn) -> io::Result<()> {
        for act in self.actions.drain(..) {
            match act {
                ClientAction::Send(msg) => conn.enqueue(msg)?,
                ClientAction::WorkloadComplete if self.tasks.len() == 0 => {
                    self.done = Some((self.completed, self.clock.now_us() - self.t0));
                }
                ClientAction::WorkloadComplete => {}
            }
        }
        Ok(())
    }
}

impl Handler<()> for ClientRun {
    fn inbound(&mut self, _: Token, conn: &mut Conn, _: &mut (), ev: Inbound) -> io::Result<bool> {
        let now = self.clock.now_us();
        match ev {
            Inbound::Opened => {
                self.client
                    .on_event(now, ClientEvent::Start, &mut self.actions);
                self.t0 = now;
                if self.tasks.len() == 0 {
                    self.done = Some((0, 0));
                }
            }
            Inbound::Msg(msg) => {
                if let Some(ev) = falkon_core::mapping::message_to_client_event(msg) {
                    self.client.on_event(now, ev, &mut self.actions);
                    self.completed += self.client.take_results().len() as u64;
                }
            }
            Inbound::Deadline => {}
        }
        self.send(conn)?;
        // Cut the next bundle whenever the batch has room for it. Every
        // bundle sent is answered — a dispatcher acknowledges it, a
        // forwarder pushes its results — so an inbound event always
        // follows the socket taking what is queued here.
        while self.client.instance().is_some() && self.tasks.len() > 0 && conn.has_room() {
            let bundle = self.tasks.by_ref().take(self.bundle).collect();
            self.client.enqueue(now, bundle, &mut self.actions);
            self.send(conn)?;
        }
        Ok(self.done.is_some())
    }

    fn closed(&mut self, _: Token, _: (), closed: Closed) {
        self.closed = Some(closed);
    }
}

/// Run a client workload against a TCP dispatcher, returning completions,
/// elapsed µs, and the connection's wire counters. The workload is moved
/// in and cut into bundles of `bundle.max_bundle` as the connection's batch
/// has room, and results are counted as they arrive, so the client's heap
/// follows its socket, not its workload. (The client machine mounts no
/// probe — its observable behaviour is the completion records the
/// dispatcher keeps.)
pub fn run_client(
    addr: SocketAddr,
    tasks: Vec<TaskSpec>,
    bundle: BundleConfig,
    security: TcpSecurity,
) -> io::Result<TcpClientOutcome> {
    let clock = Clock::start();
    let mut engine = Engine::new(clock);
    let conn = Conn::new(TcpStream::connect(addr)?, security, clock)?;
    let mut run = ClientRun {
        clock,
        client: Client::new(bundle),
        bundle: bundle.max_bundle,
        tasks: tasks.into_iter(),
        actions: Vec::new(),
        t0: 0,
        completed: 0,
        done: None,
        closed: None,
    };
    engine.add(conn, (), &mut run);
    while engine.live() > 0 {
        engine.turn(&[], None, &mut run)?;
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

    fn deploy(n_exec: usize, security: TcpSecurity, n_tasks: u64) -> (u64, u64) {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 64,
                ..DispatcherConfig::default()
            })
            .security(security)
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
        let (done, _) = deploy(2, None, 100);
        assert_eq!(done, 100);
    }

    #[test]
    fn tcp_secure_roundtrip() {
        let (done, _) = deploy(2, Some(0xFA1C0), 100);
        assert_eq!(done, 100);
    }

    #[test]
    fn tcp_many_executors() {
        let (done, _) = deploy(8, None, 400);
        assert_eq!(done, 400);
    }

    #[test]
    fn tcp_empty_workload_completes() {
        let (done, _) = deploy(1, None, 0);
        assert_eq!(done, 0);
    }
}
