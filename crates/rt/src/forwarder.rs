//! The 3-tier deployment on real sockets: clients → forwarder → N
//! dispatchers → executors (DESIGN.md §10.3).
//!
//! [`ForwarderServer::start`] mounts the whole server side of the topology
//! in one process: `n` [`DispatcherServer`]s (one thread each) plus the
//! forwarder's own thread, which runs `server::run` with the
//! sans-io [`Forwarder`] machine from `falkon-core` inside the engine
//! turn. The forwarder speaks the ordinary client protocol on both faces,
//! and both faces are connections of the *same* engine:
//!
//! * **Upstream** (accepted connections): a client connects, sends
//!   `CreateInstance`, and gets a forwarder-tier `InstanceId`; each
//!   `Submit` bundle becomes a [`ForwarderEvent::ClientSubmit`], and the
//!   machine's least-loaded policy picks the downstream dispatcher.
//!   Results are pushed back as `Results` frames on the owning client's
//!   connection (the direct-push variant of the notify protocol —
//!   `message_to_client_event` feeds them straight to the client machine).
//! * **Downstream** (dialed connections, one per dispatcher): the server
//!   handle dials the dispatcher and has the forwarder's thread adopt the
//!   stream under the dispatcher's slot tag — the one control-plane
//!   request besides stop. The mount opens it with `CreateInstance`; the
//!   link is *up* once `InstanceCreated` comes back, which
//!   [`ForwarderServer::start`] and
//!   [`ForwarderServer::readmit_dispatcher`] wait for. `ClientNotify` from
//!   a dispatcher is answered with `GetResults`; the `Results` reply
//!   becomes a [`ForwarderEvent::DispatcherResults`] and funnels back
//!   upstream.
//!
//! Failure semantics: a downstream link closing feeds
//! [`ForwarderEvent::DispatcherLost`] to the machine, which poisons the
//! dispatcher's load and re-routes every in-flight task to the survivors —
//! the driver never re-routes on its own. Tasks that cannot be delivered
//! because *every* dispatcher is down park in the driver and replay when
//! their slot's next link comes up, at which point [`Forwarder::readmit`]
//! makes the machine emit `DispatcherReadmitted` and admit new work there.
//! Events of a link that was already replaced carry a token that is no
//! longer the slot's, so they fall away.
//!
//! Lifecycle events are emitted by the *machine* (probe provenance,
//! DESIGN.md §7): this driver only ever reports wire bytes, via the
//! [`WireTap`]s inside each connection, merged per face as connections
//! close — so `obs_parity` extends across the sim and rt three-tier
//! deployments.
//!
//! [`WireTap`]: falkon_obs::WireTap

use crate::clock::Clock;
use crate::conn::{Closed, Conn, Inbound};
use crate::engine::{Handler, Token};
use crate::server::{self, Control, Mount};
use crate::tcp::{DispatcherOutcome, DispatcherServer, ServerConfig};
use falkon_core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent, ForwarderStats};
use falkon_obs::{Counters, Recorder};
use falkon_proto::message::{InstanceId, Message};
use falkon_proto::task::TaskSpec;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// What a finished forwarder observed. Wire counters stay split by
/// face so tests can balance each tier's bytes exactly: `upstream_wire`
/// against the clients, `downstream_wire` against the dispatchers'
/// server-side counters.
pub struct ForwarderOutcome {
    /// Machine counters (bundles/results routed, re-routes, losses).
    pub stats: ForwarderStats,
    /// The machine's probe: lifecycle events only — wire bytes are
    /// reported separately below, per face.
    pub recorder: Recorder,
    /// Merged wire counters of every client-facing connection.
    pub upstream_wire: Counters,
    /// Merged wire counters of every dispatcher-facing connection,
    /// including links lost and replaced along the way.
    pub downstream_wire: Counters,
}

/// Handle to a running three-tier deployment: the forwarder's thread and
/// the `n` dispatcher servers it routes to.
pub struct ForwarderServer {
    /// The client-facing address (clients connect here).
    pub addr: SocketAddr,
    dispatcher_addrs: Vec<SocketAddr>,
    dispatchers: Vec<Option<DispatcherServer>>,
    dispatcher_config: ServerConfig,
    control: Control<Peer>,
    /// One message per dialed link: `Ok` when it came up, `Err` if it
    /// closed first.
    link_up: Receiver<io::Result<()>>,
    thread: JoinHandle<ForwarderMount>,
}

impl ForwarderServer {
    /// Start the full server side of the 3-tier topology: `config` must
    /// carry a forwarder tier ([`ServerConfig::builder`]`.forwarder(n)`).
    /// Binds `n` dispatchers plus the client-facing listener on ephemeral
    /// ports, spawns the forwarder's thread, and brings one downstream
    /// link per dispatcher up.
    pub fn start(config: ServerConfig) -> io::Result<ForwarderServer> {
        let n = config.forwarder_dispatchers().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "config has no forwarder tier; build with ServerConfig::builder().forwarder(n)",
            )
        })?;
        let dispatcher_config = config.clone().without_forwarder();
        let mut dispatchers = Vec::with_capacity(n);
        let mut dispatcher_addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let server = DispatcherServer::start(dispatcher_config.clone())?;
            dispatcher_addrs.push(server.addr);
            dispatchers.push(Some(server));
        }
        let (control, bound) = server::bind(config.security())?;
        let addr = bound.addr;
        let (up_tx, link_up) = channel();
        let mount = ForwarderMount::new(n, bound.clock, up_tx);
        let thread = thread::spawn(move || server::run(bound, mount));
        let server = ForwarderServer {
            addr,
            dispatcher_addrs,
            dispatchers,
            dispatcher_config,
            control,
            link_up,
            thread,
        };
        for d in 0..n {
            if let Err(e) = server.link(d) {
                server.shutdown();
                return Err(e);
            }
        }
        Ok(server)
    }

    /// Dial dispatcher `d`, have the forwarder's thread adopt the stream
    /// as slot `d`'s link, and wait until it reports the link up.
    fn link(&self, d: usize) -> io::Result<()> {
        let stream = TcpStream::connect(self.dispatcher_addrs[d])?;
        self.control.adopt(stream, Some(d));
        self.link_up
            .recv()
            .unwrap_or_else(|_| Err(io::ErrorKind::BrokenPipe.into()))
    }

    /// Downstream dispatcher addresses (connect executors here). Index `d`
    /// is refreshed by [`ForwarderServer::readmit_dispatcher`].
    pub fn dispatcher_addrs(&self) -> &[SocketAddr] {
        &self.dispatcher_addrs
    }

    /// Hard-stop dispatcher `d` (the fault-injection hook). It closes
    /// every connection, so the forwarder's link sees EOF and the machine
    /// re-routes whatever was in flight there. Panics if `d` was already
    /// killed and not readmitted.
    pub fn kill_dispatcher(&mut self, d: usize) -> DispatcherOutcome {
        self.dispatchers[d]
            .take()
            .expect("dispatcher running")
            .shutdown()
    }

    /// Mount a fresh dispatcher in slot `d` (new listener, new port) and
    /// bring a new downstream link to it up. The machine's `readmit` runs
    /// on the forwarder's thread when the link comes up, so
    /// `DispatcherLost` from the old link can never race the fresh one.
    /// Returns the new dispatcher address for executors to connect to.
    pub fn readmit_dispatcher(&mut self, d: usize) -> io::Result<SocketAddr> {
        let server = DispatcherServer::start(self.dispatcher_config.clone())?;
        let addr = server.addr;
        self.dispatcher_addrs[d] = addr;
        self.dispatchers[d] = Some(server);
        self.link(d)?;
        Ok(addr)
    }

    /// Stop the forwarder tier first (so nothing new is routed), then every
    /// still-running dispatcher. Returns the forwarder's outcome and the
    /// surviving dispatchers' outcomes in slot order (killed-and-not-
    /// readmitted slots are skipped).
    pub fn shutdown(self) -> (ForwarderOutcome, Vec<DispatcherOutcome>) {
        drop(self.control);
        let mount = self.thread.join().expect("forwarder thread");
        let outcome = ForwarderOutcome {
            stats: mount.fwd.stats(),
            recorder: mount.fwd.probe().clone(),
            upstream_wire: mount.upstream_wire,
            downstream_wire: mount.downstream_wire,
        };
        let dispatchers = self
            .dispatchers
            .into_iter()
            .flatten()
            .map(DispatcherServer::shutdown)
            .collect();
        (outcome, dispatchers)
    }
}

/// What the routes remember about one connection and cannot derive: the
/// slot it links, if the handle dialed it (`None` for an accepted client).
type Peer = Option<usize>;

/// One downstream dispatcher slot as the mount sees it.
#[derive(Default)]
struct Link {
    /// The connection currently serving this slot.
    conn: Option<Token>,
    /// Our instance at that dispatcher; `Some` once the link is up.
    instance: Option<InstanceId>,
    /// The machine's view: lost, and not readmitted since.
    lost: bool,
    /// Bundles the machine routed here while the link was down (it only
    /// does that when *every* dispatcher is); replayed in order when the
    /// slot's next link comes up.
    parked: Vec<Vec<TaskSpec>>,
}

/// The forwarder's [`Mount`]: the machine, run inside the engine turn,
/// and the routing tables of both faces. The machine arms no deadlines.
struct ForwarderMount {
    clock: Clock,
    fwd: Forwarder<Recorder>,
    actions: Vec<ForwarderAction>,
    links: Vec<Link>,
    link_up: Sender<io::Result<()>>,
    inst_conn: HashMap<InstanceId, Token>,
    next_instance: u64,
    outbox: Vec<(Token, Message)>,
    upstream_wire: Counters,
    downstream_wire: Counters,
}

impl ForwarderMount {
    fn new(n: usize, clock: Clock, link_up: Sender<io::Result<()>>) -> ForwarderMount {
        ForwarderMount {
            clock,
            fwd: Forwarder::with_probe(n, Recorder::new()),
            actions: Vec::new(),
            links: (0..n).map(|_| Link::default()).collect(),
            link_up,
            inst_conn: HashMap::new(),
            next_instance: 1,
            outbox: Vec::new(),
            upstream_wire: Counters::new(),
            downstream_wire: Counters::new(),
        }
    }

    /// A dialed connection for slot `d` is established: open it with
    /// `CreateInstance`. If the old link is still in place (a readmit over
    /// a live slot, whose dispatcher is closing it from the far end), it
    /// is torn down — with its re-routes — first.
    fn admit(&mut self, d: usize, token: Token, now: u64) {
        if self.links[d].conn.is_some() {
            self.lose(d, now);
        }
        self.outbox.push((token, Message::CreateInstance));
        self.links[d].conn = Some(token);
    }

    /// Tear down slot `d`'s link and tell the machine, which re-routes
    /// everything that was in flight there.
    fn lose(&mut self, d: usize, now: u64) {
        let link = &mut self.links[d];
        link.conn = None;
        if link.instance.take().is_none() {
            // It never came up: whoever dialed it is waiting to hear.
            self.link_up
                .send(Err(io::ErrorKind::UnexpectedEof.into()))
                .ok();
        }
        if !std::mem::replace(&mut link.lost, true) {
            let lost = ForwarderEvent::DispatcherLost { dispatcher: d };
            self.fwd.on_event(now, lost, &mut self.actions);
        }
    }

    /// Handle one message from dispatcher `d` on its current link.
    fn on_downstream(&mut self, d: usize, token: Token, msg: Message, now: u64) {
        let link = &mut self.links[d];
        match (msg, link.instance) {
            (Message::InstanceCreated { instance }, None) => {
                // The link is up: admit the slot if the machine had lost
                // it, and replay what was parked. Parked bundles are
                // already in flight on `d` in the machine's books.
                link.instance = Some(instance);
                if std::mem::take(&mut link.lost) {
                    self.fwd.readmit(now, d);
                }
                for tasks in std::mem::take(&mut link.parked) {
                    self.outbox
                        .push((token, Message::Submit { instance, tasks }));
                }
                self.link_up.send(Ok(())).ok();
            }
            // Answer the notify with a fetch, like any client.
            (Message::ClientNotify { .. }, Some(instance)) => {
                self.outbox.push((token, Message::GetResults { instance }));
            }
            (Message::Results { results }, _) => {
                let ev = ForwarderEvent::DispatcherResults {
                    dispatcher: d,
                    results,
                };
                self.fwd.on_event(now, ev, &mut self.actions);
            }
            // SubmitAck and friends carry no forwarder-visible state.
            _ => {}
        }
    }

    /// Handle one message from a client.
    fn on_upstream(&mut self, token: Token, msg: Message, now: u64) {
        match msg {
            Message::CreateInstance => {
                let instance = InstanceId(self.next_instance);
                self.next_instance += 1;
                self.inst_conn.insert(instance, token);
                self.outbox
                    .push((token, Message::InstanceCreated { instance }));
            }
            Message::Submit { instance, tasks } => {
                let ev = ForwarderEvent::ClientSubmit { instance, tasks };
                self.fwd.on_event(now, ev, &mut self.actions);
            }
            Message::DestroyInstance { instance } => {
                self.inst_conn.remove(&instance);
            }
            // GetResults never arrives in the push protocol; everything
            // else on this face is a peer speaking the wrong role.
            _ => {}
        }
    }

    /// Address the machine's pending actions. A send never fails here: a
    /// dead connection is reported through its own `closed`.
    fn deliver(&mut self) {
        for act in self.actions.drain(..) {
            match act {
                ForwarderAction::SubmitTo { dispatcher, tasks } => {
                    match &mut self.links[dispatcher] {
                        Link {
                            conn: Some(token),
                            instance: Some(instance),
                            ..
                        } => {
                            let instance = *instance;
                            self.outbox
                                .push((*token, Message::Submit { instance, tasks }));
                        }
                        link => link.parked.push(tasks),
                    }
                }
                ForwarderAction::DeliverResults { instance, results } => {
                    if let Some(&token) = self.inst_conn.get(&instance) {
                        self.outbox.push((token, Message::Results { results }));
                    }
                }
            }
        }
    }
}

impl Handler<Peer> for ForwarderMount {
    fn inbound(
        &mut self,
        token: Token,
        _: &mut Conn,
        peer: &mut Peer,
        ev: Inbound,
    ) -> io::Result<bool> {
        let now = self.clock.now_us();
        match (ev, *peer) {
            (Inbound::Opened, Some(d)) => self.admit(d, token, now),
            (Inbound::Msg(msg), Some(d)) if self.links[d].conn == Some(token) => {
                self.on_downstream(d, token, msg, now)
            }
            (Inbound::Msg(msg), None) => self.on_upstream(token, msg, now),
            // An accepted connection opening, a replaced link's stragglers.
            _ => {}
        }
        self.deliver();
        Ok(false)
    }

    fn closed(&mut self, token: Token, peer: Peer, closed: Closed) {
        match peer {
            Some(d) => {
                self.downstream_wire.merge(&closed.wire);
                // Our own stop closing the link is not a lost dispatcher.
                if !closed.local && self.links[d].conn == Some(token) {
                    self.lose(d, self.clock.now_us());
                    self.deliver();
                }
            }
            None => {
                // Results for a gone client's instances are dropped at
                // delivery time; the tasks themselves still complete.
                self.upstream_wire.merge(&closed.wire);
                self.inst_conn.retain(|_, conn| *conn != token);
            }
        }
    }
}

impl Mount for ForwarderMount {
    type Peer = Peer;

    fn outbox(&mut self) -> &mut Vec<(Token, Message)> {
        &mut self.outbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::TcpSecurity;
    use falkon_core::executor::ExecutorConfig;
    use falkon_core::DispatcherConfig;
    use falkon_obs::ObsEventKind;
    use falkon_proto::bundle::BundleConfig;
    use falkon_proto::message::ExecutorId;

    fn three_tier(
        dispatchers: usize,
        execs_per_dispatcher: usize,
        n_tasks: u64,
        security: TcpSecurity,
    ) -> (u64, ForwarderOutcome) {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 64,
                ..DispatcherConfig::default()
            })
            .security(security)
            .forwarder(dispatchers)
            .build()
            .expect("valid config");
        let server = ForwarderServer::start(config).expect("bind three-tier");
        let addr = server.addr;
        let mut execs = Vec::new();
        for (d, disp_addr) in server.dispatcher_addrs().iter().enumerate() {
            for e in 0..execs_per_dispatcher {
                let disp_addr = *disp_addr;
                let id = ExecutorId((d * execs_per_dispatcher + e) as u64);
                execs.push(thread::spawn(move || {
                    crate::tcp::run_executor(disp_addr, id, ExecutorConfig::default(), security)
                }));
            }
        }
        let tasks: Vec<TaskSpec> = (0..n_tasks).map(|i| TaskSpec::sleep(i, 0)).collect();
        let client =
            crate::tcp::run_client(addr, tasks, BundleConfig::of(50), security).expect("client");
        let (outcome, dispatcher_outcomes) = server.shutdown();
        for e in execs {
            e.join().expect("executor thread").ok();
        }
        assert_eq!(dispatcher_outcomes.len(), dispatchers);
        let completed: u64 = dispatcher_outcomes
            .iter()
            .map(|(_, s, _)| s.completed)
            .sum();
        assert_eq!(completed, n_tasks, "dispatchers completed every task");
        (client.done, outcome)
    }

    #[test]
    fn three_tier_single_dispatcher_roundtrip() {
        let (done, outcome) = three_tier(1, 2, 100, None);
        assert_eq!(done, 100);
        assert_eq!(outcome.stats.results_delivered, 100);
        assert_eq!(outcome.stats.rerouted, 0);
    }

    #[test]
    fn three_tier_multi_dispatcher_roundtrip() {
        let (done, outcome) = three_tier(3, 2, 300, None);
        assert_eq!(done, 300);
        assert_eq!(outcome.stats.tasks_routed, 300);
        // 300 tasks in bundles of 50 → 6 bundles over 3 dispatchers;
        // least-loaded routing must not starve any of them.
        assert_eq!(outcome.stats.bundles_routed, 6);
        assert_eq!(
            outcome.recorder.counters.value(ObsEventKind::BundleRouted),
            300
        );
    }

    #[test]
    fn three_tier_secure_roundtrip() {
        let (done, outcome) = three_tier(2, 2, 120, Some(0xFA1C0));
        assert_eq!(done, 120);
        assert_eq!(outcome.stats.results_delivered, 120);
    }

    #[test]
    fn start_rejects_non_forwarder_config() {
        let config = ServerConfig::builder().build().expect("valid config");
        let err = match ForwarderServer::start(config) {
            Err(e) => e,
            Ok(_) => panic!("non-forwarder config accepted"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn builder_rejects_zero_dispatchers() {
        assert_eq!(
            ServerConfig::builder().forwarder(0).build().unwrap_err(),
            crate::tcp::ConfigError::ZeroDispatchers
        );
    }
}
