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
//!   `CreateInstance`, and gets a forwarder-tier `InstanceId` the machine
//!   names; each `Submit` bundle becomes a [`ForwarderEvent::ClientSubmit`],
//!   and the machine's least-loaded policy picks the downstream dispatcher.
//!   Results are pushed back as `Results` frames to the connection the
//!   [`Switchboard`] binds the instance to, the last one that named it,
//!   and kept there until the client acknowledges them.
//! * **Downstream** (dialed connections, one per dispatcher): the server
//!   handle dials the dispatcher and has the forwarder's thread adopt the
//!   stream under the dispatcher's slot tag — the one control-plane
//!   request besides stop. Each link runs a [`Client`] machine with no
//!   bundle limit, so a routed bundle stays one `Submit`: it creates its
//!   instance, and the link is *up* once that exists, which
//!   [`ForwarderServer::start`] and
//!   [`ForwarderServer::readmit_dispatcher`] wait for. The results the
//!   dispatcher pushes to it become a
//!   [`ForwarderEvent::DispatcherResults`] and funnel back upstream.
//!
//! Failure semantics: the machine alone decides where work goes. A
//! downstream link closing feeds [`ForwarderEvent::DispatcherLost`]; the
//! machine takes the slot out of routing and re-routes its in-flight
//! tasks to the live slots, or keeps them while every slot is down. The
//! slot's next link coming up feeds [`ForwarderEvent::DispatcherReadmitted`],
//! and the machine routes whatever waited to it. The machine routes only
//! to a slot whose link is up: a slot goes down before its link is
//! replaced and up only on the new link's `InstanceCreated`, and
//! [`ForwarderServer::start`] hands out the client address only once every
//! first link is up, so no bundle can be routed before then. Events of a
//! link that was already replaced carry a token that is no longer the
//! slot's, so they fall away.
//!
//! Lifecycle events are emitted by the *machine* (probe provenance,
//! DESIGN.md §7): this driver only ever reports wire bytes, via the
//! [`WireTap`]s inside each connection, merged per face as connections
//! close — so `tests/obs_parity.rs` finds every machine-emitted kind
//! equal between this deployment, mounted by
//! [`crate::inproc::run_workload`], and the simulator's three tiers.
//!
//! [`WireTap`]: falkon_obs::WireTap

use crate::clock::Clock;
use crate::conn::{Closed, Conn, Inbound};
use crate::engine::{Handler, Token};
use crate::server::{self, Control, Mount};
use crate::tcp::{DispatcherOutcome, DispatcherServer, ServerConfig};
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent, ForwarderStats};
use falkon_core::{mapping, Switchboard};
use falkon_obs::{Counters, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::Message;
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
    /// bring a new downstream link to it up. The machine sees
    /// `DispatcherReadmitted` on the forwarder's thread when the link comes
    /// up, so `DispatcherLost` from the old link can never race the fresh
    /// one.
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

/// One downstream dispatcher slot's current connection, and the client
/// session on it; the link is up once the client has its instance.
struct Link {
    conn: Token,
    client: Client,
}

/// The forwarder's [`Mount`]: the machine, run inside the engine turn,
/// the slots' links downstream and the [`Switchboard`] upstream. The
/// machine arms no deadlines.
struct ForwarderMount {
    clock: Clock,
    fwd: Forwarder<Recorder>,
    actions: Vec<ForwarderAction>,
    links: Vec<Option<Link>>,
    /// What a link's client sends in one step (scratch).
    sends: Vec<ClientAction>,
    link_up: Sender<io::Result<()>>,
    routes: Switchboard<Token>,
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
            links: (0..n).map(|_| None).collect(),
            sends: Vec::new(),
            link_up,
            routes: Switchboard::default(),
            outbox: Vec::new(),
            upstream_wire: Counters::new(),
            downstream_wire: Counters::new(),
        }
    }

    /// A dialed connection for slot `d` is established: its client
    /// starts by creating an instance. If the old link is still in place
    /// (a readmit over a live slot, whose dispatcher is closing it from the
    /// far end), it is torn down — with its re-routes — first.
    fn admit(&mut self, d: usize, conn: Token, now: u64) {
        if self.links[d].is_some() {
            self.lose(d, now);
        }
        let client = Client::new(BundleConfig::of(usize::MAX));
        self.links[d] = Some(Link { conn, client });
        self.step(d, now, |c, out| c.on_event(now, ClientEvent::Start, out));
    }

    /// Tear down slot `d`'s link and tell the machine, which re-routes
    /// everything that was in flight there.
    fn lose(&mut self, d: usize, now: u64) {
        let link = self.links[d].take();
        if link.is_some_and(|l| l.client.instance().is_none()) {
            // It never came up: whoever dialed it is waiting to hear.
            self.link_up
                .send(Err(io::ErrorKind::UnexpectedEof.into()))
                .ok();
        }
        let lost = ForwarderEvent::DispatcherLost { dispatcher: d };
        self.fwd.on_event(now, lost, &mut self.actions);
    }

    /// Run slot `d`'s client on one step and send what it sends. The step
    /// that creates the instance brings the link up: the machine readmits
    /// the slot if it had lost it and routes there whatever was waiting.
    /// Results the step picked up go to the machine.
    fn step(&mut self, d: usize, now: u64, f: impl FnOnce(&mut Client, &mut Vec<ClientAction>)) {
        let link = self.links[d].as_mut().expect("a stepped slot has a link");
        let was_up = link.client.instance().is_some();
        f(&mut link.client, &mut self.sends);
        for act in self.sends.drain(..) {
            if let ClientAction::Send(msg) = act {
                self.outbox.push((link.conn, msg));
            }
        }
        let mut feed = |ev| self.fwd.on_event(now, ev, &mut self.actions);
        if !was_up && link.client.instance().is_some() {
            feed(ForwarderEvent::DispatcherReadmitted { dispatcher: d });
            self.link_up.send(Ok(())).ok();
        }
        let results = link.client.take_results();
        if !results.is_empty() {
            feed(ForwarderEvent::DispatcherResults {
                dispatcher: d,
                results,
            });
        }
    }

    /// Whether `token` is slot `d`'s current link.
    fn is_link(&self, d: usize, token: Token) -> bool {
        self.links[d].as_ref().is_some_and(|l| l.conn == token)
    }

    /// Handle one message from a client.
    fn on_upstream(&mut self, token: Token, msg: Message, now: u64) {
        let outbox = &mut self.outbox;
        self.routes.heard(token, &msg, |to, m| outbox.push((to, m)));
        let ev = match msg {
            Message::CreateInstance => ForwarderEvent::CreateInstance,
            Message::Submit { instance, tasks } => ForwarderEvent::ClientSubmit { instance, tasks },
            // Bindings are the switchboard's; anything else here is a peer
            // speaking the wrong role.
            _ => return,
        };
        self.fwd.on_event(now, ev, &mut self.actions);
    }

    /// Address the machine's pending actions; `cause` is the client
    /// connection whose message the machine answered. A send never fails
    /// here: a dead connection is reported through its own `closed`.
    fn deliver(&mut self, cause: Option<Token>, now: u64) {
        let mut actions = std::mem::take(&mut self.actions);
        for act in actions.drain(..) {
            let (instance, msg) = match act {
                ForwarderAction::SubmitTo { dispatcher, tasks } => {
                    // The machine routes only to a slot whose link is up
                    // (module docs), so this is one `Submit`.
                    self.step(dispatcher, now, |c, out| c.enqueue(now, tasks, out));
                    continue;
                }
                ForwarderAction::InstanceCreated { instance } => {
                    (instance, Message::InstanceCreated { instance })
                }
                ForwarderAction::DeliverResults { instance, results } => {
                    (instance, Message::Results { results })
                }
            };
            if let Some(to) = self.routes.to_instance(instance, &msg, cause) {
                self.outbox.push((to, msg));
            }
        }
        debug_assert!(self.actions.is_empty(), "a submit feeds nothing back");
        self.actions = actions;
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
            (Inbound::Msg(msg), Some(d)) if self.is_link(d, token) => {
                if let Some(ev) = mapping::message_to_client_event(msg) {
                    self.step(d, now, |c, out| c.on_event(now, ev, out));
                }
            }
            (Inbound::Msg(msg), None) => self.on_upstream(token, msg, now),
            // An accepted connection opening, a replaced link's stragglers.
            _ => {}
        }
        self.deliver(peer.is_none().then_some(token), now);
        Ok(false)
    }

    fn closed(&mut self, token: Token, peer: Peer, closed: Closed) {
        match peer {
            Some(d) => {
                self.downstream_wire.merge(&closed.wire);
                // Our own stop closing the link is not a lost dispatcher.
                if !closed.local && self.is_link(d, token) {
                    let now = self.clock.now_us();
                    self.lose(d, now);
                    self.deliver(None, now);
                }
            }
            None => {
                // Results for a gone client's instances wait in the
                // switchboard for the connection that names them next.
                self.upstream_wire.merge(&closed.wire);
                self.routes.close(token);
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
    use crate::inproc::{run_sleep_workload, InprocConfig, WireMode};
    use falkon_core::DispatcherConfig;
    use falkon_obs::ObsEventKind;
    use falkon_proto::bundle::BundleConfig;

    /// `dispatchers` behind the forwarder, 2 executors each, bundles of 50.
    fn tiered(dispatchers: usize, wire: WireMode) -> InprocConfig {
        InprocConfig {
            executors: 2,
            forwarder: Some(dispatchers),
            wire,
            bundle: BundleConfig::of(50),
            dispatcher: DispatcherConfig {
                client_notify_batch: 64,
                ..DispatcherConfig::default()
            },
            ..InprocConfig::default()
        }
    }

    #[test]
    fn three_tier_single_dispatcher_roundtrip() {
        let out = run_sleep_workload(&tiered(1, WireMode::Encoded), 100, 0);
        assert_eq!(out.tasks, 100);
        assert_eq!(out.stats.completed, 100, "dispatchers completed every task");
        let c = &out.obs.counters;
        assert_eq!(c.value(ObsEventKind::ResultsRouted), 100);
        assert_eq!(c.value(ObsEventKind::TaskRerouted), 0);
    }

    #[test]
    fn three_tier_multi_dispatcher_roundtrip() {
        let out = run_sleep_workload(&tiered(3, WireMode::Encoded), 300, 0);
        assert_eq!(out.tasks, 300);
        assert_eq!(out.stats.completed, 300, "dispatchers completed every task");
        // 300 tasks in bundles of 50 → 6 bundles over 3 dispatchers;
        // least-loaded routing must not starve any of them.
        let c = &out.obs.counters;
        assert_eq!(c.count(ObsEventKind::BundleRouted), 6);
        assert_eq!(c.value(ObsEventKind::BundleRouted), 300);
    }

    #[test]
    fn three_tier_secure_roundtrip() {
        let out = run_sleep_workload(&tiered(2, WireMode::Secure), 120, 0);
        assert_eq!(out.tasks, 120);
        assert_eq!(out.stats.completed, 120, "dispatchers completed every task");
        assert_eq!(out.obs.counters.value(ObsEventKind::ResultsRouted), 120);
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
