//! The 3-tier deployment on real sockets: clients → forwarder → N
//! dispatchers → executors (DESIGN.md §10.3).
//!
//! [`ForwarderServer::start`] mounts the whole server side in one process:
//! `n` [`DispatcherServer`]s plus the forwarder's thread, which runs
//! `server::run` with a [`ForwarderNode`] inside the engine turn, its
//! endpoints the connections' tokens. Accepted connections are clients.
//! For each slot the handle dials the dispatcher and has the thread adopt
//! the stream under the slot's tag — the one control-plane request besides
//! stop — as the slot's link, and waits until it is up: no bundle is
//! routed before every first link is. A link closing re-routes its slot's
//! tasks. This runtime reports only wire bytes, merged per face as
//! connections close, so `tests/obs_parity.rs` finds every machine-emitted
//! kind equal between this deployment and the simulator's three tiers.

use crate::clock::Clock;
use crate::conn::{Closed, Conn, Inbound};
use crate::engine::{Handler, Token};
use crate::server::{self, Control, Mount};
use crate::tcp::{DispatcherOutcome, DispatcherServer, ServerConfig};
use falkon_core::forwarder::ForwarderStats;
use falkon_core::ForwarderNode;
use falkon_obs::{Counters, Recorder};
use falkon_proto::message::Message;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// What a finished forwarder observed, wire counters split by face so each
/// tier's bytes balance exactly.
pub struct ForwarderOutcome {
    /// Machine counters (bundles/results routed, re-routes, losses).
    pub stats: ForwarderStats,
    /// The machine's probe: lifecycle events only.
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
    /// Start the server side of the 3-tier topology, whose `config` carries
    /// a forwarder tier ([`ServerConfig::builder`]`.forwarder(n)`): `n`
    /// dispatchers, the forwarder's thread, and one link up per slot.
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
        let mount = ForwarderMount {
            clock: bound.clock,
            node: ForwarderNode::new(n, Recorder::new()),
            link_up: up_tx,
            upstream_wire: Counters::new(),
            downstream_wire: Counters::new(),
        };
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

    /// Hard-stop dispatcher `d` (the fault-injection hook): its link sees
    /// EOF and the node re-routes what was there. Panics if `d` was
    /// already killed and not readmitted.
    pub fn kill_dispatcher(&mut self, d: usize) -> DispatcherOutcome {
        self.dispatchers[d]
            .take()
            .expect("dispatcher running")
            .shutdown()
    }

    /// Mount a fresh dispatcher in slot `d` (new port) and bring a link to
    /// it up, returning its address for executors. The node readmits the
    /// slot on the forwarder's thread, so the old link's loss cannot race
    /// the new one.
    pub fn readmit_dispatcher(&mut self, d: usize) -> io::Result<SocketAddr> {
        let server = DispatcherServer::start(self.dispatcher_config.clone())?;
        let addr = server.addr;
        self.dispatcher_addrs[d] = addr;
        self.dispatchers[d] = Some(server);
        self.link(d)?;
        Ok(addr)
    }

    /// Stop the forwarder tier first (so nothing new is routed), then every
    /// running dispatcher; their outcomes come in slot order.
    pub fn shutdown(self) -> (ForwarderOutcome, Vec<DispatcherOutcome>) {
        drop(self.control);
        let mount = self.thread.join().expect("forwarder thread");
        let outcome = ForwarderOutcome {
            stats: mount.node.machine().stats(),
            recorder: mount.node.machine().probe().clone(),
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

/// What the forwarder remembers about one connection: the slot it links,
/// if the handle dialed it (`None` for an accepted client).
type Peer = Option<usize>;

/// The forwarder's [`Mount`]: the node, run inside the engine turn. It
/// arms no deadlines.
struct ForwarderMount {
    clock: Clock,
    node: ForwarderNode<Token, Recorder>,
    link_up: Sender<io::Result<()>>,
    upstream_wire: Counters,
    downstream_wire: Counters,
}

impl ForwarderMount {
    /// Tell whoever dialed a link whether it came up.
    fn report_links(&mut self) {
        for (_, up) in self.node.link_news.drain(..) {
            let news = up.then_some(()).ok_or(io::ErrorKind::UnexpectedEof);
            self.link_up.send(news.map_err(io::Error::from)).ok();
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
            (Inbound::Opened, Some(d)) => self.node.admit(now, d, token),
            (Inbound::Msg(msg), _) => self.node.heard(now, token, msg),
            _ => {}
        }
        self.report_links();
        Ok(false)
    }

    fn closed(&mut self, token: Token, peer: Peer, closed: Closed) {
        let face = match peer {
            Some(_) => &mut self.downstream_wire,
            None => &mut self.upstream_wire,
        };
        face.merge(&closed.wire);
        // Our own stop closing a link is not a lost dispatcher.
        if !closed.local {
            self.node.closed(self.clock.now_us(), token);
            self.report_links();
        }
    }
}

impl Mount for ForwarderMount {
    type Peer = Peer;

    fn outbox(&mut self) -> &mut Vec<(Token, Message)> {
        &mut self.node.outbox
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
