//! Executor peers: any number of them multiplexed on the caller's thread.
//!
//! The server mount holds every connection of a *dispatcher* on its one
//! thread; this module mounts the same [`Engine`] on the peer side, so one
//! thread can hold a thousand executor connections. [`run_executors_mux`] dials
//! `count` executors and drives all of their sans-io machines from the
//! engine's callbacks: nonblocking sockets, coalesced writes, and each
//! machine's idle deadline carried as its connection's deadline. The only
//! threads are the caller's. [`crate::tcp::run_executor`] is this pool
//! with one member.
//!
//! Task bodies run inline on the calling thread, so a pool of many is only
//! appropriate for dispatch-rate workloads (sleep-0 tasks) — a task that
//! actually sleeps stalls every peer in the loop. Give each executor its
//! own thread (and its own pool of one) when task bodies do real work;
//! its batch is written before such a body runs.

use crate::clock::Clock;
use crate::conn::{Closed, Conn, Inbound, TcpSecurity};
use crate::engine::{Engine, Handler, Token};
use crate::exec::{execute_builtin, execute_process};
use falkon_core::executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent};
use falkon_obs::{Counters, NoopProbe, Probe};
use falkon_proto::message::ExecutorId;
use falkon_proto::task::TaskSpec;
use std::io;
use std::net::{SocketAddr, TcpStream};

/// What a multiplexed executor pool observed across all of its peers.
pub struct MuxOutcome {
    /// Tasks run, summed over every executor.
    pub tasks: u64,
    /// Wire counters merged over every connection, both directions.
    pub wire: Counters,
}

/// The pool's [`Handler`]: each connection's datum is its machine.
pub(crate) struct Pool<P> {
    clock: Clock,
    /// Pump scratch, shared by every machine (each pump runs to quiet).
    actions: Vec<ExecutorAction>,
    bodies: Vec<TaskSpec>,
    queue: Vec<ExecutorEvent>,
    /// Run each task body as a spawned OS process.
    spawn: bool,
    pub(crate) outcome: MuxOutcome,
    /// Every finished machine's probe, in the order they finished.
    pub(crate) probes: Vec<P>,
    /// A peer that never got as far as `Opened`: fatal for the pool.
    handshake_error: Option<io::Error>,
    /// The first real socket error (not EOF) on an established peer.
    pub(crate) socket_error: Option<io::Error>,
}

impl<P: Probe> Pool<P> {
    /// Drive `machine` until it has neither pending actions nor feedback
    /// events: sends are queued on `conn`, task bodies run inline on this
    /// thread (as a spawned OS process when `spawn`), and each completion
    /// is fed straight back in. `Ok(true)` means the machine asked to
    /// shut down; a socket error aborts the pump.
    fn pump(&mut self, machine: &mut Executor<P>, conn: &mut Conn) -> io::Result<bool> {
        while !self.actions.is_empty() || !self.queue.is_empty() {
            for act in self.actions.drain(..) {
                match act {
                    ExecutorAction::Send(msg) => conn.enqueue(msg)?,
                    ExecutorAction::Run(spec) => self.bodies.push(spec),
                    ExecutorAction::Shutdown => return Ok(true),
                }
            }
            for spec in self.bodies.drain(..) {
                // Nothing waits in the batch while a body that takes time
                // runs; `sleep 0` bodies leave their sends coalescing.
                if self.spawn || spec.runtime_us() > 0 {
                    conn.flush()?;
                }
                let t0 = self.clock.now_us();
                let mut result = if self.spawn {
                    execute_process(&spec)
                } else {
                    execute_builtin(&spec)
                };
                result.executor_time_us = self.clock.now_us() - t0;
                self.queue.push(ExecutorEvent::TaskCompleted { result });
            }
            for ev in self.queue.drain(..) {
                machine.on_event(self.clock.now_us(), ev, &mut self.actions);
            }
        }
        Ok(false)
    }
}

impl<P: Probe> Handler<Executor<P>> for Pool<P> {
    fn inbound(
        &mut self,
        _: Token,
        conn: &mut Conn,
        machine: &mut Executor<P>,
        ev: Inbound,
    ) -> io::Result<bool> {
        let ev = match ev {
            Inbound::Opened => Some(ExecutorEvent::Start),
            Inbound::Msg(msg) => falkon_core::mapping::message_to_executor_event(msg),
            Inbound::Deadline => Some(ExecutorEvent::IdleTimeout),
        };
        if let Some(ev) = ev {
            machine.on_event(self.clock.now_us(), ev, &mut self.actions);
        }
        // Sends coalesce in the connection's batch and leave in one write
        // on the engine's next turn.
        let shutdown = self.pump(machine, conn)?;
        conn.set_deadline(machine.idle_deadline_us());
        Ok(shutdown)
    }

    fn closed(&mut self, _: Token, machine: Executor<P>, closed: Closed) {
        self.outcome.tasks += machine.stats().tasks_run;
        self.outcome.wire.merge(&closed.wire);
        self.probes.push(machine.into_probe());
        if !closed.opened {
            self.handshake_error = Some(
                closed
                    .cause
                    .unwrap_or_else(|| io::ErrorKind::UnexpectedEof.into()),
            );
        } else if !closed.local && self.socket_error.is_none() {
            self.socket_error = closed.cause;
        }
    }
}

/// Mount one executor on each connected stream (ids from `first_id` up,
/// one probe from `probe` each; task bodies as OS processes when `spawn`)
/// and drive them all from this thread until every connection has closed:
/// the dispatcher went away, or the machine released itself.
pub(crate) fn run_pool<P: Probe>(
    streams: impl IntoIterator<Item = io::Result<TcpStream>>,
    first_id: u64,
    config: ExecutorConfig,
    security: TcpSecurity,
    spawn: bool,
    mut probe: impl FnMut() -> P,
) -> io::Result<Pool<P>> {
    let clock = Clock::start();
    let mut engine = Engine::new(clock);
    let mut pool = Pool {
        clock,
        actions: Vec::new(),
        bodies: Vec::new(),
        queue: Vec::new(),
        spawn,
        outcome: MuxOutcome {
            tasks: 0,
            wire: Counters::new(),
        },
        probes: Vec::new(),
        handshake_error: None,
        socket_error: None,
    };
    // A lazy `streams` dials serially. This does NOT bound the listener's
    // accept queue: `connect` returns when the kernel completes the
    // handshake, not when the server accepts, so a fast dialer still piles
    // connections into the backlog — the deep listen queue
    // (`poll::LISTEN_BACKLOG`) is what absorbs the fleet.
    for (id, stream) in (first_id..).zip(streams) {
        let conn = Conn::new(stream?, security, clock)?;
        let id = ExecutorId(id);
        let machine = Executor::with_probe(id, "tcp-exec", config, probe());
        engine.add(conn, machine, &mut pool);
    }
    // A handshake can fail as early as `add`, before the first turn.
    while engine.live() > 0 && pool.handshake_error.is_none() {
        engine.turn(&[], None, &mut pool)?;
    }
    match pool.handshake_error.take() {
        Some(e) => Err(e),
        None => Ok(pool),
    }
}

/// Connect `count` executors (ids `first_id..first_id+count`) to a TCP
/// dispatcher and drive them all from this thread until every connection
/// closes or every machine releases itself.
pub fn run_executors_mux(
    addr: SocketAddr,
    first_id: u64,
    count: usize,
    config: ExecutorConfig,
    security: TcpSecurity,
) -> io::Result<MuxOutcome> {
    let streams = (0..count).map(|_| TcpStream::connect(addr));
    run_pool(streams, first_id, config, security, false, || NoopProbe).map(|pool| pool.outcome)
}
