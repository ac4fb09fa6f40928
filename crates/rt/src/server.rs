//! The server mount of the connection engine: `n` shard threads behind one
//! listening socket, feeding one event channel (DESIGN.md §10.3).
//!
//! Each shard thread runs an [`Engine`] whose auxiliary fds are its wake
//! pipe and — on shard 0 — the listener, so accepting is just one more
//! readiness event: no accept thread, no stop latch, no self-connect.
//! Shard 0 deals accepted streams round-robin over every shard's op queue,
//! its own included. A stream the server dialed itself (a forwarder's
//! downstream link) enters through the same op, [`Shards::adopt`], and from
//! then on is an ordinary connection of that shard.
//!
//! What a shard reports to the owning core is a [`ServerEvent`] on the
//! core's one channel; what the core sends back travels as ops through a
//! [`ConnHandle`]. The op channel's registered [`SelectWake`] watcher
//! writes the shard's wake pipe, so a channel send *is* a readiness event
//! and the shard has exactly one blocking point. OS thread count is
//! `shards`, independent of connection count.
//!
//! Wake and close rules:
//!
//! * **Outbound message** — [`ConnHandle::send`] queues an op; the shard
//!   drains its op queue into per-connection batches, and the next turn's
//!   flush pass writes each batch with one syscall.
//! * **Close by the core** — dropping a [`ConnHandle`] queues a close op;
//!   the connection stops reading, flushes what is queued, and is
//!   released. No [`ServerEvent::Closed`] is reported for it.
//! * **Close by the peer or an error** — reported as
//!   [`ServerEvent::Closed`], once, if the connection had been announced.
//! * **Stop** — every connection is closed the orderly way; the thread
//!   returns the merged wire counters of every connection it ever owned.

use crate::clock::Clock;
use crate::conn::{Closed, Conn, Inbound, TcpSecurity};
use crate::engine::{Engine, Handler, Token};
use crate::poll as sys;
use crossbeam::channel::{unbounded, Receiver, SelectWake, Sender, TryRecvError};
use falkon_obs::Counters;
use falkon_proto::message::Message;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Identifier of one server-side connection: the owning shard plus the
/// connection's slab token there, so ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnId {
    shard: u32,
    token: Token,
}

/// Everything a server core waits on, in one channel: its connections'
/// traffic from the shards, and the owner's stop request.
pub enum ServerEvent {
    /// A connection is established; route replies via the handle. The
    /// last field is `Some(slot)` for a stream the server dialed itself
    /// and adopted under that slot tag, `None` for an accepted one.
    Connected(ConnId, ConnHandle, Option<usize>),
    /// One decoded inbound message.
    Msg(ConnId, Message),
    /// The peer (or an I/O error) ended the connection. Not emitted for
    /// closes the core itself initiated by dropping the [`ConnHandle`].
    Closed(ConnId),
    /// The owning handle asks the core to wind down.
    Stop,
}

/// Outbound handle to one established connection. [`ConnHandle::send`]
/// queues a message and wakes the owning shard; everything queued by the
/// time it runs coalesces into one write. Dropping the handle closes the
/// connection after a final flush.
pub struct ConnHandle {
    ops: Sender<Op>,
    token: Token,
}

impl ConnHandle {
    /// Queue one message for this connection. Silently dropped if the
    /// connection is already gone (the loss is reported as
    /// [`ServerEvent::Closed`] and the dispatcher replays the task).
    pub fn send(&self, msg: Message) {
        self.ops.send(Op::Send(self.token, msg)).ok();
    }
}

impl Drop for ConnHandle {
    fn drop(&mut self) {
        self.ops.send(Op::Close(self.token)).ok();
    }
}

enum Op {
    /// Take a connected stream into this shard (tagged if dialed).
    Adopt(TcpStream, Option<usize>),
    /// Queue one outbound message.
    Send(Token, Message),
    /// Final-flush and release the connection (core dropped its handle).
    Close(Token),
    /// Finish every connection and exit the shard thread.
    Stop,
}

/// The watcher registered on a shard's op channel: every send writes one
/// byte into the shard's wake pipe, turning channel traffic into `poll`
/// readiness. Writes are nonblocking and failures are ignored — a full
/// pipe already guarantees a pending wake-up.
struct PipeWaker {
    tx: UnixStream,
}

impl SelectWake for PipeWaker {
    fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Wire counters of a shard's finished connections, accepted and dialed
/// kept apart so a forwarder can balance each face separately.
#[derive(Default)]
pub(crate) struct ServerWire {
    pub(crate) accepted: Counters,
    pub(crate) dialed: Counters,
}

/// One shard's [`Handler`]: connection events out to the core, wire
/// counters kept for the join. The per-connection datum is the dial tag.
struct Shard {
    index: u32,
    /// Our own op sender, for minting [`ConnHandle`]s.
    ops: Sender<Op>,
    events: Sender<ServerEvent>,
    wire: ServerWire,
}

impl Handler<Option<usize>> for Shard {
    fn inbound(
        &mut self,
        token: Token,
        _conn: &mut Conn,
        dialed: &mut Option<usize>,
        ev: Inbound,
    ) -> io::Result<bool> {
        let id = ConnId {
            shard: self.index,
            token,
        };
        let ev = match ev {
            Inbound::Opened => {
                let ops = self.ops.clone();
                ServerEvent::Connected(id, ConnHandle { ops, token }, *dialed)
            }
            Inbound::Msg(msg) => ServerEvent::Msg(id, msg),
            Inbound::Deadline => return Ok(false),
        };
        // If the core is gone the SendError drops any handle inside, which
        // queues a Close op back to us; the next op drain frees the slot.
        self.events.send(ev).ok();
        Ok(false)
    }

    fn closed(&mut self, token: Token, dialed: Option<usize>, closed: Closed) {
        match dialed {
            Some(_) => self.wire.dialed.merge(&closed.wire),
            None => self.wire.accepted.merge(&closed.wire),
        }
        if closed.opened && !closed.local {
            let shard = self.index;
            self.events
                .send(ServerEvent::Closed(ConnId { shard, token }))
                .ok();
        }
    }
}

/// Body of one shard thread. `accept` is `Some` on shard 0 only: the
/// listener, and every shard's op sender to deal accepted streams over.
fn run_shard(
    mut shard: Shard,
    ops: Receiver<Op>,
    wake_rx: UnixStream,
    accept: Option<(TcpListener, Vec<Sender<Op>>)>,
    security: TcpSecurity,
) -> ServerWire {
    // One clock origin per shard, so its connections' wire tap timestamps
    // are mutually comparable.
    let clock = Clock::start();
    let mut engine = Engine::new(clock);
    let mut aux = vec![wake_rx.as_raw_fd()];
    aux.extend(accept.as_ref().map(|(listener, _)| listener.as_raw_fd()));
    let mut next_shard = 0usize;
    let mut wakebuf = [0u8; 256];
    'run: loop {
        loop {
            match ops.try_recv() {
                Ok(Op::Adopt(stream, dialed)) => {
                    if let Ok(conn) = Conn::new(stream, security, clock) {
                        engine.add(conn, dialed);
                    }
                }
                Ok(Op::Send(token, msg)) => engine.send(token, &msg, &mut shard),
                Ok(Op::Close(token)) => engine.close(token),
                Ok(Op::Stop) | Err(TryRecvError::Disconnected) => break 'run,
                Err(TryRecvError::Empty) => break,
            }
        }
        let Ok(ready) = engine.turn(&aux, &mut shard) else {
            break;
        };
        if ready & 1 != 0 {
            // Drain the wake pipe completely (a short read has): each
            // queued op wrote at most one byte, and the op drain at the
            // top of the loop runs *after* this, so no wake-up can be lost.
            while matches!((&wake_rx).read(&mut wakebuf), Ok(n) if n == wakebuf.len()) {}
        }
        if ready & 2 != 0 {
            let (listener, shards) = accept.as_ref().expect("aux[1] is the listener");
            // Nonblocking: ends at WouldBlock; any other accept error is
            // retried on the listener's next readiness.
            while let Ok((stream, _)) = listener.accept() {
                shards[next_shard].send(Op::Adopt(stream, None)).ok();
                next_shard = (next_shard + 1) % shards.len();
            }
        }
    }
    engine.close_all(&mut shard).ok();
    shard.wire
}

/// The running shard threads of one server.
pub(crate) struct Shards {
    /// The bound address (connect executors/clients here).
    pub(crate) addr: SocketAddr,
    ops: Vec<Sender<Op>>,
    threads: Vec<JoinHandle<ServerWire>>,
}

impl Shards {
    /// Bind an ephemeral localhost port and start `n` shard threads
    /// reporting to `events`.
    pub(crate) fn bind(
        security: TcpSecurity,
        n: usize,
        events: &Sender<ServerEvent>,
    ) -> io::Result<Shards> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        sys::set_backlog(&listener, sys::LISTEN_BACKLOG)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut listener = Some(listener);
        let channels: Vec<_> = (0..n).map(|_| unbounded::<Op>()).collect();
        let ops: Vec<Sender<Op>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        let mut threads = Vec::with_capacity(n);
        for (index, (op_tx, op_rx)) in channels.into_iter().enumerate() {
            let (pipe_tx, wake_rx) = UnixStream::pair()?;
            pipe_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            op_rx.watch(Arc::new(PipeWaker { tx: pipe_tx }));
            let shard = Shard {
                index: index as u32,
                ops: op_tx,
                events: events.clone(),
                wire: ServerWire::default(),
            };
            let accept = listener.take().map(|l| (l, ops.clone()));
            threads.push(thread::spawn(move || {
                run_shard(shard, op_rx, wake_rx, accept, security)
            }));
        }
        Ok(Shards { addr, ops, threads })
    }

    /// Hand a stream this server dialed itself to a shard; it is reported
    /// as [`ServerEvent::Connected`] with `Some(slot)`.
    pub(crate) fn adopt(&self, stream: TcpStream, slot: usize) {
        self.ops[slot % self.ops.len()]
            .send(Op::Adopt(stream, Some(slot)))
            .ok();
    }

    /// Close every connection (flushing queued frames), join every shard
    /// thread, and return the merged wire counters of all connections.
    /// Close ops from handles the core already dropped precede this stop
    /// on the same channels, so those connections finish first.
    pub(crate) fn shutdown(self) -> ServerWire {
        for tx in &self.ops {
            tx.send(Op::Stop).ok();
        }
        let mut wire = ServerWire::default();
        for handle in self.threads {
            if let Ok(shard) = handle.join() {
                wire.accepted.merge(&shard.accepted);
                wire.dialed.merge(&shard.dialed);
            }
        }
        wire
    }
}
