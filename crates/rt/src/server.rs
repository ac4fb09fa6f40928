//! The server mount of the connection engine: one thread that owns the
//! listener, every connection, and a `falkon-core` node (DESIGN.md §10.3).
//!
//! [`run`] is the body of that thread, shared by the dispatcher and the
//! forwarder. It turns one [`Engine`] whose auxiliary fds are the control
//! fd and the listener, so an accepted stream joins the engine on the
//! spot. The [`Mount`] — the engine's `Handler` — runs the node *inside*
//! the turn: a message is heard in the callback that decoded it, the
//! node's deadline bounds the poll, and its outbox is drained into the
//! destination connections' batches after each turn. Nothing on the
//! message path crosses a thread, takes a lock or writes a wake byte.
//!
//! The only cross-thread traffic is the control plane, O(1) messages per
//! run: the owning handle's [`Control`] queues a stream to adopt on a
//! `std::sync::mpsc` inbox and writes one byte to the control fd, or lets
//! go of both, which stops the server.
//!
//! Wake and close rules:
//!
//! * **Outbound message** — an outbox entry is encoded once, into its
//!   connection's batch or, behind a full one, as that batch drains; the
//!   next turn's flush pass writes each batch with one syscall. A failed
//!   write closes the connection there, and what the node says to *that*
//!   is drained after the turn.
//! * **Every close** is reported to the mount exactly once, through
//!   [`Handler::closed`], with the per-connection datum and wire counters;
//!   `Closed::local` tells the server's own closes from the peer's.
//! * **Stop** — the handle drops its [`Control`]; every connection is
//!   closed the orderly way on this thread, and the mount, with the wire
//!   counters it collected, is the thread's result.

use crate::clock::Clock;
use crate::conn::{Conn, TcpSecurity};
use crate::engine::{Engine, Handler, Token};
use crate::poll as sys;
use falkon_proto::message::Message;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// What a server thread runs: the engine [`Handler`] that owns the node.
/// `Peer` is the per-connection datum, handed back when it closes.
pub(crate) trait Mount: Handler<Self::Peer> {
    /// `Default` for an accepted connection; an adopted one brings its own.
    type Peer: Default;

    /// What the node has said since the last drain, each message with the
    /// connection it is for.
    fn outbox(&mut self) -> &mut Vec<(Token, Message)>;

    /// Absolute clock µs at which the node wants [`Mount::on_deadline`].
    fn next_deadline(&mut self) -> Option<u64> {
        None
    }

    /// The time [`Mount::next_deadline`] named has come.
    fn on_deadline(&mut self) {}
}

/// The owning handle's end of a server's control plane. Dropping it stops
/// the server (the inbox disconnects first, then the control fd hangs up).
pub(crate) struct Control<P> {
    adoptions: Sender<(TcpStream, P)>,
    /// One byte per adoption turns it into a readiness event. Nonblocking:
    /// a full pipe already guarantees a pending wake-up.
    wake: UnixStream,
}

impl<P> Control<P> {
    /// Hand the server a stream dialed on its behalf; it is an ordinary
    /// connection from then on, told apart only by `peer`.
    pub(crate) fn adopt(&self, stream: TcpStream, peer: P) {
        self.adoptions.send((stream, peer)).ok();
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// A bound server that is not running yet: what its thread will own.
pub(crate) struct Bound<P> {
    /// The listening address (ephemeral localhost port).
    pub(crate) addr: SocketAddr,
    /// The one clock origin of the server: machine time and every
    /// connection's wire tap timestamps are mutually comparable.
    pub(crate) clock: Clock,
    listener: TcpListener,
    adoptions: Receiver<(TcpStream, P)>,
    wake: UnixStream,
    security: TcpSecurity,
}

/// Bind `127.0.0.1:0` and set up the control plane.
pub(crate) fn bind<P>(security: TcpSecurity) -> io::Result<(Control<P>, Bound<P>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    sys::set_backlog(&listener, sys::LISTEN_BACKLOG)?;
    listener.set_nonblocking(true)?;
    let (wake_tx, wake) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake.set_nonblocking(true)?;
    let (adoptions_tx, adoptions) = channel();
    let bound = Bound {
        addr: listener.local_addr()?,
        clock: Clock::start(),
        listener,
        adoptions,
        wake,
        security,
    };
    let control = Control {
        adoptions: adoptions_tx,
        wake: wake_tx,
    };
    Ok((control, bound))
}

/// Body of the server thread: serve until the handle lets go, then close
/// every connection the orderly way and hand the mount back.
pub(crate) fn run<M: Mount>(bound: Bound<M::Peer>, mut mount: M) -> M {
    let clock = bound.clock;
    let mut engine = Engine::new(clock);
    let aux = [bound.wake.as_raw_fd(), bound.listener.as_raw_fd()];
    let mut wakebuf = [0u8; 16];
    let mut batch = Vec::new();
    let mut stop = false;
    while !stop {
        let Ok(ready) = engine.turn(&aux, mount.next_deadline(), &mut mount) else {
            break;
        };
        if ready & 1 != 0 {
            // Drain the control fd completely (a short read has) *before*
            // the inbox: each stream was queued before its byte was
            // written, so none can be left behind a consumed wake.
            while matches!((&bound.wake).read(&mut wakebuf), Ok(n) if n == wakebuf.len()) {}
            loop {
                match bound.adoptions.try_recv() {
                    Ok((stream, peer)) => {
                        if let Ok(conn) = Conn::new(stream, bound.security, clock) {
                            engine.add(conn, peer, &mut mount);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        stop = true;
                        break;
                    }
                }
            }
        }
        if ready & 2 != 0 {
            // Nonblocking: ends at WouldBlock; any other accept error is
            // retried on the listener's next readiness.
            while let Ok((stream, _)) = bound.listener.accept() {
                if let Ok(conn) = Conn::new(stream, bound.security, clock) {
                    engine.add(conn, M::Peer::default(), &mut mount);
                }
            }
        }
        if mount.next_deadline().is_some_and(|d| d <= clock.now_us()) {
            mount.on_deadline();
        }
        // A send never closes a connection (a failed write is the next
        // turn's), so one drain leaves the outbox empty.
        std::mem::swap(mount.outbox(), &mut batch);
        for (token, msg) in batch.drain(..) {
            engine.send(token, msg);
        }
    }
    engine.close_all(&mut mount).ok();
    mount
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A fleet dials before the server thread accepts anyone, and a
    /// connect returns once the kernel has queued the handshake. With
    /// `std`'s 128-deep accept queue the 129th SYN is dropped and its
    /// dialer waits a second for the retransmit; with the listener's
    /// deeper queue every one of 1,000 dials completes at once.
    #[test]
    fn a_listener_that_never_accepts_queues_a_thousand_dials() {
        let (_control, bound) = bind::<()>(None).expect("bind");
        // Held open, so each stays in the queue; the first dial that times
        // out ends the run rather than waiting out the rest.
        let established: Vec<TcpStream> = (0..1_000)
            .map_while(|_| TcpStream::connect_timeout(&bound.addr, Duration::from_millis(500)).ok())
            .collect();
        assert_eq!(established.len(), 1_000, "dials queued without an accept");
    }
}
