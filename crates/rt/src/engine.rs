//! The one readiness loop (DESIGN.md §10.3).
//!
//! An `Engine` is a generation-token slab of [`Conn`]s, each carrying a
//! mount-chosen `T`, plus the only `poll(2)` wait in the crate. Every
//! socket path mounts it: the dispatcher and forwarder server threads, the
//! forwarder's downstream links (adopted by the forwarder's thread), the
//! multiplexed executor pool, and the single-connection executor and
//! client runs. A mount supplies a `Handler` and calls `Engine::turn`
//! in a loop; one turn
//!
//! 1. flushes every pending outbound batch and builds the poll set —
//!    `POLLOUT` only for batches the socket would not take whole,
//! 2. blocks in `poll(2)` until a socket, one of the mount's auxiliary
//!    fds (a server's control fd and listener), the earliest
//!    per-connection deadline, or the mount's own deadline (a server's
//!    machine) is due,
//! 3. reads every readable connection (at most `READ_BUDGET` reads
//!    each), handing each decoded message to the handler, and
//! 4. expires deadlines: a silent handshake or a stuck final drain is
//!    dropped, a steady-state deadline is delivered to the handler.
//!
//! Closing has one path, [`Conn::finish`], whichever side ends the
//! connection: the close-time tap drain, the socket shutdown, and one
//! `Handler::closed` call carrying the connection's wire counters.

use crate::clock::Clock;
use crate::conn::{Closed, Conn, Inbound};
use crate::poll::{self as sys, PollFd};
use falkon_proto::frame::MIN_READ_SPACE;
use falkon_proto::message::Message;
use std::io::{self, ErrorKind};

/// Generation-counted slab index of one connection. The generation guards
/// slot reuse: a stale token (its connection closed, the slot recycled)
/// resolves to nothing instead of hitting the wrong peer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Token {
    idx: u32,
    gen: u32,
}

/// What a mount does with its connections' traffic.
pub(crate) trait Handler<T> {
    /// One inbound event on an established connection. `Ok(true)` ends the
    /// connection in an orderly way (flush what is queued, then close);
    /// an error ends it at once.
    fn inbound(
        &mut self,
        token: Token,
        conn: &mut Conn,
        data: &mut T,
        ev: Inbound,
    ) -> io::Result<bool>;

    /// The connection is gone, for whatever reason; called exactly once.
    fn closed(&mut self, token: Token, data: T, closed: Closed);
}

/// Per-turn cap on `read()` calls per connection, so one firehose peer
/// cannot starve the others. `poll` is level-triggered: leftover bytes
/// re-arm the fd on the next turn.
const READ_BUDGET: usize = 8;

pub(crate) struct Engine<T> {
    slots: Vec<Option<(Conn, T)>>,
    /// Current generation per slot; bumped when a slot is freed.
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    clock: Clock,
    pollfds: Vec<PollFd>,
    /// `pollfds[aux.len() + i]` → slot index.
    poll_slots: Vec<usize>,
}

impl<T> Engine<T> {
    pub(crate) fn new(clock: Clock) -> Self {
        Engine {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            clock,
            pollfds: Vec::new(),
            poll_slots: Vec::new(),
        }
    }

    /// Connections not yet closed.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Take a connection into the slab and service it at once, so its
    /// `Opened`, and anything its peer already sent, needs no socket event.
    pub(crate) fn add<H: Handler<T>>(&mut self, conn: Conn, data: T, h: &mut H) -> Token {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some((conn, data));
        self.live += 1;
        let token = self.token(idx);
        self.service_read(idx, h);
        token
    }

    fn token(&self, idx: usize) -> Token {
        Token {
            idx: idx as u32,
            gen: self.gens[idx],
        }
    }

    /// Queue `msg` on the connection `token` names; a stale token or a
    /// connection not `Ready` (one already draining) drops it. Nothing is
    /// written here: the next turn's flush pass writes, and ends the
    /// connection if that fails.
    pub(crate) fn send(&mut self, token: Token, msg: Message) {
        let idx = token.idx as usize;
        if self.gens.get(idx) == Some(&token.gen) {
            if let Some((conn, _)) = self.slots[idx].as_mut() {
                conn.enqueue(msg).ok();
            }
        }
    }

    /// Orderly close of every established connection, then turn until all
    /// are gone (each bounded by the drain patience). A connection still in
    /// its handshake has nothing of its owner's queued and ends at once.
    pub(crate) fn close_all<H: Handler<T>>(&mut self, h: &mut H) -> io::Result<()> {
        for idx in 0..self.slots.len() {
            match self.slots[idx].as_mut() {
                Some((conn, _)) if conn.is_ready() => conn.begin_drain(),
                Some((conn, _)) if !conn.is_draining() => self.finish(idx, None, h),
                _ => {}
            }
        }
        while self.live > 0 {
            self.turn(&[], None, h)?;
        }
        Ok(())
    }

    /// One pass of the loop (see the module docs). `aux` fds are polled
    /// for readability alongside the connections; bit `i` of the result is
    /// set when `aux[i]` is ready. The wait also ends at `mount_deadline`
    /// (absolute clock µs), which is the mount's to act on.
    pub(crate) fn turn<H: Handler<T>>(
        &mut self,
        aux: &[i32],
        mount_deadline: Option<u64>,
        h: &mut H,
    ) -> io::Result<u32> {
        self.pollfds.clear();
        self.poll_slots.clear();
        self.pollfds.extend(aux.iter().map(|&fd| PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        }));
        let mut deadline: Option<u64> = None;
        for idx in 0..self.slots.len() {
            let Some((conn, _)) = self.slots[idx].as_mut() else {
                continue;
            };
            match conn.flush() {
                Ok(true) if conn.is_draining() => {
                    self.finish(idx, None, h);
                    continue;
                }
                Ok(_) => {}
                Err(e) => {
                    self.finish(idx, Some(e), h);
                    continue;
                }
            }
            if let Some(d) = conn.deadline_us() {
                deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
            }
            self.pollfds.push(PollFd {
                fd: conn.raw_fd(),
                events: conn.interest(),
                revents: 0,
            });
            self.poll_slots.push(idx);
        }
        if self.pollfds.is_empty() {
            return Ok(0);
        }
        let wake = deadline.into_iter().chain(mount_deadline).min();
        sys::poll_wait(&mut self.pollfds, timeout_ms(wake, || self.clock.now_us()))?;
        let mut aux_ready = 0u32;
        for i in 0..self.pollfds.len() {
            // Writability needs no service of its own: it ends the wait,
            // and the next turn's flush pass does the writing.
            let revents = self.pollfds[i].revents & !sys::POLLOUT;
            if revents == 0 {
                continue;
            }
            match i.checked_sub(aux.len()) {
                None => aux_ready |= 1 << i,
                Some(c) => self.service_read(self.poll_slots[c], h),
            }
        }
        if deadline.is_some_and(|d| d <= self.clock.now_us()) {
            self.expire(h);
        }
        Ok(aux_ready)
    }

    /// Hand the handler everything buffered, then read (bounded) and
    /// repeat. The same path serves the first frame after a handshake and
    /// the millionth in steady state.
    fn service_read<H: Handler<T>>(&mut self, idx: usize, h: &mut H) {
        let token = self.token(idx);
        let Some((conn, data)) = self.slots[idx].as_mut() else {
            return;
        };
        let mut budget = READ_BUDGET;
        // `Err(cause)` ends the connection; `cause` is `None` for EOF.
        let end: Result<(), Option<io::Error>> = loop {
            if conn.is_draining() {
                break Ok(());
            }
            match conn.poll_inbound() {
                Ok(Some(ev)) => match h.inbound(token, conn, data, ev) {
                    Ok(false) => {}
                    Ok(true) => conn.begin_drain(),
                    Err(e) => break Err(Some(e)),
                },
                Ok(None) if budget == 0 => break Ok(()),
                Ok(None) => {
                    budget -= 1;
                    match conn.fill() {
                        Ok(0) => break Err(None),
                        // A short read emptied the socket: decode what
                        // came, but skip the read that would only say so.
                        Ok(n) if n < MIN_READ_SPACE => budget = 0,
                        Ok(_) => {}
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => break Err(Some(e)),
                    }
                }
                Err(e) => break Err(Some(e)),
            }
        };
        if let Err(cause) = end {
            self.finish(idx, cause, h);
        }
    }

    /// Act on every deadline that has passed.
    fn expire<H: Handler<T>>(&mut self, h: &mut H) {
        let now = self.clock.now_us();
        for idx in 0..self.slots.len() {
            let token = self.token(idx);
            let Some((conn, data)) = self.slots[idx].as_mut() else {
                continue;
            };
            if conn.deadline_us().is_none_or(|d| d > now) {
                continue;
            }
            let cause = if conn.is_ready() {
                conn.set_deadline(None);
                match h.inbound(token, conn, data, Inbound::Deadline) {
                    Ok(false) => continue,
                    Ok(true) => {
                        conn.begin_drain();
                        continue;
                    }
                    Err(e) => e,
                }
            } else {
                // A peer that never said hello, or never read our last bytes.
                ErrorKind::TimedOut.into()
            };
            self.finish(idx, Some(cause), h);
        }
    }

    /// Free the slot (bumping its generation) and report the closure.
    fn finish<H: Handler<T>>(&mut self, idx: usize, cause: Option<io::Error>, h: &mut H) {
        let token = self.token(idx);
        let (conn, data) = self.slots[idx].take().expect("live slot");
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx as u32);
        self.live -= 1;
        h.closed(token, data, conn.finish(cause));
    }
}

/// The `poll(2)` timeout of a turn due to wake at `wake` (absolute clock
/// µs): with no deadline `-1`, blocking until a socket is ready (a turn has
/// no cadence) without reading the clock; else the milliseconds left after
/// `now()`, rounded up so it never wakes early, and saturated at `i32::MAX`.
fn timeout_ms(wake: Option<u64>, now: impl FnOnce() -> u64) -> i32 {
    wake.map_or(-1, |d| {
        i32::try_from(d.saturating_sub(now()).div_ceil(1000)).unwrap_or(i32::MAX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    struct Idle;

    impl Handler<()> for Idle {
        fn inbound(&mut self, _: Token, _: &mut Conn, _: &mut (), _: Inbound) -> io::Result<bool> {
            Ok(false)
        }

        fn closed(&mut self, _: Token, _: (), _: Closed) {}
    }

    /// No deadline blocks, a past one polls, a far one saturates; in
    /// between, the wait rounds up to whole milliseconds.
    #[test]
    fn the_timeout_blocks_without_a_deadline_and_never_wakes_early() {
        let now = 5_000_000;
        assert_eq!(timeout_ms(None, || unreachable!("read the clock")), -1);
        assert_eq!(timeout_ms(Some(now - 1), || now), 0);
        assert_eq!(timeout_ms(Some(now), || now), 0);
        assert_eq!(timeout_ms(Some(now + 1), || now), 1);
        assert_eq!(timeout_ms(Some(now + 20_000), || now), 20);
        assert_eq!(timeout_ms(Some(u64::MAX), || now), i32::MAX);
    }

    /// With no fd ready and no connection deadline the poll timeout would
    /// be `-1`; the mount's deadline must bound it instead.
    #[test]
    fn turn_returns_at_the_mount_deadline_when_nothing_is_ready() {
        let clock = Clock::start();
        let mut engine: Engine<()> = Engine::new(clock);
        // An auxiliary fd nobody ever writes to.
        let (quiet, _peer) = UnixStream::pair().expect("socketpair");
        let deadline = clock.now_us() + 20_000;
        let ready = engine
            .turn(&[quiet.as_raw_fd()], Some(deadline), &mut Idle)
            .expect("turn");
        assert_eq!(ready, 0, "nothing was ready");
        let now = clock.now_us();
        assert!(now >= deadline, "returned {} µs early", deadline - now);
        assert!(now < deadline + 2_000_000, "overslept: {now} vs {deadline}");
    }
}
