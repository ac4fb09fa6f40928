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
//! connection: the close-time tap drain, the socket's close, and one
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
    use falkon_obs::ObsEventKind::SocketRead;
    use falkon_proto::codec::{Codec, EfficientCodec};
    use falkon_proto::frame::write_frame;
    use falkon_proto::message::ExecutorId;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
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

    /// Counts the messages it is handed, notes whose deadlines it is handed,
    /// and keeps the cause and read count of the last connection to close.
    #[derive(Default)]
    struct Tally {
        msgs: usize,
        deadlines: Vec<Token>,
        cause: Option<ErrorKind>,
        /// Answer a message or a deadline with this many `StatusPoll`s and
        /// end the connection; when zero, only count it.
        replies: usize,
        reads: Option<u64>,
    }

    impl Handler<()> for Tally {
        fn inbound(
            &mut self,
            token: Token,
            conn: &mut Conn,
            _: &mut (),
            ev: Inbound,
        ) -> io::Result<bool> {
            match ev {
                Inbound::Msg(_) => self.msgs += 1,
                Inbound::Deadline => self.deadlines.push(token),
                Inbound::Opened => return Ok(false),
            }
            for _ in 0..self.replies {
                conn.enqueue(Message::StatusPoll)?;
            }
            Ok(self.replies > 0)
        }

        fn closed(&mut self, _: Token, _: (), closed: Closed) {
            self.cause = closed.cause.map(|e| e.kind());
            self.reads = Some(closed.wire.count(SocketRead));
        }
    }

    /// A loopback pair: the peer's raw stream, and ours.
    fn streams() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        (peer, listener.accept().expect("accept").0)
    }

    /// A framed `Register` of exactly `len` bytes, header included.
    fn frame_of(len: usize) -> Vec<u8> {
        let host = "h".repeat(len - 4 - 13);
        let msg = Message::Register {
            executor: ExecutorId(1),
            host,
        };
        let mut out = Vec::new();
        write_frame(&mut out, &EfficientCodec.encode(&msg));
        assert_eq!(out.len(), len);
        out
    }

    /// A read that fills less than `MIN_READ_SPACE` has emptied the socket,
    /// so the engine decodes what came and does not read again only to be
    /// told so: one read per message that arrives alone, beside the read
    /// that finds nothing when the connection is added, the one that meets
    /// EOF, and the close's.
    #[test]
    fn a_short_read_is_the_last_read_of_its_turn() {
        const MSGS: usize = 10;
        let (mut peer, ours) = streams();
        let clock = Clock::start();
        let mut engine = Engine::new(clock);
        let mut tally = Tally::default();
        engine.add(Conn::new(ours, None, clock).expect("conn"), (), &mut tally);
        let frame = frame_of(64);
        for sent in 1..=MSGS {
            peer.write_all(&frame).expect("write");
            while tally.msgs < sent {
                engine.turn(&[], None, &mut tally).expect("turn");
            }
        }
        drop(peer);
        while engine.live() > 0 {
            engine.turn(&[], None, &mut tally).expect("turn");
        }
        assert_eq!(tally.reads, Some(MSGS as u64 + 3));
    }

    /// Messages a connection hands over in its first turn when it is added
    /// with a megabyte of 1 KiB frames already in its socket, so that every
    /// read is a full `MIN_READ_SPACE`. The rest is then read to the end.
    fn first_turn_of_a_burst() -> usize {
        const FRAME: usize = 1024;
        const BURST: usize = 1024;
        let (mut peer, mut ours) = streams();
        // Stream 8 MiB through first: the receive window grows, so the burst
        // below can sit in our socket whole before the engine reads it.
        let warm = std::thread::spawn(move || {
            peer.write_all(&vec![0; 8 << 20]).expect("warm-up");
            peer
        });
        let mut sink = vec![0; 1 << 20];
        let mut warmed = 0;
        while warmed < 8 << 20 {
            warmed += ours.read(&mut sink).expect("warm-up read");
        }
        let mut peer = warm.join().expect("warm-up writer");
        let burst = frame_of(FRAME).repeat(BURST);
        let writer = std::thread::spawn(move || peer.write_all(&burst).map(|()| peer));
        let full = (READ_BUDGET + 1) * MIN_READ_SPACE;
        while ours.peek(&mut sink).expect("peek") < full {
            std::thread::yield_now();
        }
        let clock = Clock::start();
        let mut engine = Engine::new(clock);
        let mut tally = Tally::default();
        engine.add(Conn::new(ours, None, clock).expect("conn"), (), &mut tally);
        let first = tally.msgs;
        while tally.msgs < BURST {
            engine.turn(&[], None, &mut tally).expect("turn");
        }
        drop(writer.join().expect("writer").expect("burst"));
        first
    }

    /// One turn reads a connection at most `READ_BUDGET` times, so a peer
    /// with a megabyte queued cannot hold the loop from the others.
    #[test]
    fn a_turn_reads_a_busy_connection_at_most_its_budget() {
        let most = READ_BUDGET * MIN_READ_SPACE / 1024;
        let first = first_turn_of_a_burst();
        assert!(first <= most, "{first} messages in one turn");
    }

    /// A read that fills `MIN_READ_SPACE` may have left more behind, so the
    /// turn reads on, more than once, until its budget is spent.
    #[test]
    fn a_full_read_does_not_end_the_turn() {
        let per_read = MIN_READ_SPACE / 1024;
        let first = first_turn_of_a_burst();
        assert!(first > per_read, "{first} messages: one read a turn");
        assert!(
            first >= READ_BUDGET * per_read,
            "{first} messages in one turn"
        );
    }

    /// An engine with one plain connection, its token, and the peer's end.
    fn mounted(tally: &mut Tally) -> (Engine<()>, Token, TcpStream) {
        let (peer, ours) = streams();
        let clock = Clock::start();
        let mut engine = Engine::new(clock);
        let token = engine.add(Conn::new(ours, None, clock).expect("conn"), (), tally);
        (engine, token, peer)
    }

    /// Everything the peer receives until our end closes.
    fn drained(mut peer: TcpStream) -> usize {
        let mut got = Vec::new();
        peer.read_to_end(&mut got).expect("read");
        got.len()
    }

    /// Closing every connection is orderly for an established one: what it
    /// had queued leaves before it closes.
    #[test]
    fn closing_all_flushes_what_an_established_connection_queued() {
        let mut tally = Tally::default();
        let (mut engine, token, peer) = mounted(&mut tally);
        for _ in 0..100 {
            engine.send(token, Message::StatusPoll);
        }
        engine.close_all(&mut tally).expect("close");
        assert_eq!(drained(peer), 100 * 5, "100 five-byte frames");
    }

    /// A connection its owner already ended still finishes its flush when
    /// every connection is closed.
    #[test]
    fn closing_all_lets_a_draining_connection_finish_its_flush() {
        let mut tally = Tally {
            replies: 100,
            ..Tally::default()
        };
        let (mut engine, _, mut peer) = mounted(&mut tally);
        peer.write_all(&frame_of(64)).expect("write");
        while tally.msgs == 0 {
            engine.turn(&[], None, &mut tally).expect("turn");
        }
        engine.close_all(&mut tally).expect("close");
        assert_eq!(drained(peer), 100 * 5, "the replies left");
    }

    /// Once its owner ends a connection, nothing more it buffered is handed
    /// over: the second of two frames that came in one read is not read.
    #[test]
    fn a_connection_its_owner_ended_hands_over_nothing_more() {
        let mut tally = Tally {
            replies: 1,
            ..Tally::default()
        };
        let (mut engine, _, mut peer) = mounted(&mut tally);
        peer.write_all(&frame_of(64).repeat(2)).expect("write");
        while engine.live() > 0 {
            engine.turn(&[], None, &mut tally).expect("turn");
        }
        assert_eq!(tally.msgs, 1);
        assert_eq!(drained(peer), 5, "the reply left");
    }

    /// Closes every connection of an engine holding one that waits for its
    /// peer's hello; returns how long that took and what the peer received.
    fn close_all_while_handshaking() -> (u64, usize) {
        let (peer, ours) = streams();
        let clock = Clock::start();
        let mut engine = Engine::new(clock);
        let mut tally = Tally::default();
        let conn = Conn::new(ours, Some(0xFA1C0), clock).expect("conn");
        engine.add(conn, (), &mut tally);
        let start = clock.now_us();
        engine.close_all(&mut tally).expect("close");
        (clock.now_us() - start, drained(peer))
    }

    /// A connection still waiting for the peer's hello has nothing of its
    /// owner's queued: closing every connection ends it without sending
    /// our hello.
    #[test]
    fn closing_all_ends_a_handshaking_connection_unheard() {
        assert_eq!(close_all_while_handshaking().1, 0, "our hello left");
    }

    /// Closing every connection ends one in its handshake at once, without
    /// waiting out the handshake's patience.
    #[test]
    fn closing_all_ends_a_handshaking_connection_at_once() {
        let (took, _) = close_all_while_handshaking();
        assert!(took < 2_000_000, "waited {took} µs for the hello");
    }

    /// Asks for a deadline on the connection `token` names.
    fn set_deadline(engine: &mut Engine<()>, token: Token, at: u64) {
        let (conn, _) = engine.slots[token.idx as usize].as_mut().expect("live");
        conn.set_deadline(Some(at));
    }

    /// Two connections, the first due in 3 s and the second in 20 ms, after
    /// one turn (backstopped at 5 s): the engine, both tokens, and when the
    /// deadlines were set.
    fn two_deadlines(tally: &mut Tally) -> (Engine<()>, [Token; 2], u64, [TcpStream; 2]) {
        let (mut engine, far, far_peer) = mounted(tally);
        let (near_peer, ours) = streams();
        let near = engine.add(
            Conn::new(ours, None, engine.clock).expect("conn"),
            (),
            tally,
        );
        let start = engine.clock.now_us();
        for (token, after) in [(far, 3_000_000), (near, 20_000)] {
            set_deadline(&mut engine, token, start + after);
        }
        engine
            .turn(&[], Some(start + 5_000_000), tally)
            .expect("turn");
        (engine, [far, near], start, [far_peer, near_peer])
    }

    /// The wait ends at the earliest connection deadline, whichever
    /// connection holds it.
    #[test]
    fn the_earliest_connection_deadline_ends_the_wait() {
        let mut tally = Tally::default();
        let (engine, _, start, _peers) = two_deadlines(&mut tally);
        let waited = engine.clock.now_us() - start;
        assert!(waited < 2_000_000, "waited {waited} µs");
    }

    /// A deadline that has passed goes to the owner of its connection.
    #[test]
    fn a_passed_deadline_goes_to_its_owner() {
        let mut tally = Tally::default();
        let (_engine, [_, near], _, _peers) = two_deadlines(&mut tally);
        assert!(tally.deadlines.contains(&near), "{:?}", tally.deadlines);
    }

    /// A deadline still to come is not delivered, nor is one that was
    /// never set.
    #[test]
    fn only_a_deadline_that_passed_is_delivered() {
        let mut tally = Tally::default();
        let (_engine, [_, near], _, _peers) = two_deadlines(&mut tally);
        assert!(
            tally.deadlines.iter().all(|&t| t == near),
            "{:?}",
            tally.deadlines
        );
        assert!(tally.deadlines.len() <= 1, "{:?}", tally.deadlines);
    }

    /// A deadline is delivered once: the next turn waits for the next one.
    #[test]
    fn a_deadline_is_delivered_once() {
        let mut tally = Tally::default();
        let (mut engine, [_, near], _, _peers) = two_deadlines(&mut tally);
        let backstop = Some(engine.clock.now_us() + 20_000);
        engine.turn(&[], backstop, &mut tally).expect("turn");
        assert_eq!(tally.deadlines, [near], "delivered again");
    }

    /// The owner can end a connection at its deadline: its reply leaves and
    /// the connection closes.
    #[test]
    fn a_deadline_can_end_its_connection() {
        let mut tally = Tally {
            replies: 1,
            ..Tally::default()
        };
        let (mut engine, token, peer) = mounted(&mut tally);
        let start = engine.clock.now_us();
        set_deadline(&mut engine, token, start + 10_000);
        for _ in 0..100 {
            if engine.live() == 0 {
                break;
            }
            let backstop = Some(engine.clock.now_us() + 10_000);
            engine.turn(&[], backstop, &mut tally).expect("turn");
        }
        assert_eq!((tally.deadlines, engine.live()), (vec![token], 0));
        assert_eq!(drained(peer), 5, "the reply left");
    }

    /// A connection whose peer closed, then the next one added: both
    /// tokens, and the engine.
    fn churned() -> (Token, Token, Engine<()>) {
        let mut tally = Tally::default();
        let (mut engine, first, peer) = mounted(&mut tally);
        drop(peer);
        while engine.live() > 0 {
            engine.turn(&[], None, &mut tally).expect("turn");
        }
        let (_peer, ours) = streams();
        let conn = Conn::new(ours, None, engine.clock).expect("conn");
        let second = engine.add(conn, (), &mut tally);
        (first, second, engine)
    }

    /// A closed connection's slot takes the next connection: the slab does
    /// not grow with churn.
    #[test]
    fn a_closed_connection_s_slot_is_reused() {
        let (first, second, engine) = churned();
        assert_eq!((second.idx, engine.slots.len()), (first.idx, 1));
    }

    /// A reused slot comes under a new token.
    #[test]
    fn a_reused_slot_gets_a_new_token() {
        let (first, second, _) = churned();
        assert_ne!(second, first);
    }

    /// A token whose connection closed reaches nothing, not the connection
    /// that took its slot.
    #[test]
    fn a_stale_token_reaches_nothing() {
        let mut tally = Tally::default();
        let (mut engine, stale, peer) = mounted(&mut tally);
        drop(peer);
        while engine.live() > 0 {
            engine.turn(&[], None, &mut tally).expect("turn");
        }
        let (peer, ours) = streams();
        let conn = Conn::new(ours, None, engine.clock).expect("conn");
        engine.add(conn, (), &mut tally);
        engine.send(stale, Message::StatusPoll);
        engine.close_all(&mut tally).expect("close");
        assert_eq!(drained(peer), 0, "the stale token's message arrived");
    }

    /// A read that fails ends the connection at once, with the error as its
    /// cause: a peer that resets the connection is not taken for one that
    /// closed it.
    #[test]
    fn a_reset_from_the_peer_ends_the_connection() {
        let mut tally = Tally::default();
        let (mut engine, token, peer) = mounted(&mut tally);
        let soon = |engine: &Engine<()>| Some(engine.clock.now_us() + 10_000);
        engine.send(token, Message::StatusPoll);
        engine.turn(&[], soon(&engine), &mut tally).expect("turn");
        let mut fds = [PollFd {
            fd: peer.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        sys::poll_wait(&mut fds, 10_000).expect("poll");
        // Closed with our frame unread, the peer resets the connection.
        drop(peer);
        for _ in 0..1000 {
            if engine.live() == 0 {
                break;
            }
            engine.turn(&[], soon(&engine), &mut tally).expect("turn");
        }
        assert_eq!(engine.live(), 0);
        assert_eq!(tally.cause, Some(ErrorKind::ConnectionReset));
    }

    /// A flush that fails ends the connection, rather than leaving it to
    /// fail again, unpolled, every turn.
    #[test]
    fn a_failed_flush_ends_the_connection() {
        let mut tally = Tally::default();
        let (mut engine, token, peer) = mounted(&mut tally);
        let soon = |engine: &Engine<()>| Some(engine.clock.now_us() + 10_000);
        engine.send(token, Message::StatusPoll);
        engine.turn(&[], soon(&engine), &mut tally).expect("turn");
        // Closed with our frame unread, the peer resets the connection.
        drop(peer);
        for _ in 0..1000 {
            if engine.live() == 0 {
                break;
            }
            engine.send(token, Message::StatusPoll);
            engine.turn(&[], soon(&engine), &mut tally).expect("turn");
        }
        assert_eq!(engine.live(), 0);
    }
}
