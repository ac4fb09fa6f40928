//! One framed, optionally sealed TCP connection: the single per-connection
//! state every socket path in this crate is built from (DESIGN.md §10.3).
//!
//! A [`Conn`] owns one nonblocking socket, the inbound [`FrameCursor`], the
//! coalesced outbound batch, both halves of the secure channel, and the
//! [`WireTap`] for both directions. It never blocks and never spawns: the
//! [`crate::engine`] loop tells it when the socket is readable or writable.
//!
//! ```text
//!   new(psk)  ──► Hello ────peer hello verified───┐
//!   new(None) ──► Announce ───────────────────────┴─(yields Opened)─► Ready ──begin_drain──► Draining
//!                                                                                  (flush, then close)
//! ```
//!
//! The security handshake is the connection's *first state*, not a
//! separate code path: the peer's hello is the first frame the ordinary
//! read path yields, so frames that arrived in the same `read` behind it
//! are decoded by the very next [`Conn::poll_inbound`] call. `Hello` and
//! `Draining` are bounded by `PEER_PATIENCE_US` through the connection's
//! deadline, which the engine folds into its poll timeout.
//!
//! # Read path
//!
//! An idle connection holds no read buffer. Each thread has one
//! (`READ_BUF`); [`Conn::fill`] borrows it for the `read`, and the
//! connection hands it back as soon as every byte it received has been
//! yielded as a frame. Only a connection left mid-frame keeps a buffer —
//! the next borrower then starts a fresh one — so read memory is
//! O(connections mid-frame), not O(connections).
//!
//! # Write path
//!
//! There is exactly one outbound path, and it encodes no further ahead
//! than the socket. [`Conn::enqueue`] encodes (and seals) a frame into the
//! batch while that holds under `FLUSH_HIGH_WATER` bytes; otherwise the
//! message joins, unencoded, a FIFO behind the batch. A message waits only
//! behind a batch at the cap, which leaves the socket before the FIFO is
//! encoded, so the FIFO is never passed and is empty whenever nothing is
//! pending.
//! [`Conn::flush`], the only writer, writes as much of the batch as the
//! socket takes in one call (the paper's §3.1 bundling, at the syscall
//! layer) and encodes from the FIFO as the batch empties. The tap is
//! charged per frame when it is encoded — an abortive close drops the FIFO
//! uncharged — and per `read` and `write` call.
//!
//! Ordering protocol: the one atomic, `NONCE`, is a `Relaxed` uniqueness
//! counter — each handshake just needs a value nobody else drew, and no
//! other data rides on that edge.

use crate::clock::Clock;
use falkon_obs::{Counters, WireTap};
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::frame::{begin_frame, end_frame, write_frame, FrameCursor};
use falkon_proto::message::Message;
use falkon_proto::security::{OpenHalf, SealHalf, SecureChannel, MAC_LEN};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

static NONCE: AtomicU64 = AtomicU64::new(0x9E37_79B9);

thread_local! {
    /// This thread's read buffer, when no connection has it borrowed.
    static READ_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Largest read buffer worth keeping for the next borrower — room for a
/// 300-task bundle of 1 KiB tasks with its growth slack. One grown past
/// this by a larger frame is freed when its connection lets go of it.
const MAX_READ_BUF_BYTES: usize = 1024 * 1024;

/// Security setting for a TCP deployment: `Some(psk)` enables the secure
/// conversation stand-in on every connection.
pub type TcpSecurity = Option<u64>;

/// Cap on a connection's encoded backlog: a message is encoded only into
/// a batch buffer holding fewer bytes than this, so at most this plus one
/// frame is encoded ahead of the socket.
pub(crate) const FLUSH_HIGH_WATER: usize = 256 * 1024;

/// How long a connection may sit in a non-steady phase — waiting for the
/// peer's hello, or draining its final flush into a peer that stopped
/// reading — before it is dropped.
pub(crate) const PEER_PATIENCE_US: u64 = 10_000_000;

enum Phase {
    /// Our hello is queued; the first inbound frame must be the peer's.
    Hello(SecureChannel),
    /// Established, not yet reported: the next poll yields `Opened`.
    Announce,
    /// Steady state.
    Ready,
    /// The owner is done: no more reads, close once the batch is flushed.
    Draining,
}

/// What [`Conn::poll_inbound`] yields.
pub enum Inbound {
    /// The connection is established (handshake verified, or none asked
    /// for); messages may now be enqueued. Yielded exactly once.
    Opened,
    /// One decoded message.
    Msg(Message),
    /// The deadline set with `Conn::set_deadline` passed (delivered by
    /// the engine, never by `poll_inbound`).
    Deadline,
}

/// What a finished connection leaves behind (see [`Conn::finish`]).
pub struct Closed {
    /// `Opened` had been yielded: the owner knew this connection.
    pub(crate) opened: bool,
    /// The owner ended it (`Draining`), as opposed to the peer or an error.
    pub(crate) local: bool,
    /// The error that ended it; `None` for EOF and for orderly local closes.
    pub(crate) cause: Option<io::Error>,
    /// Both directions' frame counts and byte totals.
    pub wire: Counters,
}

/// A framed, optionally sealed, nonblocking TCP connection.
///
/// Inbound is zero-copy: the socket reads straight into the cursor's
/// buffer — the thread's, borrowed while bytes are buffered (see the
/// module docs) — each frame is a borrowed view, the secure path unseals
/// it in place, and the codec decodes from it. Outbound is one pass too:
/// each frame is encoded straight into the batch buffer, which is the
/// connection's own and capped by `FLUSH_HIGH_WATER`, and sealed there.
pub struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Absolute clock µs at which the engine must look at this connection
    /// again: the patience bound in `Hello`/`Draining`, the owner's own
    /// deadline in `Ready`.
    deadline_us: Option<u64>,
    cursor: FrameCursor,
    opener: Option<OpenHalf>,
    sealer: Option<SealHalf>,
    codec: EfficientCodec,
    /// Coalesced outbound frames; `batch_pos..` is not yet written.
    batchbuf: Vec<u8>,
    batch_pos: usize,
    /// Messages behind a full batch, encoded as the socket drains it.
    deferred: VecDeque<Message>,
    clock: Clock,
    wire: WireTap,
}

fn invalid(e: falkon_proto::error::CodecError) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, e)
}

impl Conn {
    /// Take ownership of a connected stream. With `Some(psk)` our hello is
    /// queued (it leaves on the first flush) and the connection starts in
    /// the handshake phase; otherwise it is established at once. Either
    /// way the first [`Conn::poll_inbound`] result is `Opened`.
    pub fn new(stream: TcpStream, security: TcpSecurity, clock: Clock) -> io::Result<Conn> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let mut conn = Conn {
            stream,
            phase: Phase::Announce,
            deadline_us: None,
            cursor: FrameCursor::new(),
            opener: None,
            sealer: None,
            codec: EfficientCodec,
            batchbuf: Vec::new(),
            batch_pos: 0,
            deferred: VecDeque::new(),
            clock,
            wire: WireTap::new(),
        };
        if let Some(psk) = security {
            // Relaxed: uniqueness is all that matters — fetch_add is atomic
            // at every ordering, so two handshakes never draw the same
            // nonce; no other data rides on this edge.
            let nonce = NONCE.fetch_add(0x517C_C1B7_2722_0A95, Ordering::Relaxed);
            let chan = SecureChannel::new(psk, nonce);
            write_frame(&mut conn.batchbuf, &chan.handshake_message());
            conn.phase = Phase::Hello(chan);
            conn.deadline_us = Some(clock.now_us() + PEER_PATIENCE_US);
        }
        Ok(conn)
    }

    /// Queue one message: encoded straight into the batch — sealed there
    /// in place on a secure connection, no per-message allocation or copy —
    /// below `FLUSH_HIGH_WATER`, else it waits unencoded for
    /// [`Conn::flush`]. Nothing is written here.
    pub fn enqueue(&mut self, msg: Message) -> io::Result<()> {
        if !matches!(self.phase, Phase::Ready) {
            return Err(ErrorKind::NotConnected.into());
        }
        if self.has_room() {
            self.encode(&msg);
        } else {
            self.deferred.push_back(msg);
        }
        Ok(())
    }

    /// Frame, encode and seal `msg` onto the batch; charge and return its size.
    fn encode(&mut self, msg: &Message) -> u64 {
        self.make_room(msg);
        let pos = begin_frame(&mut self.batchbuf);
        self.codec.encode_append(msg, &mut self.batchbuf);
        if let Some(seal) = self.sealer.as_mut() {
            seal.seal_in_place(&mut self.batchbuf, pos + 4);
        }
        end_frame(&mut self.batchbuf, pos);
        let framed = (self.batchbuf.len() - pos - 4) as u64;
        self.wire.encoded(framed);
        framed
    }

    /// Grow the batch for `msg`'s frame as a `Vec` grows, but never by
    /// doubling past `FLUSH_HIGH_WATER`: a frame that crosses the cap gets
    /// room for exactly itself, so the batch holds at most the cap plus
    /// one frame (`alloc_steady`'s client case). Measuring a frame adds its
    /// lengths; it copies nothing.
    fn make_room(&mut self, msg: &Message) {
        let (len, cap) = (self.batchbuf.len(), self.batchbuf.capacity());
        let frame = 4 + self.codec.encoded_len(msg) + MAC_LEN;
        if len + frame > cap {
            let grown = (2 * cap).min(FLUSH_HIGH_WATER).max(len + frame);
            self.batchbuf.reserve_exact(grown - len);
        }
    }

    /// Write as much as the socket accepts, encoding the waiting messages
    /// as the batch empties. `Ok(true)` once nothing is pending or waiting;
    /// `Ok(false)` if the socket would block.
    pub fn flush(&mut self) -> io::Result<bool> {
        loop {
            while self.batch_pos < self.batchbuf.len() {
                let wrote = self.stream.write(&self.batchbuf[self.batch_pos..]);
                self.wire.wrote(wrote.as_ref().map_or(0, |&n| n as u64));
                match wrote {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => self.batch_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.batchbuf.clear();
            self.batch_pos = 0;
            // A batch grown for an outsized frame gives back what is above
            // the cap; one that kept room for a frame of up to the cap's
            // size keeps it for the next, or every such frame would cost a
            // grow and a shrink.
            if self.batchbuf.capacity() > 2 * FLUSH_HIGH_WATER {
                self.batchbuf.shrink_to(FLUSH_HIGH_WATER);
            }
            while let Some(msg) = self.deferred.pop_front() {
                let framed = self.encode(&msg);
                self.wire.deferred(framed);
                if self.batchbuf.len() >= FLUSH_HIGH_WATER {
                    break;
                }
            }
            if self.batchbuf.is_empty() {
                return Ok(true);
            }
        }
    }

    /// Encoded bytes not yet written (waiting messages are not counted).
    pub(crate) fn pending(&self) -> usize {
        self.batchbuf.len() - self.batch_pos
    }

    /// A message enqueued now is encoded at once: the batch, written part
    /// included, holds fewer than `FLUSH_HIGH_WATER` bytes. (`pending` can
    /// be under the cap while a half-written batch is over it, and then a
    /// message waits unencoded.)
    pub(crate) fn has_room(&self) -> bool {
        self.batchbuf.len() < FLUSH_HIGH_WATER
    }

    /// One `read()` straight into the frame cursor's buffer. Returns the
    /// byte count (0 = EOF); `WouldBlock` surfaces as an error.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.cursor.buffered() == 0 {
            // Nothing to keep: read into the thread's buffer. Every caller
            // has already seen `poll_inbound` come up empty, which gave back
            // any buffer this connection held behind a last frame.
            self.cursor = FrameCursor::with_buf(READ_BUF.take());
        }
        let read = self.stream.read(self.cursor.space(1));
        self.wire.read(read.as_ref().map_or(0, |&n| n as u64));
        if let Ok(n) = read {
            self.cursor.commit(n);
        }
        self.release_read_buf();
        read
    }

    /// Hand the read buffer back to the thread once nothing is buffered.
    fn release_read_buf(&mut self) {
        if self.cursor.buffered() == 0 {
            let buf = std::mem::take(&mut self.cursor).into_buf();
            // A cursor that held no buffer (capacity 0) has nothing to give
            // back, and must not displace the one the thread has.
            if (1..=MAX_READ_BUF_BYTES).contains(&buf.capacity()) {
                READ_BUF.set(buf);
            }
        }
    }

    /// Advance on what is already buffered, never touching the socket:
    /// report establishment, verify the peer's hello, or decode one frame.
    /// `Ok(None)` means more bytes are needed ([`Conn::fill`]).
    pub fn poll_inbound(&mut self) -> io::Result<Option<Inbound>> {
        if matches!(self.phase, Phase::Announce) {
            self.phase = Phase::Ready;
            return Ok(Some(Inbound::Opened));
        }
        let Some(frame) = self.cursor.next_frame().map_err(invalid)? else {
            // The last frame's view is no longer in use: let the buffer go.
            self.release_read_buf();
            return Ok(None);
        };
        if let Phase::Hello(chan) = &mut self.phase {
            chan.complete_handshake(frame).map_err(invalid)?;
            let Phase::Hello(chan) = std::mem::replace(&mut self.phase, Phase::Ready) else {
                unreachable!("matched Hello above");
            };
            let (seal, open) = chan.into_halves().map_err(invalid)?;
            self.sealer = Some(seal);
            self.opener = Some(open);
            self.deadline_us = None;
            return Ok(Some(Inbound::Opened));
        }
        self.wire.decoded(frame.len() as u64);
        let plain: &[u8] = match self.opener.as_mut() {
            Some(open) => open.open_in_place(frame).map_err(invalid)?,
            None => frame,
        };
        let msg = self.codec.decode(plain).map_err(invalid)?;
        Ok(Some(Inbound::Msg(msg)))
    }

    /// The raw socket fd, for readiness registration.
    pub fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Ask the engine for an [`Inbound::Deadline`] at `deadline_us` (absolute
    /// clock µs), or cancel with `None`. Only meaningful in steady state;
    /// the handshake and the final drain own the deadline otherwise.
    pub(crate) fn set_deadline(&mut self, deadline_us: Option<u64>) {
        if matches!(self.phase, Phase::Ready) {
            self.deadline_us = deadline_us;
        }
    }

    pub(crate) fn deadline_us(&self) -> Option<u64> {
        self.deadline_us
    }

    pub(crate) fn is_ready(&self) -> bool {
        matches!(self.phase, Phase::Ready)
    }

    pub(crate) fn is_draining(&self) -> bool {
        matches!(self.phase, Phase::Draining)
    }

    /// The owner is done with this connection: stop reading, and close as
    /// soon as the batch and the FIFO have left (or patience runs out).
    pub(crate) fn begin_drain(&mut self) {
        self.phase = Phase::Draining;
        self.deadline_us = Some(self.clock.now_us() + PEER_PATIENCE_US);
    }

    /// `poll(2)` interest: readable unless draining, writable only while
    /// bytes are pending (messages wait only behind pending bytes).
    pub(crate) fn interest(&self) -> i16 {
        let mut events = 0;
        if !self.is_draining() {
            events |= crate::poll::POLLIN;
        }
        if self.pending() > 0 {
            events |= crate::poll::POLLOUT;
        }
        events
    }

    /// End the connection and account for it. Every complete frame already
    /// delivered to our socket is decoded and tap-charged first: without
    /// this, an idle peer's last in-flight message (say a late `GetWork`)
    /// would be charged as encoded on its side but never as decoded on
    /// ours, breaking the exact wire balance the soak tests pin. The
    /// messages themselves go nowhere — the owner is done with this
    /// connection. The socket is nonblocking, so an open peer ends the
    /// drain at `WouldBlock`; it closes as the connection drops here.
    pub fn finish(mut self, cause: Option<io::Error>) -> Closed {
        let opened = matches!(self.phase, Phase::Ready | Phase::Draining);
        let local = self.is_draining();
        loop {
            match self.poll_inbound() {
                Ok(Some(_)) => continue,
                Ok(None) => {}
                Err(_) => break,
            }
            if !matches!(self.fill(), Ok(n) if n > 0) {
                break;
            }
        }
        Closed {
            opened,
            local,
            cause,
            wire: self.wire.into_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{POLLIN, POLLOUT};
    use falkon_obs::ObsEventKind::{BundleDecoded, BundleEncoded, SendDeferred};
    use falkon_obs::ObsEventKind::{SocketRead, SocketWrite};
    use falkon_proto::message::{ExecutorId, InstanceId};
    use falkon_proto::task::{IStr, TaskSpec};
    use std::net::TcpListener;

    /// One `fat_secure`-sized wave: 40 `Submit`s of 300 tasks of ≈1.1 KiB,
    /// ≈13 MB encoded — far more than loopback buffers for a peer that
    /// does not read. The tasks share one pad, so the messages themselves
    /// are small.
    fn wave() -> Vec<Message> {
        let pad: IStr = "x".repeat(1024).into();
        let task = |id| {
            let mut spec = TaskSpec::sleep(id, 0);
            spec.env = vec![("PAD".into(), pad.clone())];
            spec
        };
        (0..40)
            .map(|b| Message::Submit {
                instance: InstanceId(b),
                tasks: (b * 300..(b + 1) * 300).map(task).collect(),
            })
            .collect()
    }

    /// Decode every buffered message into `got`, then read once; `false`
    /// at EOF.
    fn take(conn: &mut Conn, got: &mut Vec<Message>) -> bool {
        while let Some(ev) = conn.poll_inbound().expect("decode") {
            if let Inbound::Msg(msg) = ev {
                got.push(msg);
            }
        }
        match conn.fill() {
            Ok(n) => n > 0,
            Err(e) if e.kind() == ErrorKind::WouldBlock => true,
            Err(e) => panic!("read: {e}"),
        }
    }

    /// A connected, established pair over loopback.
    fn pair(security: TcpSecurity) -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dialed = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let clock = Clock::start();
        let mut a = Conn::new(dialed, security, clock).expect("conn");
        let mut b = Conn::new(listener.accept().expect("accept").0, security, clock).expect("conn");
        while !a.is_ready() || !b.is_ready() {
            a.flush().expect("hello");
            b.flush().expect("hello");
            take(&mut a, &mut Vec::new());
            take(&mut b, &mut Vec::new());
        }
        (a, b)
    }

    /// Enqueue `wave` while the peer reads nothing, and write until the
    /// socket stops taking bytes; the encoded backlog never passes `cap`.
    fn stall(a: &mut Conn, wave: Vec<Message>, cap: usize) {
        for msg in wave {
            a.enqueue(msg).expect("enqueue");
            assert!(a.pending() <= cap, "{} bytes encoded ahead", a.pending());
        }
        assert!(!a.flush().expect("flush"), "the socket took a whole wave");
        assert!(a.pending() <= cap, "{} bytes encoded ahead", a.pending());
        assert!(!a.deferred.is_empty());
    }

    /// Messages queued between two flushes leave together: 64 frames in
    /// one `write`, where a flush per frame would make 64.
    #[test]
    fn frames_queued_between_flushes_leave_in_one_write() {
        for security in [None, Some(0xFA1C0)] {
            let (mut a, mut b) = pair(security);
            let sent: Vec<Message> = (0..64)
                .map(|i| Message::Submit {
                    instance: InstanceId(i),
                    tasks: vec![TaskSpec::sleep(i, 0)],
                })
                .collect();
            let tally = |a: &Conn| {
                let w = a.wire.counters();
                (w.count(SocketWrite), w.count(BundleEncoded))
            };
            let (writes, frames) = tally(&a);
            for msg in sent.clone() {
                a.enqueue(msg).expect("enqueue");
            }
            assert!(a.flush().expect("flush"), "the socket took the batch");
            assert_eq!(tally(&a), (writes + 1, frames + 64), "{security:?}");
            let mut got = Vec::new();
            while got.len() < sent.len() {
                assert!(take(&mut b, &mut got), "early EOF");
            }
            assert!(got == sent, "{security:?}: lost, duplicated or reordered");
        }
    }

    #[test]
    fn a_peer_that_stops_reading_holds_the_encoded_backlog_at_the_cap() {
        let sent = wave();
        let mut one = Vec::new();
        EfficientCodec.encode_append(&sent[0], &mut one);
        // One frame: header, payload and (secure) MAC.
        let cap = FLUSH_HIGH_WATER + one.len() + 64;
        for security in [None, Some(0xFA1C0)] {
            // The peer catches up: everything arrives once and in order.
            let (mut a, mut b) = pair(security);
            stall(&mut a, sent.clone(), cap);
            let mut got = Vec::new();
            while got.len() < sent.len() {
                a.flush().expect("flush");
                assert!(a.pending() <= cap);
                assert!(take(&mut b, &mut got), "early EOF");
            }
            assert!(a.flush().expect("flush"), "all written");
            assert!(got == sent, "{security:?}: lost, duplicated or reordered");
            let (wa, wb) = (a.wire.counters(), b.wire.counters());
            assert_eq!(wa.count(BundleEncoded), sent.len() as u64);
            assert_eq!(wa.value(BundleEncoded), wb.value(BundleDecoded));
            assert_eq!(wa.value(SocketWrite), wb.value(SocketRead));
            let waited = wa.count(SendDeferred);
            assert!(waited > 0 && waited < sent.len() as u64, "{waited}");

            // An orderly close delivers the whole FIFO before the socket
            // closes, and both ends' taps balance.
            stall(&mut a, sent.clone(), cap);
            a.begin_drain();
            let mut got = Vec::new();
            while !a.flush().expect("drain") {
                take(&mut b, &mut got);
            }
            let closed = a.finish(None);
            while take(&mut b, &mut got) {}
            assert!(closed.local && got == sent, "{security:?}: drain lost");
            let (wa, wb) = (closed.wire, b.finish(None).wire);
            assert_eq!(wa.value(BundleEncoded), wb.value(BundleDecoded));
            assert_eq!(wa.value(SocketWrite), wb.value(SocketRead));

            // An abortive close drops the FIFO uncharged: every frame it
            // charged was written or is left in the batch, and the peer
            // reads exactly what was written.
            let (mut a, mut b) = pair(security);
            let hello = a.wire.counters().value(SocketWrite);
            stall(&mut a, sent.clone(), cap);
            let (left, waiting) = (a.pending() as u64, a.deferred.len() as u64);
            let wa = a.finish(Some(ErrorKind::ConnectionReset.into())).wire;
            let frames = wa.count(BundleEncoded);
            assert_eq!(frames + waiting, sent.len() as u64);
            assert_eq!(
                wa.value(BundleEncoded) + 4 * frames + hello,
                wa.value(SocketWrite) + left
            );
            while take(&mut b, &mut Vec::new()) {}
            assert_eq!(b.finish(None).wire.value(SocketRead), wa.value(SocketWrite));
        }
    }

    /// Every connection sends its small frames at once: Nagle is off.
    #[test]
    fn a_new_connection_disables_nagle() {
        for security in [None, Some(0xFA1C0)] {
            let (a, b) = pair(security);
            assert!(a.stream.nodelay().expect("nodelay") && b.stream.nodelay().expect("nodelay"));
        }
    }

    /// A connection that has not met its peer's hello, and the clock's
    /// reading just before it was made.
    fn handshaking() -> (Conn, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dialed = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let clock = Clock::start();
        let before = clock.now_us();
        (
            Conn::new(dialed, Some(0xFA1C0), clock).expect("conn"),
            before,
        )
    }

    /// A secure connection waits `PEER_PATIENCE_US` for the peer's hello.
    #[test]
    fn the_hello_is_awaited_with_patience() {
        let (conn, before) = handshaking();
        let due = conn.deadline_us().expect("a hello deadline");
        let waited = due - PEER_PATIENCE_US;
        assert!((before..=conn.clock.now_us()).contains(&waited));
    }

    /// The verified hello ends the wait: an established connection has no
    /// deadline of its own.
    #[test]
    fn a_verified_hello_ends_the_wait() {
        let (a, b) = pair(Some(0xFA1C0));
        assert_eq!((a.deadline_us(), b.deadline_us()), (None, None));
    }

    fn refuses_messages(conn: &mut Conn) -> bool {
        let refused = conn.enqueue(Message::StatusPoll).expect_err("enqueued");
        refused.kind() == ErrorKind::NotConnected
    }

    /// A connection waiting for the peer's hello takes no message.
    #[test]
    fn a_handshaking_connection_takes_no_message() {
        assert!(refuses_messages(&mut handshaking().0));
    }

    /// A draining connection takes no more messages.
    #[test]
    fn a_draining_connection_takes_no_message() {
        let (mut a, _b) = pair(None);
        a.enqueue(Message::StatusPoll).expect("established");
        a.begin_drain();
        assert!(refuses_messages(&mut a));
    }

    /// Draining is bounded: the final flush gets `PEER_PATIENCE_US`.
    #[test]
    fn a_drain_is_given_patience() {
        let (mut a, _b) = pair(None);
        let before = a.clock.now_us();
        a.begin_drain();
        let due = a.deadline_us().expect("a drain deadline");
        assert!((before..=a.clock.now_us()).contains(&(due - PEER_PATIENCE_US)));
    }

    /// An idle connection asks only to read: no busy poll on a writable
    /// socket.
    #[test]
    fn an_idle_connection_asks_only_to_read() {
        let (mut a, _b) = pair(None);
        assert_eq!(a.interest(), POLLIN);
        a.enqueue(Message::StatusPoll).expect("enqueue");
        assert!(a.flush().expect("flush"));
        assert_eq!(a.interest(), POLLIN, "flushed");
    }

    /// Encoded bytes not yet written ask to write as well.
    #[test]
    fn pending_bytes_ask_to_write() {
        let (mut a, _b) = pair(None);
        a.enqueue(Message::StatusPoll).expect("enqueue");
        assert_eq!(a.interest(), POLLIN | POLLOUT);
    }

    /// A draining connection reads no more: it asks only to write, and for
    /// nothing once its batch has left.
    #[test]
    fn a_draining_connection_asks_only_to_write() {
        let (mut a, _b) = pair(None);
        a.enqueue(Message::StatusPoll).expect("enqueue");
        a.begin_drain();
        assert_eq!(a.interest(), POLLOUT);
        assert!(a.flush().expect("flush"));
        assert_eq!(a.interest(), 0);
    }

    /// A peer that is gone fails a flush, rather than leaving the batch
    /// waiting for a socket that will never take it.
    #[test]
    fn a_flush_to_a_reset_peer_fails() {
        use crate::poll::{poll_wait, PollFd};
        let readable = |conn: &Conn| {
            let mut fds = [PollFd {
                fd: conn.raw_fd(),
                events: POLLIN,
                revents: 0,
            }];
            poll_wait(&mut fds, 10_000).expect("poll") == 1
        };
        let (mut a, b) = pair(None);
        a.enqueue(Message::StatusPoll).expect("enqueue");
        assert!(a.flush().expect("flush"));
        // Closed with our frame unread, the peer resets the connection,
        // and the reset makes our end readable.
        assert!(readable(&b), "the frame arrived");
        drop(b);
        assert!(readable(&a), "the reset arrived");
        a.enqueue(Message::StatusPoll).expect("enqueue");
        assert!(a.flush().is_err());
    }

    /// A message never passes one that waits, even with the batch at exactly
    /// `FLUSH_HIGH_WATER`, where a refill of same-sized frames stops: the
    /// batch takes a message only below the cap.
    #[test]
    fn a_message_never_passes_the_fifo_at_exactly_the_cap() {
        // 1,024-byte frames: 256 of them fill the batch to the cap.
        let register = |i| Message::Register {
            executor: ExecutorId(i),
            host: "h".repeat(1007),
        };
        let (mut a, mut b) = pair(None);
        let sent: Vec<Message> = (0..258).map(register).collect();
        for msg in &sent[..256] {
            a.enqueue(msg.clone()).expect("enqueue");
        }
        assert_eq!(a.pending(), FLUSH_HIGH_WATER);
        // The state a refill leaves: the batch at the cap, a message waiting.
        a.deferred.push_back(sent[256].clone());
        a.enqueue(sent[257].clone()).expect("enqueue");
        let mut got = Vec::new();
        while got.len() < sent.len() {
            a.flush().expect("flush");
            assert!(take(&mut b, &mut got), "early EOF");
        }
        assert!(got == sent, "lost, duplicated or reordered");
    }

    /// A read that finds nothing leaves the connection holding no buffer:
    /// the thread's is handed back at once.
    #[test]
    fn a_read_that_would_block_keeps_no_buffer() {
        let (_a, mut b) = pair(None);
        let err = b.fill().expect_err("nothing was sent");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(std::mem::take(&mut b.cursor).into_buf().capacity(), 0);
    }
}
