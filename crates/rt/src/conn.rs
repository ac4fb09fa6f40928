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
//! `Draining` are bounded by [`PEER_PATIENCE_US`] through the connection's
//! deadline, which the engine folds into its poll timeout.
//!
//! # Read path
//!
//! An idle connection holds no read buffer. Each thread has one
//! ([`READ_BUF`]); [`Conn::fill`] borrows it for the `read`, and the
//! connection hands it back as soon as every byte it received has been
//! yielded as a frame. Only a connection left mid-frame keeps a buffer —
//! the next borrower then starts a fresh one — so read memory is
//! O(connections mid-frame), not O(connections).
//!
//! # Write path
//!
//! There is exactly one outbound path: [`Conn::enqueue`] encodes (and
//! seals) a frame into the batch buffer, charging the tap once per frame
//! *at enqueue time*, and [`Conn::flush`] writes as much of the batch as
//! the socket accepts — one syscall for a whole drain of queued messages
//! (the paper's §3.1 bundling argument applied at the syscall layer).
//!
//! Ordering protocol: the one atomic, `NONCE`, is a `Relaxed` uniqueness
//! counter — each handshake just needs a value nobody else drew, and no
//! other data rides on that edge.

use crate::clock::Clock;
use falkon_obs::{Counters, WireTap};
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::frame::{begin_frame, end_frame, write_frame, FrameCursor};
use falkon_proto::message::Message;
use falkon_proto::security::{OpenHalf, SealHalf, SecureChannel};
use std::cell::Cell;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
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

/// Flush the coalesced outbound buffer early once it holds this many
/// bytes, so a long drain of queued messages cannot grow it without bound
/// while the socket still accepts data.
pub const FLUSH_HIGH_WATER: usize = 256 * 1024;

/// How long a connection may sit in a non-steady phase — waiting for the
/// peer's hello, or draining its final flush into a peer that stopped
/// reading — before it is dropped.
pub const PEER_PATIENCE_US: u64 = 10_000_000;

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
    /// The deadline set with [`Conn::set_deadline`] passed (delivered by
    /// the engine, never by `poll_inbound`).
    Deadline,
}

/// What a finished connection leaves behind (see [`Conn::finish`]).
pub struct Closed {
    /// `Opened` had been yielded: the owner knew this connection.
    pub opened: bool,
    /// The owner ended it (`Draining`), as opposed to the peer or an error.
    pub local: bool,
    /// The error that ended it; `None` for EOF and for orderly local closes.
    pub cause: Option<io::Error>,
    /// Both directions' frame counts and byte totals.
    pub wire: Counters,
}

/// A framed, optionally sealed, nonblocking TCP connection.
///
/// Inbound is zero-copy: the socket reads straight into the cursor's
/// buffer — the thread's, borrowed while bytes are buffered (see the
/// module docs) — each frame is a borrowed view, the secure path unseals
/// it in place, and the codec decodes from it. The two write-side buffers
/// are the connection's own and grow with what it sends.
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
    /// Plaintext encode scratch for the secure path.
    writebuf: Vec<u8>,
    /// Coalesced outbound frames; `batch_pos..` is not yet written.
    batchbuf: Vec<u8>,
    batch_pos: usize,
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
            writebuf: Vec::new(),
            batchbuf: Vec::new(),
            batch_pos: 0,
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

    /// Queue one message into the coalesced outbound buffer. The frame is
    /// encoded (and sealed) directly into the batch — no per-message
    /// allocation — and the wire tap is charged exactly once, here. Past
    /// [`FLUSH_HIGH_WATER`] a best-effort flush keeps the buffer bounded
    /// while the socket accepts data.
    pub fn enqueue(&mut self, msg: &Message) -> io::Result<()> {
        if !matches!(self.phase, Phase::Ready) {
            return Err(ErrorKind::NotConnected.into());
        }
        let pos = begin_frame(&mut self.batchbuf);
        match self.sealer.as_mut() {
            Some(seal) => {
                // Sealing needs the plaintext as a separate slice (the
                // cipher+MAC passes run over the appended copy).
                self.codec.encode_into(msg, &mut self.writebuf);
                seal.seal_into(&self.writebuf, &mut self.batchbuf);
            }
            None => self.codec.encode_append(msg, &mut self.batchbuf),
        }
        end_frame(&mut self.batchbuf, pos);
        let framed = (self.batchbuf.len() - pos - 4) as u64;
        self.wire.encoded(self.clock.now_us(), framed);
        if self.pending() >= FLUSH_HIGH_WATER {
            self.flush()?;
        }
        Ok(())
    }

    /// Write as much of the queued batch as the socket accepts. `Ok(true)`
    /// once nothing is pending; `Ok(false)` if the socket would block.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.batch_pos < self.batchbuf.len() {
            match self.stream.write(&self.batchbuf[self.batch_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.batch_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.batchbuf.clear();
        self.batch_pos = 0;
        Ok(true)
    }

    /// Bytes queued and not yet written.
    pub fn pending(&self) -> usize {
        self.batchbuf.len() - self.batch_pos
    }

    /// One `read()` straight into the frame cursor's buffer. Returns the
    /// byte count (0 = EOF); `WouldBlock` surfaces as an error.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.cursor.buffered() == 0 {
            // Nothing to keep: read into the thread's buffer (after giving
            // back one this connection may still hold behind a last frame).
            self.release_read_buf();
            self.cursor = FrameCursor::with_buf(READ_BUF.take());
        }
        let read = self.stream.read(self.cursor.space(1));
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
        self.wire.decoded(self.clock.now_us(), frame.len() as u64);
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
    pub fn set_deadline(&mut self, deadline_us: Option<u64>) {
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
    /// soon as the queued batch has left (or patience runs out).
    pub(crate) fn begin_drain(&mut self) {
        self.phase = Phase::Draining;
        self.deadline_us = Some(self.clock.now_us() + PEER_PATIENCE_US);
    }

    /// `poll(2)` interest: readable unless draining, writable only while
    /// bytes are pending.
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
    /// drain at `WouldBlock`.
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
        self.stream.shutdown(Shutdown::Both).ok();
        let wire = std::mem::replace(&mut self.wire, WireTap::new()).into_probe();
        Closed {
            opened,
            local,
            cause,
            wire,
        }
    }
}
