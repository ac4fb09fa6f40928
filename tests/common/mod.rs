//! Shared by the TCP deployment tests: ask a running dispatcher for its
//! status over a bare engine connection.

use falkon::obs::Counters;
use falkon::proto::message::{DispatcherStatus, Message};
use falkon::rt::clock::Clock;
use falkon::rt::conn::{Conn, Inbound, TcpSecurity};
use falkon::rt::poll::{poll_wait, PollFd, POLLIN};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A connection that speaks only `StatusPoll`, driving the nonblocking
/// [`Conn`] the way the readiness loop does: act on what is buffered,
/// flush, read, and wait for readability when the socket runs dry.
pub struct StatusClient {
    conn: Conn,
    open: bool,
}

impl StatusClient {
    pub fn connect(addr: SocketAddr, security: TcpSecurity) -> StatusClient {
        let stream = TcpStream::connect(addr).expect("connect");
        let conn = Conn::new(stream, security, Clock::start()).expect("conn");
        StatusClient { conn, open: false }
    }

    /// One `StatusPoll` round trip.
    pub fn poll(&mut self) -> DispatcherStatus {
        let mut asked = false;
        loop {
            match self.conn.poll_inbound().expect("decode") {
                Some(Inbound::Opened) => self.open = true,
                Some(Inbound::Msg(Message::Status { status })) => return status,
                Some(_) => panic!("StatusPoll answered with something else"),
                None => self.pump(&mut asked),
            }
        }
    }

    fn pump(&mut self, asked: &mut bool) {
        if self.open && !*asked {
            self.conn.enqueue(&Message::StatusPoll).expect("enqueue");
            *asked = true;
        }
        assert!(self.conn.flush().expect("flush"), "tiny message pending");
        match self.conn.fill() {
            Ok(0) => panic!("server closed"),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut fds = [PollFd {
                    fd: self.conn.raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }];
                assert_eq!(poll_wait(&mut fds, 5_000).expect("poll"), 1, "no reply");
            }
            Err(e) => panic!("read: {e}"),
        }
    }

    /// Close, yielding the connection's wire counters (which the server's
    /// totals include).
    pub fn close(self) -> Counters {
        self.conn.finish(None).wire
    }
}

/// Block until the dispatcher counts `n` registered executors. Tests that
/// balance wire bytes exactly call this before shutting the server down:
/// a frame is charged when it is enqueued, so a peer still registering
/// when its server disappears has charged a frame nobody will decode.
/// Returns the polling connection's wire counters, for the peer side of
/// the balance.
pub fn wait_registered(addr: SocketAddr, security: TcpSecurity, n: u64) -> Counters {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = StatusClient::connect(addr, security);
    loop {
        let status = client.poll();
        if status.registered_executors == n {
            return client.close();
        }
        assert!(Instant::now() < deadline, "stuck at {status:?}");
        std::thread::yield_now();
    }
}
