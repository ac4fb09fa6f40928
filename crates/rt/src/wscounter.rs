//! The GT4 "counter service" baseline (paper Section 4.1, Figure 3).
//!
//! The paper measures the maximum WS-call rate of a bare GT4 container with
//! a service that just increments a counter per call, and takes that
//! (≈500 calls/sec) as the upper bound on any dispatch throughput
//! achievable over the same stack. Our equivalent: a TCP server that
//! increments a counter per framed request and echoes the new value.
//! Benchmarking it with k concurrent clients upper-bounds what the TCP
//! Falkon deployment can reach on this machine.
//!
//! Ordering protocol: no synchronizes-with edges. Both `stop` flags are
//! `Relaxed` latches (the accept latch is forced visible by a self-connect
//! wake-up; client loops re-check every iteration) and the call counter is
//! a monotonic `Relaxed` tally read only after the joins in `shutdown` /
//! `measure_call_rate` have sealed it — the joins, not the atomics, order
//! the data.

use falkon_proto::frame::{write_frame, FrameCursor};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A running counter service.
pub struct CounterServer {
    /// Bound address.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counter: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl CounterServer {
    /// Bind and serve on an ephemeral localhost port.
    pub fn start() -> std::io::Result<CounterServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let tstop = stop.clone();
        let tcounter = counter.clone();
        let handle = thread::spawn(move || {
            // Event-driven accept: block in `accept()` until a client
            // arrives. `shutdown()` sets the stop flag and then self-connects
            // to deliver exactly one wake-up, observed right after `Ok`.
            let mut conns = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                // Relaxed: pure latch; the self-connect guarantees a check
                // after the store, and joins do the real ordering.
                if tstop.load(Ordering::Relaxed) {
                    break;
                }
                let c = tcounter.clone();
                conns.push(thread::spawn(move || serve(stream, c)));
            }
            for c in conns {
                c.join().ok();
            }
        });
        Ok(CounterServer {
            addr,
            stop,
            counter,
            handle: Some(handle),
        })
    }

    /// Calls served so far.
    pub fn count(&self) -> u64 {
        // Relaxed: monotonic tally; an in-flight increment may be missed,
        // which a rate snapshot tolerates by design.
        self.counter.load(Ordering::Relaxed)
    }

    /// Stop the server.
    pub fn shutdown(mut self) {
        // Relaxed: latch only; the join below is the synchronization.
        self.stop.store(true, Ordering::Relaxed);
        // Wake the accept thread out of its blocking `accept()`.
        TcpStream::connect(self.addr).ok();
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

fn serve(mut stream: TcpStream, counter: Arc<AtomicU64>) {
    stream.set_nodelay(true).ok();
    // Zero-copy inbound: the socket reads straight into the cursor's buffer
    // and requests are borrowed views out of it.
    let mut cur = FrameCursor::new();
    let mut out = Vec::with_capacity(12);
    // Blocking reads; the connection ends on EOF when the client hangs up.
    loop {
        let space = cur.space(1);
        match stream.read(space) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                cur.commit(n);
                loop {
                    match cur.next_frame() {
                        Ok(Some(_req)) => {
                            // Relaxed: monotonic tally — fetch_add is atomic
                            // at every ordering, so no count is lost; readers
                            // are sealed by joins.
                            let v = counter.fetch_add(1, Ordering::Relaxed) + 1;
                            out.clear();
                            write_frame(&mut out, &v.to_le_bytes());
                            if stream.write_all(&out).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        // Oversized/garbage length prefix: the stream cannot
                        // resynchronise — drop the connection.
                        Err(_) => return,
                    }
                }
            }
        }
    }
}

/// Drive `clients` concurrent request loops for `duration`; returns the
/// aggregate call rate (calls/sec).
#[expect(
    clippy::disallowed_methods,
    reason = "the caller-chosen measurement window; nothing waits on this thread for delivery"
)]
pub fn measure_call_rate(addr: SocketAddr, clients: usize, duration: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..clients {
        let stop = stop.clone();
        handles.push(thread::spawn(move || -> u64 {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return 0;
            };
            stream.set_nodelay(true).ok();
            let mut cur = FrameCursor::new();
            let mut calls = 0u64;
            let mut req = Vec::new();
            write_frame(&mut req, b"inc");
            // Relaxed: latch re-checked every iteration; one extra round
            // trip after the store is harmless to the rate measurement.
            while !stop.load(Ordering::Relaxed) {
                if stream.write_all(&req).is_err() {
                    break;
                }
                // Await the response frame.
                'resp: loop {
                    match cur.next_frame() {
                        Ok(Some(_)) => break 'resp,
                        Ok(None) => {
                            let space = cur.space(1);
                            match stream.read(space) {
                                Ok(0) => return calls,
                                Ok(n) => cur.commit(n),
                                Err(_) => return calls,
                            }
                        }
                        Err(_) => return calls,
                    }
                }
                calls += 1;
            }
            calls
        }));
    }
    let t0 = Instant::now();
    thread::sleep(duration);
    // Relaxed: latch only; the joins below seal each client's tally.
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    total as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls() {
        let server = CounterServer::start().expect("bind");
        let rate = measure_call_rate(server.addr, 2, Duration::from_millis(200));
        assert!(rate > 100.0, "rate = {rate}");
        assert!(server.count() > 0);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_sustain_rate() {
        // On loopback a single ping-pong client can already saturate the
        // server; the requirement is that concurrency does not collapse the
        // aggregate rate (the paper's Figure 3 plateau, not linear scaling).
        let server = CounterServer::start().expect("bind");
        let r1 = measure_call_rate(server.addr, 1, Duration::from_millis(150));
        let r4 = measure_call_rate(server.addr, 4, Duration::from_millis(150));
        server.shutdown();
        assert!(r4 > r1 * 0.5, "r1 = {r1}, r4 = {r4}");
    }
}
