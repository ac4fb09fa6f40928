//! Allocation accounting for the zero-copy inbound TCP path: what a warm
//! connection allocates per task, and what an idle one keeps.
//!
//! The zero-copy rewrite's contract is that receiving a task over TCP
//! allocates nothing per task once the connection is warm: the socket reads
//! into the frame cursor's recycled buffer, frames are borrowed views, the
//! codec decodes interned strings into [`falkon_proto::IStr`]s, and the
//! argument list stays inline. This test installs a counting global
//! allocator and proves it: after a warm-up bundle, receiving bundles of
//! 500 tasks costs a small per-*message* constant (the decoded task `Vec`
//! plus slack), not a per-*task* cost.
//!
//! The connection under test is the engine's own [`Conn`], driven through
//! the same two calls the readiness loop makes (`poll_inbound`, then `fill`
//! when it wants more bytes), so the count covers exactly the path every
//! server shard and peer runs.
//!
//! A second test pins the other half of the read path's contract: a
//! connection that has received and decoded its traffic and gone idle
//! holds no read buffer — it borrowed the thread's and handed it back — so
//! hundreds of registered, idle executor connections cost the server a
//! few bytes each, not a 64 KiB read space each.
//!
//! A third counts the whole deployment — dispatcher server, sixteen
//! multiplexed executors and a client, every thread of the process — and
//! holds a sleep-0 task to the four allocations its messages need; a fourth
//! pins that a non-interned [`falkon_proto::IStr`] is one allocation and an
//! interned one none.
//!
//! Ordering protocol: no synchronizes-with edges. The allocation counter
//! and the live-byte tally are `Relaxed`; the tests take turns (`SERIAL`)
//! and each is effectively single-threaded around its measured region (the
//! peer writes *before* the reader starts draining, and the tallies are
//! read after `recv` returns on the same thread), so program order — not
//! the atomics — sequences the reads. The deployment test's other threads
//! only work between `run_client`'s first write and its last read, both on
//! the counting thread.
// A counting `GlobalAlloc` is an `unsafe impl`; it forwards to `System`.
#![allow(unsafe_code)]

use falkon_core::executor::ExecutorConfig;
use falkon_core::DispatcherConfig;
use falkon_proto::{BundleConfig, Codec, EfficientCodec, IStr, Message, TaskSpec};
use falkon_rt::clock::Clock;
use falkon_rt::conn::{Conn, Inbound};
use falkon_rt::muxpeer::run_executors_mux;
use falkon_rt::poll::{poll_wait, PollFd, POLLIN};
use falkon_rt::tcp::{run_client, DispatcherServer, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts allocations (not frees) — the steady-state inbound path must
/// request no fresh memory per task — and tallies live bytes, for what an
/// idle connection keeps.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes, modulo 2^64 (only differences are read).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The tallies are process-wide: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY: delegates every operation unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: monotonic tally read on the same thread that bumps it
        // during the measured region; no data is published over this edge.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Relaxed: as above.
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `layout` is the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Relaxed: as above.
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr`/`layout` came from this
        // allocator's `alloc` per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Relaxed: as above, all three.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The next decoded message, the way the engine gets it: decode what is
/// buffered, read when that runs dry, wait for readability when the socket
/// does.
fn recv(conn: &mut Conn) -> Message {
    loop {
        match conn.poll_inbound().expect("decode") {
            Some(Inbound::Msg(msg)) => return msg,
            Some(_) => continue,
            None => {}
        }
        match conn.fill() {
            Ok(0) => panic!("peer closed"),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut fds = [PollFd {
                    fd: conn.raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }];
                poll_wait(&mut fds, -1).expect("poll");
            }
            Err(e) => panic!("read: {e}"),
        }
    }
}

#[test]
fn inbound_tcp_path_is_allocation_free_per_task() {
    const TASKS_PER_BUNDLE: u64 = 500;
    const BUNDLES: u64 = 20;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");

    let clock = Clock::start();
    let mut conn = Conn::new(server, None, clock).expect("conn");

    // The peer writes raw framed bytes directly (no Conn on that side, so
    // its own encode allocations cannot be confused with the reader's).
    // All bundles are pre-filled into the socket before the reader drains,
    // exercising the multi-frame-per-read + compaction path.
    let bundle = Message::Work {
        tasks: (0..TASKS_PER_BUNDLE)
            .map(|i| TaskSpec::sleep(i, 0))
            .collect(),
    };
    let payload = EfficientCodec.encode(&bundle);
    let mut framed = Vec::new();
    falkon_proto::write_frame(&mut framed, &payload);
    let mut client = client;
    use std::io::Write;
    for _ in 0..BUNDLES + 1 {
        client.write_all(&framed).expect("write");
    }

    // Warm-up: first recv may grow the cursor buffer and populate the
    // intern tables.
    let warm = recv(&mut conn);
    assert!(
        matches!(warm, Message::Work { ref tasks } if tasks.len() == TASKS_PER_BUNDLE as usize)
    );
    drop(warm);

    let before = allocs();
    for _ in 0..BUNDLES {
        let msg = recv(&mut conn);
        match &msg {
            Message::Work { tasks } => assert_eq!(tasks.len(), TASKS_PER_BUNDLE as usize),
            other => panic!("unexpected message {other:?}"),
        }
        drop(msg);
    }
    let per_message = (allocs() - before) as f64 / BUNDLES as f64;

    eprintln!("per-message allocations: {per_message}");

    // Each decoded bundle legitimately allocates its task `Vec` (one or two
    // allocations with growth); anything scaling with the 500 tasks inside
    // would blow far past this bound.
    assert!(
        per_message <= 8.0,
        "inbound path allocated {per_message} times per 500-task message; \
         per-task allocations have crept back in"
    );
}

#[test]
fn idle_registered_connections_hold_no_read_buffer() {
    const CONNS: usize = 256;
    const PER_CONN_BUDGET: u64 = 16 * 1024;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let clock = Clock::start();
    // The executors' ends are raw sockets, and everything either end needs
    // exists before the tally starts: only the server's `Conn`s are counted.
    let mut peers = Vec::with_capacity(CONNS);
    let mut accepted = Vec::with_capacity(CONNS);
    let mut registrations = Vec::with_capacity(CONNS);
    for id in 0..CONNS as u64 {
        peers.push(TcpStream::connect(addr).expect("connect"));
        accepted.push(listener.accept().expect("accept").0);
        let register = Message::Register {
            executor: falkon_proto::message::ExecutorId(id),
            host: format!("node-{id}"),
        };
        let mut framed = Vec::new();
        falkon_proto::write_frame(&mut framed, &EfficientCodec.encode(&register));
        registrations.push(framed);
    }
    let mut conns: Vec<Conn> = Vec::with_capacity(CONNS);

    let before = live_bytes();
    use std::io::Write;
    for ((stream, peer), framed) in accepted.into_iter().zip(&mut peers).zip(&registrations) {
        let mut conn = Conn::new(stream, None, clock).expect("conn");
        peer.write_all(framed).expect("write");
        // Register, acknowledge, and go idle: the server's side of an
        // executor that is waiting for work.
        let Message::Register { executor, .. } = recv(&mut conn) else {
            panic!("expected a registration");
        };
        conn.enqueue(&Message::RegisterAck { executor })
            .expect("enqueue");
        assert!(conn.flush().expect("flush"), "a small ack leaves at once");
        // The engine polls once more after the last frame before it waits.
        assert!(conn.poll_inbound().expect("decode").is_none());
        conns.push(conn);
    }
    let held = live_bytes().wrapping_sub(before);

    eprintln!(
        "{CONNS} idle connections hold {held} B ({} B each)",
        held / CONNS as u64
    );
    assert!(
        held < CONNS as u64 * PER_CONN_BUDGET,
        "{CONNS} registered, idle connections hold {held} B of heap: \
         more than {PER_CONN_BUDGET} B each — read buffers are being kept per connection"
    );
}

/// A sleep-0 task through a whole deployment costs the four one-task
/// `Vec`s its `Vec`-carrying [`Message`]s need and nothing else: the
/// dispatcher's `take_work` (the `Work`/`ResultAck` it sends), the
/// executor's `decode_tasks` of that message, the executor's `finished`
/// (the `Result` it sends) and the dispatcher's `decode_results` of it.
/// Everything else per task — the submit bundle, `records`, the instance's
/// ready list, the client's bookkeeping — is amortized growth. The executor
/// pump's two scratch vectors used to be re-grown for every message, which
/// made it seven.
#[test]
fn a_task_through_a_tcp_deployment_allocates_about_four_times() {
    const EXECUTORS: usize = 16;
    const WARMUP: u64 = 5_000;
    const WINDOW: u64 = 20_000;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 1000,
            ..DispatcherConfig::default()
        })
        .build()
        .expect("valid config");
    let server = DispatcherServer::start(config).expect("bind");
    let addr = server.addr;
    let executors = std::thread::spawn(move || {
        run_executors_mux(addr, 0, EXECUTORS, ExecutorConfig::default(), None)
    });
    let tasks = |ids: std::ops::Range<u64>| ids.map(|i| TaskSpec::sleep(i, 0)).collect();
    let bundle = BundleConfig::of(300);

    // The warm-up wave grows every long-lived buffer: batches, scratch,
    // the running map, the recorder.
    let warm = run_client(addr, tasks(0..WARMUP), bundle, None).expect("warm-up");
    assert_eq!(warm.done, WARMUP);

    let window = tasks(WARMUP..WARMUP + WINDOW);
    let before = allocs();
    let out = run_client(addr, window, bundle, None).expect("window");
    let per_task = (allocs() - before) as f64 / WINDOW as f64;
    assert_eq!(out.done, WINDOW);

    let (records, ..) = server.shutdown();
    assert_eq!(records.len() as u64, WARMUP + WINDOW);
    let ran = executors.join().expect("executor thread").expect("mux");
    assert_eq!(ran.tasks, WARMUP + WINDOW);

    eprintln!("allocations per task, whole process: {per_task:.2}");
    assert!(
        per_task <= 4.5,
        "a sleep-0 task allocated {per_task:.2} times end to end; \
         something per message has crept in beside the four message `Vec`s"
    );
}

#[test]
fn istr_allocates_once_unless_interned() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Populate the decimal table outside the count.
    assert!(IStr::from("7").is_interned());

    let before = allocs();
    let interned = [IStr::from("sleep"), IStr::from("/tmp"), IStr::from("42")];
    let copies = interned.clone();
    assert_eq!(allocs() - before, 0, "interned strings allocate nothing");
    drop((interned, copies));

    let before = allocs();
    let owned = IStr::from("custom-binary");
    assert_eq!(
        allocs() - before,
        1,
        "a non-interned string is one `Arc<str>`"
    );
    let copy = owned.clone();
    assert_eq!(allocs() - before, 1, "a clone is a reference count");
    assert!(!owned.is_interned() && owned.ptr_eq(&copy));
}
