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
//! Two more count the whole deployment — dispatcher server, sixteen
//! multiplexed executors and a client, every thread of the process. One
//! holds a sleep-0 task to the four allocations its messages need, the
//! other a fat secure task to one allocation for each decode's strings.
//! A third holds the client thread's own peak live heap to what its socket
//! takes, whatever the size of its workload, and a fourth a server's live
//! heap to a record per completed task. Others pin what a non-interned
//! [`falkon_proto::IStr`] costs, that an interned one and a canonical task's
//! shape cost nothing, and what a hostile length prefix can make the decoder
//! reserve. Every test
//! with a socket runs under the suites' wall-clock bound (`within`).
//!
//! Ordering protocol: no synchronizes-with edges. The allocation counter
//! and the live-byte tally are `Relaxed`; the tests take turns (`SERIAL`)
//! and each is effectively single-threaded around its measured region (the
//! peer writes *before* the reader starts draining, and the tallies are
//! read after `recv` returns on the same thread), so program order — not
//! the atomics — sequences the reads. The deployment test's other threads
//! only work between `run_client`'s first write and its last read, both on
//! the counting thread.
//!
//! The tests that assert an exact count or a peak of one thread's work read
//! that thread's own tally (`thread_allocs`, `thread_peak`), not the
//! process-wide one: the test harness's other threads may allocate inside
//! their window, and `SERIAL` orders only the tests.
// A counting `GlobalAlloc` is an `unsafe impl`; it forwards to `System`.
#![allow(unsafe_code)]

use falkon_core::dispatcher::TaskRecord;
use falkon_core::executor::ExecutorConfig;
use falkon_core::DispatcherConfig;
use falkon_proto::message::InstanceId;
use falkon_proto::{BundleConfig, Codec, EfficientCodec, IStr, Message, TaskSpec};
use falkon_rt::clock::Clock;
use falkon_rt::conn::{Conn, Inbound};
use falkon_rt::muxpeer::run_executors_mux;
use falkon_rt::poll::{poll_wait, PollFd, POLLIN};
use falkon_rt::tcp::{run_client, DispatcherServer, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use within::{within, DEPLOYMENT_LIMIT};

#[path = "../../../tests/common/within.rs"]
mod within;

/// Counts allocations (not frees) — the steady-state inbound path must
/// request no fresh memory per task — and tallies live bytes, for what an
/// idle connection keeps.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes, modulo 2^64 (only differences are read).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The tallies are process-wide: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Allocations made by this thread, and the bytes they asked for.
    /// `const`-initialised with no destructor, so bumping them from the
    /// allocator never allocates.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed, whoever allocated
    /// them, and the highest that has stood since the last
    /// `reset_thread_peak`.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_thread_alloc(bytes: usize) {
    // A thread past its TLS teardown is not one a test measures.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = THREAD_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Move this thread's live tally by `delta` bytes, raising its peak.
fn count_thread_live(delta: i64) {
    let _ = THREAD_LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = THREAD_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: delegates every operation unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: monotonic tally read on the same thread that bumps it
        // during the measured region; no data is published over this edge.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count_thread_alloc(layout.size());
        count_thread_live(layout.size() as i64);
        // Relaxed: as above.
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `layout` is the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_thread_live(-(layout.size() as i64));
        // Relaxed: as above.
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr`/`layout` came from this
        // allocator's `alloc` per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_thread_alloc(new_size);
        count_thread_live(new_size as i64 - layout.size() as i64);
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

/// Allocations made by the calling thread.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes the calling thread's allocations asked for.
fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Start a new peak of the calling thread's live heap from where it stands,
/// and return where that is.
fn reset_thread_peak() -> i64 {
    let live = THREAD_LIVE.with(Cell::get);
    THREAD_PEAK.with(|peak| peak.set(live));
    live
}

/// The highest the calling thread's live heap has stood since
/// `reset_thread_peak`.
fn thread_peak() -> i64 {
    THREAD_PEAK.with(Cell::get)
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
    within(DEPLOYMENT_LIMIT, || {
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
    })
}

#[test]
fn idle_registered_connections_hold_no_read_buffer() {
    within(DEPLOYMENT_LIMIT, || {
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
            conn.enqueue(Message::RegisterAck { executor })
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
    })
}

/// Allocations per task, over every thread of the process, of a window of
/// tasks run through a dispatcher server, sixteen multiplexed executors and
/// a client, after a warm-up wave that grows every long-lived buffer
/// (batches, scratch, the running map, the recorder). Every task is built
/// before the count starts.
fn deployment_allocs_per_task(
    task: impl Fn(u64) -> TaskSpec,
    security: Option<u64>,
    warmup: u64,
    window: u64,
) -> f64 {
    const EXECUTORS: usize = 16;
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 1000,
            ..DispatcherConfig::default()
        })
        .security(security)
        .build()
        .expect("valid config");
    let server = DispatcherServer::start(config).expect("bind");
    let addr = server.addr;
    let executors = std::thread::spawn(move || {
        run_executors_mux(addr, 0, EXECUTORS, ExecutorConfig::default(), security)
    });
    let bundle = BundleConfig::of(300);

    let warm = run_client(addr, (0..warmup).map(&task).collect(), bundle, security);
    assert_eq!(warm.expect("warm-up").done, warmup);

    let tasks = (warmup..warmup + window).map(&task).collect();
    let before = allocs();
    let out = run_client(addr, tasks, bundle, security).expect("window");
    let per_task = (allocs() - before) as f64 / window as f64;
    assert_eq!(out.done, window);

    let (records, ..) = server.shutdown();
    assert_eq!(records.len() as u64, warmup + window);
    let ran = executors.join().expect("executor thread").expect("mux");
    assert_eq!(ran.tasks, warmup + window);
    per_task
}

/// A sleep-0 task through a whole deployment costs the four one-task
/// `Vec`s its `Vec`-carrying [`Message`]s need and nothing else: the
/// dispatcher's `take_work` (the `Work`/`ResultAck` it sends), the
/// executor's `decode_tasks` of that message, the executor's `finished`
/// (the `Result` it sends) and the dispatcher's `decode_results` of it.
/// Everything else per task — the submit bundle, `records`, the instance's
/// ready list, the client's bookkeeping — is amortized growth. The executor
/// pump's two scratch vectors used to be re-grown for every message, which
/// made it seven. It reads 4.05; the bound is sized to catch one more
/// allocation per four tasks anywhere on the path, which reads 4.30.
#[test]
fn a_task_through_a_tcp_deployment_allocates_about_four_times() {
    within(DEPLOYMENT_LIMIT, || {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let per_task = deployment_allocs_per_task(|i| TaskSpec::sleep(i, 0), None, 5_000, 20_000);
        eprintln!("allocations per task, whole process: {per_task:.2}");
        assert!(
            per_task <= 4.25,
            "a sleep-0 task allocated {per_task:.2} times end to end; \
             something per message has crept in beside the four message `Vec`s"
        );
    })
}

/// A task carrying 8 environment pairs of 128 bytes that no intern table
/// holds, over secure connections: the byte-bound security experiment's
/// task. Each of its two decodes (at the dispatcher and at the executor)
/// copies the 16 strings into one buffer, so it costs three allocations —
/// the buffer, its `Arc`, the `env` `Vec` — where a string apiece cost 17.
/// Beside the four of a sleep-0 task, two are its shape's: the wait queue's
/// `Arc` around its run, and the `env` `Vec` of the copy that is
/// dispatched. ≈40 when each string was an allocation of its own. It reads
/// 12.09; the bound is sized, like the sleep-0 one, to catch one more
/// allocation per four tasks, which reads 12.34.
#[test]
fn a_fat_secure_task_allocates_each_decoded_strings_once() {
    within(DEPLOYMENT_LIMIT, || {
        const POOL: usize = 64;
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Distinct environments the tasks draw from, as the benchmark's do:
        // a task's copy shares its environment's strings (a reference count
        // each), but every decode copies them afresh.
        let text = |tag: &str, i: usize, len: usize| {
            let mut s = format!("{tag}{i:04}_");
            while s.len() < len {
                s.push(char::from(b'a' + (s.len() * 7 + i) as u8 % 26));
            }
            IStr::from(s)
        };
        let envs: Vec<Vec<(IStr, IStr)>> = (0..POOL)
            .map(|e| {
                (0..8)
                    .map(|p| (text("FK_", e * 8 + p, 16), text("V", e * 8 + p, 112)))
                    .collect()
            })
            .collect();
        let fat = |i: u64| {
            let mut t = TaskSpec::sleep(i, 0);
            t.env = envs[i as usize % POOL].clone();
            t
        };
        let wire = EfficientCodec.encoded_len(&Message::Work {
            tasks: vec![fat(0)],
        });
        assert!(
            (1024..2048).contains(&wire),
            "a fat task is {wire} B, not ≈1 KiB"
        );

        let per_task = deployment_allocs_per_task(fat, Some(0x5EC), 1_000, 4_000);
        eprintln!("allocations per fat secure task, whole process: {per_task:.2}");
        assert!(
            per_task <= 12.25,
            "a fat secure task allocated {per_task:.2} times end to end; \
             its decoded strings are allocating one by one again"
        );
    })
}

/// The highest the calling thread's live heap stands above where it stood
/// when `run_client` was handed `n` sleep-0 tasks, built before.
fn client_peak_above_start(addr: std::net::SocketAddr, n: u64) -> i64 {
    let tasks: Vec<TaskSpec> = (0..n).map(|i| TaskSpec::sleep(i, 0)).collect();
    let start = reset_thread_peak();
    let out = run_client(addr, tasks, BundleConfig::of(300), None).expect("client");
    assert_eq!(out.done, n);
    thread_peak() - start
}

/// A client cuts each bundle from the workload it was handed when its
/// connection's batch has room, and counts results as they come, so its
/// own heap holds a batch and a bundle, whatever the workload: 20,000
/// tasks and 200,000 peak within 64 KiB of each other, each under 300 KiB
/// above where the call began (≈285 KiB: a batch at the 256 KiB
/// `FLUSH_HIGH_WATER` plus the frame that crossed it, and a 300-task
/// bundle of 14 KiB). A batch that doubles past the cap, as it did, peaks
/// at ≈529 KiB. A client that copies the wave into its staging list, cuts
/// every bundle at once and keeps every result peaks ≈217 B per task
/// higher: 4.1 MiB and 41.6 MiB.
#[test]
fn a_client_holds_what_its_socket_takes_not_its_workload() {
    within(DEPLOYMENT_LIMIT, || {
        const LIMIT: i64 = 300 << 10;
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let server =
            DispatcherServer::start(ServerConfig::builder().build().expect("valid config"))
                .expect("bind");
        let addr = server.addr;
        let executors = std::thread::spawn(move || {
            run_executors_mux(addr, 0, 16, ExecutorConfig::default(), None)
        });
        // The thread's read buffer is grown once and kept (`Conn::fill`).
        client_peak_above_start(addr, 1_000);
        let small = client_peak_above_start(addr, 20_000);
        let large = client_peak_above_start(addr, 200_000);
        server.shutdown();
        executors.join().expect("executor thread").expect("mux");
        eprintln!("client peak above start: {small} B for 20,000 tasks, {large} B for 200,000");
        assert!(
            small <= LIMIT && large <= LIMIT,
            "a client held {small} B over 20,000 tasks and {large} B over 200,000"
        );
        assert!(
            small.abs_diff(large) < 64 << 10,
            "a client's heap grows with its workload: {small} B → {large} B"
        );
    })
}

/// The heap a dispatcher server keeps per completed task of a run of `n`
/// sleep-0 tasks, after a warm-up run: its live-heap growth, less the
/// spare room of its records `Vec` (which doubles as it grows), per task.
fn server_heap_per_task(n: u64) -> f64 {
    const WARM: u64 = 1_000;
    let server = DispatcherServer::start(ServerConfig::builder().build().expect("valid config"))
        .expect("bind");
    let addr = server.addr;
    let executors =
        std::thread::spawn(move || run_executors_mux(addr, 0, 16, ExecutorConfig::default(), None));
    let bundle = BundleConfig::of(300);
    let warm = run_client(
        addr,
        (0..WARM).map(|i| TaskSpec::sleep(i, 0)).collect(),
        bundle,
        None,
    );
    assert_eq!(warm.expect("warm-up").done, WARM);
    // The workload is built and dropped inside the window.
    let before = live_bytes();
    let tasks = (WARM..WARM + n).map(|i| TaskSpec::sleep(i, 0)).collect();
    let out = run_client(addr, tasks, bundle, None).expect("run");
    assert_eq!(out.done, n);
    let grown = live_bytes().wrapping_sub(before) as f64;
    let (records, ..) = server.shutdown();
    executors.join().expect("executor thread").expect("mux");
    assert_eq!(records.len() as u64, WARM + n);
    let spare = (records.capacity() - records.len()) * std::mem::size_of::<TaskRecord>();
    (grown - spare as f64) / n as f64
}

/// What a dispatcher server keeps of a completed task is its 56-byte
/// [`TaskRecord`], and that is all: over runs of 20,000 and 200,000 tasks
/// its heap grows ≈57–60 B per task either way. The bound, 64 B, is broken
/// by a 72-byte record that clones the whole result (73–76 B), by one that
/// keeps the task's spec again (48 B more), or by anything else the server
/// holds per task once the task is done.
#[test]
fn a_server_keeps_a_record_per_completed_task_and_nothing_else() {
    within(DEPLOYMENT_LIMIT, || {
        const LIMIT: f64 = 64.0;
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let small = server_heap_per_task(20_000);
        let large = server_heap_per_task(200_000);
        eprintln!(
            "server heap per completed task: {small:.1} B over 20,000, {large:.1} B over 200,000"
        );
        assert!(
            small <= LIMIT && large <= LIMIT,
            "a server kept {small:.1} B per task over 20,000 tasks and {large:.1} B over 200,000"
        );
    })
}

/// A canonical task is its id, an empty environment and a handle on a
/// static shape: 100,000 `sleep 0` tasks, or `sleep 0.001` ones, cost their
/// `Vec` and nothing else, 48 B a task; and decoding a 300-task `Submit` of
/// them allocates its `Vec` and no shape. A task that held its own shape
/// would cost a block per task at each end. A sweep of another shape,
/// `sleep 1.5`, decodes to one shared shape: each task's strings are still
/// copied (a buffer and its `Arc`), but its shape is the one before it.
#[test]
fn a_canonical_task_allocates_nothing_but_its_vec() {
    const N: u64 = 100_000;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let builds: [fn(u64) -> TaskSpec; 2] =
        [|i| TaskSpec::sleep(i, 0), |i| TaskSpec::sleep_us(i, 1_000)];
    for build in builds {
        // Fill the shape's static slot outside the count.
        let warm = build(0);
        let (allocs, bytes) = (thread_allocs(), thread_bytes());
        let tasks: Vec<TaskSpec> = (0..N).map(build).collect();
        assert_eq!(
            (thread_allocs() - allocs, thread_bytes() - bytes),
            (1, N * std::mem::size_of::<TaskSpec>() as u64),
            "building {N} tasks like {warm:?}"
        );
        let submit = Message::Submit {
            instance: InstanceId(1),
            tasks: tasks[..300].to_vec(),
        };
        let wire = EfficientCodec.encode(&submit);
        let before = thread_allocs();
        let decoded = EfficientCodec.decode(&wire).expect("decode");
        assert_eq!(
            thread_allocs() - before,
            1,
            "decoding 300 tasks like {warm:?} allocated a shape"
        );
        assert_eq!(decoded, submit);
    }
    assert_eq!(std::mem::size_of::<TaskSpec>(), 48);

    let submit = Message::Submit {
        instance: InstanceId(1),
        tasks: (0..300).map(|i| TaskSpec::sleep_us(i, 1_500_000)).collect(),
    };
    let wire = EfficientCodec.encode(&submit);
    let before = thread_allocs();
    let decoded = EfficientCodec.decode(&wire).expect("decode");
    assert_eq!(
        thread_allocs() - before,
        1 + 300 * 2 + 1,
        "decoding 300 `sleep 1.5` tasks allocated a shape per task"
    );
    assert_eq!(decoded, submit);
}

/// A heap [`IStr`] is an `Arc` around a `String`: made from a `String` it
/// moves the string in (one allocation, the `Arc`), made from a `&str` it
/// copies it first (two), and a clone is a reference count. One `Arc`
/// around a `str` was one allocation either way, but a decoded task's
/// strings could not share it.
#[test]
fn istr_from_string_is_one_allocation_from_str_two_and_a_clone_none() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Populate the decimal table outside the count.
    assert!(IStr::from("7").is_interned());

    let before = thread_allocs();
    let interned = [IStr::from("sleep"), IStr::from("/tmp"), IStr::from("42")];
    let copies = interned.clone();
    assert_eq!(
        thread_allocs() - before,
        0,
        "interned strings allocate nothing"
    );
    drop((interned, copies));

    let string = String::from("custom-binary");
    let before = thread_allocs();
    let moved = IStr::from(string);
    assert_eq!(
        thread_allocs() - before,
        1,
        "a `String` moves into one `Arc`"
    );

    let before = thread_allocs();
    let copied = IStr::from("custom-binary");
    assert_eq!(
        thread_allocs() - before,
        2,
        "a `&str` is copied into a `String`"
    );
    let copy = copied.clone();
    assert_eq!(thread_allocs() - before, 2, "a clone is a reference count");
    assert!(!copied.is_interned() && copied.ptr_eq(&copy) && !copied.ptr_eq(&moved));
    assert_eq!(moved, copied);
}

/// Figure 6's 1 ms task, `sleep 0.001`, interns its argument as a whole
/// second's does: building one allocates nothing, and decoding a bundle of
/// them allocates the bundle's task `Vec` and no string. A heap string
/// would be two blocks per task at each end.
#[test]
fn a_one_millisecond_task_allocates_no_string_at_either_end() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Populate the fraction table outside the count.
    let warm = TaskSpec::sleep_us(0, 1_000);

    let before = thread_allocs();
    let tasks: [TaskSpec; 300] = std::array::from_fn(|i| TaskSpec::sleep_us(i as u64, 1_000));
    assert_eq!(
        thread_allocs() - before,
        0,
        "building a 1 ms task allocates"
    );
    assert!(tasks[299].args()[0].is_interned() && tasks[299].args()[0].ptr_eq(&warm.args()[0]));

    let wire = EfficientCodec.encode(&Message::Work {
        tasks: tasks.to_vec(),
    });
    let before = thread_allocs();
    let decoded = EfficientCodec.decode(&wire).expect("decode");
    assert_eq!(
        thread_allocs() - before,
        1,
        "decoding 300 1 ms tasks allocates a string"
    );
    let Message::Work { tasks: got } = decoded else {
        panic!("expected work");
    };
    assert_eq!(got, tasks);
    assert!(got.iter().all(|t| t.args()[0].ptr_eq(&warm.args()[0])));
}

/// Asks the decoder to decode `wire` and returns the bytes the attempt
/// reserved, having checked that it failed.
fn bytes_reserved_by_a_failed_decode(wire: &[u8]) -> u64 {
    let before = thread_bytes();
    assert!(EfficientCodec.decode(wire).is_err(), "decoded");
    thread_bytes() - before
}

/// A length prefix is a claim, not a size: the most a length may say.
const CLAIM: u32 = 64 << 20;

/// A 13-byte `Submit` that declares 64 Mi tasks fails to decode having
/// reserved nothing: a task takes at least 26 bytes, and the frame has no
/// byte left after the count. Capped at 4,096 tasks ahead of the bytes that
/// carry them, it reserved 512 KiB; uncapped, 8 GiB.
#[test]
fn a_hostile_task_count_reserves_bounded_memory() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Tag 3 (`Submit`), the instance, and the task count.
    let mut submit = vec![3];
    submit.extend_from_slice(&1u64.to_le_bytes());
    submit.extend_from_slice(&CLAIM.to_le_bytes());
    assert_eq!(submit.len(), 13);
    let asked = bytes_reserved_by_a_failed_decode(&submit);
    assert_eq!(asked, 0, "a claim of {CLAIM} tasks reserved {asked} B");
}

/// A task that declares 64 Mi environment pairs, with no byte after the
/// count, fails to decode having reserved room for the one task its frame
/// has bytes for and no pair. Capped at 1,024 pairs ahead of the bytes that
/// carry them, it reserved 32 KiB more; uncapped, 2 GiB.
#[test]
fn a_hostile_environment_count_reserves_bounded_memory() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A one-task `Work` cut after its environment count, which is followed
    // by the working directory (4 + 4 B), the runtime (1 + 8) and the data
    // tag (1).
    let mut work = EfficientCodec.encode(&Message::Work {
        tasks: vec![TaskSpec::sleep(1, 0)],
    });
    let at = work.len() - 18 - 4;
    assert_eq!(work[at..at + 4], [0; 4], "no environment");
    work.truncate(at);
    work.extend_from_slice(&CLAIM.to_le_bytes());
    let asked = bytes_reserved_by_a_failed_decode(&work);
    let one_task = std::mem::size_of::<TaskSpec>() as u64;
    assert!(
        asked <= one_task,
        "a claim of {CLAIM} pairs reserved {asked} B"
    );
}
