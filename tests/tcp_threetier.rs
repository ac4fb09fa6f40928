//! Three-tier deployment soak: clients → forwarder → 3 dispatchers →
//! executors, over real sockets, with a dispatcher killed mid-run.
//!
//! The invariants, checked at quick scale so the suite stays fast in CI:
//!
//! 1. **Exactly-once across a loss** — a dispatcher holding a real backlog
//!    dies; the forwarder re-routes every one of its in-flight tasks to the
//!    survivors, and every task of both workload waves completes exactly
//!    once (no loss, no duplicate, unique task records across all tiers).
//! 2. **Readmit** — a fresh dispatcher mounted in the dead slot
//!    participates again: the second wave demonstrably lands work on it.
//! 3. **Exact wire balance across the loss** — frames/bytes charged as
//!    encoded at one socket end equal frames/bytes charged as decoded at
//!    the other, per direction, on *both* faces of the forwarder — the
//!    client tier and the dispatcher tier — including the link that died.
//! 4. **Thread budget and clean unwind** — at peak each server is one
//!    thread and nothing per connection or per downstream link; every
//!    thread of the deployment joins, and the process thread count
//!    returns to its baseline.
//!
//! The victim is the one dispatcher with no executors attached: its
//! backlog is real (nothing drains it), and by kill time its link is
//! quiescent — every flushed frame has been decoded at the far end — so
//! the enqueue-time wire charge stays balanced across the loss.
//!
//! A second case loses *every* dispatcher: the backlog waits in the
//! forwarder and goes to whichever slot comes up first. A third has the
//! client go away while its tasks run: their results wait at the
//! forwarder for the client's next connection.

// Deployment tests: really waiting on real sockets is the point, so the
// workspace-wide ban on blocking sleeps does not apply here.
#![allow(clippy::disallowed_methods)]
#![cfg(unix)]

mod common;

use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::obs::{Counters, ObsEventKind};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::message::{ExecutorId, Message};
use falkon::proto::task::TaskSpec;
use falkon::proto::{write_frame, Codec, EfficientCodec};
use falkon::rt::forwarder::ForwarderServer;
use falkon::rt::muxpeer::MuxOutcome;
use falkon::rt::tcp::{run_client, run_executor, ServerConfig};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The cases run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live threads of this process that bear the calling thread's name, or
/// `None` off Linux — the thread-budget assertion is skipped there. The
/// harness names each case's thread after the case, and Linux hands a
/// thread's name to the threads it starts, so this counts the case's own
/// thread and the threads of the deployment it started, whenever the
/// harness starts or ends the other cases' threads.
fn case_threads() -> Option<u64> {
    let comm = |path: std::path::PathBuf| std::fs::read_to_string(path.join("comm")).ok();
    let own = comm("/proc/thread-self".into())?;
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let named = tasks
        .flatten()
        .filter(|t| comm(t.path()).as_ref() == Some(&own));
    Some(named.count() as u64)
}

fn wire_total(c: &Counters, kind: ObsEventKind) -> (u64, u64) {
    (c.count(kind), c.value(kind))
}

fn spawn_executors(
    addr: SocketAddr,
    first_id: u64,
    count: usize,
) -> Vec<JoinHandle<std::io::Result<MuxOutcome>>> {
    (0..count)
        .map(|i| {
            thread::spawn(move || {
                run_executor(
                    addr,
                    ExecutorId(first_id + i as u64),
                    ExecutorConfig::default(),
                    None,
                )
            })
        })
        .collect()
}

const WAVE1: u64 = 600;
const WAVE2: u64 = 300;
const VICTIM: usize = 2;

#[test]
fn dispatcher_loss_reroutes_exactly_once_with_balanced_wire() {
    let _serial = serial();
    let threads_before = case_threads();
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 50,
            ..DispatcherConfig::default()
        })
        .forwarder(3)
        .build()
        .expect("valid config");
    let mut server = ForwarderServer::start(config).expect("bind three-tier");
    let addr = server.addr;
    let disp_addrs = server.dispatcher_addrs().to_vec();

    // Executors on dispatchers 0 and 1 only: the victim's backlog is real.
    let mut execs = Vec::new();
    execs.extend(spawn_executors(disp_addrs[0], 0, 2));
    execs.extend(spawn_executors(disp_addrs[1], 10, 2));

    // Wave 1: all bundles are enqueued up front, so the victim's share
    // arrives (and is acked) within milliseconds; the tasks routed to it
    // then sit forever — the client cannot complete until the kill below
    // re-routes them.
    let client1 = thread::spawn(move || {
        run_client(
            addr,
            (0..WAVE1).map(|i| TaskSpec::sleep(i, 0)).collect(),
            BundleConfig::of(50),
            None,
        )
    });
    // Let the victim's link go quiescent: its submits decoded, its acks
    // read. Survivor traffic may continue; only the dying link must be
    // drained for the balance to hold exactly.
    thread::sleep(Duration::from_millis(300));
    // Peak thread count: four servers (the forwarder and 3 dispatchers),
    // one thread each — a downstream link is a connection of the
    // forwarder's thread, not a thread of its own — plus the 4 executor
    // threads and the wave-1 client.
    if let (Some(before), Some(peak)) = (threads_before, case_threads()) {
        let added = peak.saturating_sub(before);
        let budget = 4 + 4 + 1;
        assert!(added <= budget, "{added} threads at peak, budget {budget}");
    }
    let (victim_records, victim_stats, victim_obs) = server.kill_dispatcher(VICTIM);
    let c1 = client1
        .join()
        .expect("client thread")
        .expect("wave 1 completes only if the backlog re-routed");
    assert_eq!(c1.done, WAVE1, "wave 1 lost completions");
    assert_eq!(victim_stats.completed, 0, "victim had no executors");
    assert_eq!(victim_records.len(), 0);

    // Readmit a fresh dispatcher into the dead slot and give it executors.
    let new_addr = server.readmit_dispatcher(VICTIM).expect("readmit");
    execs.extend(spawn_executors(new_addr, 20, 2));

    // Wave 2 (disjoint task ids): the refreshed slot must participate.
    let c2 = run_client(
        addr,
        (WAVE1..WAVE1 + WAVE2)
            .map(|i| TaskSpec::sleep(i, 0))
            .collect(),
        BundleConfig::of(50),
        None,
    )
    .expect("wave 2");
    assert_eq!(c2.done, WAVE2, "wave 2 lost completions");

    let (outcome, dispatcher_outcomes) = server.shutdown();
    let exec_outcomes: Vec<MuxOutcome> = execs
        .into_iter()
        .map(|e| e.join().expect("executor thread").expect("executor run"))
        .collect();

    // -- Invariant 1: exactly-once, across the loss. --------------------
    let total = WAVE1 + WAVE2;
    assert_eq!(dispatcher_outcomes.len(), 3, "readmitted slot survived");
    let completed: u64 = dispatcher_outcomes
        .iter()
        .map(|(_, s, _)| s.completed)
        .sum();
    assert_eq!(completed, total, "dispatchers completed every task once");
    let dup: u64 = dispatcher_outcomes
        .iter()
        .map(|(_, s, _)| s.duplicate_results)
        .sum();
    assert_eq!(dup, 0, "a re-routed task ran twice");
    let mut ids: HashSet<u64> = HashSet::new();
    for (records, _, _) in &dispatcher_outcomes {
        for r in records {
            assert!(
                ids.insert(r.result.id.0),
                "task {:?} recorded twice",
                r.result.id
            );
        }
    }
    assert_eq!(ids.len() as u64, total, "task records missing");
    let ran: u64 = exec_outcomes.iter().map(|o| o.tasks).sum();
    assert_eq!(ran, total, "executors double-ran or lost tasks");

    // The forwarder's own books agree: the victim's entire backlog was
    // re-routed, results were funnelled back exactly once.
    let c = &outcome.recorder.counters;
    assert_eq!(c.count(ObsEventKind::DispatcherLost), 1);
    assert_eq!(c.count(ObsEventKind::DispatcherReadmitted), 1);
    let rerouted = c.value(ObsEventKind::TaskRerouted);
    assert!(rerouted > 0, "the victim held no backlog");
    assert_eq!(c.value(ObsEventKind::ResultsRouted), total);
    assert_eq!(
        c.value(ObsEventKind::BundleRouted),
        total + rerouted,
        "routed = every task once + the re-routed backlog"
    );

    // -- Invariants 2: the refreshed slot participates. -----------------
    let (_, refreshed_stats, _) = &dispatcher_outcomes[VICTIM];
    assert!(
        refreshed_stats.completed > 0,
        "readmitted dispatcher got no work"
    );

    // -- Invariant 3: exact both-direction wire balance. ----------------
    // Client tier: the forwarder's upstream transport vs both clients.
    let mut client_wire = c1.wire;
    client_wire.merge(&c2.wire);
    for (tier_kind, peer_kind, dir) in [
        (
            ObsEventKind::BundleDecoded,
            ObsEventKind::BundleEncoded,
            "client->forwarder",
        ),
        (
            ObsEventKind::BundleEncoded,
            ObsEventKind::BundleDecoded,
            "forwarder->client",
        ),
    ] {
        assert_eq!(
            wire_total(&outcome.upstream_wire, tier_kind),
            wire_total(&client_wire, peer_kind),
            "frames/bytes unbalanced: {dir}"
        );
    }
    // Dispatcher tier: every dispatcher's merged wire (including the
    // victim's) vs the forwarder's downstream links (including the lost
    // one) plus every executor.
    let mut disp_wire = victim_obs.counters.clone();
    for (_, _, obs) in &dispatcher_outcomes {
        disp_wire.merge(&obs.counters);
    }
    let mut peer_wire = outcome.downstream_wire;
    for o in &exec_outcomes {
        peer_wire.merge(&o.wire);
    }
    for (tier_kind, peer_kind, dir) in [
        (
            ObsEventKind::BundleDecoded,
            ObsEventKind::BundleEncoded,
            "peers->dispatchers",
        ),
        (
            ObsEventKind::BundleEncoded,
            ObsEventKind::BundleDecoded,
            "dispatchers->peers",
        ),
    ] {
        assert_eq!(
            wire_total(&disp_wire, tier_kind),
            wire_total(&peer_wire, peer_kind),
            "frames/bytes unbalanced: {dir}"
        );
    }

    // -- Invariant 4: every thread joined. ------------------------------
    // All handles joined above; the process count settles back to its
    // baseline (small slack for unrelated test threads and lazy reaping).
    if let (Some(before), Some(after)) = (threads_before, case_threads()) {
        let leaked = after.saturating_sub(before);
        assert!(leaked <= 4, "three-tier deployment leaked {leaked} threads");
    }
}

const BACKLOG: u64 = 400;

#[test]
fn backlog_survives_every_dispatcher_lost_and_goes_to_the_first_readmitted() {
    let _serial = serial();
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 50,
            ..DispatcherConfig::default()
        })
        .forwarder(2)
        .build()
        .expect("valid config");
    let mut server = ForwarderServer::start(config).expect("bind three-tier");
    let addr = server.addr;

    // No executors yet: the whole backlog sits at the two dispatchers.
    let (done_tx, done_rx) = mpsc::channel();
    let client = thread::spawn(move || {
        let tasks = (0..BACKLOG).map(|i| TaskSpec::sleep(i, 0)).collect();
        let outcome = run_client(addr, tasks, BundleConfig::of(50), None);
        done_tx.send(()).ok();
        outcome
    });
    // Let the backlog reach the dispatchers. Either order of the two
    // losses at the forwarder ends with every slot down.
    thread::sleep(Duration::from_millis(300));
    let (_, lost0, _) = server.kill_dispatcher(0);
    let (_, lost1, _) = server.kill_dispatcher(1);
    assert_eq!(lost0.completed + lost1.completed, 0, "no executors ran");

    // Only slot 1 comes back, and only it gets executors.
    let new_addr = server.readmit_dispatcher(1).expect("readmit");
    let execs = spawn_executors(new_addr, 0, 2);
    let finished = done_rx.recv_timeout(Duration::from_secs(20)).is_ok();
    // Stopping the tier also releases a client that is still waiting.
    let (outcome, dispatcher_outcomes) = server.shutdown();
    let c = client.join().expect("client thread");
    for e in execs {
        e.join().expect("executor thread").ok();
    }
    assert!(finished, "the backlog never reached readmitted slot 1");
    assert_eq!(c.expect("client").done, BACKLOG);

    // Exactly once, all of it on the readmitted slot.
    assert_eq!(dispatcher_outcomes.len(), 1, "only slot 1 is running");
    let (records, stats, _) = &dispatcher_outcomes[0];
    assert_eq!(stats.completed, BACKLOG);
    assert_eq!(stats.duplicate_results, 0, "a task ran twice");
    let ids: HashSet<u64> = records.iter().map(|r| r.result.id.0).collect();
    assert_eq!(records.len() as u64, BACKLOG);
    assert_eq!(ids.len() as u64, BACKLOG, "task records not unique");
    let c = &outcome.recorder.counters;
    let lost = c.count(ObsEventKind::DispatcherLost);
    assert_eq!((lost, c.count(ObsEventKind::DispatcherReadmitted)), (2, 1));
    assert_eq!(c.value(ObsEventKind::ResultsRouted), BACKLOG);
    let rerouted = c.value(ObsEventKind::TaskRerouted);
    assert_eq!(c.value(ObsEventKind::BundleRouted), BACKLOG + rerouted);
}

/// A hand-driven plain-text client on a blocking socket.
struct RawClient(TcpStream);

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        let client = RawClient(stream);
        client.patience(Duration::from_secs(2));
        client
    }

    /// How long [`RawClient::recv`] waits for a message.
    fn patience(&self, wait: Duration) {
        self.0.set_read_timeout(Some(wait)).expect("timeout");
    }

    fn send(&mut self, msg: &Message) {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &EfficientCodec.encode(msg));
        self.0.write_all(&bytes).expect("write");
    }

    /// The next message, or `None` if none comes within the patience.
    fn recv(&mut self) -> Option<Message> {
        let mut len = [0u8; 4];
        self.0.read_exact(&mut len).ok()?;
        let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
        self.0.read_exact(&mut frame).expect("frame body");
        Some(EfficientCodec.decode(&frame).expect("decodes"))
    }
}

/// Poll until `done` holds, for up to 10 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Results wait on the instance at the forwarder tier too. A raw client
/// submits through the forwarder and drops its connection; executors join
/// only after that, so every result comes back to an instance with no
/// connection. A fresh connection's `GetResults` then receives each of
/// them exactly once. (The forwarder used to drop them at delivery.)
#[test]
fn client_gone_while_its_tasks_run_fetches_each_result_from_the_forwarder() {
    const N: u64 = 60;
    let _serial = serial();
    let config = ServerConfig::builder()
        .forwarder(1)
        .build()
        .expect("valid config");
    let server = ForwarderServer::start(config).expect("bind three-tier");
    let disp = server.dispatcher_addrs()[0];

    let mut client = RawClient::connect(server.addr);
    client.send(&Message::CreateInstance);
    let Some(Message::InstanceCreated { instance }) = client.recv() else {
        panic!("expected InstanceCreated");
    };
    let tasks = (0..N).map(|i| TaskSpec::sleep(i, 0)).collect();
    client.send(&Message::Submit { instance, tasks });
    drop(client);

    // The bundle waits at the dispatcher until executors come; then every
    // task runs, and the last push crosses the forwarder.
    let mut status = common::StatusClient::connect(disp, None);
    wait_until("the bundle", || status.poll().queued_tasks == N);
    let execs = spawn_executors(disp, 0, 2);
    common::wait_registered(disp, None, 2);
    wait_until("the tasks", || {
        let s = status.poll();
        s.queued_tasks + s.running_tasks == 0
    });
    status.close();
    thread::sleep(Duration::from_millis(100));

    let mut client = RawClient::connect(server.addr);
    client.send(&Message::GetResults { instance });
    let mut seen = Vec::new();
    while (seen.len() as u64) < N {
        match client.recv() {
            Some(Message::Results { results }) => seen.extend(results.iter().map(|r| r.id.0)),
            Some(other) => panic!("unexpected {other:?}"),
            None => break,
        }
    }
    client.patience(Duration::from_millis(200));
    assert_eq!(client.recv(), None, "a result came twice");
    seen.sort_unstable();
    assert_eq!(seen, (0..N).collect::<Vec<_>>(), "each result exactly once");

    drop(client);
    let (outcome, _) = server.shutdown();
    for e in execs {
        e.join().expect("executor thread").ok();
    }
    let delivered = outcome.recorder.counters.value(ObsEventKind::ResultsRouted);
    assert_eq!(delivered, N);
}
