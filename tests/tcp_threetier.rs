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
//! forwarder and goes to whichever slot comes up first.

// Deployment tests: really waiting on real sockets is the point, so the
// workspace-wide ban on blocking sleeps does not apply here.
#![allow(clippy::disallowed_methods)]
#![cfg(unix)]

use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::obs::{Counters, ObsEventKind};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::message::ExecutorId;
use falkon::proto::task::TaskSpec;
use falkon::rt::forwarder::ForwarderServer;
use falkon::rt::muxpeer::MuxOutcome;
use falkon::rt::tcp::{run_client, run_executor, ServerConfig};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The cases run one at a time: the soak counts the process's threads.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live thread count of this process (`/proc/self/status`), or `None` off
/// Linux — the thread-budget assertion is skipped there.
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
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
    let threads_before = process_threads();
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
    if let (Some(before), Some(peak)) = (threads_before, process_threads()) {
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
    assert_eq!(outcome.stats.dispatchers_lost, 1);
    assert_eq!(outcome.stats.readmitted, 1);
    assert!(outcome.stats.rerouted > 0, "the victim held no backlog");
    assert_eq!(outcome.stats.results_delivered, total);
    assert_eq!(
        outcome.stats.tasks_routed,
        total + outcome.stats.rerouted,
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
    if let (Some(before), Some(after)) = (threads_before, process_threads()) {
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
    let s = outcome.stats;
    assert_eq!((s.dispatchers_lost, s.readmitted), (2, 1));
    assert_eq!(s.results_delivered, BACKLOG);
    assert_eq!(s.tasks_routed, BACKLOG + s.rerouted);
}
