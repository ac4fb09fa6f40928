//! Connection fan-out soak: the connection engine holding ~1000 concurrent
//! executor connections on one box, on one server thread.
//!
//! Three invariants, checked at quick scale so the suite stays fast in CI:
//!
//! 1. **Thread budget** — the whole deployment (the dispatcher's one
//!    thread, 1000 multiplexed peers, client) adds 2 threads to the
//!    process, plus whatever the tests running alongside hold — no thread
//!    per connection, no accept thread.
//! 2. **Exact accounting** — every task completes exactly once, and the
//!    wire byte balance holds in both directions: frames charged as
//!    encoded at one socket end equal frames charged as decoded at the
//!    other, byte for byte, across all ~1001 connections.
//! 3. **Clean shutdown under load** — killing the dispatcher mid-workload
//!    unwinds the server and 200 live peers without a leak or a deadlock,
//!    with consistent partial accounting.

// Deployment tests: really waiting on real sockets is the point, so the
// workspace-wide ban on blocking sleeps does not apply here.
#![allow(clippy::disallowed_methods)]
#![cfg(unix)]

mod common;

use common::within::{within, DEPLOYMENT_LIMIT};
use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::obs::{Counters, ObsEventKind};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::task::TaskSpec;
use falkon::rt::muxpeer::run_executors_mux;
use falkon::rt::tcp::{run_client, DispatcherServer, ServerConfig, TcpSecurity};
use std::collections::HashSet;
use std::thread;
use std::time::Duration;

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

/// `conns` executors on one dispatcher, `n_tasks` sleep-0 tasks to
/// completion; returns nothing — all invariants asserted inside.
fn fanout(conns: usize, n_tasks: u64, security: TcpSecurity) {
    let threads_before = process_threads();
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 1_000,
            ..DispatcherConfig::default()
        })
        .security(security)
        .build()
        .expect("valid config");
    let server = DispatcherServer::start(config).expect("bind");
    let addr = server.addr;
    let mux = thread::spawn(move || {
        run_executors_mux(addr, 0, conns, ExecutorConfig::default(), security)
    });
    let tasks: Vec<TaskSpec> = (0..n_tasks).map(|i| TaskSpec::sleep(i, 0)).collect();
    let client = run_client(addr, tasks, BundleConfig::of(300), security).expect("client");
    assert_eq!(client.done, n_tasks, "client lost completions");

    // Peak: every connection is still open. The entire deployment is the
    // dispatcher's thread and the mux peer thread (the client is this
    // thread): 2. The two other tests in this binary may run concurrently;
    // the constant absorbs their threads (deployments of 2 and 3, plus
    // the harness's).
    if let (Some(before), Some(peak)) = (threads_before, process_threads()) {
        let added = peak.saturating_sub(before);
        assert!(
            added <= 2 + 16,
            "deployment added {added} threads for {conns} connections (want 2)"
        );
        assert!(
            added < conns as u64 / 2,
            "thread count scales with connections: {added} added for {conns} conns"
        );
    }

    // The workload can finish on the first executors to register while the
    // rest of the fleet is still being accepted; the exact byte balance
    // below needs every registration delivered before the server goes.
    let poll_wire = common::wait_registered(addr, security, conns as u64);
    let (records, stats, obs) = server.shutdown();
    let out = mux.join().expect("mux thread").expect("mux run");

    // Exactly-once accounting across 1000 executors.
    assert_eq!(records.len() as u64, n_tasks);
    assert_eq!(stats.completed, n_tasks);
    assert_eq!(stats.duplicate_results, 0);
    assert_eq!(out.tasks, n_tasks, "executors double-ran or lost tasks");
    let ids: HashSet<_> = records.iter().map(|r| r.result.id).collect();
    assert_eq!(ids.len() as u64, n_tasks, "duplicate task records");

    // Exact both-direction byte balance: the dispatcher's recorder holds
    // the merged taps of every server-side connection; the peers'
    // outcomes hold the other socket ends. Handshake frames are excluded
    // symmetrically, so any lost frame or double count breaks the
    // equality.
    let mut peer_wire = client.wire;
    peer_wire.merge(&out.wire);
    peer_wire.merge(&poll_wire);
    let disp_enc = wire_total(&obs.counters, ObsEventKind::BundleEncoded);
    let disp_dec = wire_total(&obs.counters, ObsEventKind::BundleDecoded);
    let peer_enc = wire_total(&peer_wire, ObsEventKind::BundleEncoded);
    let peer_dec = wire_total(&peer_wire, ObsEventKind::BundleDecoded);
    assert_eq!(
        disp_dec, peer_enc,
        "frames/bytes sent by peers != received by dispatcher"
    );
    assert_eq!(
        disp_enc, peer_dec,
        "frames/bytes sent by dispatcher != received by peers"
    );
    // 1000 registrations alone guarantee substantial traffic.
    assert!(disp_dec.0 >= conns as u64, "suspiciously few frames");
}

#[test]
fn fanout_1000_conns_plain() {
    within(DEPLOYMENT_LIMIT, || {
        fanout(1_000, 3_000, None);
    })
}

#[test]
fn fanout_secure() {
    within(DEPLOYMENT_LIMIT, || {
        // The secure arm soaks fewer connections to keep CI time down; the
        // invariants are identical.
        fanout(300, 900, Some(0xFA1C0));
    })
}

/// Kill the dispatcher while 200 peers hold live work: the server loop
/// and the mux loop must unwind (a leak or deadlock hangs the test), and
/// the partial accounting must be consistent.
#[test]
fn fanout_shutdown_under_load_joins_cleanly() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let mux =
            thread::spawn(move || run_executors_mux(addr, 0, 200, ExecutorConfig::default(), None));
        // 2000 × 1 ms tasks: the shutdown below lands while submits,
        // dispatches, and results are all in flight.
        let client = thread::spawn(move || {
            run_client(
                addr,
                (0..2_000).map(|i| TaskSpec::sleep_us(i, 1_000)).collect(),
                BundleConfig::of(100),
                None,
            )
        });
        thread::sleep(Duration::from_millis(50));

        let (records, stats, obs) = server.shutdown();

        // Peers must unwind too: the server's final flush + close gives every
        // mux peer an EOF. If the shutdown landed while the mux was still in
        // its connect storm, the refused connect is the expected outcome — the
        // already-connected peers are dropped and their sockets closed.
        let mux_tasks = match mux.join().expect("mux thread") {
            Ok(out) => Some(out.tasks),
            Err(e) => {
                assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::UnexpectedEof
                    ),
                    "mux failed with a non-shutdown error: {e}"
                );
                None
            }
        };
        if let Ok(c) = client.join().expect("client thread") {
            assert_eq!(c.done, 2_000);
        }

        // Accounting stayed consistent at the instant of death.
        assert_eq!(records.len() as u64, stats.completed);
        assert_eq!(
            obs.counters.count(ObsEventKind::TaskCompleted),
            stats.completed
        );
        let ids: HashSet<_> = records.iter().map(|r| r.result.id).collect();
        assert_eq!(ids.len(), records.len(), "duplicate task records");
        // A result can only reach the dispatcher if some executor ran the task,
        // so the pool's run count bounds the dispatcher's completion count.
        if let Some(tasks) = mux_tasks {
            assert!(
                tasks >= stats.completed,
                "dispatcher recorded unreported tasks"
            );
        }
    })
}
