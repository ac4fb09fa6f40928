//! TCP transport soak tests: sustained mixed-size traffic with exact
//! wire-byte accounting, and shutdown under load.
//!
//! The connection engine collects the wire counters ([`falkon::obs::WireTap`])
//! of *every* connection as it closes — the server's thread on the
//! dispatcher side, each peer's own loop on the peer side. That makes a
//! strong end-to-end invariant checkable: every frame charged as encoded at
//! one end of a socket must be charged as decoded at the other end, byte
//! for byte. Handshake frames are excluded symmetrically (neither end
//! charges them), so the totals balance exactly — any lost frame, double
//! count, or dropped counter breaks the equality. The socket calls balance
//! the same way: every byte one end's `write` calls moved, the other end's
//! `read` calls moved, handshakes and frame headers included.

// Deployment tests: really waiting on real sockets is the point, so the
// workspace-wide ban on blocking sleeps does not apply here.
#![allow(clippy::disallowed_methods)]

mod common;

use common::within::{within, DEPLOYMENT_LIMIT};
use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::obs::{Counters, ObsEventKind};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::message::ExecutorId;
use falkon::proto::task::TaskSpec;
use falkon::rt::tcp::{run_client, run_executor, DispatcherServer, ServerConfig, TcpSecurity};
use std::collections::HashSet;
use std::thread;
use std::time::Duration;

/// `n` sleep-0 tasks whose encoded size varies widely: every fourth task
/// carries a padded environment block (up to ~4 KiB), so submit bundles mix
/// tiny frames with ones that span several reader `read()` calls.
fn mixed_size_tasks(n: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let mut spec = TaskSpec::sleep_us(i, 0);
            if i % 4 == 0 {
                let pad = "x".repeat(64 + (i as usize * 97) % 4096);
                spec.env = vec![("FALKON_SOAK_PAD".into(), pad.into())];
            }
            spec
        })
        .collect()
}

fn wire_total(c: &Counters, kind: ObsEventKind) -> (u64, u64) {
    (c.count(kind), c.value(kind))
}

/// Run `tasks` on `n_exec` executors to completion and check completion
/// exactness plus both directions of the byte balance. Returns the bytes
/// the client put on the wire.
fn soak(n_exec: u64, tasks: Vec<TaskSpec>, security: TcpSecurity) -> u64 {
    let n_tasks = tasks.len() as u64;
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 64,
            ..DispatcherConfig::default()
        })
        .security(security)
        .build()
        .expect("valid config");
    let server = DispatcherServer::start(config).expect("bind");
    let addr = server.addr;
    let execs: Vec<_> = (0..n_exec)
        .map(|i| {
            thread::spawn(move || {
                run_executor(addr, ExecutorId(i), ExecutorConfig::default(), security)
            })
        })
        .collect();

    let client = run_client(addr, tasks, BundleConfig::of(50), security).expect("client");
    assert_eq!(client.done, n_tasks, "client lost completions");

    // Shut down with the executors still attached (all of them: a slow
    // starter must have registered before its server goes, or its
    // `Register` is charged and never decoded): the server flushes +
    // closes every connection, the executors see EOF and report their
    // counters.
    let poll_wire = common::wait_registered(addr, security, n_exec);
    let (records, stats, obs) = server.shutdown();
    let mut exec_wire = Counters::new();
    let mut total_exec_tasks = 0;
    for e in execs {
        let out = e.join().expect("executor thread").expect("executor run");
        total_exec_tasks += out.tasks;
        exec_wire.merge(&out.wire);
    }

    // Zero lost, zero duplicated completions.
    assert_eq!(records.len() as u64, n_tasks);
    assert_eq!(stats.completed, n_tasks);
    assert_eq!(stats.duplicate_results, 0);
    assert_eq!(total_exec_tasks, n_tasks, "executors double-ran tasks");
    let ids: HashSet<_> = records.iter().map(|r| r.result.id).collect();
    assert_eq!(ids.len() as u64, n_tasks, "duplicate task records");

    // Byte balance. The dispatcher's recorder holds every server-side
    // connection's tap; the peers' outcomes hold the other socket ends.
    let client_sent = client.wire.value(ObsEventKind::BundleEncoded);
    let mut peer_wire = client.wire;
    peer_wire.merge(&exec_wire);
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
    let written = |c: &Counters| c.value(ObsEventKind::SocketWrite);
    let read = |c: &Counters| c.value(ObsEventKind::SocketRead);
    assert_eq!(read(&obs.counters), written(&peer_wire), "peers' bytes");
    assert_eq!(
        written(&obs.counters),
        read(&peer_wire),
        "dispatcher's bytes"
    );
    assert!(written(&peer_wire) > disp_dec.1, "headers are written too");
    // The workload actually moved data: at least one frame per submit
    // bundle, and the padded env blocks make the byte totals substantial.
    assert!(disp_dec.0 >= n_tasks / 50, "suspiciously few frames");
    assert!(disp_dec.1 > n_tasks * 64, "suspiciously few bytes");
    client_sent
}

#[test]
fn soak_plain_wire_bytes_balance() {
    within(DEPLOYMENT_LIMIT, || {
        soak(4, mixed_size_tasks(1200), None);
    })
}

#[test]
fn soak_secure_wire_bytes_balance() {
    within(DEPLOYMENT_LIMIT, || {
        // Same invariants through the sealed path: per-frame MAC bytes are
        // charged symmetrically, so the balance must still be exact.
        soak(3, mixed_size_tasks(900), Some(0xFA1C0));
    })
}

/// Backpressure: a workload several times what the kernel will buffer for
/// one socket (the send buffer tops out at 4 MiB). The client cuts each
/// bundle only when its connection's batch has room, so the workload
/// leaves batch by batch in nonblocking writes, `POLLOUT` by `POLLOUT`
/// whenever the socket is full, while acks and results stream back on the
/// same connection — a client that blocked in `write` instead would
/// deadlock against a server blocked writing to it. Every invariant of the
/// soak must hold through that.
#[test]
fn soak_client_backlog_several_times_the_socket_buffers() {
    within(DEPLOYMENT_LIMIT, || {
        let tasks: Vec<TaskSpec> = (0..6_000)
            .map(|i| {
                let mut spec = TaskSpec::sleep_us(i, 0);
                spec.env = vec![("FALKON_SOAK_PAD".into(), "y".repeat(4096).into())];
                spec
            })
            .collect();
        let sent = soak(4, tasks, None);
        assert!(sent > 20 << 20, "only {sent} bytes: not a backlog");
    })
}

/// Kill the dispatcher mid-workload: every thread must unwind — the
/// server closes every connection and is joined — and the
/// dispatcher's accounting must stay consistent (nothing recorded twice,
/// nothing half-recorded).
#[test]
fn shutdown_under_load_joins_cleanly() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder().build().expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();
        // 2000 × 1 ms tasks on 4 executors ≈ 500 ms of work: the shutdown below
        // lands while submits, dispatches, and results are all in flight.
        let client = thread::spawn(move || {
            run_client(
                addr,
                (0..2000).map(|i| TaskSpec::sleep_us(i, 1_000)).collect(),
                BundleConfig::of(100),
                None,
            )
        });
        thread::sleep(Duration::from_millis(50));

        // Must return: the server thread is joined once it has closed every
        // connection. A leaked or deadlocked thread hangs the test right here.
        let (records, stats, obs) = server.shutdown();

        // Peers must unwind too. The client either finished before the
        // shutdown landed (then nothing may be lost) or observed the close as
        // an error; an executor sees EOF as a normal release either way.
        if let Ok(out) = client.join().expect("client thread") {
            assert_eq!(out.done, 2000);
        }
        for e in execs {
            e.join().expect("executor thread").expect("executor run");
        }

        // Accounting stayed consistent at the instant of death.
        assert_eq!(records.len() as u64, stats.completed);
        assert_eq!(
            obs.counters.count(ObsEventKind::TaskCompleted),
            stats.completed
        );
        let ids: HashSet<_> = records.iter().map(|r| r.result.id).collect();
        assert_eq!(ids.len(), records.len(), "duplicate task records");
    })
}
