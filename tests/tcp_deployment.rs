//! Integration tests for the TCP deployment: the full Figure 2 message
//! sequence over real sockets, with and without the security layer, plus
//! executor churn, the handshake's corner cases (a first frame sent with
//! the hello, a peer that never speaks, a wrong key), the status poll, an
//! executor that re-registers on a fresh connection, a client that
//! reconnects for its results, eager delivery as one pushed frame per
//! result, the machine's replay deadline riding the poll timeout, work
//! bundles with pre-fetch, a pre-fetching executor's writes, and client
//! bundles larger than the client's batch.

// Deployment test: really waiting on real sockets is the point, so the
// workspace-wide ban on blocking sleeps does not apply here.
#![allow(clippy::disallowed_methods)]

mod common;

use common::within::{within, DEPLOYMENT_LIMIT};
use falkon::core::client::ACK_EVERY;
use falkon::core::executor::ExecutorConfig;
use falkon::core::{DispatcherConfig, ReplayPolicy};
use falkon::obs::{Counters, ObsEventKind};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::message::{ExecutorId, Message};
use falkon::proto::task::{TaskResult, TaskSpec};
use falkon::proto::{write_frame, Codec, EfficientCodec, SecureChannel};
use falkon::rt::tcp::{
    run_client, run_executor, run_executor_probe, DispatcherServer, ServerConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

fn tasks(n: u64) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::sleep(i, 0)).collect()
}

#[test]
fn tcp_plain_end_to_end() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 50,
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();
        let client = run_client(addr, tasks(300), BundleConfig::of(50), None).expect("client");
        assert_eq!(client.done, 300);
        let (records, stats, _obs) = server.shutdown();
        assert_eq!(records.len(), 300);
        assert_eq!(stats.completed, 300);
        for e in execs {
            e.join().expect("join").ok();
        }
    })
}

#[test]
fn tcp_secure_with_idle_release() {
    within(DEPLOYMENT_LIMIT, || {
        let psk = Some(0xFA1C0);
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 50,
                ..DispatcherConfig::default()
            })
            .security(psk)
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..3)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(
                        addr,
                        ExecutorId(i),
                        ExecutorConfig {
                            idle_release_us: Some(200_000),
                            prefetch: false,
                        },
                        psk,
                    )
                })
            })
            .collect();
        let client = run_client(addr, tasks(200), BundleConfig::of(40), psk).expect("client");
        assert_eq!(client.done, 200);
        // Executors self-release once idle: their threads terminate on their own.
        let mut ran = 0;
        for e in execs {
            ran += e.join().expect("join").expect("clean exit").tasks;
        }
        assert_eq!(ran, 200, "every task ran exactly once across the pool");
        server.shutdown();
    })
}

#[test]
fn tcp_wrong_psk_executor_cannot_join() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder()
            .security(Some(1))
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let r = run_executor(addr, ExecutorId(9), ExecutorConfig::default(), Some(2));
        assert!(r.is_err(), "handshake with wrong PSK must fail");
        server.shutdown();
    })
}

#[test]
fn tcp_executor_joining_late_still_gets_work() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 10,
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        // Client submits first; executor arrives afterwards.
        let client = thread::spawn(move || run_client(addr, tasks(50), BundleConfig::of(10), None));
        thread::sleep(std::time::Duration::from_millis(150));
        let exec = thread::spawn(move || {
            run_executor(
                addr,
                ExecutorId(0),
                ExecutorConfig {
                    idle_release_us: Some(300_000),
                    prefetch: false,
                },
                None,
            )
        });
        let out = client.join().expect("client thread").expect("client io");
        assert_eq!(out.done, 50);
        assert_eq!(exec.join().expect("join").expect("io").tasks, 50);
        server.shutdown();
    })
}

/// One length-prefixed frame off a blocking test socket (panics on the
/// socket's read timeout).
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame header");
    let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut frame).expect("frame body");
    frame
}

/// A hand-driven plain-text executor on a blocking socket (2 s read
/// timeout, so a message that never comes fails the test instead of
/// hanging it). Unregistered, it is a hand-driven client.
struct RawExecutor {
    id: ExecutorId,
    stream: TcpStream,
    /// `(frames, payload bytes)` written and read: what a [`Conn`]'s wire
    /// tap would have charged.
    ///
    /// [`Conn`]: falkon::rt::conn::Conn
    sent: (u64, u64),
    received: (u64, u64),
}

impl RawExecutor {
    /// Connect as `id` without registering.
    fn connect(addr: std::net::SocketAddr, id: u64) -> RawExecutor {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        RawExecutor {
            id: ExecutorId(id),
            stream,
            sent: (0, 0),
            received: (0, 0),
        }
    }

    /// Connect and register as `id`; returns once the dispatcher has acked.
    fn register(addr: std::net::SocketAddr, id: u64) -> RawExecutor {
        let mut raw = RawExecutor::connect(addr, id);
        raw.send(&Message::Register {
            executor: raw.id,
            host: "raw-peer".into(),
        });
        assert_eq!(raw.recv(), Message::RegisterAck { executor: raw.id });
        raw
    }

    fn send(&mut self, msg: &Message) {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &EfficientCodec.encode(msg));
        self.stream.write_all(&bytes).expect("write");
        self.sent = (self.sent.0 + 1, self.sent.1 + bytes.len() as u64 - 4);
    }

    fn recv(&mut self) -> Message {
        let frame = read_frame(&mut self.stream);
        self.received = (self.received.0 + 1, self.received.1 + frame.len() as u64);
        EfficientCodec.decode(&frame).expect("decodes")
    }

    /// Behave from here on: answer every `Notify`, report every task handed
    /// over from now on as a success, until the dispatcher closes the
    /// connection. Returns how many tasks that was.
    fn serve_until_closed(&mut self) -> u64 {
        self.stream.set_read_timeout(None).expect("timeout");
        let mut ran = 0;
        loop {
            let mut first = [0u8; 1];
            if self.stream.peek(&mut first).expect("peek") == 0 {
                return ran;
            }
            let tasks = match self.recv() {
                Message::Notify { key } => {
                    let executor = self.id;
                    self.send(&Message::GetWork { executor, key });
                    continue;
                }
                Message::Work { tasks } | Message::ResultAck { piggybacked: tasks } => tasks,
                other => panic!("unexpected {other:?}"),
            };
            if !tasks.is_empty() {
                ran += tasks.len() as u64;
                let executor = self.id;
                let results = tasks.iter().map(|t| TaskResult::success(t.id)).collect();
                self.send(&Message::Result { executor, results });
            }
        }
    }

    /// Answer the next `Notify` with `GetWork` and return the tasks handed
    /// over.
    fn take_work(&mut self) -> Vec<TaskSpec> {
        let Message::Notify { key } = self.recv() else {
            panic!("expected Notify");
        };
        self.send(&Message::GetWork {
            executor: self.id,
            key,
        });
        match self.recv() {
            Message::Work { tasks } => tasks,
            other => panic!("expected Work, got {other:?}"),
        }
    }
}

/// Run a client workload on its own thread; the receiver yields its
/// completion count, so a workload that never completes is a timeout the
/// test can assert on, not a hang.
fn client_in_background(addr: std::net::SocketAddr, n: u64) -> mpsc::Receiver<u64> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let out = run_client(addr, tasks(n), BundleConfig::of(10), None).expect("client");
        tx.send(out.done).ok();
    });
    rx
}

/// An executor that re-registers on a fresh connection keeps that route
/// when its *old* connection's close is processed afterwards: the close
/// forgets only routes that still lead to the closing connection. (The
/// close used to drop the executor unconditionally — its live route gone,
/// its tasks replayed.)
#[test]
fn tcp_reregistered_executor_survives_its_old_connections_close() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder().build().expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let old = RawExecutor::register(addr, 7);
        let mut new = RawExecutor::register(addr, 7);
        drop(old);
        // The close may be processed before or after the submit below; both
        // orders must leave the live route alone. The pause makes "before"
        // (where the route used to vanish) the usual one.
        thread::sleep(Duration::from_millis(100));

        let done = client_in_background(addr, 1);
        let work = new.take_work();
        assert_eq!(work.len(), 1, "the task is dispatched on the live route");
        new.send(&Message::Result {
            executor: new.id,
            results: vec![TaskResult::success(work[0].id)],
        });
        assert_eq!(done.recv_timeout(Duration::from_secs(5)), Ok(1));
        let (records, stats, _) = server.shutdown();
        assert_eq!(records.len(), 1, "completed exactly once");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.retries, 0, "a live executor's task was replayed");
    })
}

/// Results wait on the instance, not on the connection that created it
/// (the paper's factory/instance pattern): a client that submits, drops
/// its connection after the `SubmitAck` and fetches from a fresh one
/// receives every result exactly once. (The instance used to be reachable
/// only through the connection that created it: `GetResults` on the new
/// one took the results off the instance and dropped them.)
#[test]
fn tcp_reconnecting_client_fetches_every_result_exactly_once() {
    within(DEPLOYMENT_LIMIT, || {
        const N: u64 = 40;
        let config = ServerConfig::builder().build().expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..2)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();

        let mut client = RawExecutor::connect(addr, 0);
        client.send(&Message::CreateInstance);
        let Message::InstanceCreated { instance } = client.recv() else {
            panic!("expected InstanceCreated");
        };
        client.send(&Message::Submit {
            instance,
            tasks: tasks(N),
        });
        loop {
            match client.recv() {
                Message::SubmitAck { accepted, .. } => break assert_eq!(accepted, N),
                Message::ClientNotify { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(client);

        // Fetch from a fresh connection until every result is in, then once
        // more: nothing may come twice.
        let mut client = RawExecutor::connect(addr, 0);
        let mut fetch = || {
            client.send(&Message::GetResults { instance });
            loop {
                match client.recv() {
                    Message::Results { results } => break results,
                    Message::ClientNotify { .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while (seen.len() as u64) < N && Instant::now() < deadline {
            let results = fetch();
            if results.is_empty() {
                thread::sleep(Duration::from_millis(5));
            }
            seen.extend(results.iter().map(|r| r.id.0));
        }
        seen.extend(fetch().iter().map(|r| r.id.0));
        seen.sort_unstable();
        assert_eq!(seen, (0..N).collect::<Vec<_>>(), "each result exactly once");

        let (records, stats, _) = server.shutdown();
        assert_eq!(records.len() as u64, N);
        assert_eq!(stats.completed, N);
        for e in execs {
            e.join().expect("executor thread").ok();
        }
    })
}

/// Results pushed to a connection that its client closes without reading
/// them are not lost with it: they stay kept until acknowledged, and the
/// client's next connection is sent each of them once. These were written
/// while the connection was up, so no timing decides the outcome.
#[test]
fn tcp_results_pushed_to_a_connection_closed_unread_come_again() {
    within(DEPLOYMENT_LIMIT, || {
        const N: u64 = 40;
        let config = ServerConfig::builder().build().expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..2)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();
        common::wait_registered(addr, None, 2);

        let mut client = RawExecutor::connect(addr, 0);
        client.send(&Message::CreateInstance);
        let Message::InstanceCreated { instance } = client.recv() else {
            panic!("expected InstanceCreated");
        };
        client.send(&Message::Submit {
            instance,
            tasks: tasks(N),
        });
        assert!(matches!(
            client.recv(),
            Message::SubmitAck { accepted: N, .. }
        ));
        // Every task runs, and every result is pushed to this connection.
        let mut status = common::StatusClient::connect(addr, None);
        while {
            let s = status.poll();
            s.queued_tasks + s.running_tasks > 0
        } {
            thread::sleep(Duration::from_millis(2));
        }
        status.close();
        thread::sleep(Duration::from_millis(50));
        drop(client);

        let mut client = RawExecutor::connect(addr, 0);
        client.send(&Message::GetResults { instance });
        let mut seen = Vec::new();
        while (seen.len() as u64) < N {
            let Message::Results { results } = client.recv() else {
                panic!("expected Results");
            };
            seen.extend(results.iter().map(|r| r.id.0));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..N).collect::<Vec<_>>(), "each result exactly once");
        // Nothing more is on its way: the next frame answers a second fetch.
        client.send(&Message::GetResults { instance });
        assert_eq!(client.recv(), Message::Results { results: vec![] });

        let (records, _, _) = server.shutdown();
        assert_eq!(records.len() as u64, N);
        for e in execs {
            e.join().expect("executor thread").ok();
        }
    })
}

/// With eager delivery (`client_notify_batch: 1`) every result reaches the
/// client as it completes, in one pushed `Results` frame: notification and
/// retrieval `{8}`–`{10}` are one message. The client sends nothing but its
/// `CreateInstance`, its submits and one `ResultsAck` at the end, and
/// receives nothing but their answers and one frame per delivery. (Each
/// delivery used to cost a `ClientNotify`, a `GetResults` and a
/// `Results`.)
#[test]
fn tcp_eager_delivery_is_one_pushed_frame_and_no_fetch() {
    within(DEPLOYMENT_LIMIT, || {
        const N: u64 = 200;
        const BUNDLE: u64 = 50;
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1,
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..2)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();
        let client =
            run_client(addr, tasks(N), BundleConfig::of(BUNDLE as usize), None).expect("client");
        assert_eq!(client.done, N);
        let (records, _, obs) = server.shutdown();
        for e in execs {
            e.join().expect("executor thread").ok();
        }
        assert_eq!(records.len() as u64, N);
        let deliveries = obs.counters.count(ObsEventKind::TaskDelivered);
        assert_eq!(deliveries, N, "one delivery per result");
        let submits = N / BUNDLE;
        const { assert!(N < ACK_EVERY, "so the one acknowledgement is the last") };
        let frames = |kind| client.wire.count(kind);
        assert_eq!(
            frames(ObsEventKind::BundleEncoded),
            1 + submits + 1,
            "the client sent a GetResults"
        );
        assert_eq!(
            frames(ObsEventKind::BundleDecoded),
            1 + submits + deliveries,
            "the client received more than one frame per delivery"
        );
    })
}

/// The machine's replay deadline is folded into the server's poll timeout:
/// an executor takes a task and goes silent, nothing else moves on any
/// socket, and the task is still replayed to the idle executor on time. A
/// server that only wakes on socket traffic would sit in `poll` forever.
#[test]
fn tcp_replay_deadline_fires_with_no_socket_traffic() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                replay: ReplayPolicy {
                    timeout_slack_us: 20_000,
                    ..ReplayPolicy::default()
                },
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        // Registered first, so first in line for the one task.
        let mut silent = RawExecutor::register(addr, 1);
        let real = thread::spawn(move || {
            run_executor(addr, ExecutorId(2), ExecutorConfig::default(), None)
        });
        common::wait_registered(addr, None, 2);

        let started = Instant::now();
        let done = client_in_background(addr, 1);
        assert_eq!(silent.take_work().len(), 1);
        // From here on every socket is quiet; only the deadline can wake the
        // server.
        assert_eq!(
            done.recv_timeout(Duration::from_secs(5)),
            Ok(1),
            "the silent executor's task was never replayed"
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
        let (records, stats, _) = server.shutdown();
        assert_eq!(records.len(), 1);
        assert_eq!(stats.retries, 1, "replayed exactly once");
        drop(silent);
        real.join().expect("join").ok();
    })
}

/// ROADMAP item 2(b) on real sockets: work leaves the dispatcher in bundles
/// of four and the executors ask for the next bundle while the current one
/// runs, so the wait queue hands several tasks of one run to one message. An
/// executor that takes the first bundle and sits on it must not lose those
/// four tasks: each is replayed once its deadline passes, while everything
/// else completes around them. Every task completes exactly once, and
/// every frame charged at one end of a socket is charged at the other.
#[test]
fn tcp_work_bundles_with_prefetch_complete_exactly_once_and_replay_on_time() {
    within(DEPLOYMENT_LIMIT, || {
        const TASKS: u64 = 400;
        const SLACK: Duration = Duration::from_millis(300);
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                work_bundle: 4,
                client_notify_batch: 50,
                replay: ReplayPolicy {
                    timeout_slack_us: SLACK.as_micros() as u64,
                    ..ReplayPolicy::default()
                },
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;

        // The only executor when the first bundle arrives, so first in line.
        let mut hoarder = RawExecutor::register(addr, 9);
        let started = Instant::now();
        let client =
            thread::spawn(move || run_client(addr, tasks(TASKS), BundleConfig::of(50), None));
        let held = hoarder.take_work();
        assert_eq!(held.len(), 4, "work leaves in bundles of `work_bundle`");
        // It never reports those four. Notified again once they have been
        // taken from it, it serves like any executor, so the run cannot hang
        // on it whichever executor the replays are offered to.
        let hoarder = thread::spawn(move || {
            let ran = hoarder.serve_until_closed();
            (ran, hoarder.sent, hoarder.received)
        });
        let prefetching = ExecutorConfig {
            idle_release_us: None,
            prefetch: true,
        };
        let execs: Vec<_> = (0..2)
            .map(|i| thread::spawn(move || run_executor(addr, ExecutorId(i), prefetching, None)))
            .collect();

        let client = client.join().expect("client thread").expect("client io");
        assert_eq!(client.done, TASKS, "client lost completions");
        assert!(
            started.elapsed() >= SLACK,
            "the held bundle completed before its deadline could pass"
        );
        let poll_wire = common::wait_registered(addr, None, 3);
        let (records, stats, obs) = server.shutdown();
        let (mut ran, sent, received) = hoarder.join().expect("hoarder thread");
        let mut peer_wire = client.wire;
        peer_wire.merge(&poll_wire);
        for e in execs {
            let out = e.join().expect("executor thread").expect("executor run");
            ran += out.tasks;
            peer_wire.merge(&out.wire);
        }

        // Exactly once, the held bundle included.
        assert_eq!(ran, TASKS, "a task ran twice or not at all");
        assert_eq!((records.len() as u64, stats.completed), (TASKS, TASKS));
        let ids: std::collections::HashSet<_> = records.iter().map(|r| r.result.id).collect();
        assert_eq!(ids.len() as u64, TASKS, "duplicate task records");
        assert_eq!(stats.duplicate_results, 0);
        assert_eq!(
            stats.retries, 4,
            "the held bundle, and only it, is replayed"
        );
        for task in &held {
            let record = records.iter().find(|r| r.result.id == task.id);
            assert_eq!(record.map(|r| r.result.attempts), Some(2), "{task:?}");
        }

        // Wire balance, the hand-driven socket's tallies included.
        let total = |c: &falkon::obs::Counters, kind| (c.count(kind), c.value(kind));
        let plus = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
        assert_eq!(
            total(&obs.counters, ObsEventKind::BundleDecoded),
            plus(total(&peer_wire, ObsEventKind::BundleEncoded), sent),
            "frames/bytes sent by peers != received by dispatcher"
        );
        assert_eq!(
            total(&obs.counters, ObsEventKind::BundleEncoded),
            plus(total(&peer_wire, ObsEventKind::BundleDecoded), received),
            "frames/bytes sent by dispatcher != received by peers"
        );
    })
}

/// Nothing waits in an executor's batch while a body that takes time runs:
/// a pre-fetching executor on 1 ms tasks writes each result, and the
/// request for the task after next, before it starts the next body.
/// Before, the pre-fetched backlog rarely emptied and one write carried
/// the results of tens of tasks, each delivered late.
#[test]
fn tcp_prefetching_executor_writes_before_each_body_that_takes_time() {
    within(DEPLOYMENT_LIMIT, || {
        const TASKS: u64 = 200;
        let config = ServerConfig::builder().build().expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let prefetching = ExecutorConfig {
            idle_release_us: None,
            prefetch: true,
        };
        let exec = thread::spawn(move || {
            run_executor_probe(addr, ExecutorId(0), prefetching, None, Counters::new())
        });
        let tasks = (0..TASKS).map(|i| TaskSpec::sleep_us(i, 1_000)).collect();
        let client = run_client(addr, tasks, BundleConfig::of(50), None).expect("client");
        assert_eq!(client.done, TASKS);
        server.shutdown();
        let (out, probe) = exec.join().expect("executor thread").expect("executor run");
        assert_eq!(out.tasks, TASKS);
        let reported = probe.count(ObsEventKind::ResultsReported);
        let writes = out.wire.count(ObsEventKind::SocketWrite);
        assert!(
            reported > 0 && writes >= reported,
            "{writes} executor writes for {reported} results reported"
        );
    })
}

/// The regression test for the secure first-frame hang: a peer may send its
/// first sealed frame in the same segment as its hello. The server's read
/// path must decode what is buffered behind the handshake without waiting
/// for more socket bytes — before the connection engine, the handshake read
/// both frames and the steady-state loop never looked at the second until
/// the peer spoke again, which a freshly registered executor never does.
#[test]
fn tcp_secure_first_frame_sent_with_the_hello_is_served() {
    within(DEPLOYMENT_LIMIT, || {
        let psk = 0xFA1C0;
        let config = ServerConfig::builder()
            .security(Some(psk))
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let mut peer = TcpStream::connect(server.addr).expect("connect");
        peer.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");

        let server_hello = read_frame(&mut peer);
        let mut chan = SecureChannel::new(psk, 42);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &chan.handshake_message());
        chan.complete_handshake(&server_hello)
            .expect("server hello verifies");
        let (mut seal, mut open) = chan.into_halves().expect("established");
        let register = EfficientCodec.encode(&Message::Register {
            executor: ExecutorId(7),
            host: "raw-peer".into(),
        });
        let mut sealed = Vec::new();
        seal.seal_into(&register, &mut sealed);
        write_frame(&mut bytes, &sealed);
        peer.write_all(&bytes)
            .expect("hello + Register in one write");

        // Served within the 2 s read timeout: the dispatcher acks the register.
        let mut reply = read_frame(&mut peer);
        let ack = open.open_in_place(&mut reply).expect("sealed reply opens");
        assert_eq!(
            EfficientCodec.decode(ack).expect("decodes"),
            Message::RegisterAck {
                executor: ExecutorId(7)
            }
        );
        let (_, _, obs) = server.shutdown();
        assert_eq!(obs.counters.count(ObsEventKind::ExecutorRegistered), 1);
    })
}

/// With security on, a peer that connects and never speaks must not hold
/// anyone else up — the handshake bound is a per-connection deadline in
/// the poll timeout, not a blocking read on the accept path — and is
/// itself dropped once the bound (10 s) passes.
#[test]
fn tcp_silent_peer_neither_delays_a_secure_deployment_nor_lingers() {
    within(DEPLOYMENT_LIMIT, || {
        let psk = Some(0xFA1C0);
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 50,
                ..DispatcherConfig::default()
            })
            .security(psk)
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let connected = Instant::now();
        let mut silent = TcpStream::connect(addr).expect("connect");
        // The server greets at once; the silent peer never answers.
        silent
            .set_read_timeout(Some(Duration::from_secs(15)))
            .expect("timeout");
        read_frame(&mut silent);

        let started = Instant::now();
        let execs: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), psk)
                })
            })
            .collect();
        let client = run_client(addr, tasks(200), BundleConfig::of(50), psk).expect("client");
        assert_eq!(client.done, 200);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deployment waited {:?} behind a silent peer",
            started.elapsed()
        );

        // The server gives up on the silent peer at its handshake deadline.
        let mut rest = Vec::new();
        let eof = silent.read_to_end(&mut rest);
        assert!(
            matches!(eof, Ok(0)),
            "silent peer not dropped at the deadline: {eof:?}"
        );
        let waited = connected.elapsed();
        assert!(
            waited >= Duration::from_secs(9) && waited < Duration::from_secs(14),
            "dropped after {waited:?}, want the 10 s handshake bound"
        );
        server.shutdown();
        for e in execs {
            e.join().expect("join").ok();
        }
    })
}

/// A `StatusPoll` is answered with `Status` on the polling connection.
#[test]
fn tcp_status_poll_reports_registered_executors() {
    within(DEPLOYMENT_LIMIT, || {
        let config = ServerConfig::builder().build().expect("valid config");
        let server = DispatcherServer::start(config).expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..3)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();
        // Registration is asynchronous: poll until all three are counted.
        common::wait_registered(addr, None, 3);
        let status = common::StatusClient::connect(addr, None).poll();
        assert_eq!(status.registered_executors, 3);
        assert_eq!(status.queued_tasks, 0);
        assert_eq!(status.busy_executors, 0);
        server.shutdown();
        for e in execs {
            e.join().expect("join").ok();
        }
    })
}

/// A client cuts a bundle whenever its connection's batch has room, and
/// a bundle larger than the batch's 256 KiB cap still goes whole: 1,050
/// tasks of 4 KiB in bundles of 100 (≈410 KiB each, the last of 50)
/// complete exactly once. So does an empty workload after them.
#[test]
fn tcp_bundles_larger_than_the_clients_batch_complete_exactly_once() {
    within(DEPLOYMENT_LIMIT, || {
        const N: u64 = 1_050;
        let server =
            DispatcherServer::start(ServerConfig::builder().build().expect("valid config"))
                .expect("bind");
        let addr = server.addr;
        let execs: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    run_executor(addr, ExecutorId(i), ExecutorConfig::default(), None)
                })
            })
            .collect();
        let pad: falkon::proto::IStr = "p".repeat(4096).into();
        let fat = |i| {
            let mut task = TaskSpec::sleep(i, 0);
            task.env = vec![("PAD".into(), pad.clone())];
            task
        };
        let bundle = Message::Submit {
            instance: falkon::proto::message::InstanceId(0),
            tasks: (0..100).map(fat).collect(),
        };
        let wire = EfficientCodec.encoded_len(&bundle);
        assert!(wire > 256 << 10, "a bundle of {wire} B fits the batch");

        let client = run_client(addr, (0..N).map(fat).collect(), BundleConfig::of(100), None);
        assert_eq!(client.expect("client").done, N);
        let empty = run_client(addr, Vec::new(), BundleConfig::of(100), None);
        assert_eq!(empty.expect("empty client").done, 0);
        let (records, stats, _) = server.shutdown();
        for e in execs {
            e.join().expect("join").ok();
        }
        let ids: std::collections::HashSet<_> = records.iter().map(|r| r.result.id).collect();
        assert_eq!((records.len() as u64, ids.len() as u64), (N, N));
        assert_eq!(stats.duplicate_results, 0);
    })
}
