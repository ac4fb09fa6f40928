//! A whole Falkon deployment in one call, on loopback sockets.
//!
//! [`run_workload`] is the deployment of [`crate::tcp`] started and torn
//! down around one workload: a [`DispatcherServer`] — or, with
//! [`InprocConfig::forwarder`] set, a [`ForwarderServer`] over that many
//! — one thread per executor (each a [`crate::muxpeer`] pool of one), and
//! the calling thread as the client, every hop a localhost TCP connection
//! on the one connection engine. [`WireMode::Secure`] puts the
//! GSISecureConversation stand-in on every connection, so the "no
//! security" vs "secure" arms of `repro measured` are real CPU work.

use crate::forwarder::ForwarderServer;
use crate::muxpeer::run_pool;
use crate::tcp::{run_client, DispatcherServer, ServerConfig};
use falkon_core::dispatcher::{DispatcherStats, TaskRecord};
use falkon_core::executor::ExecutorConfig;
use falkon_core::DispatcherConfig;
use falkon_obs::{Counters, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::task::TaskSpec;
use std::net::TcpStream;
use std::thread;

/// How messages are treated on each connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WireMode {
    /// Messages are encoded/decoded on every hop (the WS-serialization
    /// analog; what "Falkon no security" pays).
    #[default]
    Encoded,
    /// Encoded and passed through the GSISecureConversation stand-in
    /// (encrypt + MAC on send, verify + decrypt on receive).
    Secure,
}

/// The pre-shared key of a [`WireMode::Secure`] run.
const PSK: u64 = 0x5EC;

/// Configuration of an in-process deployment.
#[derive(Clone, Debug)]
pub struct InprocConfig {
    /// Executor threads per dispatcher; executor `e` serves dispatcher
    /// `e / executors`.
    pub executors: usize,
    /// Mount a forwarder over this many dispatchers (the 3-tier
    /// deployment); `None` = one dispatcher and no forwarder.
    pub forwarder: Option<usize>,
    /// Dispatcher tunables.
    pub dispatcher: DispatcherConfig,
    /// Executor tunables.
    pub executor: ExecutorConfig,
    /// Per-hop message treatment.
    pub wire: WireMode,
    /// Client→dispatcher bundling.
    pub bundle: BundleConfig,
    /// Execute tasks by spawning real OS processes (true) or by an
    /// in-thread sleep of the declared runtime (false, default — the
    /// paper's `sleep 0` microbenchmark either way).
    pub spawn_processes: bool,
}

impl Default for InprocConfig {
    fn default() -> Self {
        InprocConfig {
            executors: 4,
            forwarder: None,
            dispatcher: DispatcherConfig::default(),
            executor: ExecutorConfig::default(),
            wire: WireMode::Encoded,
            bundle: BundleConfig::default(),
            spawn_processes: false,
        }
    }
}

/// Result of a workload run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Tasks completed.
    pub tasks: u64,
    /// Wall time from submission to last result, µs.
    pub elapsed_us: u64,
    /// Aggregate throughput, tasks/sec.
    pub throughput: f64,
    /// Dispatcher-side per-task records, dispatcher by dispatcher.
    pub records: Vec<TaskRecord>,
    /// Dispatcher counters, summed over every dispatcher.
    pub stats: DispatcherStats,
    /// Merged observability stream: each server's [`Recorder`] (with the
    /// wire counters of its every connection, both faces of a forwarder's),
    /// each executor machine's [`Counters`] and wire counters, and the
    /// client's wire counters.
    pub obs: Recorder,
}

/// Run `tasks` through a fresh deployment; returns when all results have
/// been delivered to the client.
pub fn run_workload(config: &InprocConfig, tasks: Vec<TaskSpec>) -> RunOutcome {
    assert!(config.executors > 0, "need at least one executor");
    let security = (config.wire == WireMode::Secure).then_some(PSK);
    let mut builder = ServerConfig::builder()
        .dispatcher(config.dispatcher)
        .security(security);
    if let Some(k) = config.forwarder {
        builder = builder.forwarder(k);
    }
    let server_config = builder.build().expect("a valid deployment config");
    let server = match config.forwarder {
        Some(_) => Server::Tiered(ForwarderServer::start(server_config).expect("bind loopback")),
        None => Server::Flat(DispatcherServer::start(server_config).expect("bind loopback")),
    };
    let (addr, dispatchers) = match &server {
        Server::Flat(s) => (s.addr, vec![s.addr]),
        Server::Tiered(s) => (s.addr, s.dispatcher_addrs().to_vec()),
    };
    // Every executor dials here, before the client starts: however short
    // the run, no executor finds the listener already closed.
    let executors: Vec<_> = (0..(config.executors * dispatchers.len()) as u64)
        .map(|id| {
            let stream = TcpStream::connect(dispatchers[id as usize / config.executors]);
            let (cfg, spawn) = (config.executor, config.spawn_processes);
            thread::spawn(move || run_pool([stream], id, cfg, security, spawn, Counters::new))
        })
        .collect();
    let client = run_client(addr, tasks, config.bundle, security).expect("client run");
    let (mut records, mut obs) = (Vec::new(), Recorder::new());
    let outcomes = match server {
        Server::Flat(s) => vec![s.shutdown()],
        Server::Tiered(s) => {
            let (fwd, outcomes) = s.shutdown();
            obs.merge(&fwd.recorder);
            obs.merge_counters(&fwd.upstream_wire);
            obs.merge_counters(&fwd.downstream_wire);
            outcomes
        }
    };
    for (dispatcher_records, _, recorder) in outcomes {
        records.extend(dispatcher_records);
        obs.merge(&recorder);
    }
    for handle in executors {
        // An executor whose handshake the server's stop cut short fails
        // here, having run no machine.
        if let Ok(pool) = handle.join().expect("executor thread") {
            for probe in &pool.probes {
                obs.merge_counters(probe);
            }
            obs.merge_counters(&pool.outcome.wire);
        }
    }
    obs.merge_counters(&client.wire);
    let elapsed_us = client.elapsed_us.max(1);
    RunOutcome {
        tasks: client.done,
        elapsed_us,
        throughput: client.done as f64 / (elapsed_us as f64 / 1e6),
        records,
        stats: DispatcherStats::from(&obs.counters),
        obs,
    }
}

/// The server side [`run_workload`] mounts.
enum Server {
    Flat(DispatcherServer),
    Tiered(ForwarderServer),
}

/// Convenience: run `n` sleep tasks of `task_us` microseconds each.
pub fn run_sleep_workload(config: &InprocConfig, n: u64, task_us: u64) -> RunOutcome {
    let tasks: Vec<TaskSpec> = (0..n).map(|i| TaskSpec::sleep_us(i, task_us)).collect();
    run_workload(config, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(executors: usize, wire: WireMode) -> InprocConfig {
        InprocConfig {
            executors,
            wire,
            bundle: BundleConfig::of(100),
            dispatcher: DispatcherConfig {
                client_notify_batch: 64,
                ..DispatcherConfig::default()
            },
            ..InprocConfig::default()
        }
    }

    #[test]
    fn completes_all_tasks_encoded() {
        let out = run_sleep_workload(&quick_config(4, WireMode::Encoded), 500, 0);
        assert_eq!(out.tasks, 500);
        assert_eq!(out.records.len(), 500);
    }

    #[test]
    fn completes_all_tasks_secure() {
        let out = run_sleep_workload(&quick_config(4, WireMode::Secure), 300, 0);
        assert_eq!(out.tasks, 300);
        assert_eq!(out.stats.failed, 0);
    }

    #[test]
    fn piggybacking_carries_most_dispatches() {
        let out = run_sleep_workload(&quick_config(2, WireMode::Encoded), 400, 0);
        // With 2 executors and 400 tasks, nearly all hand-offs should ride
        // result acks rather than fresh notifications.
        assert!(
            out.stats.piggybacked > out.stats.notifies,
            "piggybacked={} notifies={}",
            out.stats.piggybacked,
            out.stats.notifies
        );
    }

    #[test]
    fn nonzero_sleep_tasks_take_time() {
        let cfg = quick_config(4, WireMode::Encoded);
        let out = run_sleep_workload(&cfg, 8, 50_000); // 8 × 50 ms on 4 workers
        assert_eq!(out.tasks, 8);
        // At least two waves of 50 ms.
        assert!(out.elapsed_us >= 100_000, "elapsed = {}", out.elapsed_us);
    }

    #[test]
    fn idle_release_shrinks_pool_without_losing_tasks() {
        let mut cfg = quick_config(3, WireMode::Encoded);
        cfg.executor.idle_release_us = Some(30_000); // 30 ms idle release
        let out = run_sleep_workload(&cfg, 100, 0);
        assert_eq!(out.tasks, 100);
    }

    #[test]
    #[should_panic(expected = "ZeroDispatchers")]
    fn forwarder_over_no_dispatcher_is_rejected() {
        let config = InprocConfig {
            forwarder: Some(0),
            ..quick_config(1, WireMode::Encoded)
        };
        run_sleep_workload(&config, 1, 0);
    }

    #[test]
    fn empty_workload_returns_immediately() {
        let out = run_workload(&quick_config(1, WireMode::Encoded), Vec::new());
        assert_eq!(out.tasks, 0);
    }
}
