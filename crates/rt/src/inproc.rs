//! Threaded in-process Falkon deployment.
//!
//! One dispatcher thread, N executor threads, and the calling thread as the
//! client, connected by `std::sync::mpsc` channels. Every hop encodes
//! ([`WireMode::Encoded`]) or encodes and seals ([`WireMode::Secure`]) its
//! message, so the "no security" vs "GSISecureConversation" arms of
//! `repro measured` are real CPU work. Each end of a hop is an `Endpoint`
//! that counts its own wire bytes, as a socket's `Conn` does.

use crate::clock::Clock;
use crate::exec::pump_executor;
use crate::tcp::DispatcherOutcome;
use crate::transport::{link, Endpoint, WireMode};
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::dispatcher::{Dispatcher, DispatcherEvent, TaskRecord};
use falkon_core::executor::{Executor, ExecutorConfig, ExecutorEvent};
use falkon_core::mapping::{message_to_client_event, message_to_dispatcher_event};
use falkon_core::{DispatcherConfig, Switchboard};
use falkon_obs::{Counters, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::{ExecutorId, Message};
use falkon_proto::task::TaskSpec;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

/// Configuration of an in-process deployment.
#[derive(Clone, Debug)]
pub struct InprocConfig {
    /// Number of executor threads.
    pub executors: usize,
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
    /// Dispatcher-side per-task records.
    pub records: Vec<TaskRecord>,
    /// Dispatcher counters.
    pub stats: falkon_core::dispatcher::DispatcherStats,
    /// Merged observability stream: the dispatcher thread's [`Recorder`]
    /// shard plus every executor thread's [`Counters`] and the client's wire
    /// accounting, combined at join.
    pub obs: Recorder,
}

/// What reaches the dispatcher thread: a packet from entry `i` of its peer
/// table, or the order to stop.
enum DispIn {
    Packet(usize, Vec<u8>),
    Stop,
}

/// The dispatcher's side of one link, and the peer's inbox.
type Peer = (Endpoint, Sender<Vec<u8>>);

/// Run `tasks` through a fresh deployment; returns when all results have
/// been delivered to the client.
pub fn run_workload(config: &InprocConfig, tasks: Vec<TaskSpec>) -> RunOutcome {
    assert!(config.executors > 0, "need at least one executor");
    let n_tasks = tasks.len() as u64;
    let clock = Clock::start();
    let (disp_tx, disp_rx) = channel::<DispIn>();

    // One link per executor, then the client's: the dispatcher keeps its
    // side of each in one table, and its switchboard binds each executor
    // and instance to an index of it as their messages arrive.
    let mut peers: Vec<Peer> = Vec::with_capacity(config.executors + 1);
    let mut handles = Vec::new();
    for i in 0..config.executors {
        let (disp_side, exec_side) = link(config.wire, 0x5EC, i as u64 * 2 + 1, i as u64 * 2 + 2);
        let (tx, rx) = channel();
        peers.push((disp_side, tx));
        let disp_tx = disp_tx.clone();
        let cfg = config.clone();
        handles.push(thread::spawn(move || {
            executor_thread(ExecutorId(i as u64), cfg, clock, exec_side, rx, disp_tx)
        }));
    }
    let client_peer = peers.len();
    let (disp_side, mut client_ep) = link(config.wire, 0x5EC, 1_000_001, 1_000_002);
    let (client_tx, client_rx) = channel();
    peers.push((disp_side, client_tx));

    let disp_cfg = config.dispatcher;
    let disp_handle = thread::spawn(move || dispatcher_thread(disp_cfg, clock, disp_rx, peers));

    // The calling thread is the client.
    let mut client = Client::new(config.bundle);
    let mut actions = Vec::new();
    let send = |actions: &mut Vec<ClientAction>, ep: &mut Endpoint| {
        for act in actions.drain(..) {
            if let ClientAction::Send(msg) = act {
                disp_tx
                    .send(DispIn::Packet(client_peer, ep.pack(&msg)))
                    .expect("dispatcher alive");
            }
        }
    };
    client.on_event(clock.now_us(), ClientEvent::Start, &mut actions);
    let t_submit = clock.now_us();
    client.enqueue(t_submit, tasks, &mut actions);
    send(&mut actions, &mut client_ep);

    let mut elapsed_us = 0;
    while client.outstanding() > 0 || client.completions().is_empty() && n_tasks > 0 {
        let packet = client_rx.recv().expect("dispatcher alive");
        let now = clock.now_us();
        let msg = client_ep.unpack(packet).expect("valid packet");
        let ev = message_to_client_event(msg)
            .expect("dispatcher sent a non-client message to the client");
        client.on_event(now, ev, &mut actions);
        let complete = actions
            .iter()
            .any(|a| matches!(a, ClientAction::WorkloadComplete));
        send(&mut actions, &mut client_ep);
        if complete {
            elapsed_us = clock.now_us() - t_submit;
            break;
        }
    }

    // Tear down: stop dispatcher; executor channels drop with it. Each
    // thread hands back its observability shard, merged here.
    disp_tx.send(DispIn::Stop).ok();
    let (records, stats, mut obs) = disp_handle.join().expect("dispatcher thread");
    for h in handles {
        let shard = h.join().expect("executor thread");
        obs.merge_counters(&shard);
    }
    obs.merge_counters(client_ep.wire());

    RunOutcome {
        tasks: client.completions().len() as u64,
        elapsed_us: elapsed_us.max(1),
        throughput: client.completions().len() as f64 / (elapsed_us.max(1) as f64 / 1e6),
        records,
        stats,
        obs,
    }
}

fn dispatcher_thread(
    config: DispatcherConfig,
    clock: Clock,
    rx: Receiver<DispIn>,
    mut peers: Vec<Peer>,
) -> DispatcherOutcome {
    let mut d = Dispatcher::with_probe(config, Recorder::new());
    let mut routes: Switchboard<usize> = Switchboard::default();
    let mut records = Vec::new();
    let mut out = Vec::new();
    // Event-driven wait: a pending replay deadline bounds the sleep; with
    // nothing outstanding, block until a message arrives — there is no
    // periodic wake-up.
    while let Ok(input) = clock.recv_until(&rx, d.next_deadline()) {
        // Read the clock after the (possibly long) wait, or deadline checks
        // would be evaluated against a stale pre-wait timestamp.
        let now = clock.now_us();
        // Whose message the machine answers, if anyone's.
        let cause = match input {
            None => {
                d.on_event(now, DispatcherEvent::CheckDeadlines, &mut out);
                None
            }
            Some(DispIn::Packet(from, packet)) => {
                let msg = peers[from].0.unpack(packet).expect("valid packet");
                routes.heard(from, &msg, |to, msg| send(&mut peers, to, msg));
                if let Some(ev) = message_to_dispatcher_event(msg) {
                    d.on_event(now, ev, &mut out);
                }
                Some(from)
            }
            Some(DispIn::Stop) => break,
        };
        routes.route(&mut out, cause, &mut records, |to, msg| {
            send(&mut peers, to, msg)
        });
    }
    let stats = d.stats();
    let mut obs = d.probe().clone();
    for (ep, _) in &peers {
        obs.merge_counters(ep.wire());
    }
    (records, stats, obs)
}

/// Hand `msg` to peer `to`. A send failure means the peer already exited
/// (e.g. an idle-released executor); the dispatcher will time the task out
/// and replay.
fn send(peers: &mut [Peer], to: usize, msg: Message) {
    let (ep, tx) = &mut peers[to];
    let _ = tx.send(ep.pack(&msg));
}

fn executor_thread(
    id: ExecutorId,
    config: InprocConfig,
    clock: Clock,
    mut ep: Endpoint,
    rx: Receiver<Vec<u8>>,
    disp_tx: Sender<DispIn>,
) -> Counters {
    let mut machine = Executor::new(id, format!("inproc-{}", id.0), config.executor);
    let mut actions = Vec::new();
    let mut queue = Vec::new();
    machine.on_event(clock.now_us(), ExecutorEvent::Start, &mut actions);
    loop {
        // Drain actions (possibly generating follow-up events locally).
        let pumped = pump_executor(
            &clock,
            &mut machine,
            &mut actions,
            &mut queue,
            config.spawn_processes,
            |msg| {
                let pkt = DispIn::Packet(id.0 as usize, ep.pack(&msg));
                disp_tx.send(pkt).map_err(drop)
            },
        );
        // Shut down, or the dispatcher is gone.
        if pumped != Ok(false) {
            break;
        }
        // Fast path: a message is already queued — take it without the
        // deadline arithmetic or a park/unpark round trip. Otherwise wait
        // for the next message (or the idle-release deadline).
        let pkt = match rx.try_recv() {
            Ok(pkt) => Some(pkt),
            Err(_) => match clock.recv_until(&rx, machine.idle_deadline_us()) {
                Ok(pkt) => pkt,
                Err(_) => break,
            },
        };
        let now = clock.now_us();
        match pkt {
            None => machine.on_event(now, ExecutorEvent::IdleTimeout, &mut actions),
            Some(pkt) => {
                let msg = ep.unpack(pkt).expect("valid packet");
                let ev = falkon_core::mapping::message_to_executor_event(msg)
                    .expect("dispatcher sent a non-executor message");
                machine.on_event(now, ev, &mut actions);
            }
        }
    }
    let mut shard = machine.counters();
    shard.merge(ep.wire());
    shard
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
    fn empty_workload_returns_immediately() {
        let out = run_workload(&quick_config(1, WireMode::Encoded), Vec::new());
        assert_eq!(out.tasks, 0);
    }
}
