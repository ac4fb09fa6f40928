//! Threaded in-process Falkon deployment.
//!
//! One dispatcher thread, N executor threads, and the calling thread as the
//! client, connected by crossbeam channels. Every hop optionally pays real
//! serialization ([`WireMode::Encoded`]) and security ([`WireMode::Secure`])
//! costs, which is how the Figure 3 "no security" vs
//! "GSISecureConversation" comparison is reproduced as a *measurement*.

use crate::clock::Clock;
use crate::exec::{pump_executor, route_actions, Dest};
use crate::transport::{link, Endpoint, Packet, WireMode};
use crossbeam::channel::{unbounded, Receiver, Sender};
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent, TaskRecord};
use falkon_core::executor::{Executor, ExecutorConfig, ExecutorEvent};
use falkon_core::DispatcherConfig;
use falkon_obs::{Counters, Recorder, WireTap};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::ExecutorId;
use falkon_proto::task::TaskSpec;
use std::collections::HashMap;
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

/// Wire size of a packet, when it was actually encoded ([`WireMode::Plain`]
/// passes messages by value and has no wire size).
fn packet_bytes(pkt: &Packet) -> Option<u64> {
    match pkt {
        Packet::Bytes(b) => Some(b.len() as u64),
        Packet::Value(_) => None,
    }
}

enum DispIn {
    FromExecutor(ExecutorId, Packet),
    FromClient(Packet),
    Stop,
}

/// Run `tasks` through a fresh deployment; returns when all results have
/// been delivered to the client.
pub fn run_workload(config: &InprocConfig, tasks: Vec<TaskSpec>) -> RunOutcome {
    assert!(config.executors > 0, "need at least one executor");
    let n_tasks = tasks.len() as u64;
    let clock = Clock::start();

    let (disp_tx, disp_rx) = unbounded::<DispIn>();
    let (client_tx, client_rx) = unbounded::<Packet>();

    // Build links (one per executor plus one for the client) and spawn the
    // executor threads; the dispatcher keeps its side of every link.
    let (client_disp_ep, client_ep) = link(config.wire, 0x5EC, 1_000_001, 1_000_002);
    let mut exec_txs: HashMap<ExecutorId, Sender<Packet>> = HashMap::new();
    let mut disp_eps: Vec<Endpoint> = Vec::with_capacity(config.executors);
    let mut handles = Vec::new();
    for i in 0..config.executors {
        let (disp_side, exec_side) = link(config.wire, 0x5EC, i as u64 * 2 + 1, i as u64 * 2 + 2);
        disp_eps.push(disp_side);
        let (tx, rx) = unbounded::<Packet>();
        let id = ExecutorId(i as u64);
        exec_txs.insert(id, tx);
        let disp_tx = disp_tx.clone();
        let cfg = config.clone();
        handles.push(thread::spawn(move || {
            executor_thread(id, cfg, clock, exec_side, rx, disp_tx)
        }));
    }

    // Dispatcher thread.
    let disp_cfg = config.dispatcher;
    let disp_handle = thread::spawn(move || {
        dispatcher_thread(
            disp_cfg,
            clock,
            disp_rx,
            exec_txs,
            client_tx,
            disp_eps,
            client_disp_ep,
        )
    });

    // The calling thread is the client.
    let mut client = Client::new(config.bundle);
    let mut client_ep = client_ep;
    let mut client_wire = WireTap::new();
    let mut actions = Vec::new();
    client.on_event(clock.now_us(), ClientEvent::Start, &mut actions);
    let t_submit = clock.now_us();
    client.enqueue(t_submit, tasks, &mut actions);
    send_client_actions(
        t_submit,
        &mut actions,
        &mut client_ep,
        &disp_tx,
        &mut client_wire,
    );

    let mut elapsed_us = 0;
    while client.outstanding() > 0 || client.completions().is_empty() && n_tasks > 0 {
        let packet = client_rx.recv().expect("dispatcher alive");
        let now = clock.now_us();
        if let Some(bytes) = packet_bytes(&packet) {
            client_wire.decoded(now, bytes);
        }
        let msg = client_ep.unpack(packet).expect("valid packet");
        let ev = falkon_core::mapping::message_to_client_event(msg)
            .expect("dispatcher sent a non-client message to the client");
        client.on_event(now, ev, &mut actions);
        let complete = actions
            .iter()
            .any(|a| matches!(a, ClientAction::WorkloadComplete));
        send_client_actions(
            now,
            &mut actions,
            &mut client_ep,
            &disp_tx,
            &mut client_wire,
        );
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
    obs.merge_counters(client_wire.probe());

    RunOutcome {
        tasks: client.completions().len() as u64,
        elapsed_us: elapsed_us.max(1),
        throughput: client.completions().len() as f64 / (elapsed_us.max(1) as f64 / 1e6),
        records,
        stats,
        obs,
    }
}

fn send_client_actions(
    now: u64,
    actions: &mut Vec<ClientAction>,
    ep: &mut Endpoint,
    disp_tx: &Sender<DispIn>,
    wire: &mut WireTap,
) {
    for act in actions.drain(..) {
        if let ClientAction::Send(msg) = act {
            let pkt = ep.pack(msg).expect("packable");
            if let Some(bytes) = packet_bytes(&pkt) {
                wire.encoded(now, bytes);
            }
            disp_tx
                .send(DispIn::FromClient(pkt))
                .expect("dispatcher alive");
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatcher_thread(
    config: DispatcherConfig,
    clock: Clock,
    rx: Receiver<DispIn>,
    exec_txs: HashMap<ExecutorId, Sender<Packet>>,
    client_tx: Sender<Packet>,
    mut exec_eps: Vec<Endpoint>,
    mut client_ep: Endpoint,
) -> (
    Vec<TaskRecord>,
    falkon_core::dispatcher::DispatcherStats,
    Recorder,
) {
    let mut d = Dispatcher::with_probe(config, Recorder::new());
    let mut wire = WireTap::with_probe(Recorder::new());
    let mut records = Vec::new();
    let mut out: Vec<DispatcherAction> = Vec::new();
    // Deliver one wake-up's accumulated dispatcher actions. A send failure
    // means the peer already exited (e.g. an idle-released executor); the
    // dispatcher will time the task out and replay.
    let mut route = |out: &mut Vec<DispatcherAction>,
                     now: u64,
                     wire: &mut WireTap<Recorder>,
                     exec_eps: &mut [Endpoint],
                     client_ep: &mut Endpoint| {
        route_actions(out, &mut records, |dest, msg| {
            let (ep, tx) = match dest {
                Dest::Executor(e) => (&mut exec_eps[e.0 as usize], &exec_txs[&e]),
                Dest::Client(_) => (&mut *client_ep, &client_tx),
                Dest::Provisioner => return,
            };
            let pkt = ep.pack(msg).expect("packable");
            if let Some(bytes) = packet_bytes(&pkt) {
                wire.encoded(now, bytes);
            }
            let _ = tx.send(pkt);
        });
    };
    // Cap on messages handled per wake-up, so deadline checks and action
    // routing cannot be starved by a firehose of inbound packets.
    const MAX_DRAIN: u32 = 256;
    // Event-driven wait: a pending replay deadline bounds the sleep; with
    // nothing outstanding, block until a message arrives — there is no
    // periodic wake-up.
    'main: while let Ok(first) = clock.recv_until(&rx, d.next_deadline()) {
        // Read the clock after the (possibly long) wait, or deadline checks
        // would be evaluated against a stale pre-wait timestamp.
        let now = clock.now_us();
        if first.is_none() {
            d.on_event(now, DispatcherEvent::CheckDeadlines, &mut out);
        }
        // Batch-drain: after the blocking receive, feed everything already
        // queued (bounded) into the machine under one timestamp, then route
        // the accumulated actions in one pass — one wake-up, one clock
        // read, one action drain for the whole burst.
        let mut next = first;
        let mut drained = 0u32;
        while let Some(msg) = next.take() {
            let ev = match msg {
                DispIn::Stop => {
                    route(&mut out, now, &mut wire, &mut exec_eps, &mut client_ep);
                    break 'main;
                }
                DispIn::FromExecutor(id, pkt) => {
                    if let Some(bytes) = packet_bytes(&pkt) {
                        wire.decoded(now, bytes);
                    }
                    let msg = exec_eps[id.0 as usize].unpack(pkt).expect("valid packet");
                    falkon_core::mapping::executor_message_to_dispatcher_event(msg)
                        .expect("executor sent a non-executor message")
                }
                DispIn::FromClient(pkt) => {
                    if let Some(bytes) = packet_bytes(&pkt) {
                        wire.decoded(now, bytes);
                    }
                    let msg = client_ep.unpack(pkt).expect("valid packet");
                    falkon_core::mapping::client_message_to_dispatcher_event(msg)
                        .expect("client sent a non-client message")
                }
            };
            d.on_event(now, ev, &mut out);
            drained += 1;
            if drained < MAX_DRAIN {
                next = rx.try_recv().ok();
            }
        }
        route(&mut out, now, &mut wire, &mut exec_eps, &mut client_ep);
    }
    let stats = d.stats();
    let mut obs = d.probe().clone();
    obs.merge(wire.probe());
    (records, stats, obs)
}

fn executor_thread(
    id: ExecutorId,
    config: InprocConfig,
    clock: Clock,
    mut ep: Endpoint,
    rx: Receiver<Packet>,
    disp_tx: Sender<DispIn>,
) -> Counters {
    let mut machine = Executor::new(id, format!("inproc-{}", id.0), config.executor);
    let mut wire = WireTap::new();
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
                let pkt = ep.pack(msg).expect("packable");
                if let Some(bytes) = packet_bytes(&pkt) {
                    wire.encoded(clock.now_us(), bytes);
                }
                disp_tx.send(DispIn::FromExecutor(id, pkt)).map_err(drop)
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
                if let Some(bytes) = packet_bytes(&pkt) {
                    wire.decoded(now, bytes);
                }
                let msg = ep.unpack(pkt).expect("valid packet");
                let ev = falkon_core::mapping::message_to_executor_event(msg)
                    .expect("dispatcher sent a non-executor message");
                machine.on_event(now, ev, &mut actions);
            }
        }
    }
    let mut shard = machine.counters();
    shard.merge(wire.probe());
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
    fn completes_all_tasks_plain() {
        let out = run_sleep_workload(&quick_config(2, WireMode::Plain), 200, 0);
        assert_eq!(out.tasks, 200);
        assert_eq!(out.stats.completed, 200);
        assert!(out.throughput > 0.0);
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
        let out = run_sleep_workload(&quick_config(2, WireMode::Plain), 400, 0);
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
        let cfg = quick_config(4, WireMode::Plain);
        let out = run_sleep_workload(&cfg, 8, 50_000); // 8 × 50 ms on 4 workers
        assert_eq!(out.tasks, 8);
        // At least two waves of 50 ms.
        assert!(out.elapsed_us >= 100_000, "elapsed = {}", out.elapsed_us);
    }

    #[test]
    fn idle_release_shrinks_pool_without_losing_tasks() {
        let mut cfg = quick_config(3, WireMode::Plain);
        cfg.executor.idle_release_us = Some(30_000); // 30 ms idle release
        let out = run_sleep_workload(&cfg, 100, 0);
        assert_eq!(out.tasks, 100);
    }

    #[test]
    fn empty_workload_returns_immediately() {
        let out = run_workload(&quick_config(1, WireMode::Plain), Vec::new());
        assert_eq!(out.tasks, 0);
    }
}
