//! Layer replays: each layer of the program driven on its own, from
//! outside, with the workload's own inputs, so its cost per task can be
//! set against the end-to-end CPU per task.
//!
//! Every replay is single-threaded, repeats [`ROUNDS`] times and reports
//! the median round.

use crate::alloc;
use crate::gen;
use crate::report::median;
use crate::spec::{SocketSpec, TaskKind, BUNDLE, PSK};
use crate::sys;
use falkon_core::client::{Client, ClientAction, ClientEvent};
use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent};
use falkon_core::executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent};
use falkon_core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent};
use falkon_core::mapping;
use falkon_exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_obs::{ObsEvent, Probe, Recorder};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::frame::{write_frame, FrameCursor};
use falkon_proto::message::{ExecutorId, InstanceId, Message, NotifyKey};
use falkon_proto::security::established_pair;
use falkon_proto::task::{TaskResult, TaskSpec};
use falkon_rt::inproc::{run_workload, InprocConfig};
use falkon_rt::poll::{poll_wait, PollFd, POLLIN};
use falkon_rt::WireMode;
use falkon_sim::{Engine, SimDuration};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Rounds per replay; the median is reported.
const ROUNDS: usize = 7;

/// Tasks per replay round: ten client bundles.
pub const REPLAY_TASKS: u64 = 10 * BUNDLE as u64;

/// Typical TCP segment payload: the chunk size frames are re-assembled from.
const SEGMENT: usize = 1448;

/// Median over [`ROUNDS`] of the nanoseconds `round` reports.
fn median_ns(mut round: impl FnMut() -> f64) -> f64 {
    median(&(0..ROUNDS).map(|_| round()).collect::<Vec<_>>())
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// What the allocation counter adds to one allocate-and-free pair, in
/// nanoseconds: the same pairs with the counter off and on, on `threads`
/// threads at once (as many as allocate at one time in the run being
/// priced: a second CPU counting would make shared counters dearer). Only
/// meaningful in a binary that mounts [`alloc::CountingAlloc`].
pub fn alloc_count_ns(threads: usize) -> f64 {
    const PAIRS: usize = 200_000;
    let pairs = || {
        for i in 0..PAIRS {
            drop(black_box(Vec::<u8>::with_capacity(64 + i % 64)));
        }
    };
    let round = || {
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(pairs);
            }
            timed(pairs) / PAIRS as f64
        })
    };
    let off = median_ns(round);
    alloc::set_enabled(true);
    let on = median_ns(round);
    alloc::set_enabled(false);
    (on - off).max(0.0)
}

/// Ten bundles of the workload's tasks.
fn replay_bundles(kind: TaskKind, seed: u64) -> Vec<Vec<TaskSpec>> {
    gen::trial_tasks(kind, seed, u32::MAX, 0, REPLAY_TASKS, BUNDLE as u64).waves
}

/// The messages the deployment exchanges for [`REPLAY_TASKS`] tasks, in
/// the proportions of a running window: executors are first notified once
/// per wave and fed by piggy-backing after that, the client is notified
/// once per `client_notify_batch` results, and a forwarder tier carries
/// submits and results over a second hop.
pub fn message_mix(spec: &SocketSpec, bundles: &[Vec<TaskSpec>]) -> Vec<Message> {
    let hops = if spec.forwarder_dispatchers > 0 { 2 } else { 1 };
    let instance = InstanceId(1);
    let tasks: Vec<&TaskSpec> = bundles.iter().flatten().collect();
    let n = tasks.len() as u64;
    let first_touch = (spec.executors() as u64 * n / spec.wave).clamp(1, n) as usize;
    let mut mix = Vec::new();
    for b in bundles {
        for _ in 0..hops {
            mix.push(Message::Submit {
                instance,
                tasks: b.clone(),
            });
            mix.push(Message::SubmitAck {
                instance,
                accepted: b.len() as u64,
            });
        }
    }
    for (i, t) in tasks.iter().enumerate() {
        let executor = ExecutorId((i % spec.executors()) as u64);
        if i < first_touch {
            let key = NotifyKey(i as u64);
            mix.push(Message::Notify { key });
            mix.push(Message::GetWork { executor, key });
            mix.push(Message::Work {
                tasks: vec![(*t).clone()],
            });
        } else {
            mix.push(Message::ResultAck {
                piggybacked: vec![(*t).clone()],
            });
        }
        mix.push(Message::Result {
            executor,
            results: vec![TaskResult::success(t.id)],
        });
    }
    for _ in 0..first_touch {
        mix.push(Message::ResultAck {
            piggybacked: Vec::new(),
        });
    }
    let per_notify = spec.client_notify_batch.clamp(1, n) as usize;
    for chunk in tasks.chunks(per_notify) {
        for _ in 0..hops {
            mix.push(Message::ClientNotify {
                instance,
                ready: chunk.len() as u64,
            });
            mix.push(Message::GetResults { instance });
            mix.push(Message::Results {
                results: chunk.iter().map(|t| TaskResult::success(t.id)).collect(),
            });
        }
    }
    mix
}

/// Codec, framing and security cost per task, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtoCosts {
    /// `EfficientCodec::encode_into` over the message mix.
    pub encode_ns: f64,
    /// `EfficientCodec::decode` over the encoded mix.
    pub decode_ns: f64,
    /// `FrameCursor` re-assembly of the framed mix from 1448-byte chunks.
    pub frame_ns: f64,
    /// `SealHalf::seal_into` over the encoded mix (0 when not secure).
    pub seal_ns: f64,
    /// `OpenHalf::open_in_place` over the sealed mix (0 when not secure).
    pub open_ns: f64,
}

/// Replay the workload's message mix through the `proto` layer.
pub fn proto_costs(spec: &SocketSpec, seed: u64) -> ProtoCosts {
    let mix = message_mix(spec, &replay_bundles(spec.tasks, seed));
    let per_task = |ns: f64| ns / REPLAY_TASKS as f64;
    let codec = EfficientCodec;

    let mut scratch = Vec::new();
    let encode_ns = median_ns(|| {
        timed(|| {
            for m in &mix {
                codec.encode_into(black_box(m), &mut scratch);
                black_box(scratch.len());
            }
        })
    });
    let plain: Vec<Vec<u8>> = mix.iter().map(|m| codec.encode(m)).collect();
    let decode_ns = median_ns(|| {
        timed(|| {
            for f in &plain {
                black_box(codec.decode(black_box(f)).expect("own encoding decodes"));
            }
        })
    });

    let mut costs = ProtoCosts {
        encode_ns: per_task(encode_ns),
        decode_ns: per_task(decode_ns),
        ..ProtoCosts::default()
    };
    let mut on_wire = plain.clone();
    if spec.secure {
        let mut sealed: Vec<Vec<u8>> = plain
            .iter()
            .map(|f| Vec::with_capacity(f.len() + 16))
            .collect();
        let mut seal_rounds = Vec::new();
        let mut open_rounds = Vec::new();
        for _ in 0..ROUNDS {
            let (a, b) = established_pair(PSK, 1, 2);
            let (mut seal, _) = a.into_halves().expect("established");
            let (_, mut open) = b.into_halves().expect("established");
            seal_rounds.push(timed(|| {
                for (f, out) in plain.iter().zip(sealed.iter_mut()) {
                    out.clear();
                    seal.seal_into(black_box(f), out);
                }
            }));
            on_wire.clone_from(&sealed);
            open_rounds.push(timed(|| {
                for f in sealed.iter_mut() {
                    black_box(open.open_in_place(f).expect("own seal opens").len());
                }
            }));
        }
        costs.seal_ns = per_task(median(&seal_rounds));
        costs.open_ns = per_task(median(&open_rounds));
    }

    let mut stream = Vec::new();
    for f in &on_wire {
        write_frame(&mut stream, f);
    }
    let frame_ns = median_ns(|| {
        let mut cursor = FrameCursor::new();
        timed(|| {
            for chunk in stream.chunks(SEGMENT) {
                cursor.feed(chunk);
                while let Some(frame) = cursor.next_frame().expect("own framing parses") {
                    black_box(frame.len());
                }
            }
        })
    });
    costs.frame_ns = per_task(frame_ns);
    costs
}

/// State-machine and recorder cost per task.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCosts {
    /// `Dispatcher::on_event` over a full lifecycle, ns per task.
    pub dispatcher_ns: f64,
    /// `Executor::on_event` summed over every executor, ns per task.
    pub executor_ns: f64,
    /// `Client` enqueue + `on_event`, ns per task.
    pub client_ns: f64,
    /// `Forwarder::on_event` routing bundles and results (three-tier only).
    pub forwarder_ns: f64,
    /// `Recorder::on_event` over the dispatcher's event stream, ns per task.
    pub obs_record_ns: f64,
    /// Bytes the recorder still holds after that stream, per task.
    pub obs_retained_bytes: f64,
}

/// A probe that keeps the event stream, to replay into a `Recorder`.
#[derive(Default)]
struct TapeProbe(Vec<(u64, ObsEvent)>);

impl Probe for TapeProbe {
    fn on_event(&mut self, now: u64, event: &ObsEvent) {
        self.0.push((now, *event));
    }
}

#[derive(Clone)]
enum ClientStep {
    Event(ClientEvent),
    Enqueue(Vec<TaskSpec>),
}

/// Everything each machine was fed during one lock-step lifecycle.
struct Tapes {
    dispatcher: Vec<(u64, DispatcherEvent)>,
    executors: Vec<Vec<(u64, ExecutorEvent)>>,
    client: Vec<(u64, ClientStep)>,
    obs: Vec<(u64, ObsEvent)>,
}

enum Hop {
    Disp(DispatcherEvent),
    Exec(usize, ExecutorEvent),
    Client(ClientEvent),
}

/// Run client, dispatcher and `executors` executor machines against each
/// other in memory (no sockets, no threads) through the whole lifecycle of
/// `tasks`, recording what each machine was fed.
fn capture(spec: &SocketSpec, executors: usize, tasks: Vec<TaskSpec>) -> Tapes {
    let n = tasks.len();
    let mut d = Dispatcher::with_probe(spec.dispatcher_config(), TapeProbe::default());
    let mut execs: Vec<Executor> = (0..executors)
        .map(|i| Executor::new(ExecutorId(i as u64), "replay", ExecutorConfig::default()))
        .collect();
    let mut client = Client::new(BundleConfig::of(BUNDLE));
    let mut tapes = Tapes {
        dispatcher: Vec::new(),
        executors: vec![Vec::new(); executors],
        client: Vec::new(),
        obs: Vec::new(),
    };
    let mut q: VecDeque<Hop> = VecDeque::new();
    for i in 0..executors {
        q.push_back(Hop::Exec(i, ExecutorEvent::Start));
    }
    q.push_back(Hop::Client(ClientEvent::Start));
    let mut now = 0u64;
    let mut enqueued = false;
    let mut complete = false;
    let (mut da, mut ea, mut ca) = (Vec::new(), Vec::new(), Vec::new());
    let mut tasks = Some(tasks);
    while let Some(hop) = q.pop_front() {
        now += 1;
        match hop {
            Hop::Disp(ev) => {
                tapes.dispatcher.push((now, ev.clone()));
                d.on_event(now, ev, &mut da);
            }
            Hop::Exec(i, ev) => {
                tapes.executors[i].push((now, ev.clone()));
                execs[i].on_event(now, ev, &mut ea);
                for act in ea.drain(..) {
                    match act {
                        ExecutorAction::Send(msg) => {
                            if let Some(ev) = mapping::executor_message_to_dispatcher_event(msg) {
                                q.push_back(Hop::Disp(ev));
                            }
                        }
                        ExecutorAction::Run(task) => q.push_back(Hop::Exec(
                            i,
                            ExecutorEvent::TaskCompleted {
                                result: TaskResult::success(task.id),
                            },
                        )),
                        ExecutorAction::Shutdown => {}
                    }
                }
            }
            Hop::Client(ev) => {
                tapes.client.push((now, ClientStep::Event(ev.clone())));
                client.on_event(now, ev, &mut ca);
                if !enqueued {
                    // As `run_client` does: queue the whole workload right
                    // after `Start`; the machine stages it until its
                    // instance exists.
                    enqueued = true;
                    let tasks = tasks.take().expect("enqueued once");
                    tapes.client.push((now, ClientStep::Enqueue(tasks.clone())));
                    client.enqueue(now, tasks, &mut ca);
                }
            }
        }
        for act in da.drain(..) {
            match act {
                DispatcherAction::ToClient { msg, .. } => {
                    if let Some(ev) = mapping::message_to_client_event(msg) {
                        q.push_back(Hop::Client(ev));
                    }
                }
                DispatcherAction::ToExecutor { executor, msg } => {
                    if let Some(ev) = mapping::message_to_executor_event(msg) {
                        q.push_back(Hop::Exec(executor.0 as usize, ev));
                    }
                }
                _ => {}
            }
        }
        for act in ca.drain(..) {
            match act {
                ClientAction::Send(msg) => {
                    if let Some(ev) = mapping::client_message_to_dispatcher_event(msg) {
                        q.push_back(Hop::Disp(ev));
                    }
                }
                ClientAction::WorkloadComplete => complete = true,
            }
        }
    }
    assert!(complete, "replayed lifecycle delivers every result");
    assert_eq!(client.completions().len(), n, "replay completes every task");
    tapes.obs.clone_from(&d.probe().0);
    tapes
}

/// How the forwarder would route `bundles` and their results.
fn forwarder_ns(spec: &SocketSpec, bundles: &[Vec<TaskSpec>]) -> f64 {
    let dispatchers = spec.forwarder_dispatchers;
    let instance = InstanceId(1);
    // One untimed pass learns the routing, so the timed pass can be fed
    // prebuilt events.
    let mut routed: Vec<Vec<TaskResult>> = vec![Vec::new(); dispatchers];
    let mut f = Forwarder::new(dispatchers);
    let mut out = Vec::new();
    for b in bundles {
        f.on_event(
            0,
            ForwarderEvent::ClientSubmit {
                instance,
                tasks: b.clone(),
            },
            &mut out,
        );
        for act in out.drain(..) {
            if let ForwarderAction::SubmitTo { dispatcher, tasks } = act {
                routed[dispatcher].extend(tasks.iter().map(|t| TaskResult::success(t.id)));
            }
        }
    }
    let batch = spec.client_notify_batch.max(1) as usize;
    median_ns(|| {
        let mut events: Vec<ForwarderEvent> = bundles
            .iter()
            .map(|b| ForwarderEvent::ClientSubmit {
                instance,
                tasks: b.clone(),
            })
            .collect();
        for (dispatcher, results) in routed.iter().enumerate() {
            for chunk in results.chunks(batch) {
                events.push(ForwarderEvent::DispatcherResults {
                    dispatcher,
                    results: chunk.to_vec(),
                });
            }
        }
        let mut f = Forwarder::new(dispatchers);
        let mut out = Vec::new();
        timed(|| {
            for (now, ev) in events.into_iter().enumerate() {
                f.on_event(now as u64, ev, &mut out);
                black_box(out.len());
                out.clear();
            }
        })
    }) / REPLAY_TASKS as f64
}

/// Replay the bare machines and the recorder at the workload's executor
/// count (one dispatcher's worth).
pub fn core_costs(spec: &SocketSpec, seed: u64) -> CoreCosts {
    let bundles = replay_bundles(spec.tasks, seed);
    let tasks: Vec<TaskSpec> = bundles.iter().flatten().cloned().collect();
    let executors = spec.executors_per_dispatcher;
    let tapes = capture(spec, executors, tasks);
    let per_task = |ns: f64| ns / REPLAY_TASKS as f64;

    let dispatcher_ns = median_ns(|| {
        let tape = tapes.dispatcher.clone();
        let mut d = Dispatcher::new(spec.dispatcher_config());
        let mut out = Vec::new();
        timed(|| {
            for (now, ev) in tape {
                d.on_event(now, ev, &mut out);
                black_box(out.len());
                out.clear();
            }
        })
    });
    let executor_ns = median_ns(|| {
        let tapes = tapes.executors.clone();
        let mut execs: Vec<Executor> = (0..executors)
            .map(|i| Executor::new(ExecutorId(i as u64), "replay", ExecutorConfig::default()))
            .collect();
        let mut out = Vec::new();
        timed(|| {
            for (e, tape) in execs.iter_mut().zip(tapes) {
                for (now, ev) in tape {
                    e.on_event(now, ev, &mut out);
                    black_box(out.len());
                    out.clear();
                }
            }
        })
    });
    let client_ns = median_ns(|| {
        let tape = tapes.client.clone();
        let mut c = Client::new(BundleConfig::of(BUNDLE));
        let mut out = Vec::new();
        timed(|| {
            for (now, step) in tape {
                match step {
                    ClientStep::Event(ev) => c.on_event(now, ev, &mut out),
                    ClientStep::Enqueue(tasks) => c.enqueue(now, tasks, &mut out),
                }
                black_box(out.len());
                out.clear();
            }
        })
    });
    let obs_record_ns = median_ns(|| {
        let mut r = Recorder::new();
        let ns = timed(|| {
            for (now, ev) in &tapes.obs {
                r.on_event(*now, ev);
            }
        });
        black_box(r.counters.by_kind().len());
        ns
    });
    // Retained memory: what a recorder still holds after the stream, by
    // the counting allocator (nothing else allocates on this thread and no
    // other thread runs during a replay).
    alloc::set_enabled(true);
    let before = alloc::snapshot();
    let mut r = Recorder::new();
    for (now, ev) in &tapes.obs {
        r.on_event(*now, ev);
    }
    let retained = alloc::snapshot().retained_since(&before);
    alloc::set_enabled(false);
    black_box(r.counters.by_kind().len());

    CoreCosts {
        dispatcher_ns: per_task(dispatcher_ns),
        executor_ns: per_task(executor_ns),
        client_ns: per_task(client_ns),
        forwarder_ns: if spec.forwarder_dispatchers > 0 {
            forwarder_ns(spec, &bundles)
        } else {
            0.0
        },
        obs_record_ns: per_task(obs_record_ns),
        obs_retained_bytes: retained as f64 / REPLAY_TASKS as f64,
    }
}

/// Nanoseconds of one `poll_wait` over `fds` descriptors with one ready.
pub fn poll_wait_ns(fds: usize) -> std::io::Result<f64> {
    const CALLS: usize = 2000;
    let pairs: Vec<(UnixStream, UnixStream)> = (0..fds)
        .map(|_| UnixStream::pair())
        .collect::<Result<_, _>>()?;
    if let Some((_, peer)) = pairs.last() {
        (&*peer).write_all(&[1])?;
    }
    let mut set: Vec<PollFd> = pairs
        .iter()
        .map(|(a, _)| PollFd {
            fd: a.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut ready = 0usize;
    let ns = median_ns(|| {
        timed(|| {
            for _ in 0..CALLS {
                ready = poll_wait(black_box(&mut set), 0).unwrap_or(0);
            }
        }) / CALLS as f64
    });
    if ready != 1 {
        return Err(std::io::Error::other(format!(
            "poll_wait reported {ready} ready descriptors, expected 1"
        )));
    }
    Ok(ns)
}

/// Most executor threads the in-process comparison starts.
const INPROC_MAX_EXECUTORS: usize = 64;

/// Process CPU microseconds per task of `inproc::run_workload` with the
/// workload's tasks: the same machines and codec, threads and channels in
/// place of sockets.
pub fn inproc_us_per_task(spec: &SocketSpec, seed: u64) -> f64 {
    let n: u64 = match spec.tasks {
        TaskKind::SleepUs(_) => 1_200,
        _ => 20_000,
    };
    let config = InprocConfig {
        executors: spec.executors_per_dispatcher.min(INPROC_MAX_EXECUTORS),
        dispatcher: spec.dispatcher_config(),
        wire: if spec.secure {
            WireMode::Secure
        } else {
            WireMode::Encoded
        },
        bundle: BundleConfig::of(BUNDLE),
        ..InprocConfig::default()
    };
    let rounds: Vec<f64> = (0..3u32)
        .map(|round| {
            let tasks: Vec<TaskSpec> =
                gen::trial_tasks(spec.tasks, seed, u32::MAX - 1 - round, 0, n, n)
                    .waves
                    .into_iter()
                    .flatten()
                    .collect();
            let cpu0 = sys::process_cpu_ns();
            let out = run_workload(&config, tasks);
            let cpu = sys::process_cpu_ns() - cpu0;
            assert_eq!(out.tasks, n, "in-process run completes every task");
            cpu as f64 / 1e3 / n as f64
        })
        .collect();
    median(&rounds)
}

/// Timer-wheel throughput with 50 000 resident timers, in million events
/// per second.
pub fn event_queue_mevents_per_s() -> f64 {
    const EVENTS: u64 = 2_000_000;
    const TIMERS: u64 = 50_000;
    let ns = median_ns(|| {
        timed(|| {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..TIMERS {
                eng.schedule(SimDuration::from_micros(1 + (i * 7) % 1000), i);
            }
            let mut left = EVENTS;
            eng.run(|eng, n| {
                if left > 0 {
                    left -= 1;
                    eng.schedule(SimDuration::from_micros(1 + (n * 13) % 1000), n);
                } else {
                    eng.stop();
                }
            });
            black_box(eng.events_processed());
        })
    });
    EVENTS as f64 / ns * 1e3
}

/// Simulated 64-executor deployment draining sleep-0 tasks, tasks per
/// wall second.
pub fn simfalkon_tasks_per_s() -> f64 {
    const TASKS: u64 = 20_000;
    let ns = median_ns(|| {
        timed(|| {
            let mut sim = SimFalkon::new(SimFalkonConfig {
                executors: 64,
                ..SimFalkonConfig::default()
            });
            sim.submit(0, (0..TASKS).map(|i| TaskSpec::sleep(i, 0)).collect());
            let out = sim.run_until_drained();
            assert_eq!(out.tasks, TASKS, "simulated deployment drains");
            black_box(out.makespan_us);
        })
    });
    TASKS as f64 / ns * 1e9
}
