//! `repro bench` — the tracked performance baseline behind `BENCH_0010.json`.
//!
//! Runs a fixed set of hot-path scenarios (event engine, simulated
//! deployment, dispatcher state machine, in-process runtime, TCP runtime,
//! codec) with wall-clock timing and renders them as a text table or a
//! JSON report. Each scenario carries the pre-optimisation rate measured at
//! the `BASELINE_COMMIT` of this repository so regressions and speedups
//! stay visible in review without digging through CI history.
//!
//! Methodology: one warm-up iteration, then repeated timed iterations until
//! [`MIN_SAMPLE_US`] of accumulated runtime (at least [`MIN_ITERS`]); the
//! reported rate uses the *fastest* iteration, which is the stablest
//! statistic on a noisy machine.

use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent};
use falkon_core::executor::ExecutorConfig;
use falkon_core::{DispatcherConfig, ReplayPolicy};
use falkon_exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::{TaskResult, TaskSpec};
use falkon_rt::forwarder::ForwarderServer;
use falkon_rt::inproc::{run_sleep_workload, InprocConfig};
use falkon_rt::muxpeer::run_executors_mux;
use falkon_rt::tcp::{run_client, run_executor, DispatcherServer, ServerConfig, TcpSecurity};
use falkon_rt::{Clock, WireMode};
use falkon_sim::{Engine, SimDuration};
use std::hint::black_box;

/// The commit whose build produced every `baseline` rate below (the state
/// of the tree immediately before the connection engine, when `tcp/sleep0_*`
/// still ran thread-per-connection; both columns re-measured on one
/// machine per DESIGN.md §10's baseline discipline).
pub const BASELINE_COMMIT: &str = "c42fe76";

/// Keep sampling until a scenario has accumulated this much measured time.
const MIN_SAMPLE_US: u64 = 300_000;

/// ... and has run at least this many timed iterations.
const MIN_ITERS: u32 = 3;

/// One measured scenario.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Stable identifier, `group/scenario`.
    pub id: &'static str,
    /// Unit of `rate` and `baseline` (e.g. `events/s`, `MB/s`).
    pub unit: &'static str,
    /// Rate measured by this run.
    pub rate: f64,
    /// Rate measured at [`BASELINE_COMMIT`] on the reference machine, or
    /// `None` for a scenario that did not exist there — reports render it
    /// as `new` rather than a bogus 0-rate "before".
    pub baseline: Option<f64>,
}

impl BenchResult {
    /// `rate / baseline` — >1 is faster than the tracked baseline. `None`
    /// when the scenario has no baseline (new, or a degenerate zero).
    pub fn speedup(&self) -> Option<f64> {
        match self.baseline {
            Some(b) if b > 0.0 => Some(self.rate / b),
            _ => None,
        }
    }
}

/// Time one scenario: returns the fastest observed per-iteration time in
/// microseconds (minimum over enough iterations to cover `MIN_SAMPLE_US`).
fn time_us<F: FnMut()>(mut iter: F) -> f64 {
    let clock = Clock::start();
    iter(); // warm-up (page in, fill caches, intern strings)
    let mut best = f64::INFINITY;
    let mut spent = 0u64;
    let mut runs = 0u32;
    while spent < MIN_SAMPLE_US || runs < MIN_ITERS {
        let t0 = clock.now_us();
        iter();
        let dt = clock.now_us().saturating_sub(t0);
        spent += dt;
        runs += 1;
        best = best.min(dt.max(1) as f64);
    }
    best
}

fn rate(elems: f64, us: f64) -> f64 {
    elems / (us / 1e6)
}

// ---------------------------------------------------------------------------
// Scenarios (mirroring the criterion benches in `benches/`, so numbers are
// comparable across both harnesses)
// ---------------------------------------------------------------------------

fn sim_chained() -> f64 {
    const N: u64 = 100_000;
    let us = time_us(|| {
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule(SimDuration::from_micros(1), 0);
        eng.run(|eng, n| {
            if n < N {
                eng.schedule(SimDuration::from_micros(1), n + 1);
            }
        });
        black_box(eng.events_processed());
    });
    rate(N as f64, us)
}

fn sim_outstanding() -> f64 {
    const N: u64 = 100_000;
    const TIMERS: u64 = 50_000;
    let us = time_us(|| {
        let mut eng: Engine<u64> = Engine::new();
        for i in 0..TIMERS {
            eng.schedule(SimDuration::from_micros(1 + (i * 7) % 1000), i);
        }
        let mut left = N;
        eng.run(|eng, n| {
            if left > 0 {
                left -= 1;
                eng.schedule(SimDuration::from_micros(1 + (n * 13) % 1000), n);
            } else {
                eng.stop();
            }
        });
        black_box(eng.events_processed());
    });
    rate(N as f64, us)
}

fn sim_same_instant() -> f64 {
    const N: u64 = 100_000;
    let us = time_us(|| {
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule(SimDuration::from_micros(1), 0);
        eng.run(|eng, n| {
            if n >= N {
                eng.stop();
            } else if n % 64 == 0 {
                for k in 1..=64 {
                    eng.schedule(SimDuration::ZERO, n + k);
                }
            }
        });
        black_box(eng.events_processed());
    });
    rate(N as f64, us)
}

fn sim_deployment() -> f64 {
    const N: u64 = 1_000;
    let us = time_us(|| {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 64,
            ..SimFalkonConfig::default()
        });
        sim.submit(0, (0..N).map(|i| TaskSpec::sleep(i, 0)).collect());
        black_box(sim.run_until_drained().tasks);
    });
    rate(N as f64, us)
}

/// The ISSUE-10 unlock: a 100,000-executor static pool (the scale of
/// ROADMAP items 3–4, ~2× the paper's 54K emulation) chewing through one
/// sleep-0 task per executor. Registration floods the dispatcher CPU
/// ladder with 100k outstanding wheel timers, exactly the regime where the
/// old heap paid a cache-missing O(log n) per event.
///
/// Methodology deviates from [`time_us`] in iteration count only: a fixed
/// 2 timed iterations after warm-up (each iteration is seconds long, so a
/// 300 ms accumulation target is meaningless), and under
/// `FALKON_BENCH_QUICK=1` (CI smoke) a single timed iteration with no
/// warm-up.
fn sim_deployment_100k() -> f64 {
    const N: u64 = 100_000;
    const EXECS: u32 = 100_000;
    let run_once = || {
        let clock = Clock::start();
        let t0 = clock.now_us();
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: EXECS,
            executors_per_node: 900, // the 54K-emulation packing (Table 1)
            // A sleep-0 deadline is 60 s of slack alone, but 100k
            // simultaneous registrations back the dispatcher CPU up for
            // several virtual minutes, so the default policy replays (and
            // ultimately fails) every task. The scenario measures event-core
            // throughput, not replay; give the flood room.
            dispatcher: DispatcherConfig {
                replay: ReplayPolicy {
                    timeout_slack_us: 3_600_000_000, // 1 virtual hour
                    ..ReplayPolicy::default()
                },
                ..DispatcherConfig::default()
            },
            ..SimFalkonConfig::default()
        });
        sim.submit(0, (0..N).map(|i| TaskSpec::sleep(i, 0)).collect());
        let out = sim.run_until_drained();
        assert_eq!(out.tasks, N, "100k-executor deployment drains");
        black_box(out.makespan_us);
        clock.now_us().saturating_sub(t0).max(1)
    };
    if std::env::var_os("FALKON_BENCH_QUICK").is_some() {
        return rate(N as f64, run_once() as f64);
    }
    run_once(); // warm-up
    let best = (0..2).map(|_| run_once()).min().expect("two iterations");
    rate(N as f64, best as f64)
}

/// Drive a full task lifecycle (submit→notify→getwork→result→ack) through
/// the pure dispatcher machine, echoing executor behaviour synchronously.
fn dispatcher_lifecycle() -> f64 {
    const N: u64 = 1_000;
    const EXECS: u64 = 16;
    let us = time_us(|| {
        let mut d = Dispatcher::new(DispatcherConfig::default());
        let mut out: Vec<DispatcherAction> = Vec::new();
        d.on_event(0, DispatcherEvent::CreateInstance, &mut out);
        let instance = InstanceId(1);
        for e in 0..EXECS {
            d.on_event(
                0,
                DispatcherEvent::Register {
                    executor: ExecutorId(e),
                    host: String::new(),
                },
                &mut out,
            );
        }
        out.clear();
        d.on_event(
            1,
            DispatcherEvent::Submit {
                instance,
                tasks: (0..N).map(|i| TaskSpec::sleep(i, 0)).collect(),
            },
            &mut out,
        );
        let mut now = 2;
        let mut done = 0u64;
        let mut inbox: Vec<DispatcherEvent> = Vec::new();
        loop {
            for act in out.drain(..) {
                match act {
                    DispatcherAction::ToExecutor {
                        executor,
                        msg: Message::Notify { key },
                    } => inbox.push(DispatcherEvent::GetWork { executor, key }),
                    DispatcherAction::ToExecutor {
                        executor,
                        msg: Message::Work { tasks },
                    } if !tasks.is_empty() => {
                        inbox.push(DispatcherEvent::Result {
                            executor,
                            results: tasks.iter().map(|t| TaskResult::success(t.id)).collect(),
                        });
                    }
                    DispatcherAction::ToExecutor {
                        executor,
                        msg: Message::ResultAck { piggybacked },
                    } if !piggybacked.is_empty() => {
                        inbox.push(DispatcherEvent::Result {
                            executor,
                            results: piggybacked
                                .iter()
                                .map(|t| TaskResult::success(t.id))
                                .collect(),
                        });
                    }
                    DispatcherAction::TaskDone { .. } => done += 1,
                    _ => {}
                }
            }
            if inbox.is_empty() {
                break;
            }
            for ev in std::mem::take(&mut inbox) {
                now += 1;
                d.on_event(now, ev, &mut out);
            }
        }
        assert_eq!(done, N, "all tasks complete");
        black_box(done);
    });
    rate(N as f64, us)
}

fn inproc(wire: WireMode) -> f64 {
    const N: u64 = 2_000;
    let config = InprocConfig {
        executors: 8,
        wire,
        bundle: BundleConfig::of(300),
        dispatcher: DispatcherConfig {
            client_notify_batch: 1_000,
            ..DispatcherConfig::default()
        },
        ..InprocConfig::default()
    };
    let us = time_us(|| {
        black_box(run_sleep_workload(&config, N, 0));
    });
    rate(N as f64, us)
}

/// A real TCP deployment end to end: dispatcher server, 4 executor
/// threads, one client submitting `N` sleep-0 tasks in bundles of 300.
/// This is the scenario the connection engine (one poll loop per shard
/// and per peer, a core blocked on one channel — no polling cadence
/// anywhere) is measured by at small fan-in.
fn tcp_sleep0(security: TcpSecurity) -> f64 {
    const N: u64 = 1_000;
    const EXECS: usize = 4;
    let us = time_us(|| {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
            .security(security)
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind dispatcher");
        let addr = server.addr;
        let execs: Vec<_> = (0..EXECS)
            .map(|i| {
                std::thread::spawn(move || {
                    run_executor(
                        addr,
                        ExecutorId(i as u64),
                        ExecutorConfig::default(),
                        security,
                    )
                })
            })
            .collect();
        let tasks: Vec<TaskSpec> = (0..N).map(|i| TaskSpec::sleep(i, 0)).collect();
        let client = run_client(addr, tasks, BundleConfig::of(300), security).expect("client run");
        assert_eq!(client.done, N, "all tasks complete over TCP");
        black_box(server.shutdown());
        for e in execs {
            e.join().expect("executor thread").ok();
        }
    });
    rate(N as f64, us)
}

/// Connection fan-out: a dispatcher with 4 shard threads holding 1000
/// concurrent executor connections — the paper's many-executors regime on
/// real sockets. The 1000 peers are multiplexed on a single OS thread by
/// [`run_executors_mux`], so both sides of the measurement run with O(1)
/// threads per process and the scenario fits on a small CI box.
///
/// The reported rate is dispatch throughput measured by the client clock —
/// first submit to workload completion — so the 1000 connects of each
/// iteration's setup are excluded. Methodology deviates from
/// [`time_us`] only in that per-iteration cost: a fixed 3 timed iterations
/// (plus warm-up) instead of a 300 ms accumulation target, because each
/// iteration's setup dwarfs its measured window.
fn tcp_conn_fanout() -> f64 {
    const CONNS: usize = 1_000;
    const SHARDS: usize = 4;
    const N: u64 = 2_000;
    let run_once = || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
            .sharded(SHARDS)
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind dispatcher");
        let addr = server.addr;
        let mux = std::thread::spawn(move || {
            run_executors_mux(addr, 0, CONNS, ExecutorConfig::default(), None)
        });
        let tasks: Vec<TaskSpec> = (0..N).map(|i| TaskSpec::sleep(i, 0)).collect();
        let client = run_client(addr, tasks, BundleConfig::of(300), None).expect("client run");
        assert_eq!(client.done, N, "all tasks complete at 1000-conn fan-out");
        black_box(server.shutdown());
        let out = mux.join().expect("mux thread").expect("mux run");
        assert_eq!(out.tasks, N, "executors ran every task exactly once");
        client.elapsed_us.max(1)
    };
    run_once(); // warm-up
    let mut best = u64::MAX;
    for _ in 0..3 {
        best = best.min(run_once());
    }
    rate(N as f64, best as f64)
}

/// The three-tier deployment end to end: a forwarder routing to
/// `dispatchers` dispatcher servers (every tier with one shard thread),
/// each dispatcher's executors multiplexed on one
/// OS thread by [`run_executors_mux`], one client submitting `N` sleep-0
/// tasks in bundles of 300 through the forwarder.
///
/// The reported rate is dispatch throughput by the client clock — first
/// submit to workload completion — so per-iteration setup (listeners,
/// handshakes, downstream links) is excluded. Like [`tcp_conn_fanout`],
/// a fixed 3 timed iterations (plus warm-up) replace the 300 ms
/// accumulation target, because each iteration's setup dwarfs its
/// measured window.
fn tcp_three_tier(dispatchers: usize) -> f64 {
    const EXECS_PER_DISPATCHER: usize = 4;
    const N: u64 = 2_000;
    let run_once = || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
            .sharded(1)
            .forwarder(dispatchers)
            .build()
            .expect("valid config");
        let server = ForwarderServer::start(config).expect("bind three-tier");
        let addr = server.addr;
        let muxes: Vec<_> = server
            .dispatcher_addrs()
            .iter()
            .enumerate()
            .map(|(d, disp_addr)| {
                let disp_addr = *disp_addr;
                std::thread::spawn(move || {
                    run_executors_mux(
                        disp_addr,
                        (d * EXECS_PER_DISPATCHER) as u64,
                        EXECS_PER_DISPATCHER,
                        ExecutorConfig::default(),
                        None,
                    )
                })
            })
            .collect();
        let tasks: Vec<TaskSpec> = (0..N).map(|i| TaskSpec::sleep(i, 0)).collect();
        let client = run_client(addr, tasks, BundleConfig::of(300), None).expect("client run");
        assert_eq!(client.done, N, "all tasks complete through the forwarder");
        let (outcome, dispatcher_outcomes) = server.shutdown();
        assert_eq!(outcome.stats.results_delivered, N);
        let completed: u64 = dispatcher_outcomes
            .iter()
            .map(|(_, s, _)| s.completed)
            .sum();
        assert_eq!(completed, N, "dispatchers completed every task");
        for m in muxes {
            m.join().expect("mux thread").expect("mux run");
        }
        client.elapsed_us.max(1)
    };
    run_once(); // warm-up
    let mut best = u64::MAX;
    for _ in 0..3 {
        best = best.min(run_once());
    }
    rate(N as f64, best as f64)
}

fn codec_bundle(k: u64) -> Message {
    Message::Submit {
        instance: InstanceId(1),
        tasks: (0..k).map(|i| TaskSpec::sleep(i, 0)).collect(),
    }
}

fn codec_encode() -> f64 {
    let msg = codec_bundle(1000);
    let bytes = EfficientCodec.encode(&msg).len() as f64;
    // Reuse one scratch buffer, as the TCP driver does.
    let mut scratch = Vec::new();
    let us = time_us(|| {
        for _ in 0..100 {
            EfficientCodec.encode_into(black_box(&msg), &mut scratch);
            black_box(scratch.len());
        }
    });
    rate(bytes * 100.0, us) / 1e6 // MB/s
}

fn codec_decode() -> f64 {
    let bytes = EfficientCodec.encode(&codec_bundle(1000));
    let len = bytes.len() as f64;
    let us = time_us(|| {
        for _ in 0..100 {
            black_box(EfficientCodec.decode(black_box(&bytes)).expect("valid"));
        }
    });
    rate(len * 100.0, us) / 1e6 // MB/s
}

/// Measure one scenario — unless `FALKON_BENCH_FILTER` is set and `id`
/// doesn't contain it as a substring. The filter exists for iterating on a
/// single scenario without paying for the whole suite; CI and committed
/// reports always run unfiltered (`--floor` fails on a filtered-out id).
fn measure(
    out: &mut Vec<BenchResult>,
    filter: Option<&str>,
    id: &'static str,
    unit: &'static str,
    baseline: Option<f64>,
    scenario: impl FnOnce() -> f64,
) {
    if let Some(f) = filter {
        if !id.contains(f) {
            return;
        }
    }
    out.push(BenchResult {
        id,
        unit,
        rate: scenario(),
        baseline,
    });
}

/// Run the full scenario set. Baselines: reference machine at
/// [`BASELINE_COMMIT`] (same scenario code, pre-overhaul queue/tables).
pub fn run_benches() -> Vec<BenchResult> {
    let filter = std::env::var("FALKON_BENCH_FILTER").ok();
    let filter = filter.as_deref();
    let mut out = Vec::new();
    measure(
        &mut out,
        filter,
        "sim/chained_timer_events",
        "events/s",
        Some(109.530e6),
        sim_chained,
    );
    measure(
        &mut out,
        filter,
        "sim/outstanding_50k_timers",
        "events/s",
        Some(32.321e6),
        sim_outstanding,
    );
    measure(
        &mut out,
        filter,
        "sim/same_instant_bursts",
        "events/s",
        Some(211.860e6),
        sim_same_instant,
    );
    measure(
        &mut out,
        filter,
        "sim/deployment_sleep0_1000",
        "tasks/s",
        Some(1.258e6),
        sim_deployment,
    );
    measure(
        &mut out,
        filter,
        "sim/deployment_sleep0_100k",
        "tasks/s",
        Some(232.70e3),
        sim_deployment_100k,
    );
    measure(
        &mut out,
        filter,
        "dispatcher/lifecycle_1000",
        "tasks/s",
        Some(4.405e6),
        dispatcher_lifecycle,
    );
    measure(
        &mut out,
        filter,
        "inproc/sleep0_plain",
        "tasks/s",
        Some(274.99e3),
        || inproc(WireMode::Plain),
    );
    measure(
        &mut out,
        filter,
        "inproc/sleep0_encoded",
        "tasks/s",
        Some(246.46e3),
        || inproc(WireMode::Encoded),
    );
    measure(
        &mut out,
        filter,
        "inproc/sleep0_secure",
        "tasks/s",
        Some(202.27e3),
        || inproc(WireMode::Secure),
    );
    measure(
        &mut out,
        filter,
        "tcp/sleep0_plain",
        "tasks/s",
        Some(68.78e3),
        || tcp_sleep0(None),
    );
    measure(
        &mut out,
        filter,
        "tcp/sleep0_secure",
        "tasks/s",
        Some(66.95e3),
        || tcp_sleep0(Some(0xFA1C0)),
    );
    measure(
        &mut out,
        filter,
        "tcp/conn_fanout",
        "tasks/s",
        Some(29.09e3),
        tcp_conn_fanout,
    );
    // The headline `tcp/three_tier` runs the 4-dispatcher sweep point; the
    // `_1d`/`_2d` rows pin the scaling curve (see EXPERIMENTS.md on core
    // limits).
    measure(
        &mut out,
        filter,
        "tcp/three_tier_1d",
        "tasks/s",
        Some(77.17e3),
        || tcp_three_tier(1),
    );
    measure(
        &mut out,
        filter,
        "tcp/three_tier_2d",
        "tasks/s",
        Some(139.97e3),
        || tcp_three_tier(2),
    );
    measure(
        &mut out,
        filter,
        "tcp/three_tier",
        "tasks/s",
        Some(176.49e3),
        || tcp_three_tier(4),
    );
    measure(
        &mut out,
        filter,
        "codec/encode_efficient_1000",
        "MB/s",
        Some(4.38e3),
        codec_encode,
    );
    measure(
        &mut out,
        filter,
        "codec/decode_efficient_1000",
        "MB/s",
        Some(1.28e3),
        codec_decode,
    );
    out
}

/// Serial quick-scale `repro all` wall time at [`BASELINE_COMMIT`] on the
/// reference machine (the "before" of the `repro_all_quick` row).
pub const REPRO_ALL_QUICK_BASELINE_S: f64 = 1.52;

/// Render the results as the committed JSON report. `jobs` is the worker
/// count the `repro_all_quick` wall time was measured with.
pub fn render_json(results: &[BenchResult], repro_all_quick_s: Option<f64>, jobs: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"BENCH_0010\",\n");
    s.push_str(&format!("  \"baseline_commit\": \"{BASELINE_COMMIT}\",\n"));
    if let Some(wall) = repro_all_quick_s {
        s.push_str(&format!(
            "  \"repro_all_quick\": {{ \"unit\": \"s\", \"jobs\": {jobs}, \"before\": {REPRO_ALL_QUICK_BASELINE_S}, \"after\": {wall:.3} }},\n"
        ));
    }
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        // A scenario with no baseline is `new`: `before`/`speedup` are
        // JSON null, never a fake 0.0 that would read as a regression.
        let (before, speedup) = match (r.baseline, r.speedup()) {
            (Some(b), Some(sp)) => (format!("{b:.4e}"), format!("{sp:.2}")),
            _ => ("null".into(), "null".into()),
        };
        let new_flag = if r.baseline.is_none() {
            ", \"new\": true"
        } else {
            ""
        };
        s.push_str(&format!(
            "    {{ \"id\": \"{}\", \"unit\": \"{}\", \"before\": {}, \"after\": {:.4e}, \"speedup\": {}{} }}{}\n",
            r.id, r.unit, before, r.rate, speedup, new_flag, comma
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Render the results as an aligned text table. `jobs` labels the
/// `repro_all_quick` row with the worker count it was measured at.
pub fn render_table(
    results: &[BenchResult],
    repro_all_quick_s: Option<f64>,
    jobs: usize,
) -> String {
    let mut t = falkon_sim::table::Table::new(
        format!("repro bench (baseline: commit {BASELINE_COMMIT})"),
        &["scenario", "unit", "before", "after", "speedup"],
    );
    for r in results {
        let (before, speedup) = match (r.baseline, r.speedup()) {
            (Some(b), Some(sp)) => (format!("{b:.3e}"), format!("{sp:.2}x")),
            _ => ("—".into(), "new".into()),
        };
        t.row(vec![
            r.id.to_string(),
            r.unit.to_string(),
            before,
            format!("{:.3e}", r.rate),
            speedup,
        ]);
    }
    if let Some(wall) = repro_all_quick_s {
        t.row(vec![
            format!("repro_all_quick (--jobs {jobs})"),
            "s".into(),
            format!("{REPRO_ALL_QUICK_BASELINE_S}"),
            format!("{wall:.2}"),
            format!("{:.2}x", REPRO_ALL_QUICK_BASELINE_S / wall.max(1e-9)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_wellformed() {
        let results = vec![
            BenchResult {
                id: "sim/x",
                unit: "events/s",
                rate: 2.0e6,
                baseline: Some(1.0e6),
            },
            BenchResult {
                id: "codec/y",
                unit: "MB/s",
                rate: 500.0,
                baseline: Some(250.0),
            },
            BenchResult {
                id: "tcp/z_new",
                unit: "tasks/s",
                rate: 9.0e3,
                baseline: None,
            },
        ];
        let json = render_json(&results, Some(1.5), 4);
        assert!(json.contains("\"bench\": \"BENCH_0010\""));
        assert!(json.contains("\"speedup\": 2.00"));
        assert!(json.contains("\"repro_all_quick\""));
        assert!(json.contains("\"jobs\": 4"));
        // A no-baseline scenario renders as null + "new": true — never a
        // fake 0.0 before / 0.00 speedup.
        assert!(json
            .contains("\"before\": null, \"after\": 9.0000e3, \"speedup\": null, \"new\": true"));
        assert!(!json.contains("\"speedup\": 0.00"));
        // Balanced braces/brackets and no trailing comma before a closer.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
        let table = render_table(&results, None, 1);
        assert!(table.contains("sim/x"));
        assert!(table.contains("2.00x"));
        assert!(table.contains("new"));
    }

    #[test]
    fn speedup_handles_missing_baseline() {
        let r = BenchResult {
            id: "z",
            unit: "u",
            rate: 1.0,
            baseline: None,
        };
        assert_eq!(r.speedup(), None);
        let zero = BenchResult {
            id: "z0",
            unit: "u",
            rate: 1.0,
            baseline: Some(0.0),
        };
        assert_eq!(zero.speedup(), None);
    }
}
