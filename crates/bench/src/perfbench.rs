//! `repro bench` — the floor tripwire.
//!
//! Seven hot-path scenarios (event queue, simulated deployment, TCP
//! runtime, codec), each with a rate floor beside it in [`SCENARIOS`]. A
//! run prints `id / unit / rate / floor / ok` and fails when any rate is
//! under its floor. This is **not a measurement**: the floors sit at a
//! fraction of the usual rate, so they only catch a property being lost (a
//! polling cadence back in the runtime, per-task allocation back in the
//! codec, the O(1) timer path gone). Numbers that compare one commit with
//! another come from `benchmark/` (see `benchmark/README.md`).
//!
//! Timing: one warm-up iteration, then repeated timed iterations until
//! [`MIN_SAMPLE_US`] of accumulated runtime (at least [`MIN_ITERS`]); the
//! rate uses the *fastest* iteration — what the code can do on this
//! machine, which is what a floor should be held against.

use falkon_core::executor::ExecutorConfig;
use falkon_core::{DispatcherConfig, ReplayPolicy};
use falkon_exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::TaskSpec;
use falkon_rt::forwarder::ForwarderServer;
use falkon_rt::muxpeer::run_executors_mux;
use falkon_rt::tcp::{run_client, run_executor, DispatcherServer, ServerConfig};
use falkon_rt::Clock;
use falkon_sim::{Engine, SimDuration};
use std::hint::black_box;

/// Keep sampling until a scenario has accumulated this much measured time.
const MIN_SAMPLE_US: u64 = 300_000;

/// ... and has run at least this many timed iterations.
const MIN_ITERS: u32 = 3;

/// One floored scenario: what to run and the least rate it may report.
pub struct Scenario {
    /// Stable identifier, `group/scenario`.
    pub id: &'static str,
    /// Unit of the rate and of `floor` (e.g. `events/s`, `MB/s`).
    pub unit: &'static str,
    /// The run fails when the scenario reports less than this.
    pub floor: f64,
    run: fn() -> f64,
}

/// The tripwire set, in run order. Rates quoted in the comments are the
/// 1–2-core containers this repository is grown on; every floor leaves
/// room for a noisy CI runner.
pub const SCENARIOS: [Scenario; 7] = [
    // 50k resident timers: ~45M events/s on the timer wheel, ~9M on a
    // 4-ary heap. The floor fails if the O(1) wheel path regresses to a
    // cache-missing O(log n) structure.
    Scenario {
        id: "sim/outstanding_50k_timers",
        unit: "events/s",
        floor: 15e6,
        run: sim_outstanding,
    },
    // A 100,000-executor sleep-0 deployment drains at ~200k tasks/s (the
    // heap-backed queue took minutes): pins "100k-executor simulations are
    // interactive" with ~8x headroom.
    Scenario {
        id: "sim/deployment_sleep0_100k",
        unit: "tasks/s",
        floor: 25e3,
        run: sim_deployment_100k,
    },
    // The event-driven runtime does >60k tasks/s here; it did ~520 when it
    // was bound by polling loops. A reintroduced 5 ms cadence caps the
    // scenario well below the floor.
    Scenario {
        id: "tcp/sleep0_plain",
        unit: "tasks/s",
        floor: 5e3,
        run: tcp_sleep0_plain,
    },
    // 1000 multiplexed connections, ~18k tasks/s or better. The floor sits
    // above the ~16k of the copying inbound path, so it catches a server
    // loop that regresses into timed polling or serial servicing, and —
    // one SYN-retransmit stall costs a full second — any return of the
    // 128-deep accept queue.
    Scenario {
        id: "tcp/conn_fanout",
        unit: "tasks/s",
        floor: 12e3,
        run: tcp_conn_fanout,
    },
    // The 4-dispatcher forwarder deployment, ~81k tasks/s or better. The
    // floor catches a forwarder core that regresses into per-frame
    // flushing or timed polling on either face.
    Scenario {
        id: "tcp/three_tier",
        unit: "tasks/s",
        floor: 30e3,
        run: tcp_three_tier,
    },
    // Batched encode of a 1000-task bundle, ~2.8 GB/s. The floor is well
    // above the pre-batched writer, so a per-task flush or allocation
    // creeping back trips it.
    Scenario {
        id: "codec/encode_efficient_1000",
        unit: "MB/s",
        floor: 2e3,
        run: codec_encode,
    },
    // Borrowed-slice decode of the same bundle, ~900 MB/s with interned
    // task strings and the inline arg vector. The floor is far above the
    // ~410 MB/s allocate-per-string decoder it replaced, so per-task heap
    // allocations creeping back into decode trip it.
    Scenario {
        id: "codec/decode_efficient_1000",
        unit: "MB/s",
        floor: 600.0,
        run: codec_decode,
    },
];

/// One scenario's outcome.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub id: &'static str,
    pub unit: &'static str,
    /// Rate reported by this run.
    pub rate: f64,
    pub floor: f64,
}

impl BenchResult {
    /// The verdict: at or above the floor passes.
    pub fn ok(&self) -> bool {
        self.rate >= self.floor
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

/// A 100,000-executor static pool (~2× the paper's 54K emulation) chewing
/// through one sleep-0 task per executor. Registration floods the
/// dispatcher CPU ladder with 100k outstanding wheel timers, exactly the
/// regime where a heap pays a cache-missing O(log n) per event.
///
/// Methodology deviates from [`time_us`] in iteration count only: a fixed
/// 2 timed iterations after warm-up (each iteration is seconds long, so a
/// 300 ms accumulation target is meaningless).
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
    run_once(); // warm-up
    let best = (0..2).map(|_| run_once()).min().expect("two iterations");
    rate(N as f64, best as f64)
}

/// A real TCP deployment end to end: dispatcher server, 4 executor
/// threads, one client submitting `N` sleep-0 tasks in bundles of 300.
/// The connection engine (one poll loop per server and per peer, the
/// machine inside the turn — no polling cadence anywhere) at small fan-in.
fn tcp_sleep0_plain() -> f64 {
    const N: u64 = 1_000;
    const EXECS: usize = 4;
    let us = time_us(|| {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
            .build()
            .expect("valid config");
        let server = DispatcherServer::start(config).expect("bind dispatcher");
        let addr = server.addr;
        let execs: Vec<_> = (0..EXECS)
            .map(|i| {
                std::thread::spawn(move || {
                    run_executor(addr, ExecutorId(i as u64), ExecutorConfig::default(), None)
                })
            })
            .collect();
        let tasks: Vec<TaskSpec> = (0..N).map(|i| TaskSpec::sleep(i, 0)).collect();
        let client = run_client(addr, tasks, BundleConfig::of(300), None).expect("client run");
        assert_eq!(client.done, N, "all tasks complete over TCP");
        black_box(server.shutdown());
        for e in execs {
            e.join().expect("executor thread").ok();
        }
    });
    rate(N as f64, us)
}

/// Connection fan-out: a dispatcher — one thread — holding 1000
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
    const N: u64 = 2_000;
    let run_once = || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
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

/// The three-tier deployment end to end: a forwarder routing to four
/// dispatcher servers (every tier one thread),
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
fn tcp_three_tier() -> f64 {
    const DISPATCHERS: usize = 4;
    const EXECS_PER_DISPATCHER: usize = 4;
    const N: u64 = 2_000;
    let run_once = || {
        let config = ServerConfig::builder()
            .dispatcher(DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            })
            .forwarder(DISPATCHERS)
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

/// Run every scenario of [`SCENARIOS`], in order.
pub fn run_benches() -> Vec<BenchResult> {
    SCENARIOS
        .iter()
        .map(|s| BenchResult {
            id: s.id,
            unit: s.unit,
            rate: (s.run)(),
            floor: s.floor,
        })
        .collect()
}

/// Render the results as an aligned text table.
pub fn render_table(results: &[BenchResult]) -> String {
    let mut t = falkon_sim::table::Table::new(
        "repro bench (floor tripwire; measurements: benchmark/README.md)",
        &["scenario", "unit", "rate", "floor", "ok"],
    );
    for r in results {
        t.row(vec![
            r.id.to_string(),
            r.unit.to_string(),
            format!("{:.3e}", r.rate),
            format!("{:.3e}", r.floor),
            if r.ok() { "ok" } else { "VIOLATION" }.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids CI has floored since the scenarios existed; the table may
    /// not grow back into a measurement suite.
    const FLOORED: [&str; 7] = [
        "tcp/sleep0_plain",
        "tcp/conn_fanout",
        "tcp/three_tier",
        "codec/decode_efficient_1000",
        "codec/encode_efficient_1000",
        "sim/outstanding_50k_timers",
        "sim/deployment_sleep0_100k",
    ];

    #[test]
    fn scenario_table_is_the_seven_floored_ids() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(FLOORED.contains(&s.id), "{} is not a floored id", s.id);
            assert!(s.floor > 0.0, "{} has no floor", s.id);
            assert!(
                SCENARIOS[..i].iter().all(|t| t.id != s.id),
                "{} appears twice",
                s.id
            );
        }
    }

    #[test]
    fn verdict_is_rate_at_or_above_floor() {
        let row = |rate| BenchResult {
            id: "x/y",
            unit: "tasks/s",
            rate,
            floor: 100.0,
        };
        assert!(!row(99.9).ok());
        assert!(row(100.0).ok());
        assert!(row(100.1).ok());
        assert!(render_table(&[row(99.9)]).contains("VIOLATION"));
        assert!(!render_table(&[row(100.0)]).contains("VIOLATION"));
    }
}
