//! Locally *measured* dispatch rates using the real threaded runtime — the
//! honest counterpart to the calibrated simulation (a 2026 machine and a
//! binary protocol are far faster than a 2007 Xeon running SOAP).
//!
//! Alongside throughput, reports the per-task dispatch overhead
//! distribution (p50/p90/p99/max of task lifetime minus execution time)
//! read from the `falkon-obs` recorder mounted on the threaded driver.

use crate::experiments::Scale;
use falkon_core::executor::ExecutorConfig;
use falkon_core::DispatcherConfig;
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::ExecutorId;
use falkon_proto::task::TaskSpec;
use falkon_rt::forwarder::ForwarderServer;
use falkon_rt::inproc::{run_sleep_workload, InprocConfig};
use falkon_rt::tcp::{run_client, run_executor, DispatcherServer, ServerConfig, TcpSecurity};
use falkon_rt::wscounter::{measure_call_rate, CounterServer};
use falkon_rt::WireMode;
use std::time::Duration;

/// Dispatch-overhead quantiles of one measured run, in µs.
#[derive(Clone, Copy, Debug)]
pub struct OverheadQuantiles {
    /// Median per-task overhead.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst task.
    pub max_us: u64,
}

/// One wire-mode arm of the measured benchmark.
#[derive(Clone, Debug)]
pub struct MeasuredRow {
    /// Wire-mode label.
    pub label: &'static str,
    /// Tasks completed.
    pub tasks: u64,
    /// Aggregate throughput, tasks/sec.
    pub throughput: f64,
    /// Per-task dispatch overhead from the mounted recorder.
    pub overhead: OverheadQuantiles,
}

/// One security arm of the real-socket TCP deployment measurement.
#[derive(Clone, Debug)]
pub struct TcpMeasuredRow {
    /// Security label.
    pub label: &'static str,
    /// Tasks completed.
    pub tasks: u64,
    /// Aggregate throughput, tasks/sec.
    pub throughput: f64,
}

/// The measured-throughput report.
#[derive(Clone, Debug)]
pub struct Measured {
    /// One row per wire mode.
    pub rows: Vec<MeasuredRow>,
    /// One row per security arm of the full TCP deployment:
    /// dispatcher server, 4 executor threads, and a client on real loopback
    /// sockets, all on the one connection engine (no polling cadence) —
    /// plus the three-tier forwarder deployment.
    pub tcp_rows: Vec<TcpMeasuredRow>,
    /// The GT4-counter-service analog: raw request/response over TCP,
    /// calls/sec with 8 concurrent clients.
    pub counter_rate: f64,
}

/// One full TCP deployment run: `n` sleep-0 tasks over 4 executors.
fn tcp_arm(label: &'static str, n: u64, security: TcpSecurity) -> TcpMeasuredRow {
    const EXECS: u64 = 4;
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 1_000,
            ..DispatcherConfig::default()
        })
        .security(security)
        .build()
        .expect("valid tcp server config");
    let server = DispatcherServer::start(config).expect("bind tcp dispatcher");
    let addr = server.addr;
    let execs: Vec<_> = (0..EXECS)
        .map(|i| {
            std::thread::spawn(move || {
                run_executor(addr, ExecutorId(i), ExecutorConfig::default(), security)
            })
        })
        .collect();
    let tasks: Vec<TaskSpec> = (0..n).map(|i| TaskSpec::sleep(i, 0)).collect();
    let client = run_client(addr, tasks, BundleConfig::of(300), security).expect("tcp client run");
    server.shutdown();
    for e in execs {
        e.join().expect("executor thread").ok();
    }
    TcpMeasuredRow {
        label,
        tasks: client.done,
        throughput: client.done as f64 / (client.elapsed_us.max(1) as f64 / 1e6),
    }
}

/// One three-tier deployment run: client → forwarder → `dispatchers`
/// dispatcher cores → 2 executors each, all over real loopback sockets.
/// On a core-limited box the tiers time-share one CPU, so this measures
/// the forwarder hop's overhead rather than multi-core scaling (see
/// EXPERIMENTS.md for the honest framing).
fn three_tier_arm(label: &'static str, n: u64, dispatchers: usize) -> TcpMeasuredRow {
    const EXECS_PER_DISPATCHER: u64 = 2;
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 1_000,
            ..DispatcherConfig::default()
        })
        .forwarder(dispatchers)
        .build()
        .expect("valid three-tier config");
    let server = ForwarderServer::start(config).expect("bind three-tier");
    let addr = server.addr;
    let mut execs = Vec::new();
    for (d, disp_addr) in server.dispatcher_addrs().iter().enumerate() {
        let disp_addr = *disp_addr;
        for i in 0..EXECS_PER_DISPATCHER {
            let id = ExecutorId(d as u64 * EXECS_PER_DISPATCHER + i);
            execs.push(std::thread::spawn(move || {
                run_executor(disp_addr, id, ExecutorConfig::default(), None)
            }));
        }
    }
    let tasks: Vec<TaskSpec> = (0..n).map(|i| TaskSpec::sleep(i, 0)).collect();
    let client = run_client(addr, tasks, BundleConfig::of(300), None).expect("three-tier client");
    server.shutdown();
    for e in execs {
        e.join().expect("executor thread").ok();
    }
    TcpMeasuredRow {
        label,
        tasks: client.done,
        throughput: client.done as f64 / (client.elapsed_us.max(1) as f64 / 1e6),
    }
}

/// Run the in-process deployments (one per wire mode) and the TCP-bound
/// counter service.
pub fn run(scale: Scale) -> Measured {
    let n = scale.pick(5_000, 50_000);
    let rows = [
        ("plain (no serialization)", WireMode::Plain),
        ("encoded (WS-serialization analog)", WireMode::Encoded),
        ("secure (GSISecureConversation analog)", WireMode::Secure),
    ]
    .into_iter()
    .map(|(label, wire)| {
        let cfg = InprocConfig {
            executors: 8,
            wire,
            bundle: BundleConfig::of(300),
            dispatcher: DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            },
            ..InprocConfig::default()
        };
        let out = run_sleep_workload(&cfg, n, 0);
        crate::trace::begin_run();
        for r in &out.records {
            crate::trace::record(r);
        }
        let overhead = &out.obs.overhead_us;
        MeasuredRow {
            label,
            tasks: out.tasks,
            throughput: out.throughput,
            overhead: OverheadQuantiles {
                p50_us: overhead.quantile(0.50),
                p90_us: overhead.quantile(0.90),
                p99_us: overhead.quantile(0.99),
                max_us: overhead.max(),
            },
        }
    })
    .collect();
    let n_tcp = scale.pick(2_000, 20_000);
    let tcp_rows = vec![
        tcp_arm("plain (no security)", n_tcp, None),
        tcp_arm(
            "secure (GSISecureConversation analog)",
            n_tcp,
            Some(0xFA1C0),
        ),
        three_tier_arm("three-tier (forwarder, 2 dispatchers)", n_tcp, 2),
    ];
    let server = CounterServer::start().expect("bind counter service");
    let counter_rate = measure_call_rate(server.addr, 8, Duration::from_secs(scale.pick(1, 5)));
    server.shutdown();
    Measured {
        rows,
        tcp_rows,
        counter_rate,
    }
}

/// Render the measured report.
pub fn render(m: &Measured) -> String {
    let mut out =
        String::from("== Measured on this machine (real threads, in-process channels) ==");
    for r in &m.rows {
        out.push_str(&format!(
            "\nfalkon inproc {:<38} {:>10.0} tasks/s  ({} tasks)  \
             dispatch overhead p50/p90/p99/max = {}/{}/{}/{} µs",
            r.label,
            r.throughput,
            r.tasks,
            r.overhead.p50_us,
            r.overhead.p90_us,
            r.overhead.p99_us,
            r.overhead.max_us,
        ));
    }
    for r in &m.tcp_rows {
        out.push_str(&format!(
            "\nfalkon TCP    {:<38} {:>10.0} tasks/s  ({} tasks, 4 executors, real sockets)",
            r.label, r.throughput, r.tasks,
        ));
    }
    out.push_str(&format!(
        "\ncounter-service TCP bound (8 clients)      {:>10.0} calls/s",
        m.counter_rate
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_reports_throughput_and_overhead_quantiles() {
        let m = run(Scale::Quick);
        assert_eq!(m.rows.len(), 3);
        for r in &m.rows {
            assert!(r.throughput > 0.0, "{}: no throughput", r.label);
            // The recorder saw every task: quantiles are ordered and
            // bounded by the observed max.
            assert!(r.overhead.p50_us <= r.overhead.p90_us);
            assert!(r.overhead.p90_us <= r.overhead.p99_us);
            assert!(r.overhead.p99_us <= r.overhead.max_us);
        }
        assert_eq!(m.tcp_rows.len(), 3);
        for r in &m.tcp_rows {
            assert!(r.tasks > 0, "{}: no tasks completed over TCP", r.label);
            assert!(r.throughput > 0.0, "{}: no TCP throughput", r.label);
        }
        assert!(m.counter_rate > 0.0);
        let text = render(&m);
        assert!(text.contains("dispatch overhead p50/p90/p99/max"));
        assert!(text.contains("falkon TCP"));
        assert!(text.contains("real sockets"));
    }
}
