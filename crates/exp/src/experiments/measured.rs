//! Locally *measured* dispatch rates using the real threaded runtime — the
//! honest counterpart to the calibrated simulation (a 2026 machine and a
//! binary protocol are far faster than a 2007 Xeon running SOAP).
//!
//! Alongside throughput, reports the per-task dispatch overhead
//! distribution (p50/p90/p99/max of task lifetime minus execution time)
//! read from the `falkon-obs` recorder mounted on the threaded driver.

use crate::experiments::Scale;
use falkon_core::DispatcherConfig;
use falkon_proto::bundle::BundleConfig;
use falkon_rt::inproc::{run_sleep_workload, InprocConfig};
use falkon_rt::wscounter::{measure_call_rate, CounterServer};
use falkon_rt::WireMode;
use std::time::Duration;

/// Dispatch-overhead quantiles of one measured run, in µs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OverheadQuantiles {
    /// Median per-task overhead.
    p50_us: u64,
    /// 90th percentile.
    p90_us: u64,
    /// 99th percentile.
    p99_us: u64,
    /// Worst task.
    max_us: u64,
}

/// One deployment arm of the measured benchmark.
#[derive(Clone, Debug)]
pub(crate) struct MeasuredRow {
    /// Deployment label.
    label: &'static str,
    /// Tasks completed.
    tasks: u64,
    /// Aggregate throughput, tasks/sec.
    throughput: f64,
    /// Per-task dispatch overhead from the mounted recorder.
    overhead: OverheadQuantiles,
}

/// The measured-throughput report.
#[derive(Clone, Debug)]
pub(crate) struct Measured {
    /// One row per deployment, client, servers and executor threads on
    /// real loopback sockets, all on the one connection engine (no
    /// polling cadence): the flat one with 8 executors in each wire mode,
    /// and three tiers — a forwarder over 2 dispatchers × 2 executors.
    rows: Vec<MeasuredRow>,
    /// The GT4-counter-service analog: raw request/response over TCP,
    /// calls/sec with 8 concurrent clients.
    counter_rate: f64,
}

/// Run each deployment and the TCP-bound counter service. On a
/// core-limited box the three tiers time-share the CPUs, so their row
/// measures the forwarder hop's overhead rather than multi-core scaling
/// (see EXPERIMENTS.md for the honest framing).
pub fn run(scale: Scale) -> Measured {
    let n = scale.pick(5_000, 50_000);
    let rows = [
        (
            "encoded (WS-serialization analog)",
            WireMode::Encoded,
            8,
            None,
        ),
        (
            "secure (GSISecureConversation analog)",
            WireMode::Secure,
            8,
            None,
        ),
        (
            "three-tier (forwarder, 2 dispatchers)",
            WireMode::Encoded,
            2,
            Some(2),
        ),
    ]
    .into_iter()
    .map(|(label, wire, executors, forwarder)| {
        let cfg = InprocConfig {
            executors,
            forwarder,
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
    let server = CounterServer::start().expect("bind counter service");
    let counter_rate = measure_call_rate(server.addr, 8, Duration::from_secs(scale.pick(1, 5)));
    server.shutdown();
    Measured { rows, counter_rate }
}

/// Render the measured report.
pub fn render(m: &Measured) -> String {
    let mut out = String::from("== Measured on this machine (real threads, loopback sockets) ==");
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
            assert!(r.tasks > 0, "{}: no tasks completed", r.label);
            assert!(r.throughput > 0.0, "{}: no throughput", r.label);
            // The recorder saw every task: quantiles are ordered and
            // bounded by the observed max.
            assert!(r.overhead.p50_us <= r.overhead.p90_us);
            assert!(r.overhead.p90_us <= r.overhead.p99_us);
            assert!(r.overhead.p99_us <= r.overhead.max_us);
        }
        assert!(m.counter_rate > 0.0);
        let text = render(&m);
        assert!(text.contains("dispatch overhead p50/p90/p99/max"));
        assert!(text.contains("three-tier"));
    }
}
