//! Dynamic resource provisioning in action (Section 4.6, Figures 12/13):
//! run the 18-stage synthetic workload under a provisioner that acquires
//! executors from a PBS-like LRM all-at-once and releases them after an
//! idle timeout, and watch the allocated/registered/active counts follow
//! the workload's bursts.
//!
//! ```sh
//! cargo run --release --example provisioning [idle_release_secs]
//! ```

use falkon::core::executor::ExecutorConfig;
use falkon::core::policy::{AcquisitionPolicy, ProvisionerPolicy, ReleasePolicy};
use falkon::exp::providers::FalkonProvider;
use falkon::exp::simfalkon::SimFalkonConfig;
use falkon::lrm::profile::PBS_V2_1_8;
use falkon::sim::table::ascii_plot;
use falkon::workflow::apps::synthetic;
use falkon::workflow::engine::WorkflowEngine;

fn main() {
    let idle_s: u64 = match std::env::args().nth(1) {
        None => 60,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("error: idle_release_secs must be a number, got `{arg}`");
            std::process::exit(2);
        }),
    };
    println!(
        "18-stage synthetic workload ({} tasks, {} CPU-s), Falkon-{idle_s}\n",
        synthetic::total_tasks(),
        synthetic::total_cpu_secs()
    );

    let mut provider = FalkonProvider::new(SimFalkonConfig {
        executors: 0,
        executors_per_node: 1,
        executor: ExecutorConfig {
            idle_release_us: Some(idle_s * 1_000_000),
            prefetch: false,
        },
        provisioner: Some((
            ProvisionerPolicy {
                min_executors: 0,
                max_executors: 32,
                acquisition: AcquisitionPolicy::AllAtOnce,
                release: ReleasePolicy::DistributedIdle,
                allocation_duration_us: 3_600_000_000,
                poll_interval_us: 1_000_000,
            },
            PBS_V2_1_8,
            100,
        )),
        sample_interval_us: 1_000_000,
        ..SimFalkonConfig::default()
    });

    let dag = synthetic::dag();
    let report = WorkflowEngine::new().run(&dag, &mut provider);
    let out = provider.sim().outcome();

    println!(
        "time to complete: {:.0} s   (ideal on 32 machines: {} s)",
        report.makespan_s(),
        synthetic::ideal_makespan_secs(32)
    );
    println!(
        "avg queue {:.1} s   avg exec {:.1} s   utilization {:.0}%   allocations {}",
        out.avg_queue_us / 1e6,
        out.avg_exec_us / 1e6,
        out.resource_utilization() * 100.0,
        out.allocations
    );

    let registered: Vec<(f64, f64)> = out
        .registered_series
        .thin(120)
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();
    let active: Vec<(f64, f64)> = out
        .busy_series
        .thin(120)
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();
    println!(
        "\n{}",
        ascii_plot("registered executors over time", &registered, 100, 12)
    );
    println!(
        "{}",
        ascii_plot("active executors over time", &active, 100, 12)
    );
    println!("Try different idle-release settings (15 / 60 / 120 / 180) to trade\nutilization against completion time, as in Table 4.");
}
