//! The 3-tier architecture experiment (paper Section 6, Figure 16).
//!
//! A forwarder splits a task stream across `k` independent dispatchers
//! (each bounded at the paper's ≈487 tasks/sec); aggregate throughput
//! should scale roughly linearly in `k` — the paper's proposed route to
//! "two or more orders of magnitude more executors" on BlueGene/P-class
//! machines. The topology is one [`SimFalkon`] with
//! [`SimFalkonConfig::forwarder`] set. No dispatcher fails here: the
//! forwarder's loss and readmission handling is exercised over real
//! sockets by `tests/tcp_threetier.rs`.

use crate::experiments::Scale;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::task::TaskSpec;
use falkon_sim::table::Table;

/// One 3-tier configuration's result.
#[derive(Clone, Debug)]
pub struct ThreeTierRun {
    /// Dispatchers behind the forwarder.
    pub dispatchers: usize,
    /// Aggregate throughput, tasks/sec.
    pub throughput: f64,
    /// Speedup over the single-dispatcher configuration.
    pub speedup: f64,
}

/// Drive `tasks` through `k` simulated dispatchers via a forwarder, in
/// bundles of 300; returns aggregate throughput (tasks/sec from
/// submission to the last completion).
pub fn run_three_tier(k: usize, tasks: u64, executors_per_dispatcher: u32) -> f64 {
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: executors_per_dispatcher,
        forwarder: Some(k),
        ..SimFalkonConfig::default()
    });
    let submit_at = 10_000_000; // after the pools registered
    sim.submit(
        submit_at,
        (0..tasks).map(|i| TaskSpec::sleep(i, 0)).collect(),
    );
    let out = sim.run_until_drained_with(drop);
    assert_eq!(out.tasks, tasks, "all tasks complete through the forwarder");
    tasks as f64 / ((out.makespan_us - submit_at) as f64 / 1e6)
}

/// Sweep dispatcher counts.
pub fn run(scale: Scale) -> Vec<ThreeTierRun> {
    let ks: &[usize] = scale.pick(&[1, 2, 4][..], &[1, 2, 4, 8][..]);
    let per_dispatcher_tasks = scale.pick(3_000u64, 10_000);
    let mut out: Vec<ThreeTierRun> = Vec::new();
    let mut base = 0.0;
    for &k in ks {
        let tput = run_three_tier(k, per_dispatcher_tasks * k as u64, 64);
        if k == 1 {
            base = tput;
        }
        out.push(ThreeTierRun {
            dispatchers: k,
            throughput: tput,
            speedup: tput / base,
        });
    }
    out
}

/// Render the 3-tier scaling table.
pub fn render(runs: &[ThreeTierRun]) -> String {
    let mut t = Table::new(
        "Extension: 3-tier architecture (Section 6) — aggregate dispatch throughput",
        &["Dispatchers", "Throughput (tasks/s)", "Speedup"],
    );
    for r in runs {
        t.row(vec![
            r.dispatchers.to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_dispatchers() {
        let runs = run(Scale::Quick);
        let one = runs.iter().find(|r| r.dispatchers == 1).unwrap();
        let four = runs.iter().find(|r| r.dispatchers == 4).unwrap();
        // Single dispatcher pinned at the 487/s bound; four ≈ 4×.
        assert!(
            (380.0..520.0).contains(&one.throughput),
            "1 dispatcher = {:.0}/s",
            one.throughput
        );
        assert!(
            four.speedup > 3.0,
            "4 dispatchers speedup = {:.2}",
            four.speedup
        );
    }

    #[test]
    fn forwarder_balances_load() {
        // With least-loaded routing and equal pools, no dispatcher should
        // starve: all complete their share.
        let tput = run_three_tier(3, 3_000, 32);
        assert!(tput > 1_000.0, "aggregate = {tput:.0}/s");
    }
}
