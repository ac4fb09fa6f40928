//! The 3-tier architecture experiment (paper Section 6, Figure 16).
//!
//! A forwarder splits a task stream across `k` independent dispatchers
//! (each bounded at the paper's ≈487 tasks/sec); aggregate throughput
//! should scale roughly linearly in `k` — the paper's proposed route to
//! "two or more orders of magnitude more executors" on BlueGene/P-class
//! machines. No dispatcher fails here: the forwarder's loss and
//! readmission handling is exercised over real sockets by
//! `tests/tcp_threetier.rs`.

use crate::experiments::Scale;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent};
use falkon_core::ids::InstanceId;
use falkon_proto::bundle::bundles;
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

/// Drive `tasks` through `k` simulated dispatchers via a forwarder;
/// returns aggregate throughput (tasks/sec over the whole run).
pub fn run_three_tier(k: usize, tasks: u64, executors_per_dispatcher: u32) -> f64 {
    let mut sims: Vec<SimFalkon> = (0..k)
        .map(|i| {
            SimFalkon::new(SimFalkonConfig {
                executors: executors_per_dispatcher,
                seed: 42 + i as u64,
                ..SimFalkonConfig::default()
            })
        })
        .collect();
    let mut fwd = Forwarder::new(k);
    let instance = InstanceId(1);

    // Client → forwarder: bundles of 300, routed least-loaded.
    let all: Vec<TaskSpec> = (0..tasks).map(|i| TaskSpec::sleep(i, 0)).collect();
    let mut actions = Vec::new();
    for chunk in bundles(all, 300) {
        fwd.on_event(
            0,
            ForwarderEvent::ClientSubmit {
                instance,
                tasks: chunk,
            },
            &mut actions,
        );
    }
    let submit_at = 10_000_000u64; // after the pools registered
    for act in actions.drain(..) {
        if let ForwarderAction::SubmitTo { dispatcher, tasks } = act {
            sims[dispatcher].submit(submit_at, tasks);
        }
    }

    // Lock-step virtual time across the dispatchers: always advance the
    // one with the earliest pending event, relaying completions through
    // the forwarder.
    let mut done = 0u64;
    let mut first = u64::MAX;
    let mut last = 0u64;
    while done < tasks {
        let next = sims
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.next_wakeup().map(|t| (t, i)))
            .min();
        let Some((t, i)) = next else { break };
        sims[i].advance_to(t);
        let completions = sims[i].drain_completions();
        if completions.is_empty() {
            continue;
        }
        for &(_, at) in &completions {
            first = first.min(at);
            last = last.max(at);
        }
        done += completions.len() as u64;
        let results = completions
            .iter()
            .map(|&(id, _)| falkon_proto::task::TaskResult::success(id))
            .collect();
        fwd.on_event(
            t,
            ForwarderEvent::DispatcherResults {
                dispatcher: i,
                results,
            },
            &mut actions,
        );
        actions.clear(); // client delivery is not on the measured path
    }
    assert_eq!(done, tasks, "all tasks complete through the forwarder");
    tasks as f64 / ((last.saturating_sub(submit_at)).max(1) as f64 / 1e6)
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
