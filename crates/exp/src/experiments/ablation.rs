//! Ablation experiments for Falkon's design choices and Section 6
//! extensions that the paper proposes but does not evaluate:
//!
//! * **data diffusion** — executor-side data caching plus the data-aware
//!   dispatcher, on a workload with data reuse;
//! * **acquisition policies** — the five Section 3.1 strategies over the
//!   18-stage synthetic workload (the paper only evaluates all-at-once and
//!   predicts one-at-a-time "would have been less close to ideal");
//! * **pre-fetching** — overlap of communication and execution on a
//!   high-latency (wide-area) link.

use crate::costs::CostModel;
use crate::experiments::Scale;
use crate::providers::FalkonProvider;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_core::executor::ExecutorConfig;
use falkon_core::policy::{AcquisitionPolicy, ProvisionerPolicy, ReleasePolicy};
use falkon_core::DispatcherConfig;
use falkon_lrm::profile::PBS_V2_1_8;
use falkon_proto::task::{DataAccess, DataLocation, TaskSpec};
use falkon_sim::table::Table;
use falkon_workflow::apps::synthetic;
use falkon_workflow::engine::WorkflowEngine;

// ---------------------------------------------------------------------------
// Data diffusion
// ---------------------------------------------------------------------------

/// One arm of the data-diffusion ablation.
#[derive(Clone, Debug)]
pub(crate) struct DataDiffusionArm {
    /// Arm label.
    label: &'static str,
    /// Makespan, s.
    makespan_s: f64,
    /// Aggregate throughput, tasks/s.
    throughput: f64,
    /// Dispatcher-recorded data-locality hits.
    locality_hits: u64,
}

/// A workload with heavy data reuse: `objects` shared 10 MB GPFS files,
/// each read by `reuse` tasks.
fn reuse_workload(objects: u64, reuse: u64) -> Vec<TaskSpec> {
    let mut tasks = Vec::with_capacity((objects * reuse) as usize);
    let mut id = 0;
    // Interleave objects so consecutive tasks touch different data — the
    // worst case for implicit locality, the best showcase for explicit.
    for round in 0..reuse {
        for obj in 0..objects {
            let _ = round;
            tasks.push(TaskSpec::sleep(id, 0).with_object(
                obj,
                10 << 20,
                DataLocation::SharedFs,
                DataAccess::Read,
            ));
            id += 1;
        }
    }
    tasks
}

/// Run the three data-diffusion arms.
pub(crate) fn data_diffusion(scale: Scale) -> Vec<DataDiffusionArm> {
    let objects = scale.pick(32, 64);
    let reuse = scale.pick(10, 25);
    let mut out = Vec::new();
    for (label, caching, aware) in [
        ("baseline (GPFS every read)", false, false),
        ("executor caching", true, false),
        ("caching + data-aware dispatch", true, true),
    ] {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 64,
            executors_per_node: 2,
            data_caching: caching,
            dispatcher: DispatcherConfig {
                data_aware: aware,
                data_aware_window: 256,
                client_notify_batch: 10_000,
                ..DispatcherConfig::default()
            },
            ..SimFalkonConfig::default()
        });
        sim.submit(0, reuse_workload(objects, reuse));
        let o = sim.run_until_drained();
        out.push(DataDiffusionArm {
            label,
            makespan_s: o.makespan_us as f64 / 1e6,
            throughput: o.throughput,
            locality_hits: sim.dispatcher_stats().data_locality_hits,
        });
    }
    out
}

/// Render the data-diffusion ablation.
pub(crate) fn render_data_diffusion(arms: &[DataDiffusionArm]) -> String {
    let mut t = Table::new(
        "Ablation: data diffusion (Section 6 extension) — shared 10 MB objects on GPFS",
        &[
            "Configuration",
            "Makespan (s)",
            "Throughput (tasks/s)",
            "Locality hits",
        ],
    );
    for a in arms {
        t.row(vec![
            a.label.to_string(),
            format!("{:.0}", a.makespan_s),
            format!("{:.1}", a.throughput),
            a.locality_hits.to_string(),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Acquisition policies
// ---------------------------------------------------------------------------

/// One acquisition-policy run.
#[derive(Clone, Debug)]
pub(crate) struct AcquisitionRun {
    /// Policy label.
    label: String,
    /// Time to complete the synthetic workload, s.
    time_to_complete_s: f64,
    /// Allocation requests issued.
    allocations: u64,
    /// Resource utilization.
    utilization: f64,
}

/// Run the synthetic workload under each acquisition policy.
pub(crate) fn acquisition_policies(_scale: Scale) -> Vec<AcquisitionRun> {
    let policies: [(&str, AcquisitionPolicy); 5] = [
        ("all-at-once", AcquisitionPolicy::AllAtOnce),
        ("one-at-a-time", AcquisitionPolicy::OneAtATime),
        (
            "additive (+4)",
            AcquisitionPolicy::Additive { base: 4, step: 4 },
        ),
        ("exponential", AcquisitionPolicy::Exponential { base: 1 }),
        ("available-aware", AcquisitionPolicy::AvailableAware),
    ];
    policies
        .iter()
        .map(|(label, acquisition)| {
            let mut provider = FalkonProvider::new(SimFalkonConfig {
                executors: 0,
                executors_per_node: 1,
                executor: ExecutorConfig {
                    idle_release_us: Some(60_000_000),
                    prefetch: false,
                },
                provisioner: Some((
                    ProvisionerPolicy {
                        min_executors: 0,
                        max_executors: 32,
                        acquisition: *acquisition,
                        release: ReleasePolicy::DistributedIdle,
                        allocation_duration_us: 3_600_000_000,
                        poll_interval_us: 1_000_000,
                    },
                    PBS_V2_1_8,
                    100,
                )),
                costs: CostModel::no_security(),
                ..SimFalkonConfig::default()
            });
            let report = WorkflowEngine::new().run(&synthetic::dag(), &mut provider);
            let out = provider.sim().outcome();
            AcquisitionRun {
                label: label.to_string(),
                time_to_complete_s: report.makespan_s(),
                allocations: out.allocations,
                utilization: out.resource_utilization(),
            }
        })
        .collect()
}

/// Render the acquisition-policy ablation.
pub(crate) fn render_acquisition(runs: &[AcquisitionRun]) -> String {
    let mut t = Table::new(
        "Ablation: resource acquisition policies (synthetic workload, idle release 60 s)",
        &[
            "Policy",
            "Time to complete (s)",
            "Allocations",
            "Utilization",
        ],
    );
    for r in runs {
        t.row(vec![
            r.label.clone(),
            format!("{:.0}", r.time_to_complete_s),
            r.allocations.to_string(),
            format!("{:.0}%", r.utilization * 100.0),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Pre-fetching
// ---------------------------------------------------------------------------

/// One pre-fetch arm.
#[derive(Clone, Debug)]
pub(crate) struct PrefetchArm {
    /// Arm label.
    label: &'static str,
    /// Throughput, tasks/s.
    throughput: f64,
}

/// Pre-fetch ablation on a high-latency (50 ms one-way) link, where the
/// GetWork round-trip would otherwise idle the executor between tasks.
pub(crate) fn prefetch(scale: Scale) -> Vec<PrefetchArm> {
    let n = scale.pick(300u64, 2_000);
    let mut out = Vec::new();
    for (label, prefetch) in [("no pre-fetch", false), ("pre-fetch", true)] {
        let mut sim = SimFalkon::new(SimFalkonConfig {
            executors: 4,
            executor: ExecutorConfig {
                idle_release_us: None,
                prefetch,
            },
            costs: CostModel::wide_area(),
            ..SimFalkonConfig::default()
        });
        // 100 ms tasks: comparable to the round trip, so overlap matters.
        sim.submit(0, (0..n).map(|i| TaskSpec::sleep_us(i, 100_000)).collect());
        let o = sim.run_until_drained();
        out.push(PrefetchArm {
            label,
            throughput: o.throughput,
        });
    }
    out
}

/// Render the pre-fetch ablation.
pub(crate) fn render_prefetch(arms: &[PrefetchArm]) -> String {
    let mut t = Table::new(
        "Ablation: executor pre-fetching (Section 6 extension) — 100 ms tasks over a 50 ms WAN link, 4 executors",
        &["Configuration", "Throughput (tasks/s)"],
    );
    for a in arms {
        t.row(vec![a.label.to_string(), format!("{:.1}", a.throughput)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_diffusion_improves_monotonically() {
        let arms = data_diffusion(Scale::Quick);
        assert_eq!(arms.len(), 3);
        let base = &arms[0];
        let cached = &arms[1];
        let aware = &arms[2];
        // Caching alone barely helps under next-available dispatch: each
        // round lands tasks on arbitrary nodes, so almost every read is a
        // first touch for that node. (This is precisely the paper's §6
        // argument for a data-aware dispatcher.)
        assert!(cached.makespan_s <= base.makespan_s * 1.05);
        // Caching + data-aware dispatch is where the win appears.
        assert!(
            aware.makespan_s < base.makespan_s * 0.6,
            "aware {:.1}s vs base {:.1}s",
            aware.makespan_s,
            base.makespan_s
        );
        assert!(aware.locality_hits > 50, "hits = {}", aware.locality_hits);
        assert_eq!(base.locality_hits, 0);
    }

    #[test]
    fn one_at_a_time_is_worse_than_all_at_once() {
        let runs = acquisition_policies(Scale::Quick);
        let get = |l: &str| runs.iter().find(|r| r.label.starts_with(l)).unwrap();
        let all = get("all-at-once");
        let one = get("one-at-a-time");
        // The paper's prediction: many small requests through a ~0.5/s
        // GRAM+PBS path delay executor startup.
        assert!(one.allocations > all.allocations * 3);
        assert!(
            one.time_to_complete_s >= all.time_to_complete_s,
            "one-at-a-time {:.0}s vs all-at-once {:.0}s",
            one.time_to_complete_s,
            all.time_to_complete_s
        );
    }

    #[test]
    fn prefetch_overlaps_communication() {
        let arms = prefetch(Scale::Quick);
        let base = arms[0].throughput;
        let pre = arms[1].throughput;
        // Round trip ≈ dispatcher queueing + 2×50 ms; tasks are 100 ms.
        // Pre-fetching should recover most of the idle gap.
        assert!(
            pre > base * 1.3,
            "prefetch {pre:.1}/s vs baseline {base:.1}/s"
        );
    }
}
