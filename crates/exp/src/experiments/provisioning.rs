//! The dynamic resource provisioning study: Figure 11 (workload), Tables 3
//! and 4 (per-task times, utilization, efficiency, allocations), and
//! Figures 12–13 (executor lifecycle traces for Falkon-15 / Falkon-180).
//!
//! Six configurations, exactly as Section 4.6:
//! * **GRAM4+PBS** — every task is a separate GRAM4 job (≈100 nodes free);
//! * **Falkon-15/60/120/180** — provisioner bounded at 32 executors,
//!   all-at-once acquisition, distributed idle release after 15/60/120/180 s;
//! * **Falkon-∞** — a static pool of 32 held for the whole run;
//! * plus the ideal 32-node execution as reference.

use crate::costs::CostModel;
use crate::experiments::Scale;
use crate::lrm::gram;
use crate::lrm::profile::PBS_V2_1_8;
use crate::providers::{FalkonProvider, GramProvider};
use crate::simfalkon::SimFalkonConfig;
use crate::workflow::apps::synthetic;
use crate::workflow::engine::WorkflowEngine;
use falkon_core::executor::ExecutorConfig;
use falkon_core::policy::{AcquisitionPolicy, ProvisionerPolicy, ReleasePolicy};
use falkon_sim::table::{pct, series_tsv, Table};

/// One provisioning configuration's results (a column of Tables 3/4).
#[derive(Clone, Debug)]
pub struct ProvisioningRun {
    /// Configuration label.
    pub label: String,
    /// Average per-task queue time, s.
    pub avg_queue_s: f64,
    /// Average per-task execution time, s.
    pub avg_exec_s: f64,
    /// Time to complete all 18 stages, s.
    pub time_to_complete_s: f64,
    /// Resource utilization (used / (used + wasted)).
    pub resource_utilization: f64,
    /// Execution efficiency (ideal time / actual time).
    pub exec_efficiency: f64,
    /// First-level resource allocations.
    allocations: u64,
    /// Executor lifecycle traces (for Figures 12/13), when collected:
    /// (t, allocated, registered, active).
    trace: Vec<(f64, f64, f64, f64)>,
}

impl ProvisioningRun {
    /// `exec / (exec + queue)` — the "Execution Time %" row of Table 3.
    pub(crate) fn exec_time_fraction(&self) -> f64 {
        self.avg_exec_s / (self.avg_exec_s + self.avg_queue_s)
    }
}

fn ideal_time_s() -> f64 {
    synthetic::ideal_makespan_secs(32) as f64
}

fn falkon_config(idle_release_s: Option<u64>) -> SimFalkonConfig {
    let policy = ProvisionerPolicy {
        min_executors: 0,
        max_executors: 32,
        acquisition: AcquisitionPolicy::AllAtOnce,
        release: ReleasePolicy::DistributedIdle,
        allocation_duration_us: 3_600_000_000,
        poll_interval_us: 1_000_000,
    };
    let provisioned = idle_release_s.is_some();
    SimFalkonConfig {
        executors: if provisioned { 0 } else { 32 },
        executors_per_node: 1,
        executor: ExecutorConfig {
            idle_release_us: idle_release_s.map(|s| s * 1_000_000),
            prefetch: false,
        },
        provisioner: provisioned.then_some((policy, PBS_V2_1_8, 100)),
        costs: CostModel::no_security(),
        sample_interval_us: 1_000_000,
        ..SimFalkonConfig::default()
    }
}

/// Run one Falkon provisioning configuration over the synthetic workload.
fn run_falkon(label: &str, idle_release_s: Option<u64>) -> ProvisioningRun {
    let dag = synthetic::dag();
    let mut provider = FalkonProvider::new(falkon_config(idle_release_s));
    let report = WorkflowEngine::new().run(&dag, &mut provider);
    let out = provider.sim().outcome();
    let trace = build_trace(&out);
    ProvisioningRun {
        label: label.to_string(),
        avg_queue_s: out.avg_queue_us / 1e6,
        avg_exec_s: out.avg_exec_us / 1e6,
        time_to_complete_s: report.makespan_s(),
        resource_utilization: out.resource_utilization(),
        exec_efficiency: (ideal_time_s() / report.makespan_s()).min(1.0),
        allocations: out.allocations,
        trace,
    }
}

fn build_trace(out: &crate::simfalkon::SimOutcome) -> Vec<(f64, f64, f64, f64)> {
    let reg = out.registered_series.points();
    let busy = out.busy_series.points();
    let alloc = out.allocated_series.points();
    (0..reg.len().min(busy.len()).min(alloc.len()))
        .map(|i| (reg[i].0.as_secs_f64(), alloc[i].1, reg[i].1, busy[i].1))
        .collect()
}

/// Run the GRAM4+PBS baseline over the synthetic workload.
fn run_gram() -> ProvisioningRun {
    let dag = synthetic::dag();
    let mut provider = GramProvider::new(PBS_V2_1_8, 100);
    let report = WorkflowEngine::new().run(&dag, &mut provider);
    let (avg_queue_s, avg_exec_s, wasted_s) = gram_per_task_times(&dag, &report);
    let used_s = synthetic::total_cpu_secs() as f64;
    ProvisioningRun {
        label: "GRAM4+PBS".to_string(),
        avg_queue_s,
        avg_exec_s,
        time_to_complete_s: report.makespan_s(),
        resource_utilization: used_s / (used_s + wasted_s),
        exec_efficiency: (ideal_time_s() / report.makespan_s()).min(1.0),
        allocations: dag.len() as u64, // one GRAM allocation per task
        trace: Vec::new(),
    }
}

/// Approximate the GRAM-visible queue/exec decomposition: the visible
/// execution time is payload + GRAM done-delay − active-delay; everything
/// else between readiness and completion is queueing.
fn gram_per_task_times(
    dag: &crate::workflow::dag::Dag,
    report: &crate::workflow::engine::RunReport,
) -> (f64, f64, f64) {
    let visible_overhead_s = (gram::DONE_DELAY_US - gram::ACTIVE_DELAY_US) as f64 / 1e6;
    let n = dag.len() as f64;
    let mut queue_sum = 0.0;
    let mut exec_sum = 0.0;
    // Ready time of each node = max finish of its predecessors.
    let finish: std::collections::HashMap<_, _> = report.finish_us.iter().copied().collect();
    for node in dag.nodes() {
        let ready_us = dag.preds(node).iter().map(|p| finish[p]).max().unwrap_or(0);
        let done_us = finish[&node];
        let runtime_s = dag.task(node).runtime_us as f64 / 1e6;
        let exec_visible = runtime_s + visible_overhead_s;
        let total = (done_us - ready_us) as f64 / 1e6;
        queue_sum += (total - exec_visible).max(0.0);
        exec_sum += exec_visible;
    }
    let wasted = visible_overhead_s * n;
    (queue_sum / n, exec_sum / n, wasted)
}

/// Run the ideal 32-node reference (zero-overhead Falkon on a static pool).
fn run_ideal() -> ProvisioningRun {
    let dag = synthetic::dag();
    let mut provider = FalkonProvider::new(SimFalkonConfig {
        executors: 32,
        executors_per_node: 1,
        costs: CostModel::ideal(),
        ..SimFalkonConfig::default()
    });
    let report = WorkflowEngine::new().run(&dag, &mut provider);
    let out = provider.sim().outcome();
    ProvisioningRun {
        label: "Ideal (32 nodes)".to_string(),
        avg_queue_s: out.avg_queue_us / 1e6,
        avg_exec_s: out.avg_exec_us / 1e6,
        time_to_complete_s: report.makespan_s(),
        resource_utilization: 1.0,
        exec_efficiency: 1.0,
        allocations: 0,
        trace: Vec::new(),
    }
}

/// One provisioning arm of the sweep (a column of Tables 3/4).
enum Arm {
    Gram,
    Falkon { label: String, idle_s: Option<u64> },
    Ideal,
}

/// All six configurations plus the ideal reference, each an independent
/// simulation, in arm order.
pub fn run_all(scale: Scale) -> Vec<ProvisioningRun> {
    let mut arms = vec![Arm::Gram];
    let idle_settings: &[u64] = scale.pick(&[15, 180][..], &[15, 60, 120, 180][..]);
    for &idle in idle_settings {
        arms.push(Arm::Falkon {
            label: format!("Falkon-{idle}"),
            idle_s: Some(idle),
        });
    }
    arms.push(Arm::Falkon {
        label: "Falkon-inf".to_string(),
        idle_s: None,
    });
    arms.push(Arm::Ideal);
    arms.into_iter()
        .map(|arm| match arm {
            Arm::Gram => run_gram(),
            Arm::Falkon { label, idle_s } => run_falkon(&label, idle_s),
            Arm::Ideal => run_ideal(),
        })
        .collect()
}

/// Render Figure 11 (the workload itself).
pub(crate) fn render_fig11() -> String {
    let mut out = String::new();
    out.push_str("== Figure 11: The 18-stage synthetic workload ==\n");
    out.push_str(&format!(
        "total tasks = {}   total CPU = {} s   ideal on 32 machines = {} s\n",
        synthetic::total_tasks(),
        synthetic::total_cpu_secs(),
        synthetic::ideal_makespan_secs(32)
    ));
    let mut t = Table::new(
        "",
        &["stage", "tasks", "task length (s)", "machines (cap 32)"],
    );
    let machines = synthetic::machines_per_stage(32);
    for (i, &(n, r)) in synthetic::STAGES.iter().enumerate() {
        t.row(vec![
            format!("{}", i + 1),
            n.to_string(),
            r.to_string(),
            machines[i].to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render Table 3.
pub(crate) fn render_table3(runs: &[ProvisioningRun]) -> String {
    let mut t = Table::new(
        "Table 3: Average per-task queue and execution times (synthetic workload)",
        &["Config", "Queue (s)", "Exec (s)", "Exec %"],
    );
    for r in runs {
        t.row(vec![
            r.label.clone(),
            format!("{:.1}", r.avg_queue_s),
            format!("{:.1}", r.avg_exec_s),
            pct(r.exec_time_fraction()),
        ]);
    }
    t.render()
}

/// Render Table 4.
pub(crate) fn render_table4(runs: &[ProvisioningRun]) -> String {
    let mut t = Table::new(
        "Table 4: Overall resource utilization and execution efficiency",
        &[
            "Config",
            "Time to complete (s)",
            "Resource utilization",
            "Execution efficiency",
            "Allocations",
        ],
    );
    for r in runs {
        t.row(vec![
            r.label.clone(),
            format!("{:.0}", r.time_to_complete_s),
            pct(r.resource_utilization),
            pct(r.exec_efficiency),
            r.allocations.to_string(),
        ]);
    }
    t.render()
}

/// Render a Figure 12/13-style executor lifecycle trace.
pub(crate) fn render_trace(run: &ProvisioningRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== Executor lifecycle trace: {} (Figures 12/13 style) ==\n",
        run.label
    ));
    out.push_str(&series_tsv(
        "allocated (starting)",
        "t (s)",
        "executors",
        &run.trace
            .iter()
            .map(|&(t, a, _, _)| (t, a))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&series_tsv(
        "registered",
        "t (s)",
        "executors",
        &run.trace
            .iter()
            .map(|&(t, _, r, _)| (t, r))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&series_tsv(
        "active",
        "t (s)",
        "executors",
        &run.trace
            .iter()
            .map(|&(t, _, _, b)| (t, b))
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_study_matches_paper_ordering() {
        let runs = run_all(Scale::Quick);
        let get = |label: &str| runs.iter().find(|r| r.label.starts_with(label)).unwrap();

        let gram = get("GRAM4+PBS");
        let f15 = get("Falkon-15");
        let f180 = get("Falkon-180");
        let finf = get("Falkon-inf");
        let ideal = get("Ideal");

        // Table 3: GRAM queue time an order of magnitude above Falkon's.
        assert!(
            gram.avg_queue_s > 4.0 * f15.avg_queue_s,
            "gram queue = {:.0}, falkon-15 queue = {:.0}",
            gram.avg_queue_s,
            f15.avg_queue_s
        );
        // Falkon exec time near the 17.8 s ideal; GRAM's far above it.
        assert!(
            (17.0..20.0).contains(&f15.avg_exec_s),
            "falkon exec = {:.1}",
            f15.avg_exec_s
        );
        assert!(gram.avg_exec_s > 40.0, "gram exec = {:.1}", gram.avg_exec_s);

        // Longer idle release ⇒ shorter completion, lower utilization.
        assert!(f180.time_to_complete_s <= f15.time_to_complete_s);
        assert!(f15.resource_utilization > f180.resource_utilization);
        assert!(f180.resource_utilization > finf.resource_utilization);

        // Falkon-∞ close to ideal completion; GRAM far above.
        assert!(finf.time_to_complete_s < 1.25 * ideal.time_to_complete_s);
        assert!(gram.time_to_complete_s > 2.0 * ideal.time_to_complete_s);

        // Allocation counts: 1000 for GRAM, ≤ a dozen for Falkon-15, 0 for ∞.
        assert_eq!(gram.allocations, 1_000);
        assert!(
            f15.allocations >= 1 && f15.allocations <= 30,
            "allocs = {}",
            f15.allocations
        );
        assert_eq!(finf.allocations, 0);

        // Figure 12/13 traces exist for provisioned runs.
        assert!(!f15.trace.is_empty());
    }

    #[test]
    fn fig11_renders() {
        let s = render_fig11();
        assert!(s.contains("1000"));
        assert!(s.contains("17820"));
    }
}
