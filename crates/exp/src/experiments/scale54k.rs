//! Figures 9 and 10: scalability with 54,000 executors.
//!
//! The paper runs 900 executors on each of 60 machines (54,000 total, far
//! above the 1:1 executor-per-CPU norm), submits 54,000 `sleep 480` tasks
//! (one per executor), and shows (Fig. 9) the busy-executor count ramping
//! to 54 K in 408 s with dispatch rate equal to submit rate, ≈60 tasks/sec
//! overall including ramp-up/down; and (Fig. 10) per-task overhead mostly
//! below 200 ms with a 1.3 s maximum (inflated because 900 executors share
//! each machine).

use crate::costs::CostModel;
use crate::experiments::Scale;
use crate::simfalkon::{SimFalkon, SimFalkonConfig, SimOutcome};
use falkon_core::dispatcher::TaskRecord;
use falkon_core::DispatcherConfig;
use falkon_proto::task::TaskSpec;
use falkon_sim::table::series_tsv;

/// Beyond-paper arm (`Scale::Full` only): the identical workload at
/// 100,000 executors, roughly 2× the paper's headline scale and the size
/// ROADMAP items 3–4 simulate at. Only the scalar summary is kept — the
/// paper figures stay pinned to the 54K run.
#[derive(Clone, Debug)]
pub(crate) struct Beyond100k {
    /// Executors (= tasks).
    executors: u32,
    /// Time for the busy-executor count to reach its maximum, s.
    ramp_up_s: f64,
    /// Total run time, s.
    duration_s: f64,
    /// Overall throughput including ramp up/down, tasks/sec.
    overall_tps: f64,
}

/// Figures 9+10 result.
#[derive(Clone, Debug)]
pub(crate) struct Scale54k {
    /// Executors (= tasks).
    executors: u32,
    /// Time for the busy-executor count to reach its maximum, s.
    ramp_up_s: f64,
    /// Total run time, s.
    duration_s: f64,
    /// Overall throughput including ramp up/down, tasks/sec.
    overall_tps: f64,
    /// Busy executors over time.
    busy_series: Vec<(f64, f64)>,
    /// Per-task overhead histogram (executor handling time − payload), ms.
    overhead_hist_ms: Vec<(u64, usize)>,
    /// Fraction of tasks with overhead ≤ 200 ms.
    frac_under_200ms: f64,
    /// Maximum observed overhead, ms.
    max_overhead_ms: u64,
    /// 100K-executor arm, run at `Scale::Full` only.
    beyond: Option<Beyond100k>,
}

fn emulation_config(executors: u32) -> SimFalkonConfig {
    SimFalkonConfig {
        executors,
        executors_per_node: 900,
        costs: CostModel::emulation(),
        // Piggy-backing is irrelevant here (one task per executor), and the
        // paper disabled everything except client→dispatcher bundling.
        dispatcher: DispatcherConfig {
            piggyback: false,
            client_notify_batch: 100_000,
            ..DispatcherConfig::default()
        },
        sample_interval_us: 1_000_000,
        seed: 7,
        ..SimFalkonConfig::default()
    }
}

/// One task of `task_secs` per executor through a pool of `executors`,
/// each record handed to `each`. The deployment is gone when this returns:
/// a pool of this size is ≈620 B per executor at its peak — its 120-byte
/// machine, its 57-byte `running` slot (the tasks share their bundle's
/// spec), its timers, its `Work` in flight — so tens of MB, and the two
/// arms run one after the other, never side by side.
fn emulate(executors: u32, task_secs: u64, each: impl FnMut(TaskRecord)) -> SimOutcome {
    let mut sim = SimFalkon::new(emulation_config(executors));
    sim.submit_stream(
        0,
        (0..executors).map(move |i| TaskSpec::sleep(i as u64, task_secs)),
    );
    sim.run_until_drained_with(each)
}

/// Time for the busy-executor count to reach its maximum, s.
fn ramp_up_s(out: &SimOutcome) -> f64 {
    let peak = out.busy_series.max_value();
    out.busy_series
        .points()
        .iter()
        .find(|&&(_, v)| v >= peak * 0.999)
        .map(|&(t, _)| t.as_secs_f64())
        .unwrap_or(0.0)
}

/// The beyond-paper 100K arm. Same workload shape as the 54K emulation;
/// only feasible interactively now that the event core is a timer wheel
/// (the binary heap paid a cache-missing O(log n) per event with 100K
/// timers outstanding).
fn run_beyond_100k(task_secs: u64) -> Beyond100k {
    let executors: u32 = 100_000;
    let out = emulate(executors, task_secs, drop);
    Beyond100k {
        executors,
        ramp_up_s: ramp_up_s(&out),
        duration_s: out.makespan_us as f64 / 1e6,
        overall_tps: out.throughput,
    }
}

/// Run the 54 K-executor experiment.
pub fn run(scale: Scale) -> Scale54k {
    let executors: u32 = scale.pick(5_400, 54_000);
    let task_secs: u64 = scale.pick(48, 480);
    // Figure 10 prints exact counts, so it keeps its samples (one per
    // executor) instead of going through the bucketed `Histogram`.
    let mut overhead_ms: Vec<u64> = Vec::with_capacity(executors as usize);
    let out = emulate(executors, task_secs, |r| {
        let overhead_us = r
            .result
            .executor_time_us
            .saturating_sub(task_secs * 1_000_000);
        overhead_ms.push(overhead_us / 1_000);
    });
    let ramp_up_s = ramp_up_s(&out);
    let under_200ms = overhead_ms.iter().filter(|&&ms| ms <= 200).count();
    let frac_under_200ms = under_200ms as f64 / overhead_ms.len().max(1) as f64;
    let max_overhead_ms = overhead_ms.iter().copied().max().unwrap_or(0);

    Scale54k {
        executors,
        ramp_up_s,
        duration_s: out.makespan_us as f64 / 1e6,
        overall_tps: out.throughput,
        busy_series: out
            .busy_series
            .thin(400)
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect(),
        overhead_hist_ms: bins(&overhead_ms, 26),
        frac_under_200ms,
        max_overhead_ms,
        beyond: match scale {
            Scale::Quick => None,
            Scale::Full => Some(run_beyond_100k(task_secs)),
        },
    }
}

/// Bucket `samples` into `n` equal-width bins over `[min, max]`, returning
/// `(bucket_upper_bound, count)` pairs: the Figure 10 overhead distribution.
fn bins(samples: &[u64], n: usize) -> Vec<(u64, usize)> {
    let (Some(&lo), Some(&max)) = (samples.iter().min(), samples.iter().max()) else {
        return Vec::new();
    };
    let hi = max.max(lo + 1);
    let width = ((hi - lo) as f64 / n as f64).max(1.0);
    let mut counts = vec![0usize; n];
    for &s in samples {
        let idx = (((s - lo) as f64 / width) as usize).min(n - 1);
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + ((i + 1) as f64 * width) as u64, c))
        .collect()
}

/// Render Figures 9 and 10.
pub fn render(s: &Scale54k) -> String {
    let mut out = String::new();
    out.push_str("== Figure 9: Falkon scalability with 54K executors ==\n");
    out.push_str(&format!(
        "executors={}  ramp-up={:.0}s  duration={:.0}s  overall={:.1} tasks/s\n",
        s.executors, s.ramp_up_s, s.duration_s, s.overall_tps
    ));
    out.push_str(&series_tsv(
        "busy executors",
        "t (s)",
        "executors",
        &s.busy_series,
    ));
    out.push_str("== Figure 10: Task overhead with 54K executors ==\n");
    out.push_str(&format!(
        "overhead ≤200 ms: {:.1}%   max: {} ms\n",
        s.frac_under_200ms * 100.0,
        s.max_overhead_ms
    ));
    out.push_str("bucket_upper_ms\ttasks\n");
    for &(upper, count) in &s.overhead_hist_ms {
        out.push_str(&format!("{upper}\t{count}\n"));
    }
    if let Some(b) = &s.beyond {
        out.push_str("== Beyond the paper: 100K executors (full scale only) ==\n");
        out.push_str(&format!(
            "executors={}  ramp-up={:.0}s  duration={:.0}s  overall={:.1} tasks/s\n",
            b.executors, b.ramp_up_s, b.duration_s, b.overall_tps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_samples() {
        let samples: Vec<u64> = (0..1000).collect();
        let b = bins(&samples, 10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.iter().map(|&(_, c)| c).sum::<usize>(), 1000);
        assert!(b.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(b[9].0, 999, "the last bin ends at the maximum");
        assert!(bins(&[], 4).is_empty());
    }

    #[test]
    fn quick_run_has_paper_shape() {
        let s = run(Scale::Quick);
        assert_eq!(s.executors, 5_400);
        // The 100K arm is Full-only: quick runs (and tests) skip it.
        assert!(s.beyond.is_none());
        // Ramp-up must be visible and shorter than the task length.
        assert!(
            s.ramp_up_s > 1.0 && s.ramp_up_s < 48.0,
            "ramp = {}",
            s.ramp_up_s
        );
        // Majority of overheads below 200 ms, cap respected.
        assert!(
            s.frac_under_200ms > 0.6,
            "under200 = {}",
            s.frac_under_200ms
        );
        assert!(s.max_overhead_ms <= 1_300);
        // Overall throughput includes ramp and drain phases.
        assert!(s.overall_tps > 10.0);
    }
}
