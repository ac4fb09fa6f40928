//! Figure 6 (Falkon efficiency vs executor count × task length) and
//! Figure 7 (efficiency on 64 processors vs task length for Falkon, PBS,
//! Condor v6.7.2, and the derived Condor v6.9.3 curve).

use crate::costs::CostModel;
use crate::experiments::Scale;
use crate::lrmdirect::run_direct;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_lrm::profile::{CONDOR_V6_7_2, PBS_V2_1_8};
use falkon_proto::task::TaskSpec;
use falkon_sim::table::series_tsv;

/// Efficiency of one Falkon configuration: `ideal_time / actual_time`
/// where `ideal = ⌈n/P⌉ × task_length` (the paper's speedup definition
/// reduces to this for this workload shape).
fn falkon_efficiency(executors: u32, task_secs: u64, tasks_per_executor: u64) -> f64 {
    let n = executors as u64 * tasks_per_executor;
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors,
        ..SimFalkonConfig::default()
    });
    // Warm-up: the paper's executors are registered before measurements
    // begin; submit after the registration flood has drained.
    let submit_at: u64 = 10_000_000;
    sim.submit(
        submit_at,
        (0..n).map(|i| TaskSpec::sleep(i, task_secs)).collect(),
    );
    let ideal_us = n.div_ceil(executors as u64) * task_secs * 1_000_000;
    let measured = sim.run_until_drained_with(drop).makespan_us - submit_at;
    (ideal_us as f64 / measured as f64).min(1.0)
}

/// One Figure 6 cell.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// Executor count.
    pub executors: u32,
    /// Task length, seconds.
    pub task_secs: u64,
    /// Efficiency in `[0, 1]`.
    pub efficiency: f64,
}

/// Run the Figure 6 sweep: one independent simulation per cell.
pub fn fig6(scale: Scale) -> Vec<Fig6Point> {
    let counts: &[u32] = scale.pick(&[1, 16, 256][..], &[1, 2, 4, 8, 16, 32, 64, 128, 256][..]);
    let lengths: &[u64] = scale.pick(&[1, 8, 64][..], &[1, 2, 4, 8, 16, 32, 64][..]);
    counts
        .iter()
        .flat_map(|&executors| {
            lengths.iter().map(move |&task_secs| Fig6Point {
                executors,
                task_secs,
                efficiency: falkon_efficiency(executors, task_secs, 40),
            })
        })
        .collect()
}

/// Render Figure 6 as TSV (one series per task length).
pub fn render_fig6(points: &[Fig6Point]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 6: Efficiency for various task length and executors ==\n");
    let mut lengths: Vec<u64> = points.iter().map(|p| p.task_secs).collect();
    lengths.sort_unstable();
    lengths.dedup();
    for len in lengths {
        let series: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.task_secs == len)
            .map(|p| (p.executors as f64, p.efficiency * 100.0))
            .collect();
        out.push_str(&series_tsv(
            &format!("{len} s tasks"),
            "executors",
            "efficiency %",
            &series,
        ));
    }
    out
}

/// One Figure 7 sample: efficiency of each system at one task length.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    /// Task length, seconds.
    pub task_secs: u64,
    /// Falkon (simulated, no security).
    pub falkon: f64,
    /// PBS v2.1.8 (modelled).
    pub pbs: f64,
    /// Condor v6.7.2 (modelled).
    pub condor672: f64,
    /// Condor v6.9.3 (derived from 11 tasks/sec, as the paper does).
    pub condor693_derived: f64,
}

/// Run the Figure 7 sweep: 64 tasks on 64 processors (32 dual-CPU nodes).
pub fn fig7(scale: Scale) -> Vec<Fig7Point> {
    let lengths: &[u64] = scale.pick(
        &[1, 64, 1_200, 16_384][..],
        &[
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384,
        ][..],
    );
    let n: u64 = 64;
    let procs: u32 = 64;
    lengths
        .iter()
        .map(|&len| {
            let ideal_us = n.div_ceil(procs as u64) * len * 1_000_000;
            // Falkon (warm pool, like the paper's pre-registered executors).
            let mut sim = SimFalkon::new(SimFalkonConfig {
                executors: procs,
                costs: CostModel::no_security(),
                ..SimFalkonConfig::default()
            });
            let submit_at: u64 = 10_000_000;
            sim.submit(submit_at, (0..n).map(|i| TaskSpec::sleep(i, len)).collect());
            let measured = sim.run_until_drained_with(drop).makespan_us - submit_at;
            let falkon = (ideal_us as f64 / measured as f64).min(1.0);
            // PBS / Condor: every task is a batch job.
            let pbs_run = run_direct(PBS_V2_1_8, procs, n, len * 1_000_000);
            let pbs = (ideal_us as f64 / pbs_run.makespan_us as f64).min(1.0);
            let condor_run = run_direct(CONDOR_V6_7_2, procs, n, len * 1_000_000);
            let condor672 = (ideal_us as f64 / condor_run.makespan_us as f64).min(1.0);
            // Condor v6.9.3: derived exactly as the paper derives it — the
            // 0.0909 s/task dispatch cost is serial, so a wave of 64 tasks
            // pays 64 × 0.0909 s before the last one starts (matches the
            // paper's 90%/95%/99% at 50/100/1000 s).
            let overhead = 64.0 * (1.0 / 11.0);
            let condor693_derived = len as f64 / (len as f64 + overhead);
            Fig7Point {
                task_secs: len,
                falkon,
                pbs,
                condor672,
                condor693_derived,
            }
        })
        .collect()
}

/// Render Figure 7 as TSV series.
pub fn render_fig7(points: &[Fig7Point]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 7: Efficiency on 64 processors vs task length ==\n");
    let series = |name: &str, f: fn(&Fig7Point) -> f64| {
        series_tsv(
            name,
            "task length (s)",
            "efficiency %",
            &points
                .iter()
                .map(|p| (p.task_secs as f64, f(p) * 100.0))
                .collect::<Vec<_>>(),
        )
    };
    out.push_str(&series("Falkon", |p| p.falkon));
    out.push_str(&series("Condor v6.9.3 (derived)", |p| p.condor693_derived));
    out.push_str(&series("Condor v6.7.2", |p| p.condor672));
    out.push_str(&series("PBS v2.1.8", |p| p.pbs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_high_efficiency_for_short_tasks() {
        let pts = fig6(Scale::Quick);
        // Worst case in the paper: 1 s tasks on 256 executors ≥ ~95%.
        let worst = pts
            .iter()
            .filter(|p| p.task_secs == 1)
            .map(|p| p.efficiency)
            .fold(1.0, f64::min);
        assert!(worst > 0.88, "worst 1 s efficiency = {worst:.3}");
        // 64 s tasks essentially perfect.
        let best = pts
            .iter()
            .filter(|p| p.task_secs == 64)
            .map(|p| p.efficiency)
            .fold(1.0, f64::min);
        assert!(best > 0.98, "64 s efficiency = {best:.3}");
    }

    #[test]
    fn fig7_orderings_match_paper() {
        let pts = fig7(Scale::Quick);
        let at = |len: u64| *pts.iter().find(|p| p.task_secs == len).unwrap();
        // 1 s tasks: Falkon ≈95%, PBS/Condor < 5%.
        let p1 = at(1);
        assert!(p1.falkon > 0.75, "falkon@1s = {:.3}", p1.falkon);
        assert!(p1.pbs < 0.05, "pbs@1s = {:.3}", p1.pbs);
        assert!(p1.condor672 < 0.05, "condor@1s = {:.3}", p1.condor672);
        // ≈1,200 s tasks: PBS around 90%.
        let p1200 = at(1_200);
        assert!(
            (0.80..1.0).contains(&p1200.pbs),
            "pbs@1200s = {:.3}",
            p1200.pbs
        );
        // 16,384 s tasks: everyone ≈99%.
        let p16k = at(16_384);
        assert!(p16k.pbs > 0.97 && p16k.condor672 > 0.97 && p16k.falkon > 0.99);
        // Derived Condor 6.9.3 hits 90% near 50 s tasks (paper's numbers).
        let derived_50 = 50.0 / (50.0 + 64.0 / 11.0);
        assert!((0.88..0.92).contains(&derived_50));
    }
}
