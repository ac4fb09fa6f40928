//! Figure 8: the 2,000,000-task endurance run.
//!
//! The paper submits 2 M `sleep 0` tasks to a dispatcher with a 1.5 GB Java
//! heap and 64 executors on 32 machines. The queue grows to ≈1.5 M tasks,
//! the raw 1 Hz throughput samples burst at 400–500 tasks/sec with frequent
//! dips to 0 (JVM garbage collection), the 60 s moving average sits near
//! 298 tasks/sec, and the whole run takes 112 minutes. Our reproduction
//! enables the GC stall model and a rate-limited client so the same queue
//! dynamics appear.

use crate::costs::CostModel;
use crate::experiments::Scale;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::task::TaskSpec;
use falkon_sim::table::series_tsv;
use falkon_sim::TimeSeries;

/// Figure 8 result.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// Tasks completed.
    pub tasks: u64,
    /// Total run time, seconds.
    pub duration_s: f64,
    /// Mean throughput, tasks/sec.
    pub avg_throughput: f64,
    /// Peak queue length observed.
    pub peak_queue: f64,
    /// Queue length over time (sampled).
    pub queue_series: Vec<(f64, f64)>,
    /// Raw 1 Hz throughput samples.
    pub raw_throughput: Vec<(f64, f64)>,
    /// 60-sample moving average of the raw throughput.
    pub avg_series: Vec<(f64, f64)>,
    /// GC pauses taken.
    pub gc_pauses: u64,
}

/// Run the endurance experiment.
pub fn fig8(scale: Scale) -> Fig8 {
    let total: usize = scale.pick(120_000, 2_000_000);
    // The client outpaces the ≈300/s dispatch rate so the queue builds.
    let submit_rate = 1_250.0;
    // The GC pause grows with the live set (queue length); at quick scale
    // the queue never reaches the full run's ≈1.5 M tasks, so the per-task
    // pause cost is scaled up to keep the same heap-pressure dynamics.
    let costs = CostModel {
        gc_pause_per_queued_us: scale.pick(20.0, 2.0),
        ..CostModel::with_gc()
    };
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 64,
        executors_per_node: 2,
        costs,
        client_submit_rate: Some(submit_rate),
        sample_interval_us: 1_000_000,
        ..SimFalkonConfig::default()
    });
    // Streamed: the client makes each bundle as it sends it, so the 2 M
    // tasks never exist all at once.
    sim.submit_stream(0, (0..total).map(|i| TaskSpec::sleep(i as u64, 0)));
    // Raw throughput: completions per 1 s bucket, counted as they happen
    // (the run is 2 M records long; nothing else about them is read).
    let mut per_sec: Vec<f64> = Vec::new();
    let out = sim.run_until_drained_with(|r| {
        let sec = (r.completed_us / 1_000_000) as usize;
        if per_sec.len() <= sec {
            per_sec.resize(sec + 1, 0.0);
        }
        per_sec[sec] += 1.0;
    });
    let duration_s = out.makespan_us as f64 / 1e6;
    per_sec.resize(duration_s.ceil() as usize + 1, 0.0);
    let mut raw = TimeSeries::new();
    for (i, &v) in per_sec.iter().enumerate() {
        raw.push(falkon_sim::SimTime::from_secs(i as u64), v);
    }
    let avg_series: Vec<(f64, f64)> = raw
        .moving_average(60)
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();

    Fig8 {
        tasks: out.tasks,
        duration_s,
        avg_throughput: out.throughput,
        peak_queue: out.queue_series.max_value(),
        queue_series: out
            .queue_series
            .thin(600)
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect(),
        raw_throughput: raw
            .thin(600)
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect(),
        avg_series: avg_series.into_iter().step_by(10).collect(),
        gc_pauses: sim.gc_pauses(),
    }
}

/// Render Figure 8.
pub fn render_fig8(f: &Fig8) -> String {
    let mut out = String::new();
    out.push_str("== Figure 8: Long running test with 2M tasks ==\n");
    out.push_str(&format!(
        "tasks={}  duration={:.0}s ({:.0} min)  avg throughput={:.0} tasks/s  peak queue={:.0}  gc pauses={}\n",
        f.tasks,
        f.duration_s,
        f.duration_s / 60.0,
        f.avg_throughput,
        f.peak_queue,
        f.gc_pauses
    ));
    out.push_str(&series_tsv(
        "queue length",
        "t (s)",
        "tasks",
        &f.queue_series,
    ));
    out.push_str(&series_tsv(
        "raw throughput (1 s samples)",
        "t (s)",
        "tasks/s",
        &f.raw_throughput,
    ));
    out.push_str(&series_tsv(
        "moving average (60 s)",
        "t (s)",
        "tasks/s",
        &f.avg_series,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endurance_quick_matches_dynamics() {
        let f = fig8(Scale::Quick);
        assert_eq!(f.tasks, 120_000);
        // Queue builds while the client outpaces dispatch.
        assert!(f.peak_queue > 10_000.0, "peak queue = {}", f.peak_queue);
        // GC drags the average well below the 487/s burst bound.
        // At the quick scale the queue (and hence the GC live set) stays
        // far below the 1.5 M-task full run, so the drag is milder than the
        // paper's 298/s average; the full run reproduces that number.
        assert!(
            (230.0..420.0).contains(&f.avg_throughput),
            "avg = {:.0}",
            f.avg_throughput
        );
        assert!(f.gc_pauses > 10);
        // Raw samples must include bursts above the average.
        let max_raw = f.raw_throughput.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(max_raw > f.avg_throughput * 1.2, "max raw = {max_raw:.0}");
    }
}
