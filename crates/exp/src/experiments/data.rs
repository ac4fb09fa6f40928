//! Figure 4: throughput as a function of data size on 64 nodes
//! (128 executors), for GPFS vs local disk × read vs read+write.

use crate::experiments::Scale;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::task::{DataAccess, DataLocation, TaskSpec};
use falkon_sim::table::series_tsv;

/// The four experiment arms of Figure 4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Arm {
    /// GPFS, read-only.
    GpfsRead,
    /// GPFS, read + write.
    GpfsReadWrite,
    /// Local disk, read-only.
    LocalRead,
    /// Local disk, read + write.
    LocalReadWrite,
}

impl Arm {
    /// All arms in paper order.
    pub const ALL: [Arm; 4] = [
        Arm::GpfsRead,
        Arm::GpfsReadWrite,
        Arm::LocalRead,
        Arm::LocalReadWrite,
    ];

    /// Display label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Arm::GpfsRead => "GPFS read",
            Arm::GpfsReadWrite => "GPFS read+write",
            Arm::LocalRead => "LOCAL read",
            Arm::LocalReadWrite => "LOCAL read+write",
        }
    }

    fn location(self) -> DataLocation {
        match self {
            Arm::GpfsRead | Arm::GpfsReadWrite => DataLocation::SharedFs,
            _ => DataLocation::LocalDisk,
        }
    }

    fn access(self) -> DataAccess {
        match self {
            Arm::GpfsRead | Arm::LocalRead => DataAccess::Read,
            _ => DataAccess::ReadWrite,
        }
    }
}

/// One Figure 4 sample.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig4Point {
    /// Which arm.
    arm: Arm,
    /// Data size per task, bytes.
    bytes: u64,
    /// Task throughput, tasks/sec.
    tasks_per_sec: f64,
    /// Data throughput, megabits/sec.
    mbps: f64,
}

/// Run the Figure 4 sweep.
pub(crate) fn fig4(scale: Scale) -> Vec<Fig4Point> {
    let sizes: &[u64] = scale.pick(
        &[1, 1 << 20, 1 << 30][..],
        &[
            1,
            1 << 10,
            1 << 17, // 128 KiB
            1 << 20,
            10 << 20,
            100 << 20,
            1 << 30,
        ][..],
    );
    let mut out = Vec::new();
    for &arm in &Arm::ALL {
        for &bytes in sizes {
            // Keep total moved data bounded: fewer tasks at large sizes.
            let tasks = match bytes {
                b if b <= 1 << 20 => scale.pick(1_500, 3_000),
                b if b <= 10 << 20 => scale.pick(256, 1_024),
                b if b <= 100 << 20 => 256,
                _ => 128,
            };
            let mut sim = SimFalkon::new(SimFalkonConfig {
                executors: 128,
                executors_per_node: 2,
                ..SimFalkonConfig::default()
            });
            let specs: Vec<TaskSpec> = (0..tasks)
                .map(|i| TaskSpec::sleep(i, 0).with_data(bytes, arm.location(), arm.access()))
                .collect();
            sim.submit(0, specs);
            let o = sim.run_until_drained();
            let secs = o.makespan_us as f64 / 1e6;
            let moved = match arm.access() {
                DataAccess::Read => bytes as f64 * tasks as f64,
                DataAccess::ReadWrite => 2.0 * bytes as f64 * tasks as f64,
            };
            out.push(Fig4Point {
                arm,
                bytes,
                tasks_per_sec: o.throughput,
                mbps: moved * 8.0 / 1e6 / secs,
            });
        }
    }
    out
}

/// Render Figure 4 as TSV series (tasks/sec and Mb/s per arm).
pub(crate) fn render_fig4(points: &[Fig4Point]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 4: Throughput as a function of data size on 64 nodes ==\n");
    for &arm in &Arm::ALL {
        let series: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.arm == arm)
            .map(|p| (p.bytes as f64, p.tasks_per_sec))
            .collect();
        out.push_str(&series_tsv(
            &format!("{} — tasks/sec", arm.label()),
            "bytes",
            "tasks/sec",
            &series,
        ));
        let series: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.arm == arm)
            .map(|p| (p.bytes as f64, p.mbps))
            .collect();
        out.push_str(&series_tsv(
            &format!("{} — Mb/s", arm.label()),
            "bytes",
            "Mb/s",
            &series,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(points: &[Fig4Point], arm: Arm, bytes: u64) -> Fig4Point {
        *points
            .iter()
            .find(|p| p.arm == arm && p.bytes == bytes)
            .expect("point present")
    }

    #[test]
    fn fig4_shape_matches_paper() {
        let pts = fig4(Scale::Quick);
        let gb = 1u64 << 30;

        // Small data: near-peak dispatch throughput except GPFS r+w, which
        // caps around 150 tasks/sec even at 1 byte.
        let small_rw = find(&pts, Arm::GpfsReadWrite, 1);
        assert!(
            (100.0..250.0).contains(&small_rw.tasks_per_sec),
            "GPFS r+w @1B = {:.0}",
            small_rw.tasks_per_sec
        );
        let small_read = find(&pts, Arm::LocalRead, 1);
        assert!(
            small_read.tasks_per_sec > 320.0,
            "LOCAL read @1B = {:.0}",
            small_read.tasks_per_sec
        );

        // Large data: bandwidth plateaus in the paper's order
        // (LOCAL read > LOCAL r+w > GPFS read > GPFS r+w).
        let lr = find(&pts, Arm::LocalRead, gb).mbps;
        let lrw = find(&pts, Arm::LocalReadWrite, gb).mbps;
        let gr = find(&pts, Arm::GpfsRead, gb).mbps;
        let grw = find(&pts, Arm::GpfsReadWrite, gb).mbps;
        assert!(lr > lrw && lrw > gr && gr > grw, "{lr} {lrw} {gr} {grw}");

        // Rough plateau magnitudes (paper: 52,015 / 32,667 / 3,067 / 326).
        assert!((30_000.0..70_000.0).contains(&lr), "LOCAL read = {lr:.0}");
        assert!((1_500.0..4_500.0).contains(&gr), "GPFS read = {gr:.0}");
        assert!((150.0..700.0).contains(&grw), "GPFS r+w = {grw:.0}");
    }

    #[test]
    fn fig4_renders() {
        let pts = fig4(Scale::Quick);
        let s = render_fig4(&pts);
        assert!(s.contains("GPFS read+write"));
        assert!(s.contains("tasks/sec"));
    }
}
