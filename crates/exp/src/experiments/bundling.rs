//! Figure 5: bundling throughput and cost per task vs bundle size.
//!
//! The paper measures client→dispatcher submission throughput rising from
//! ≈20 tasks/sec (unbundled, dominated by the per-call WS round trip) to
//! nearly 1,500 tasks/sec, then *degrading* past ≈300 tasks per bundle —
//! blamed on Axis's grow-able-array serialization, which reallocates and
//! copies on every element append.
//!
//! Our reproduction runs the actual [`AxisCodec`] on real task bundles and
//! counts the bytes it copies. The submission cost model is then
//!
//! ```text
//! t(k) = PER_CALL + k × PER_TASK + copied_bytes(k) × COPY_COST
//! throughput(k) = k / t(k)
//! ```
//!
//! with constants calibrated to the paper's endpoints (20/s at k=1, peak
//! ≈1,500/s near k=300). Because `copied_bytes(k)` is measured from the
//! codec and grows quadratically, the curve bends down past the optimum
//! exactly as Figure 5 shows. The [`EfficientCodec`](falkon_proto::codec::EfficientCodec) ablation (no copy
//! term) keeps rising asymptotically — the fix the paper proposes.

use crate::experiments::Scale;
use falkon_proto::codec::AxisCodec;
use falkon_proto::message::{InstanceId, Message};
use falkon_proto::task::TaskSpec;
use falkon_sim::table::series_tsv;

/// Per-submission WS round-trip cost, µs (unbundled rate ≈ 20 tasks/sec).
pub(crate) const PER_CALL_US: f64 = 48_000.0;
/// Per-task handling cost inside a submission, µs.
pub(crate) const PER_TASK_US: f64 = 500.0;
/// Cost per byte copied by the grow-able-array serializer, µs/byte
/// (Java array copy + XML re-walk; calibrated to put the peak near 300).
pub(crate) const COPY_US_PER_BYTE: f64 = 0.00185;

/// One Figure 5 sample.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig5Point {
    /// Tasks per bundle.
    bundle: u64,
    /// Throughput with the Axis-style codec, tasks/sec.
    axis_tps: f64,
    /// Cost per task with the Axis-style codec, ms.
    axis_cost_ms: f64,
    /// Throughput with the efficient codec (ablation), tasks/sec.
    efficient_tps: f64,
}

fn bundle_message(k: u64) -> Message {
    Message::Submit {
        instance: InstanceId(1),
        tasks: (0..k).map(|i| TaskSpec::sleep(i, 0)).collect(),
    }
}

/// Run the Figure 5 sweep.
pub(crate) fn fig5(scale: Scale) -> Vec<Fig5Point> {
    let sizes: &[u64] = scale.pick(
        &[1, 10, 100, 300, 1_000][..],
        &[
            1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500, 700, 1_000, 1_500, 2_000,
        ][..],
    );
    sizes
        .iter()
        .map(|&k| {
            let (_, copied) = AxisCodec.encode_counting(&bundle_message(k));
            let axis_us = PER_CALL_US + k as f64 * PER_TASK_US + copied as f64 * COPY_US_PER_BYTE;
            let eff_us = PER_CALL_US + k as f64 * PER_TASK_US;
            Fig5Point {
                bundle: k,
                axis_tps: k as f64 / (axis_us / 1e6),
                axis_cost_ms: axis_us / 1e3 / k as f64,
                efficient_tps: k as f64 / (eff_us / 1e6),
            }
        })
        .collect()
}

/// Render Figure 5 as TSV series.
pub(crate) fn render_fig5(points: &[Fig5Point]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 5: Bundling throughput and cost per task ==\n");
    out.push_str(&series_tsv(
        "Axis-style codec — throughput",
        "tasks/bundle",
        "tasks/sec",
        &points
            .iter()
            .map(|p| (p.bundle as f64, p.axis_tps))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&series_tsv(
        "Axis-style codec — cost per task",
        "tasks/bundle",
        "ms/task",
        &points
            .iter()
            .map(|p| (p.bundle as f64, p.axis_cost_ms))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&series_tsv(
        "Efficient codec (ablation) — throughput",
        "tasks/bundle",
        "tasks/sec",
        &points
            .iter()
            .map(|p| (p.bundle as f64, p.efficient_tps))
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let pts = fig5(Scale::Full);
        let at = |k: u64| pts.iter().find(|p| p.bundle == k).unwrap();
        // Unbundled ≈ 20 tasks/sec.
        assert!(
            (18.0..23.0).contains(&at(1).axis_tps),
            "k=1: {}",
            at(1).axis_tps
        );
        // Peak in the hundreds-to-1500 range somewhere near k≈300.
        let peak = pts
            .iter()
            .max_by(|a, b| a.axis_tps.total_cmp(&b.axis_tps))
            .unwrap();
        assert!(
            (100..=700).contains(&peak.bundle),
            "peak at k = {}",
            peak.bundle
        );
        assert!(
            (800.0..1_800.0).contains(&peak.axis_tps),
            "peak tps = {:.0}",
            peak.axis_tps
        );
        // Degradation past the peak.
        assert!(at(2_000).axis_tps < peak.axis_tps * 0.85);
        // The efficient codec never degrades.
        for w in pts.windows(2) {
            assert!(w[1].efficient_tps >= w[0].efficient_tps);
        }
    }

    #[test]
    fn copied_bytes_grow_superlinearly() {
        let copied = |k| AxisCodec.encode_counting(&bundle_message(k)).1 as f64;
        let (c100, c1000) = (copied(100), copied(1_000));
        assert!(c1000 > 50.0 * c100, "c100 = {c100}, c1000 = {c1000}");
    }
}
