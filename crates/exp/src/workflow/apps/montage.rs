//! The Montage astronomical mosaic workflow (paper Section 5.2, Figure 15).
//!
//! The paper's modest-scale computation builds a 3°×3° mosaic around galaxy
//! M16 from **487 input images** with **2,200 overlapping image sections**.
//! The four-stage pipeline: re-project every image (`mProject`), background
//! rectification (`mDiff` + `mFit` per overlapping pair, then a global
//! `mBgModel` plane fit), background correction (`mBackground` per image),
//! and co-addition — decomposed into parallel partial co-adds (`mAddSub`)
//! plus a final `mAdd` to enhance concurrency, exactly as the paper does.
//!
//! Image overlap topology is reconstructed by laying the 487 images on a
//! sky grid and connecting neighbours until exactly 2,200 pairs exist; the
//! DAG shape (fan-out widths, barrier points) is what drives the Figure 15
//! comparison, not the specific pair choices.

use crate::workflow::dag::{Dag, NodeId, WfTask};
use crate::Micros;

/// Input image count for the M16 3°×3° mosaic.
pub(crate) const N_IMAGES: u32 = 487;
/// Overlapping image-section pairs.
pub(crate) const N_OVERLAPS: u32 = 2_200;
/// Partial co-add groups (the decomposed first co-add step).
pub(crate) const N_ADD_SUB: u32 = 24;

/// Per-task payload runtimes (µs), calibrated so the end-to-end Falkon run
/// lands near the paper's ≈1,100 s on 64 executors.
pub(crate) mod runtimes {
    use crate::Micros;
    /// `mProject`: re-project one image.
    pub(crate) const M_PROJECT: Micros = 60_000_000;
    /// `mDiff`: difference of one overlapping pair.
    pub(crate) const M_DIFF: Micros = 4_000_000;
    /// `mFit`: plane fit of one difference image.
    pub(crate) const M_FIT: Micros = 4_000_000;
    /// `mBgModel`: global background model (single task).
    pub(crate) const M_BG_MODEL: Micros = 15_000_000;
    /// `mBackground`: apply correction to one image.
    pub(crate) const M_BACKGROUND: Micros = 10_000_000;
    /// `mAddSub`: partial co-add of one group.
    pub(crate) const M_ADD_SUB: Micros = 30_000_000;
    /// `mAdd`: final co-add (single task).
    pub(crate) const M_ADD: Micros = 80_000_000;
}

/// Deterministically reconstruct the overlap topology: images on a 23×22
/// grid (487 used), 8-neighbour adjacency first, then distance-2 pairs
/// until exactly [`N_OVERLAPS`] pairs exist.
pub(crate) fn overlap_pairs() -> Vec<(u32, u32)> {
    const COLS: i64 = 23;
    const ROWS: i64 = 22;
    let index = |r: i64, c: i64| -> Option<u32> {
        if r < 0 || c < 0 || r >= ROWS || c >= COLS {
            return None;
        }
        let i = (r * COLS + c) as u32;
        (i < N_IMAGES).then_some(i)
    };
    let mut pairs = Vec::with_capacity(N_OVERLAPS as usize);
    // Forward-only neighbour offsets so each pair appears once.
    let near: [(i64, i64); 4] = [(0, 1), (1, -1), (1, 0), (1, 1)];
    let far: [(i64, i64); 4] = [(0, 2), (2, 0), (1, 2), (2, 1)];
    for &offsets in &[near, far] {
        for r in 0..ROWS {
            for c in 0..COLS {
                let Some(a) = index(r, c) else { continue };
                for &(dr, dc) in &offsets {
                    if pairs.len() == N_OVERLAPS as usize {
                        return pairs;
                    }
                    if let Some(b) = index(r + dr, c + dc) {
                        pairs.push((a, b));
                    }
                }
            }
        }
    }
    assert_eq!(
        pairs.len(),
        N_OVERLAPS as usize,
        "grid walk produced too few overlap pairs"
    );
    pairs
}

/// Build the Montage DAG.
pub fn dag() -> Dag {
    let mut g = Dag::new();
    let pairs = overlap_pairs();

    let project: Vec<NodeId> = (0..N_IMAGES)
        .map(|i| {
            g.add(WfTask::new(
                format!("mProject-{i}"),
                "mProject",
                runtimes::M_PROJECT,
            ))
        })
        .collect();

    let mut fit: Vec<NodeId> = Vec::with_capacity(pairs.len());
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let diff = g.add(WfTask::new(format!("mDiff-{k}"), "mDiff", runtimes::M_DIFF));
        g.depend(project[a as usize], diff);
        g.depend(project[b as usize], diff);
        let f = g.add(WfTask::new(format!("mFit-{k}"), "mFit", runtimes::M_FIT));
        g.depend(diff, f);
        fit.push(f);
    }

    let bg_model = g.add(WfTask::new("mBgModel", "mBgModel", runtimes::M_BG_MODEL));
    for &f in &fit {
        g.depend(f, bg_model);
    }

    let background: Vec<NodeId> = (0..N_IMAGES)
        .map(|i| {
            let n = g.add(WfTask::new(
                format!("mBackground-{i}"),
                "mBackground",
                runtimes::M_BACKGROUND,
            ));
            g.depend(bg_model, n);
            n
        })
        .collect();

    let add_sub: Vec<NodeId> = (0..N_ADD_SUB)
        .map(|k| {
            let n = g.add(WfTask::new(
                format!("mAddSub-{k}"),
                "mAddSub",
                runtimes::M_ADD_SUB,
            ));
            // Each partial co-add consumes its slice of corrected images.
            let per = (N_IMAGES as usize).div_ceil(N_ADD_SUB as usize);
            for &b in background.iter().skip(k as usize * per).take(per) {
                g.depend(b, n);
            }
            n
        })
        .collect();

    let add = g.add(WfTask::new("mAdd", "mAdd", runtimes::M_ADD));
    for &s in &add_sub {
        g.depend(s, add);
    }
    g
}

/// Analytic makespan of the Montage team's MPI version on `workers` CPUs:
/// every stage is a barrier, each stage pays an initialization/aggregation
/// cost (the paper attributes MPI's loss to these), and — unlike the Swift
/// versions — the *final* co-add is also parallelized.
pub fn mpi_makespan_us(workers: u32, per_stage_overhead_us: Micros) -> Micros {
    let w = workers.max(1) as u64;
    let waves = |n: u32, rt: Micros| (n as u64).div_ceil(w) * rt;
    let mut total = 0;
    total += waves(N_IMAGES, runtimes::M_PROJECT) + per_stage_overhead_us;
    total += waves(N_OVERLAPS, runtimes::M_DIFF + runtimes::M_FIT) + per_stage_overhead_us;
    total += runtimes::M_BG_MODEL + per_stage_overhead_us;
    total += waves(N_IMAGES, runtimes::M_BACKGROUND) + per_stage_overhead_us;
    total += waves(N_ADD_SUB, runtimes::M_ADD_SUB) + per_stage_overhead_us;
    // MPI parallelizes the final co-add across workers.
    total += runtimes::M_ADD / w.min(8) + per_stage_overhead_us;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::engine::WorkflowEngine;
    use crate::workflow::provider::IdealProvider;

    #[test]
    fn topology_counts_match_paper() {
        let pairs = overlap_pairs();
        assert_eq!(pairs.len(), 2_200);
        // Pairs are unique and reference valid images.
        let mut set = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(a < N_IMAGES && b < N_IMAGES && a != b);
            assert!(set.insert((a, b)), "duplicate pair ({a},{b})");
        }
    }

    #[test]
    fn dag_task_count() {
        let g = dag();
        let expected = N_IMAGES      // mProject
            + 2 * N_OVERLAPS         // mDiff + mFit
            + 1                      // mBgModel
            + N_IMAGES               // mBackground
            + N_ADD_SUB              // mAddSub
            + 1; // mAdd
        assert_eq!(g.len() as u32, expected);
        assert!(g.topo_order().is_some());
    }

    #[test]
    fn stage_histogram_matches_structure() {
        let g = dag();
        let h = g.stage_histogram();
        let get = |name: &str| h.iter().find(|(s, _, _)| s == name).unwrap().1;
        assert_eq!(get("mProject"), 487);
        assert_eq!(get("mDiff"), 2_200);
        assert_eq!(get("mFit"), 2_200);
        assert_eq!(get("mBgModel"), 1);
        assert_eq!(get("mBackground"), 487);
        assert_eq!(get("mAddSub"), 24);
        assert_eq!(get("mAdd"), 1);
    }

    #[test]
    fn ideal_run_lands_near_paper_scale() {
        let g = dag();
        let mut p = IdealProvider::new(64);
        let report = WorkflowEngine::new().run(&g, &mut p);
        let s = report.makespan_s();
        // Paper: Swift+Falkon ≈1,120 s end-to-end on the ANL testbed. The
        // ideal (zero-dispatch) run must land in the same range, slightly
        // below.
        assert!((700.0..1_300.0).contains(&s), "ideal makespan = {s}");
    }

    #[test]
    fn mpi_estimate_close_to_swift_falkon() {
        let g = dag();
        let mut p = IdealProvider::new(64);
        let falkon_ideal = WorkflowEngine::new().run(&g, &mut p).makespan_us;
        let mpi = mpi_makespan_us(64, 12_000_000);
        // Paper: MPI within ~5% of Swift+Falkon.
        let ratio = mpi as f64 / falkon_ideal as f64;
        assert!((0.8..1.3).contains(&ratio), "mpi/falkon = {ratio}");
    }
}
