//! The harness's worker count must not change a single byte of `repro all`
//! output: rendered blocks are buffered per shared-run group and emitted in
//! registry order regardless of which worker finished first. The only
//! legitimately nondeterministic block is the `measured` experiment (it
//! reports wall-clock rates of this machine), so it is excluded here — and
//! it is deliberately last in the registry, which is what lets the CI
//! bench-smoke job strip it with a single `sed` range. What is left is
//! pinned byte for byte by a golden file.

use falkon_bench::harness::run_all_with;
use falkon_exp::experiments::{Scale, REGISTRY};
use std::sync::OnceLock;

/// `repro all`'s quick output up to `== Measured on this machine`. A change
/// that moves a row regenerates it, and the diff shows the row:
/// `cargo repro all | sed '/^== Measured on this machine/,$d' >
/// crates/bench/tests/golden/repro_all.txt`.
const GOLDEN: &str = include_str!("golden/repro_all.txt");

type Blocks = Vec<(&'static str, String)>;

/// A run's blocks in emission order, each with the registry id behind it.
fn blocks(jobs: usize) -> Blocks {
    let mut blocks = Vec::new();
    run_all_with(Scale::Quick, jobs, &mut |id, text| {
        blocks.push((id, text.to_string()))
    });
    blocks
}

/// The one-worker run (`--jobs 1`, the default), made once for every test
/// that reads it.
fn one_worker() -> &'static Blocks {
    static ONE: OnceLock<Blocks> = OnceLock::new();
    ONE.get_or_init(|| blocks(1))
}

/// A run's output as `repro` prints it (each block and a newline), less
/// the wall-clock `measured` block.
fn deterministic_output(blocks: &Blocks) -> String {
    assert!(
        blocks.iter().position(|b| b.0 == "measured") >= Some(blocks.len() - 1),
        "`measured` must stay last in the registry or the byte-identity \
         carve-out (here and in CI) silently excludes real experiments"
    );
    blocks
        .iter()
        .filter(|b| b.0 != "measured")
        .map(|b| format!("{}\n", b.1))
        .collect()
}

#[test]
fn repro_all_matches_the_golden_file() {
    let now = deterministic_output(one_worker());
    let mut lines = GOLDEN.lines().zip(now.lines()).enumerate();
    if let Some((i, (w, g))) = lines.find(|(_, (w, g))| w != g) {
        panic!(
            "repro all differs from the golden file at line {}:\n  golden: {w}\n  now:    {g}",
            i + 1
        );
    }
    let (want, got) = (GOLDEN.lines().count(), now.lines().count());
    assert_eq!(
        got, want,
        "repro all has {got} lines, the golden file {want}"
    );
    assert!(
        now == GOLDEN,
        "repro all differs from the golden file in line endings"
    );
}

#[test]
fn repro_all_is_byte_identical_across_job_counts() {
    let one = deterministic_output(one_worker());
    assert!(!one.is_empty());
    for jobs in [4, 8] {
        let many = deterministic_output(&blocks(jobs));
        assert_eq!(one, many, "repro all --jobs {jobs} diverged from --jobs 1");
    }
}

/// A run renders a block for every entry of its group, keyed by id; this
/// pins that each id gets its own. `fig10` is the same plot as `fig9`, so
/// `repro all` prints it once.
#[test]
fn every_entry_but_fig10_prints_a_block() {
    let printed: Vec<&str> = one_worker()
        .iter()
        .filter(|b| !b.1.trim().is_empty())
        .map(|b| b.0)
        .collect();
    let expected: Vec<&str> = REGISTRY
        .iter()
        .map(|e| e.id())
        .filter(|&id| id != "fig10")
        .collect();
    assert_eq!(printed, expected);
}
