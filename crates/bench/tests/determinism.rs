//! The parallel harness must not change a single byte of `repro all`
//! output: rendered blocks are buffered per shared-run group and emitted in
//! registry order regardless of which worker finished first. The only
//! legitimately nondeterministic block is the `measured` experiment (it
//! reports wall-clock rates of this machine), so it is excluded here — and
//! it is deliberately last in the registry, which is what lets the CI
//! bench-smoke job strip it with a single `sed` range.

use falkon_bench::harness::run_all_with;
use falkon_exp::experiments::{Scale, REGISTRY};

/// A run's blocks in emission order, each with the registry id behind it.
fn blocks(jobs: usize) -> Vec<(&'static str, String)> {
    let mut blocks = Vec::new();
    run_all_with(Scale::Quick, jobs, &mut |id, text| {
        blocks.push((id, text.to_string()))
    });
    blocks
}

/// Concatenate a run's blocks, dropping the wall-clock `measured` block.
fn deterministic_output(jobs: usize) -> String {
    let blocks = blocks(jobs);
    assert!(
        blocks.iter().position(|b| b.0 == "measured") >= Some(blocks.len() - 1),
        "`measured` must stay last in the registry or the byte-identity \
         carve-out (here and in CI) silently excludes real experiments"
    );
    blocks
        .iter()
        .filter(|b| b.0 != "measured")
        .map(|b| b.1.as_str())
        .collect()
}

#[test]
fn repro_all_is_byte_identical_across_job_counts() {
    let serial = deterministic_output(1);
    assert!(!serial.is_empty());
    for jobs in [4, 8] {
        let parallel = deterministic_output(jobs);
        assert_eq!(
            serial, parallel,
            "repro all --jobs {jobs} diverged from the serial reference"
        );
    }
}

/// A run renders a block for every entry of its group, keyed by id; this
/// pins that each id gets its own. `fig10` is the same plot as `fig9`, so
/// `repro all` prints it once.
#[test]
fn every_entry_but_fig10_prints_a_block() {
    let printed: Vec<&str> = blocks(1)
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
