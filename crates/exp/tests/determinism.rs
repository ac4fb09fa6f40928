//! Simulation determinism: identical configuration and seed must produce
//! bit-identical results (this is what makes every number in
//! EXPERIMENTS.md exactly reproducible).

use falkon_exp::costs::CostModel;
use falkon_exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_proto::task::TaskSpec;

fn deployment(seed: u64, jitter: bool) -> SimFalkon {
    let costs = if jitter {
        CostModel::no_security() // sigma > 0: RNG actually exercised
    } else {
        CostModel::ideal()
    };
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 16,
        costs,
        seed,
        ..SimFalkonConfig::default()
    });
    sim.submit(0, (0..500).map(|i| TaskSpec::sleep(i, 0)).collect());
    sim
}

fn run(seed: u64, jitter: bool) -> Vec<(u64, u64, u64)> {
    let out = deployment(seed, jitter).run_until_drained();
    out.records
        .iter()
        .map(|r| (r.result.id.0, r.dispatched_us, r.completed_us))
        .collect()
}

#[test]
fn same_seed_same_trace() {
    let a = run(42, true);
    let b = run(42, true);
    assert_eq!(a, b, "same seed must reproduce the exact event trace");
}

#[test]
fn different_seed_different_jitter() {
    let a = run(1, true);
    let b = run(2, true);
    // Completion times must differ somewhere (overhead jitter is seeded).
    assert_ne!(a, b, "different seeds should perturb the trace");
}

#[test]
fn ideal_model_is_seed_independent() {
    let a = run(1, false);
    let b = run(2, false);
    assert_eq!(a, b, "without stochastic costs the seed must not matter");
}

#[test]
fn the_fold_sees_the_records_the_collecting_run_returns() {
    let collected = deployment(42, true).run_until_drained();
    let mut folded = Vec::new();
    let out = deployment(42, true).run_until_drained_with(|r| folded.push(r));
    assert!(
        out.records.is_empty(),
        "the fold's outcome carries no records"
    );
    assert_eq!(folded, collected.records);

    // The running totals are the three passes over the records they
    // replaced, to the bit: same values, same order of f64 additions.
    let records = &collected.records;
    let n = records.len() as f64;
    let makespan_us = records.iter().map(|r| r.completed_us).max().unwrap();
    let avg_queue_us = records
        .iter()
        .map(|r| r.queue_time_us() as f64)
        .sum::<f64>()
        / n;
    let avg_exec_us = records.iter().map(|r| r.exec_time_us() as f64).sum::<f64>() / n;
    let throughput = n / (makespan_us as f64 / 1e6);
    assert!(avg_queue_us > 0.0 && avg_exec_us > 0.0);
    for o in [&collected, &out] {
        assert_eq!(o.tasks, records.len() as u64);
        assert_eq!(o.makespan_us, makespan_us);
        assert_eq!(o.avg_queue_us.to_bits(), avg_queue_us.to_bits());
        assert_eq!(o.avg_exec_us.to_bits(), avg_exec_us.to_bits());
        assert_eq!(o.throughput.to_bits(), throughput.to_bits());
    }
}
