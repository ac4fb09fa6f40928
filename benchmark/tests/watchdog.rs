//! The watchdog fires instead of hanging, and a lost trial is counted.

// A test of a benchmark reads clocks; see the note in src/lib.rs.
#![allow(clippy::disallowed_methods)]

use falkon_benchmark::report::RunReport;
use falkon_benchmark::trial::{count_not_exactly_once, with_deadline, Abandoned};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::task::TaskSpec;
use falkon_rt::tcp::run_client;
use std::net::TcpListener;
use std::time::{Duration, Instant};

#[test]
fn a_peer_that_never_answers_is_abandoned_at_the_deadline() {
    // Accepts (the kernel completes the handshake) and never reads or
    // writes: the client blocks waiting for `InstanceCreated`.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("addr");
    let t = Instant::now();
    let out = with_deadline(Duration::from_millis(300), move || {
        let tasks = (0..10).map(|i| TaskSpec::sleep(i, 0)).collect();
        run_client(addr, tasks, BundleConfig::of(300), None).map(|o| o.done)
    });
    assert_eq!(out.map(|r| r.ok()), Err(Abandoned::TimedOut));
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "returned at the deadline, not later"
    );
    // Closing the listener resets the connection and frees the thread.
    drop(silent);
}

#[test]
fn a_closure_that_answers_in_time_is_returned_and_a_panic_is_reported() {
    assert_eq!(with_deadline(Duration::from_secs(5), || 7), Ok(7));
    let out: Result<(), _> = with_deadline(Duration::from_secs(5), || panic!("boom"));
    assert_eq!(out, Err(Abandoned::Panicked));
}

#[test]
fn exactly_once_accounting_counts_missing_duplicate_and_foreign_ids() {
    let expected: Vec<u64> = (0..6).collect();
    assert_eq!(count_not_exactly_once(&expected, &[0, 1, 2, 3, 4, 5]), 0);
    assert_eq!(
        count_not_exactly_once(&expected, &[0, 1, 3, 4, 5]),
        1,
        "missing"
    );
    assert_eq!(
        count_not_exactly_once(&expected, &[0, 1, 1, 2, 3, 4, 5]),
        1,
        "twice"
    );
    assert_eq!(
        count_not_exactly_once(&expected, &[0, 1, 2, 3, 4, 5, 9]),
        1,
        "never submitted"
    );
    assert_eq!(count_not_exactly_once(&expected, &[]), 6);
}

#[test]
fn a_run_with_failed_tasks_or_problems_is_not_correct() {
    let mut r = RunReport {
        attempted: 10,
        ..RunReport::default()
    };
    assert!(r.correct());
    r.problems.push("trial 0 abandoned".into());
    assert!(!r.correct());
    r.problems.clear();
    r.failed = 1;
    assert!(!r.correct());
    assert!(r
        .json_line()
        .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
}
