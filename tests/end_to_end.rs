//! Cross-crate integration tests: the full Falkon stack driven end-to-end
//! through the facade crate, over both loopback sockets and the simulator.

use falkon::core::dispatcher::TaskRecord;
use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon::obs::ObsEventKind;
use falkon::proto::bundle::BundleConfig;
use falkon::proto::task::{Args, TaskSpec};
use falkon::rt::inproc::{run_sleep_workload, run_workload, InprocConfig, RunOutcome};
use falkon::rt::WireMode;

fn quick(executors: usize, wire: WireMode) -> InprocConfig {
    InprocConfig {
        executors,
        wire,
        bundle: BundleConfig::of(100),
        dispatcher: DispatcherConfig {
            client_notify_batch: 100,
            ..DispatcherConfig::default()
        },
        ..InprocConfig::default()
    }
}

#[test]
fn inproc_and_sim_agree_on_accounting() {
    let n = 1_000;
    // Real threads.
    let rt = run_sleep_workload(&quick(4, WireMode::Encoded), n, 0);
    assert_eq!(rt.tasks, n);
    assert_eq!(rt.stats.completed, n);
    assert_eq!(rt.stats.submitted, n);
    assert_eq!(rt.stats.failed, 0);
    // Simulator: identical state machines, identical accounting.
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 4,
        ..SimFalkonConfig::default()
    });
    sim.submit(0, (0..n).map(|i| TaskSpec::sleep(i, 0)).collect());
    let so = sim.run_until_drained();
    assert_eq!(so.tasks, n);
    // Exactly-once in both worlds, and every task's record agrees on its
    // id, exit code and attempts.
    let outcomes = |records: &[TaskRecord]| {
        let mut v: Vec<(u64, i32, u32)> = records
            .iter()
            .map(|r| (r.result.id.0, r.result.exit_code, r.result.attempts))
            .collect();
        v.sort_unstable();
        v
    };
    let rt_outcomes = outcomes(&rt.records);
    let ids: Vec<u64> = rt_outcomes.iter().map(|o| o.0).collect();
    assert_eq!(ids, (0..n).collect::<Vec<_>>());
    assert_eq!(rt_outcomes, outcomes(&so.records));
    // A record's lifecycle runs forward, from at least one attempt.
    for r in rt.records.iter().chain(&so.records) {
        assert!(r.result.attempts >= 1, "{r:?}");
        assert!(r.enqueued_us <= r.dispatched_us, "{r:?}");
        assert!(r.dispatched_us <= r.completed_us, "{r:?}");
    }
}

/// Every task id in `0..n`, each exactly once.
fn completed_exactly_once(out: &RunOutcome, n: u64) -> bool {
    let mut ids: Vec<u64> = out.records.iter().map(|r| r.result.id.0).collect();
    ids.sort_unstable();
    out.tasks == n && ids == (0..n).collect::<Vec<_>>()
}

#[test]
fn wire_modes_complete_exactly_once_and_secure_frames_carry_a_mac() {
    let n = 3_000;
    let [encoded, secure] = [WireMode::Encoded, WireMode::Secure].map(|wire| {
        let out = run_sleep_workload(&quick(8, wire), n, 0);
        assert!(completed_exactly_once(&out, n), "{wire:?}");
        out
    });
    let frames = |out: &RunOutcome| out.obs.counters.count(ObsEventKind::BundleEncoded);
    let bytes = |out: &RunOutcome| out.obs.counters.value(ObsEventKind::BundleEncoded);
    // Each seal appends an 8-byte MAC to the encoded frame.
    let per_frame = |out: &RunOutcome| bytes(out) as f64 / frames(out) as f64;
    assert!(
        per_frame(&secure) > per_frame(&encoded),
        "secure {:.1} B/frame vs encoded {:.1}",
        per_frame(&secure),
        per_frame(&encoded)
    );
}

#[test]
fn a_run_counts_its_socket_calls_and_balances_its_wire_in_both_modes() {
    use ObsEventKind::{BundleDecoded, BundleEncoded, SocketRead, SocketWrite};
    for wire in [WireMode::Encoded, WireMode::Secure] {
        // Tasks that take time, so every executor has registered long
        // before the server stops: a frame charged as encoded and never
        // read would break the balance below.
        let out = run_sleep_workload(&quick(2, wire), 8, 20_000);
        assert!(completed_exactly_once(&out, 8), "{wire:?}");
        let c = &out.obs.counters;
        assert_eq!(c.count(ObsEventKind::ExecutorRegistered), 2, "{wire:?}");
        assert!(
            c.count(SocketWrite) > 0,
            "{wire:?}: no socket writes counted"
        );
        // Summed over every end of every connection: each byte a `write`
        // moved, a `read` moved, and each frame byte encoded was decoded.
        assert_eq!(c.value(SocketWrite), c.value(SocketRead), "{wire:?}");
        assert!(c.value(BundleEncoded) > 0, "{wire:?}");
        assert_eq!(c.value(BundleEncoded), c.value(BundleDecoded), "{wire:?}");
    }
}

#[test]
fn idle_release_with_ongoing_work_never_loses_tasks() {
    let mut cfg = quick(4, WireMode::Encoded);
    cfg.executor = ExecutorConfig {
        idle_release_us: Some(20_000), // aggressive 20 ms idle release
        prefetch: false,
    };
    // Two waves with a gap longer than the idle release.
    let out = run_sleep_workload(&cfg, 500, 0);
    assert_eq!(out.tasks, 500);
    assert_eq!(out.stats.failed, 0);
}

#[test]
fn real_process_execution() {
    // Spawn actual /bin/sleep processes (exit code 0) — the paper's tasks
    // are real executables.
    let mut cfg = quick(4, WireMode::Encoded);
    cfg.spawn_processes = true;
    let tasks: Vec<TaskSpec> = (0..8).map(|i| TaskSpec::sleep(i, 0)).collect();
    let out = run_workload(&cfg, tasks);
    assert_eq!(out.tasks, 8);
    assert!(out.records.iter().all(|r| r.result.is_success()));
}

#[test]
fn failing_command_reports_nonzero_exit() {
    let mut cfg = quick(2, WireMode::Encoded);
    cfg.spawn_processes = true;
    let task = TaskSpec::sleep(1, 0)
        .with_command("false")
        .with_args(Args::new());
    let out = run_workload(&cfg, vec![task]);
    assert_eq!(out.tasks, 1);
    assert!(!out.records[0].result.is_success());
}

#[test]
fn bundling_reduces_submit_messages() {
    let n = 2_000;
    let unbundled = run_workload(
        &InprocConfig {
            bundle: BundleConfig::of(1),
            ..quick(4, WireMode::Encoded)
        },
        (0..n).map(|i| TaskSpec::sleep(i, 0)).collect(),
    );
    let bundled = run_workload(
        &InprocConfig {
            bundle: BundleConfig::of(300),
            ..quick(4, WireMode::Encoded)
        },
        (0..n).map(|i| TaskSpec::sleep(i, 0)).collect(),
    );
    let submits = |out: &RunOutcome| {
        let c = &out.obs.counters;
        (
            c.count(ObsEventKind::TaskSubmitted),
            c.value(ObsEventKind::TaskSubmitted),
        )
    };
    assert!(completed_exactly_once(&unbundled, n));
    assert!(completed_exactly_once(&bundled, n));
    // One submit message per task, then one per 300 (2,000 = 6 × 300 + 200).
    assert_eq!(submits(&unbundled), (2_000, n));
    assert_eq!(submits(&bundled), (7, n));
}

#[test]
fn simulated_executor_failures_are_replayed() {
    use falkon::core::policy::ReplayPolicy;
    // Short deadline + tasks that finish fast: replay machinery must not
    // lose or duplicate anything even when deadlines race completions.
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 8,
        dispatcher: DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 5,
                timeout_slack_us: 40_000, // 40 ms: tight but above RTT
                runtime_factor: 1.0,
                retry_on_failure: false,
                io_slack_us_per_mib: 10_000_000,
            },
            client_notify_batch: 10_000,
            ..DispatcherConfig::default()
        },
        ..SimFalkonConfig::default()
    });
    let n = 2_000;
    sim.submit(0, (0..n).map(|i| TaskSpec::sleep(i, 0)).collect());
    let out = sim.run_until_drained();
    assert_eq!(out.tasks + sim.failed(), n);
    // Exactly-once: no duplicated record ids.
    let mut ids: Vec<u64> = out.records.iter().map(|r| r.result.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, out.tasks);
}

/// What one task costs on the wire in `flat_sat`'s shape (sleep-0 tasks,
/// bundles of 300, results pushed 1,000 at a time): about two frames, two
/// socket writes and two reads — its `Work` or `ResultAck` out and its
/// `Result` back — and ≈159 wire bytes. Summed over every end of every
/// connection from the merged counters. Twenty runs each in debug and
/// release read frames 2.0623, bytes 158.77, writes 2.0555–2.0563 and reads
/// 2.0993–2.1098 per task; each ceiling is 5 % above the worst of them, so
/// one more frame or socket call per task on any hop crosses it.
#[test]
fn a_flat_sat_task_costs_two_frames_and_two_socket_calls_each_way() {
    use ObsEventKind::{BundleEncoded, SocketRead, SocketWrite};
    const TASKS: u64 = 6_000;
    let config = InprocConfig {
        executors: 64,
        bundle: BundleConfig::of(300),
        dispatcher: DispatcherConfig {
            client_notify_batch: 1000,
            ..DispatcherConfig::default()
        },
        ..InprocConfig::default()
    };
    let out = run_sleep_workload(&config, TASKS, 0);
    assert!(completed_exactly_once(&out, TASKS));
    let c = &out.obs.counters;
    let per_task = |n: u64| n as f64 / TASKS as f64;
    let frames = per_task(c.count(BundleEncoded));
    let bytes = per_task(c.value(BundleEncoded));
    let writes = per_task(c.count(SocketWrite));
    let reads = per_task(c.count(SocketRead));
    eprintln!("per task: {frames:.4} frames, {bytes:.2} B, {writes:.4} writes, {reads:.4} reads");
    assert!(frames <= 2.17, "{frames:.4} frames per task");
    assert!(bytes <= 167.0, "{bytes:.2} wire bytes per task");
    assert!(writes <= 2.16, "{writes:.4} socket writes per task");
    assert!(reads <= 2.22, "{reads:.4} socket reads per task");
}
