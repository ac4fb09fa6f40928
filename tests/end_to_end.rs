//! Cross-crate integration tests: the full Falkon stack driven end-to-end
//! through the facade crate, over both real threads and the simulator.

use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon::obs::ObsEventKind;
use falkon::proto::bundle::BundleConfig;
use falkon::proto::task::TaskSpec;
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
    // Exactly-once in both worlds.
    let mut rt_ids: Vec<u64> = rt.records.iter().map(|r| r.result.id.0).collect();
    rt_ids.sort_unstable();
    let mut sim_ids: Vec<u64> = so.records.iter().map(|r| r.result.id.0).collect();
    sim_ids.sort_unstable();
    assert_eq!(rt_ids, (0..n).collect::<Vec<_>>());
    assert_eq!(sim_ids, (0..n).collect::<Vec<_>>());
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
    let [plain, encoded, secure] =
        [WireMode::Plain, WireMode::Encoded, WireMode::Secure].map(|wire| {
            let out = run_sleep_workload(&quick(8, wire), n, 0);
            assert!(completed_exactly_once(&out, n), "{wire:?}");
            out
        });
    let frames = |out: &RunOutcome| out.obs.counters.count(ObsEventKind::BundleEncoded);
    let bytes = |out: &RunOutcome| out.obs.counters.value(ObsEventKind::BundleEncoded);
    // Plain passes messages by value: nothing reaches a wire.
    assert_eq!((frames(&plain), bytes(&plain)), (0, 0));
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
fn idle_release_with_ongoing_work_never_loses_tasks() {
    let mut cfg = quick(4, WireMode::Plain);
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
    let mut cfg = quick(2, WireMode::Plain);
    cfg.spawn_processes = true;
    let mut task = TaskSpec::sleep(1, 0);
    task.command = "false".into();
    task.args.clear();
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
            ..quick(4, WireMode::Plain)
        },
        (0..n).map(|i| TaskSpec::sleep(i, 0)).collect(),
    );
    let bundled = run_workload(
        &InprocConfig {
            bundle: BundleConfig::of(300),
            ..quick(4, WireMode::Plain)
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
