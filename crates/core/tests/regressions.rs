//! Regression tests for bugs found during code review. Each test pins the
//! exact mechanism that was broken.

use falkon_core::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent};
use falkon_core::executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent};
use falkon_core::policy::ReplayPolicy;
use falkon_core::DispatcherConfig;
use falkon_proto::message::{ExecutorId, InstanceId, Message, NotifyKey};
use falkon_proto::task::{IStr, TaskId, TaskResult, TaskSpec};
use std::collections::BTreeMap;

fn step(d: &mut Dispatcher, now: u64, ev: DispatcherEvent) -> Vec<DispatcherAction> {
    let mut out = Vec::new();
    d.on_event(now, ev, &mut out);
    out
}

fn create_instance(d: &mut Dispatcher) -> InstanceId {
    match &step(d, 0, DispatcherEvent::CreateInstance)[0] {
        DispatcherAction::ToClient {
            msg: Message::InstanceCreated { instance },
            ..
        } => *instance,
        other => panic!("unexpected {other:?}"),
    }
}

/// Bug: DestroyInstance dropped running tasks without releasing executor
/// bookkeeping, leaving the executor Busy forever (its late result is a
/// duplicate which also skipped the decrement).
#[test]
fn destroy_instance_releases_executor_slots() {
    let mut d = Dispatcher::new(DispatcherConfig::default());
    let inst = create_instance(&mut d);
    step(
        &mut d,
        0,
        DispatcherEvent::Register {
            executor: ExecutorId(1),
        },
    );
    step(
        &mut d,
        1,
        DispatcherEvent::Submit {
            instance: inst,
            tasks: vec![TaskSpec::sleep(1, 0)],
        },
    );
    step(
        &mut d,
        2,
        DispatcherEvent::GetWork {
            executor: ExecutorId(1),
            key: NotifyKey(1),
        },
    );
    assert_eq!(d.status().busy_executors, 1);
    step(
        &mut d,
        3,
        DispatcherEvent::DestroyInstance { instance: inst },
    );
    // The executor must be idle again…
    assert_eq!(d.status().busy_executors, 0);
    // …and must receive fresh work from a *new* instance.
    let inst2 = {
        match &step(&mut d, 4, DispatcherEvent::CreateInstance)[0] {
            DispatcherAction::ToClient {
                msg: Message::InstanceCreated { instance },
                ..
            } => *instance,
            other => panic!("unexpected {other:?}"),
        }
    };
    let acts = step(
        &mut d,
        5,
        DispatcherEvent::Submit {
            instance: inst2,
            tasks: vec![TaskSpec::sleep(2, 0)],
        },
    );
    assert!(
        acts.iter().any(|a| matches!(
            a,
            DispatcherAction::ToExecutor {
                executor: ExecutorId(1),
                msg: Message::Notify { .. },
            }
        )),
        "executor 1 must be notified again after instance destruction"
    );
}

/// Bug: re-registration of a live executor id overwrote its state without
/// fixing busy/notified counters or replaying its in-flight tasks.
#[test]
fn reregistration_replays_in_flight_tasks_and_fixes_counters() {
    let mut d = Dispatcher::new(DispatcherConfig::default());
    let inst = create_instance(&mut d);
    step(
        &mut d,
        0,
        DispatcherEvent::Register {
            executor: ExecutorId(1),
        },
    );
    step(
        &mut d,
        1,
        DispatcherEvent::Submit {
            instance: inst,
            tasks: vec![TaskSpec::sleep(7, 0)],
        },
    );
    step(
        &mut d,
        2,
        DispatcherEvent::GetWork {
            executor: ExecutorId(1),
            key: NotifyKey(1),
        },
    );
    assert_eq!(d.status().busy_executors, 1);
    // The executor crashes and restarts with the same id.
    let acts = step(
        &mut d,
        3,
        DispatcherEvent::Register {
            executor: ExecutorId(1),
        },
    );
    // Counters repaired, task replayed (a Notify goes back out).
    assert_eq!(d.status().busy_executors, 0);
    assert_eq!(d.stats().retries, 1);
    assert!(acts.iter().any(|a| matches!(
        a,
        DispatcherAction::ToExecutor {
            msg: Message::Notify { .. },
            ..
        }
    )));
    // The replayed task completes exactly once.
    step(
        &mut d,
        4,
        DispatcherEvent::GetWork {
            executor: ExecutorId(1),
            key: NotifyKey(2),
        },
    );
    step(
        &mut d,
        5,
        DispatcherEvent::Result {
            executor: ExecutorId(1),
            results: vec![TaskResult::success(TaskId(7))],
        },
    );
    assert_eq!(d.stats().completed, 1);
    assert!(d.is_drained());
}

/// The tasks in `acts`' `Work` messages.
fn work(acts: &[DispatcherAction]) -> Vec<TaskSpec> {
    acts.iter()
        .filter_map(|a| match a {
            DispatcherAction::ToExecutor {
                msg: Message::Work { tasks },
                ..
            } => Some(tasks.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The one executor `acts` notify.
fn notified(acts: &[DispatcherAction]) -> ExecutorId {
    let notified: Vec<ExecutorId> = acts
        .iter()
        .filter_map(|a| match a {
            DispatcherAction::ToExecutor {
                executor,
                msg: Message::Notify { .. },
            } => Some(*executor),
            _ => None,
        })
        .collect();
    assert_eq!(notified.len(), 1, "one replay, one notify: {acts:?}");
    notified[0]
}

/// Invariant: a running task is its id and its run's shared shape, and a
/// replay puts the two back together. Tasks of one shape in flight hold
/// one spec between them (not one each), and whichever way a task comes
/// back — its deadline passes, its executor is lost, its result failed
/// under `retry_on_failure` — the spec re-dispatched is the one it left
/// with, its own id included, and it completes exactly once.
#[test]
fn replays_rebuild_the_spec_a_running_task_left_with() {
    const N: u64 = 5;
    let mut d = Dispatcher::new(DispatcherConfig {
        piggyback: false,
        replay: ReplayPolicy {
            max_retries: 3,
            timeout_slack_us: 100,
            runtime_factor: 1.0,
            retry_on_failure: true,
            io_slack_us_per_mib: 10_000_000,
        },
        ..DispatcherConfig::default()
    });
    let inst = create_instance(&mut d);
    // Heap-backed, so its count says how many specs hold it.
    let point = IStr::from(String::from("sweep-point-17"));
    let task = |id: u64| {
        let mut t = TaskSpec::sleep(id, 0);
        t.env = vec![(IStr::from("POINT"), point.clone())];
        t
    };
    let ids = 10..10 + N;
    let mut done: Vec<TaskId> = Vec::new();
    let mut run = |d: &mut Dispatcher, now: u64, ev: DispatcherEvent| {
        let acts = step(d, now, ev);
        done.extend(acts.iter().filter_map(|a| match a {
            DispatcherAction::TaskDone { record, .. } => Some(record.result.id),
            _ => None,
        }));
        acts
    };
    for e in 1..=N {
        run(
            &mut d,
            0,
            DispatcherEvent::Register {
                executor: ExecutorId(e),
            },
        );
    }
    run(
        &mut d,
        1,
        DispatcherEvent::Submit {
            instance: inst,
            tasks: ids.clone().map(task).collect(),
        },
    );
    // Executor k takes task 9 + k; task 11 leaves first after task 10, so
    // its deadline is the first to pass once task 10 has completed.
    let mut holder: BTreeMap<TaskId, ExecutorId> = BTreeMap::new();
    for (e, id) in (1..=N).zip(ids.clone()) {
        let now = if e <= 2 { 1 + e } else { 500 };
        let got = work(&run(
            &mut d,
            now,
            DispatcherEvent::GetWork {
                executor: ExecutorId(e),
                key: NotifyKey(e),
            },
        ));
        assert_eq!(got, vec![task(id)]);
        holder.insert(TaskId(id), ExecutorId(e));
    }
    assert_eq!(d.status().running_tasks, N);
    assert_eq!(
        point.strong_count(),
        Some(2),
        "{N} running tasks of one shape: this copy and one shape between them"
    );

    run(
        &mut d,
        10,
        DispatcherEvent::Result {
            executor: ExecutorId(1),
            results: vec![TaskResult::success(TaskId(10))],
        },
    );
    holder.remove(&TaskId(10));
    // Three replays: task 11's deadline passes, task 12's executor is
    // lost, task 13's result is a failure. Each notifies one idle
    // executor, whose `GetWork` must get exactly the spec task left with.
    let replays = [
        (11, DispatcherEvent::CheckDeadlines),
        (
            12,
            DispatcherEvent::ExecutorLost {
                executor: ExecutorId(3),
            },
        ),
        (
            13,
            DispatcherEvent::Result {
                executor: ExecutorId(4),
                results: vec![TaskResult::failure(TaskId(13), 1)],
            },
        ),
    ];
    let mut now = 150;
    for (id, ev) in replays {
        let to = notified(&run(&mut d, now, ev));
        let got = work(&run(
            &mut d,
            now + 1,
            DispatcherEvent::GetWork {
                executor: to,
                key: NotifyKey(now),
            },
        ));
        assert_eq!(got, vec![task(id)], "task {id}'s replay");
        holder.insert(TaskId(id), to);
        now += 10;
    }
    assert_eq!(d.stats().retries, 3);

    for (id, executor) in holder {
        run(
            &mut d,
            now,
            DispatcherEvent::Result {
                executor,
                results: vec![TaskResult::success(id)],
            },
        );
    }
    done.sort_unstable();
    assert_eq!(done, ids.map(TaskId).collect::<Vec<_>>());
    assert_eq!(d.stats().completed, N);
    assert_eq!(d.stats().duplicate_results, 0);
    assert!(d.is_drained());
}

/// Bug: a pre-fetch Work answer that arrived after the current task had
/// already completed (phase Reporting/Idle) was silently dropped.
#[test]
fn late_prefetch_answer_is_not_dropped() {
    let mut e = Executor::new(
        ExecutorId(1),
        "n1",
        ExecutorConfig {
            idle_release_us: None,
            prefetch: true,
        },
    );
    let mut out = Vec::new();
    e.on_event(0, ExecutorEvent::Start, &mut out);
    e.on_event(1, ExecutorEvent::RegisterAcked, &mut out);
    out.clear();
    e.on_event(10, ExecutorEvent::Notified { key: NotifyKey(1) }, &mut out);
    out.clear();
    e.on_event(
        20,
        ExecutorEvent::WorkReceived {
            tasks: vec![TaskSpec::sleep(1, 0)],
        },
        &mut out,
    );
    out.clear();
    // Task 1 completes before the pre-fetch answer arrives.
    e.on_event(
        30,
        ExecutorEvent::TaskCompleted {
            result: TaskResult::success(TaskId(1)),
        },
        &mut out,
    );
    out.clear();
    // The pre-fetch answer lands while the machine is Reporting.
    e.on_event(
        31,
        ExecutorEvent::WorkReceived {
            tasks: vec![TaskSpec::sleep(2, 0)],
        },
        &mut out,
    );
    // Once the result is acked, the queued pre-fetched task must run.
    e.on_event(
        40,
        ExecutorEvent::ResultAcked {
            piggybacked: vec![],
        },
        &mut out,
    );
    assert!(
        out.iter()
            .any(|a| matches!(a, ExecutorAction::Run(t) if t.id == TaskId(2))),
        "pre-fetched task must run after the ack: {out:?}"
    );
}

/// Bug: GRAM `Cancel` overtook a `Submit` still queued in the gateway
/// pipeline, so the job later started anyway.
#[test]
fn gram_cancel_before_forward_prevents_the_job() {
    use falkon_lrm::gram::{Gram, GramConfig, GramInput, GramOutput};
    use falkon_lrm::job::{JobId, JobSpec, JobState};
    use falkon_lrm::profile::PBS_V2_1_8;
    use falkon_lrm::scheduler::BatchScheduler;

    let mut g = Gram::new(GramConfig::default(), BatchScheduler::new(PBS_V2_1_8, 4));
    let mut out = Vec::new();
    g.handle(0, GramInput::Submit(JobSpec::task(1, 60_000_000)), &mut out);
    // Cancel immediately, long before the 2 s gateway forward fires.
    g.handle(100, GramInput::Cancel(JobId(1)), &mut out);
    // Drain the gateway.
    let mut guard = 0;
    while let Some(t) = g.next_wakeup() {
        g.handle(t, GramInput::Tick, &mut out);
        guard += 1;
        assert!(guard < 10_000);
    }
    // The job must never become Active; it must end Cancelled.
    let states: Vec<JobState> = out
        .iter()
        .map(|GramOutput::Notification { state, .. }| *state)
        .collect();
    assert!(
        !states.contains(&JobState::Active),
        "cancelled-before-forward job became Active: {states:?}"
    );
    assert!(states
        .iter()
        .any(|s| matches!(s, JobState::Done(falkon_lrm::job::DoneReason::Cancelled))));
}
