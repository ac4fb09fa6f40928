//! Property tests for the executor, provisioner, and forwarder machines:
//! no panics under arbitrary event orders, and the structural invariants
//! each machine promises.

use falkon_core::executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent};
use falkon_core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent};
use falkon_core::policy::{AcquisitionPolicy, ProvisionerPolicy, ReleasePolicy};
use falkon_core::provisioner::{Provisioner, ProvisionerAction, ProvisionerEvent};
use falkon_obs::Counters;
use falkon_proto::message::{DispatcherStatus, ExecutorId, InstanceId, NotifyKey};
use falkon_proto::task::{DataAccess, DataLocation, TaskId, TaskResult, TaskSpec};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Executor: arbitrary (possibly nonsensical) event sequences never panic,
// and every Run action is eventually matched by at most one report.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ExecScript {
    RegisterAcked,
    Notified(u64),
    Work(u8),
    Piggyback(u8),
    CompleteOldest,
    IdleTimeout,
}

fn arb_exec_event() -> impl Strategy<Value = ExecScript> {
    prop_oneof![
        Just(ExecScript::RegisterAcked),
        any::<u64>().prop_map(ExecScript::Notified),
        (0u8..4).prop_map(ExecScript::Work),
        (0u8..3).prop_map(ExecScript::Piggyback),
        Just(ExecScript::CompleteOldest),
        Just(ExecScript::IdleTimeout),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn executor_never_panics_and_runs_each_task_once(
        prefetch in any::<bool>(),
        idle in prop::option::of(1_000u64..1_000_000),
        script in prop::collection::vec(arb_exec_event(), 0..60),
    ) {
        let mut e = Executor::with_probe(
            ExecutorId(1),
            "prop",
            ExecutorConfig { idle_release_us: idle, prefetch },
            Counters::new(),
        );
        let mut out = Vec::new();
        e.on_event(0, ExecutorEvent::Start, &mut out);
        let mut now = 1u64;
        let mut next_task = 0u64;
        let mut running: Vec<TaskId> = Vec::new();
        let mut ran: Vec<TaskId> = Vec::new();
        let drain = |out: &mut Vec<ExecutorAction>, running: &mut Vec<TaskId>, ran: &mut Vec<TaskId>| {
            for act in out.drain(..) {
                if let ExecutorAction::Run(spec) = act {
                    prop_assert!(!ran.contains(&spec.id), "task ran twice");
                    running.push(spec.id);
                    ran.push(spec.id);
                }
            }
            Ok(())
        };
        drain(&mut out, &mut running, &mut ran)?;
        for step in script {
            now += 7;
            let ev = match step {
                ExecScript::RegisterAcked => ExecutorEvent::RegisterAcked,
                ExecScript::Notified(k) => ExecutorEvent::Notified { key: NotifyKey(k) },
                ExecScript::Work(n) => ExecutorEvent::WorkReceived {
                    tasks: (0..n)
                        .map(|_| {
                            next_task += 1;
                            TaskSpec::sleep(next_task, 0)
                        })
                        .collect(),
                },
                ExecScript::Piggyback(n) => ExecutorEvent::ResultAcked {
                    piggybacked: (0..n)
                        .map(|_| {
                            next_task += 1;
                            TaskSpec::sleep(next_task, 0)
                        })
                        .collect(),
                },
                ExecScript::CompleteOldest => {
                    if let Some(id) = running.pop() {
                        ExecutorEvent::TaskCompleted {
                            result: TaskResult::success(id),
                        }
                    } else {
                        continue;
                    }
                }
                ExecScript::IdleTimeout => ExecutorEvent::IdleTimeout,
            };
            e.on_event(now, ev, &mut out);
            let shut_down = out.iter().any(|a| matches!(a, ExecutorAction::Shutdown));
            drain(&mut out, &mut running, &mut ran)?;
            if shut_down {
                break;
            }
        }
        // tasks_run never exceeds tasks started.
        prop_assert!(e.stats().tasks_run as usize <= ran.len());
        // The machine's own compact counts are what a full `Counters`
        // observing the same stream holds, counts and values.
        prop_assert_eq!(&e.counters(), e.probe());
    }
}

// ---------------------------------------------------------------------------
// Provisioner: under arbitrary status streams the executor supply never
// exceeds max_executors, and grants/terminations balance.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn provisioner_respects_bounds(
        max in 1u32..64,
        statuses in prop::collection::vec((0u64..2_000, 0u64..100), 1..50),
        grant_mask in prop::collection::vec(any::<bool>(), 1..50),
    ) {
        let mut p = Provisioner::new(ProvisionerPolicy {
            min_executors: 0,
            max_executors: max,
            acquisition: AcquisitionPolicy::AllAtOnce,
            release: ReleasePolicy::DistributedIdle,
            allocation_duration_us: 1_000_000,
            poll_interval_us: 1_000,
        });
        let mut pending_grants: Vec<(falkon_core::AllocationId, u32)> = Vec::new();
        let mut out = Vec::new();
        for (i, &(queued, running)) in statuses.iter().enumerate() {
            p.on_event(
                i as u64,
                ProvisionerEvent::Status {
                    status: DispatcherStatus {
                        queued_tasks: queued,
                        running_tasks: running,
                        registered_executors: p.active_executors() as u64,
                        busy_executors: 0,
                    },
                    lrm_available: None,
                },
                &mut out,
            );
            for act in out.drain(..) {
                if let ProvisionerAction::RequestAllocation { allocation, executors, .. } = act {
                    pending_grants.push((allocation, executors));
                }
            }
            // Invariant: total tracked supply never exceeds the bound.
            prop_assert!(
                p.pending_executors() + p.active_executors() <= max,
                "supply {} > max {max}",
                p.pending_executors() + p.active_executors()
            );
            // Randomly grant an outstanding request.
            if grant_mask.get(i).copied().unwrap_or(false) {
                if let Some((alloc, n)) = pending_grants.pop() {
                    p.on_event(
                        i as u64,
                        ProvisionerEvent::AllocationGranted { allocation: alloc, executors: n },
                        &mut out,
                    );
                    out.clear();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forwarder: across arbitrary interleavings of submissions, results,
// dispatcher losses and readmissions — every slot down included — every
// task is delivered exactly once, no bundle goes to a slot that is down,
// every task a bundle carries, first routed or re-routed, is the task the
// client submitted, and in-flight accounting drains to zero.
// ---------------------------------------------------------------------------

/// Task `id` of one of five shapes: `sleep 0`, `sleep 1`, one with an
/// environment of its own, one with a working directory of its own, and one
/// that stages a shared data object.
fn shaped(id: u64, shape: u8) -> TaskSpec {
    match shape {
        0 => TaskSpec::sleep(id, 0),
        1 => TaskSpec::sleep(id, 1),
        2 => {
            let mut t = TaskSpec::sleep(id, 0);
            t.env = vec![("FALKON_SHAPE".into(), "env".into())];
            t
        }
        3 => TaskSpec::sleep(id, 0).with_working_dir("/work/shape"),
        _ => {
            TaskSpec::sleep(id, 0).with_object(7, 1 << 20, DataLocation::SharedFs, DataAccess::Read)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn forwarder_delivers_exactly_once(
        k in 1usize..5,
        script in prop::collection::vec(
            (0u8..4, any::<u16>(), prop::collection::vec((0u8..5, 1u64..4), 1..4)),
            1..80,
        ),
    ) {
        let mut f = Forwarder::new(k);
        // Every task submitted, indexed by id.
        let mut sent: Vec<TaskSpec> = Vec::new();
        // What each dispatcher currently holds (driver-side mirror), and
        // which slots the script has taken down.
        let mut held: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        let mut down = vec![false; k];
        let mut delivered: Vec<TaskId> = Vec::new();
        let mut out = Vec::new();
        let mut apply = |f: &mut Forwarder, ev: ForwarderEvent, held: &mut Vec<Vec<TaskId>>, down: &[bool], sent: &[TaskSpec]| {
            f.on_event(0, ev, &mut out);
            for act in out.drain(..) {
                match act {
                    ForwarderAction::SubmitTo { dispatcher, tasks } => {
                        prop_assert!(!down[dispatcher], "bundle routed to down slot {}", dispatcher);
                        for t in &tasks {
                            prop_assert_eq!(t, &sent[t.id.0 as usize]);
                        }
                        held[dispatcher].extend(tasks.iter().map(|t| t.id));
                    }
                    ForwarderAction::DeliverResults { results, .. } => {
                        delivered.extend(results.iter().map(|r| r.id));
                    }
                    ForwarderAction::InstanceCreated { .. } => {}
                }
            }
            Ok(())
        };
        for (op, x, runs) in script {
            let d = x as usize % k;
            let ev = match op {
                // Submit a small bundle: runs of tasks of one shape each.
                0 => {
                    let first = sent.len();
                    for (shape, n) in runs {
                        for _ in 0..n {
                            sent.push(shaped(sent.len() as u64, shape));
                        }
                    }
                    let tasks = sent[first..].to_vec();
                    ForwarderEvent::ClientSubmit { instance: InstanceId(1), tasks }
                }
                // A dispatcher finishes everything it holds.
                1 => {
                    let results: Vec<TaskResult> =
                        held[d].drain(..).map(TaskResult::success).collect();
                    if results.is_empty() {
                        continue;
                    }
                    ForwarderEvent::DispatcherResults { dispatcher: d, results }
                }
                // A dispatcher dies; its held tasks evaporate driver-side.
                2 => {
                    held[d].clear();
                    down[d] = true;
                    ForwarderEvent::DispatcherLost { dispatcher: d }
                }
                // A slot comes back up.
                _ => {
                    down[d] = false;
                    ForwarderEvent::DispatcherReadmitted { dispatcher: d }
                }
            };
            apply(&mut f, ev, &mut held, &down, &sent)?;
        }
        // Every slot comes back, then completes its remaining work.
        for d in 0..k {
            down[d] = false;
            apply(&mut f, ForwarderEvent::DispatcherReadmitted { dispatcher: d }, &mut held, &down, &sent)?;
        }
        for d in 0..k {
            let results: Vec<TaskResult> = held[d].drain(..).map(TaskResult::success).collect();
            apply(&mut f, ForwarderEvent::DispatcherResults { dispatcher: d, results }, &mut held, &down, &sent)?;
        }
        // Exactly once.
        let mut ids: Vec<u64> = delivered.iter().map(|t| t.0).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len(), "duplicate deliveries");
        prop_assert_eq!(ids.len(), sent.len(), "lost tasks");
        prop_assert_eq!(f.in_flight(), 0);
    }
}
