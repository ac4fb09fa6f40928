//! What both runtimes do with a machine's actions: run task bodies, pump
//! an executor until it goes quiet, and route a dispatcher's output.

use crate::clock::Clock;
use falkon_core::dispatcher::{DispatcherAction, TaskRecord};
use falkon_core::executor::{Executor, ExecutorAction, ExecutorEvent};
use falkon_obs::Probe;
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::{TaskResult, TaskSpec};
use std::thread;
use std::time::Duration;

/// Drive an executor machine until it has neither pending actions nor
/// feedback events: sends go to `send`, task bodies run inline on this
/// thread (as a spawned OS process when `spawn`), and each completion is
/// fed straight back in. `actions` and `queue` are caller-owned scratch;
/// `actions` carries the machine's output in. `Ok(true)` means the machine
/// asked to shut down; a `send` error aborts the pump.
pub(crate) fn pump_executor<P: Probe, E>(
    clock: &Clock,
    machine: &mut Executor<P>,
    actions: &mut Vec<ExecutorAction>,
    queue: &mut Vec<ExecutorEvent>,
    spawn: bool,
    mut send: impl FnMut(Message) -> Result<(), E>,
) -> Result<bool, E> {
    while !actions.is_empty() || !queue.is_empty() {
        for act in actions.drain(..) {
            match act {
                ExecutorAction::Send(msg) => send(msg)?,
                ExecutorAction::Run(spec) => {
                    let t0 = clock.now_us();
                    let mut result = if spawn {
                        execute_process(&spec)
                    } else {
                        execute_builtin(&spec)
                    };
                    result.executor_time_us = clock.now_us() - t0;
                    queue.push(ExecutorEvent::TaskCompleted { result });
                }
                ExecutorAction::Shutdown => return Ok(true),
            }
        }
        for ev in queue.drain(..) {
            machine.on_event(clock.now_us(), ev, actions);
        }
    }
    Ok(false)
}

/// Where a dispatcher action's message is addressed.
pub(crate) enum Dest {
    /// A registered executor.
    Executor(ExecutorId),
    /// A client instance.
    Client(InstanceId),
    /// Whoever sent the `StatusPoll` being answered.
    Provisioner,
}

/// Drain one wake-up's accumulated dispatcher actions: every outbound
/// message goes to `send` with its destination, completions are recorded.
pub(crate) fn route_actions(
    out: &mut Vec<DispatcherAction>,
    records: &mut Vec<TaskRecord>,
    mut send: impl FnMut(Dest, Message),
) {
    for act in out.drain(..) {
        match act {
            DispatcherAction::ToExecutor { executor, msg } => send(Dest::Executor(executor), msg),
            DispatcherAction::ToClient { instance, msg } => send(Dest::Client(instance), msg),
            DispatcherAction::ToProvisioner { status } => {
                send(Dest::Provisioner, Message::Status { status })
            }
            DispatcherAction::TaskDone { record, .. } => records.push(record),
            DispatcherAction::TaskFailed { .. } => {}
        }
    }
}

/// Execute a task without spawning a process: `sleep <secs>` sleeps, any
/// other command is a no-op success (the paper's microbenchmark semantics).
#[expect(
    clippy::disallowed_methods,
    reason = "the sleep is the task body (the paper's `sleep N` workload), not transport pacing"
)]
pub fn execute_builtin(spec: &TaskSpec) -> TaskResult {
    if &*spec.command == "sleep" {
        if let Some(secs) = spec.args.first().and_then(|a| a.parse::<f64>().ok()) {
            if secs > 0.0 {
                thread::sleep(Duration::from_secs_f64(secs));
            }
        }
    }
    TaskResult::success(spec.id)
}

/// Execute a task by spawning the real OS process and waiting for it.
pub fn execute_process(spec: &TaskSpec) -> TaskResult {
    match std::process::Command::new(&*spec.command)
        .args(spec.args.iter().map(|a| &**a))
        .output()
    {
        Ok(o) => TaskResult::failure(spec.id, o.status.code().unwrap_or(-1)),
        Err(_) => TaskResult::failure(spec.id, 127),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_sleep_zero_is_instant_success() {
        let r = execute_builtin(&TaskSpec::sleep(1, 0));
        assert!(r.is_success());
    }

    #[test]
    fn builtin_unknown_command_is_noop_success() {
        let mut t = TaskSpec::sleep(2, 0);
        t.command = "whatever".into();
        assert!(execute_builtin(&t).is_success());
    }

    #[test]
    fn process_failure_reports_exit_code() {
        let mut t = TaskSpec::sleep(3, 0);
        t.command = "false".into();
        t.args.clear();
        let r = execute_process(&t);
        assert!(!r.is_success());
    }

    #[test]
    fn process_missing_binary_reports_127() {
        let mut t = TaskSpec::sleep(4, 0);
        t.command = "definitely-not-a-real-binary-xyz".into();
        t.args.clear();
        assert_eq!(execute_process(&t).exit_code, 127);
    }
}
