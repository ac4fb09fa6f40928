//! Task bodies: how an executor peer runs the task its machine hands it.

use falkon_proto::task::{TaskResult, TaskSpec};
use std::thread;
use std::time::Duration;

/// Execute a task without spawning a process: `sleep <secs>` sleeps, any
/// other command is a no-op success (the paper's microbenchmark semantics).
#[expect(
    clippy::disallowed_methods,
    reason = "the sleep is the task body (the paper's `sleep N` workload), not transport pacing"
)]
pub(crate) fn execute_builtin(spec: &TaskSpec) -> TaskResult {
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
pub(crate) fn execute_process(spec: &TaskSpec) -> TaskResult {
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
