//! Opt-in per-task lifecycle capture for `repro --trace`.
//!
//! When enabled, every simulated deployment built on this thread reports
//! its completed-task records here; `repro` drains them after a single
//! experiment and dumps one TSV row per task. The sink is thread-local and
//! off by default, so experiment runs pay only a thread-local read per
//! completed task when tracing is not requested.
//!
//! This lives in the driver, not in `falkon-core`: machines stay sans-io
//! and know nothing about trace files.

use falkon_core::dispatcher::TaskRecord;
use std::cell::RefCell;

thread_local! {
    static SINK: RefCell<Option<Vec<Vec<TaskRecord>>>> = const { RefCell::new(None) };
}

/// Start capturing. Each subsequent deployment (`begin_run`) opens a new
/// run group; records accumulate until [`take`].
pub fn enable() {
    SINK.with(|s| *s.borrow_mut() = Some(Vec::new()));
}

/// Mark the start of a new deployment (one simulated or threaded cluster).
/// No-op unless capturing.
pub(crate) fn begin_run() {
    SINK.with(|s| {
        if let Some(runs) = s.borrow_mut().as_mut() {
            runs.push(Vec::new());
        }
    });
}

/// Report one completed task. No-op unless capturing.
pub fn record(r: &TaskRecord) {
    SINK.with(|s| {
        if let Some(run) = s.borrow_mut().as_mut().and_then(|runs| runs.last_mut()) {
            run.push(*r);
        }
    });
}

/// Stop capturing and return all runs recorded since [`enable`].
pub fn take() -> Vec<Vec<TaskRecord>> {
    SINK.with(|s| s.borrow_mut().take()).unwrap_or_default()
}

/// Format captured runs as TSV: one row per task, lifecycle timestamps in
/// µs plus the derived queue/exec components.
pub fn render_tsv(runs: &[Vec<TaskRecord>]) -> String {
    let mut out = String::from(
        "run\ttask\texecutor\tattempts\tenqueued_us\tdispatched_us\tcompleted_us\
         \tqueue_us\texec_us\texecutor_time_us\texit_code\n",
    );
    for (run, records) in runs.iter().enumerate() {
        for r in records {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                run,
                r.result.id.0,
                r.executor.0,
                r.result.attempts,
                r.enqueued_us,
                r.dispatched_us,
                r.completed_us,
                r.queue_time_us(),
                r.exec_time_us(),
                r.result.executor_time_us,
                r.result.exit_code,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_core::dispatcher::TaskOutcome;
    use falkon_proto::message::ExecutorId;
    use falkon_proto::task::TaskId;

    fn rec(id: u64) -> TaskRecord {
        TaskRecord {
            result: TaskOutcome {
                id: TaskId(id),
                executor_time_us: 5,
                exit_code: 0,
                attempts: 1,
            },
            enqueued_us: 10,
            dispatched_us: 30,
            completed_us: 90,
            executor: ExecutorId(2),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        begin_run();
        record(&rec(1));
        assert!(take().is_empty());
    }

    #[test]
    fn capture_groups_by_run_and_renders_rows() {
        enable();
        begin_run();
        record(&rec(1));
        record(&rec(2));
        begin_run();
        record(&rec(3));
        let runs = take();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].len(), 2);
        assert_eq!(runs[1].len(), 1);
        let tsv = render_tsv(&runs);
        assert!(tsv.starts_with("run\ttask\t"));
        // run 1, task 3, executor 2, 1 attempt, queue 20 µs, exec 60 µs.
        assert!(tsv.contains("1\t3\t2\t1\t10\t30\t90\t20\t60\t5\t0\n"));
        // take() disabled the sink again.
        record(&rec(4));
        assert!(take().is_empty());
    }
}
