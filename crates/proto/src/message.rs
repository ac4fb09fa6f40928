//! The Falkon message set, mirroring Figure 2 of the paper.
//!
//! Message numbers from the paper are noted on each variant:
//! `{1,2}` submit, `{3}` notify, `{4}` get work, `{5}` deliver work,
//! `{6}` deliver results, `{7}` result ack (optionally piggy-backing new
//! tasks), `{8}` client notification, `{9,10}` result retrieval, plus the
//! provisioner's `{POLL}` of dispatcher state and executor registration.

use crate::task::{TaskResult, TaskSpec};
use std::fmt;

/// Identifies a registered executor.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExecutorId(pub u64);

impl fmt::Debug for ExecutorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exec#{}", self.0)
    }
}

/// A dispatcher *instance* endpoint reference (EPR). The dispatcher
/// implements the factory/instance pattern: each client creates its own
/// instance and uses its EPR for all subsequent calls.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epr#{}", self.0)
    }
}

/// The resource key carried by a notification: identifies where pending work
/// can be picked up at the dispatcher.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NotifyKey(pub u64);

impl fmt::Debug for NotifyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// A snapshot of dispatcher state returned to the provisioner's `{POLL}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DispatcherStatus {
    /// Tasks waiting in the dispatch queue.
    pub queued_tasks: u64,
    /// Tasks currently running on executors.
    pub running_tasks: u64,
    /// Executors registered and ready or busy.
    pub registered_executors: u64,
    /// Executors currently running a task.
    pub busy_executors: u64,
}

/// Every message exchanged between Falkon components.
#[derive(Clone, PartialEq, Debug)]
pub enum Message {
    /// Client → dispatcher: create a new instance (factory pattern).
    CreateInstance,
    /// Dispatcher → client: the EPR of the created instance.
    InstanceCreated {
        /// The new instance's endpoint reference.
        instance: InstanceId,
    },
    /// Client → dispatcher `{1,2}`: submit a bundle of tasks.
    Submit {
        /// Target instance EPR.
        instance: InstanceId,
        /// The task bundle (client→dispatcher bundling, Section 3.4).
        tasks: Vec<TaskSpec>,
    },
    /// Dispatcher → client: submission accepted.
    SubmitAck {
        /// Target instance EPR.
        instance: InstanceId,
        /// Number of tasks accepted.
        accepted: u64,
    },
    /// Dispatcher → executor `{3}`: work is available for pick-up (the
    /// "push" half of the hybrid model; sent over the custom TCP protocol).
    Notify {
        /// Where to pick the work up.
        key: NotifyKey,
    },
    /// Executor → dispatcher `{4}`: request work (the "pull" half).
    GetWork {
        /// The requesting executor.
        executor: ExecutorId,
        /// The notification key being answered.
        key: NotifyKey,
    },
    /// Dispatcher → executor `{5}`: the task(s) to run.
    Work {
        /// Tasks assigned to this executor.
        tasks: Vec<TaskSpec>,
    },
    /// Executor → dispatcher `{6}`: results of completed task(s).
    Result {
        /// The reporting executor.
        executor: ExecutorId,
        /// Completed task results.
        results: Vec<TaskResult>,
    },
    /// Dispatcher → executor `{7}`: acknowledge result delivery, optionally
    /// piggy-backing the next task(s) (Section 3.4) so that steady-state
    /// operation needs only two messages (one WS call) per task.
    ResultAck {
        /// New work handed over in the same exchange (empty when piggy-
        /// backing is disabled or no work is queued).
        piggybacked: Vec<TaskSpec>,
    },
    /// Dispatcher → client `{8}`: results are ready for pick-up. No server
    /// sends it any more: each delivery is a pushed `Results`.
    ClientNotify {
        /// The instance with ready results.
        instance: InstanceId,
        /// How many results are ready.
        ready: u64,
    },
    /// Client → dispatcher `{9}`: retrieve finished results that were not
    /// pushed, and any a dead connection took with it.
    GetResults {
        /// The instance to drain.
        instance: InstanceId,
    },
    /// Dispatcher → client `{8}`–`{10}`: the finished results, pushed as
    /// they are delivered or sent in answer to `GetResults`.
    Results {
        /// Completed task results.
        results: Vec<TaskResult>,
    },
    /// Client → dispatcher: the client has taken `count` more results of
    /// `instance` from this connection; the server may forget them.
    ResultsAck {
        /// The instance the results belong to.
        instance: InstanceId,
        /// Results received since this connection's previous ack.
        count: u64,
    },
    /// Executor → dispatcher: register on startup.
    Register {
        /// Self-chosen executor id (unique per deployment).
        executor: ExecutorId,
        /// Hostname for diagnostics.
        host: String,
    },
    /// Dispatcher → executor: registration accepted.
    RegisterAck {
        /// Echoes the registered id.
        executor: ExecutorId,
    },
    /// Executor → dispatcher: deregister (e.g. idle-time release).
    Deregister {
        /// The departing executor.
        executor: ExecutorId,
    },
    /// Provisioner → dispatcher `{POLL}`: request a state snapshot.
    StatusPoll,
    /// Dispatcher → provisioner: the state snapshot.
    Status {
        /// Current dispatcher load.
        status: DispatcherStatus,
    },
    /// Client → dispatcher: destroy an instance.
    DestroyInstance {
        /// The instance to destroy.
        instance: InstanceId,
    },
}

impl Message {
    /// Short name for logging/metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::CreateInstance => "CreateInstance",
            Message::InstanceCreated { .. } => "InstanceCreated",
            Message::Submit { .. } => "Submit",
            Message::SubmitAck { .. } => "SubmitAck",
            Message::Notify { .. } => "Notify",
            Message::GetWork { .. } => "GetWork",
            Message::Work { .. } => "Work",
            Message::Result { .. } => "Result",
            Message::ResultAck { .. } => "ResultAck",
            Message::ClientNotify { .. } => "ClientNotify",
            Message::GetResults { .. } => "GetResults",
            Message::Results { .. } => "Results",
            Message::ResultsAck { .. } => "ResultsAck",
            Message::Register { .. } => "Register",
            Message::RegisterAck { .. } => "RegisterAck",
            Message::Deregister { .. } => "Deregister",
            Message::StatusPoll => "StatusPoll",
            Message::Status { .. } => "Status",
            Message::DestroyInstance { .. } => "DestroyInstance",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_for_key_messages() {
        let m1 = Message::Notify { key: NotifyKey(1) };
        let m2 = Message::GetWork {
            executor: ExecutorId(1),
            key: NotifyKey(1),
        };
        assert_ne!(m1.kind(), m2.kind());
    }

    #[test]
    fn id_debug_formats() {
        assert_eq!(format!("{:?}", ExecutorId(3)), "exec#3");
        assert_eq!(format!("{:?}", InstanceId(4)), "epr#4");
        assert_eq!(format!("{:?}", NotifyKey(5)), "key#5");
    }
}
