//! Dispatcher configuration.

use crate::policy::ReplayPolicy;
use serde::{Deserialize, Serialize};

/// Tunables of the streamlined dispatcher.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct DispatcherConfig {
    /// Piggy-back new tasks on result acknowledgements (messages {6,7}
    /// collapse into one WS call per task; Section 3.4).
    pub piggyback: bool,
    /// Maximum tasks handed to an executor per `Work`/`ResultAck` message.
    /// The paper uses 1 (dispatcher→executor bundling needs runtime
    /// estimates the clients don't provide).
    pub work_bundle: usize,
    /// Replay policy for lost/failed tasks.
    pub replay: ReplayPolicy,
    /// Coalesce client notifications: notify a client at most once per this
    /// many newly ready results (1 = notify eagerly).
    pub client_notify_batch: u64,
    /// Data-aware dispatch (paper Section 6 future work): when handing work
    /// to an executor, prefer queued tasks whose data object that executor
    /// has already staged (it will hit its node's local cache).
    pub data_aware: bool,
    /// How many queued tasks the data-aware scan examines per hand-off
    /// (bounds dispatch cost; next-available beyond that window).
    pub data_aware_window: usize,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            piggyback: true,
            work_bundle: 1,
            replay: ReplayPolicy::default(),
            client_notify_batch: 1,
            data_aware: false,
            data_aware_window: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DispatcherConfig::default();
        assert!(c.piggyback);
        assert_eq!(c.work_bundle, 1);
    }
}
