//! Typed lifecycle events and the [`Probe`] sink trait.
//!
//! Probes are sans-io: an event never carries a clock reading taken by the
//! machine that emits it — the driver passes `now: Micros` alongside the
//! event, exactly as it does for every other state-machine input. A probe
//! implementation may aggregate (see [`Counters`] and
//! [`crate::recorder::Recorder`]) or stream, but must not block: `on_event`
//! is called from inside dispatcher/executor hot paths.

use crate::Micros;

/// One observed lifecycle event, emitted by a `falkon-core` state machine.
///
/// Variants mirror the lifecycle of a Falkon task and the resources that
/// serve it: client-visible task transitions, dispatcher queue state,
/// executor pool membership, provisioner allocation decisions, forwarder
/// routing, and wire codec byte counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A client submitted `count` tasks in one bundle.
    TaskSubmitted {
        /// Tasks in the submitted bundle.
        count: u64,
    },
    /// A task left the wait queue for an executor after `queue_us` queued.
    TaskDispatched {
        /// Time the task spent queued, in microseconds.
        queue_us: u64,
    },
    /// An executor began running a task.
    TaskStarted,
    /// An executor finished running a task (success path, executor side).
    TaskFinished,
    /// The dispatcher accepted a first (non-duplicate) result for a task.
    TaskCompleted {
        /// Self-reported executor-side execution time, in microseconds.
        exec_us: u64,
        /// Round-trip overhead: total lifetime minus execution time.
        overhead_us: u64,
    },
    /// `count` task results were flushed to a client notification.
    TaskDelivered {
        /// Results included in the notification.
        count: u64,
    },
    /// A task exhausted its retry budget and was marked failed.
    TaskFailed,
    /// A task was re-queued for another attempt.
    TaskRetried,
    /// A result arrived for a task that already completed.
    DuplicateResult,
    /// The dispatcher notified an idle executor of work `{3}`.
    NotifySent,
    /// `count` tasks rode back to an executor piggybacked on a result ack.
    TaskPiggybacked {
        /// Tasks delivered via piggybacking.
        count: u64,
    },
    /// The data-aware scheduler found a task whose input is cached on the
    /// requesting executor.
    DataLocalityHit,
    /// An executor registered with the dispatcher.
    ExecutorRegistered,
    /// An executor reported `count` finished tasks in one message.
    ResultsReported {
        /// Results carried by the message.
        count: u64,
    },
    /// The provisioner decided to request an allocation of `executors`.
    AllocationRequested {
        /// Executors in the requested allocation.
        executors: u64,
    },
    /// The resource manager granted an allocation of `executors`.
    AllocationGranted {
        /// Executors in the granted allocation.
        executors: u64,
    },
    /// The provisioner released an allocation.
    AllocationReleased,
    /// The forwarder routed a submission bundle of `tasks` to a dispatcher.
    BundleRouted {
        /// Tasks in the routed bundle.
        tasks: u64,
    },
    /// The forwarder delivered `count` results toward a client.
    ResultsRouted {
        /// Results delivered.
        count: u64,
    },
    /// The forwarder re-queued `count` tasks after losing a dispatcher.
    TaskRerouted {
        /// Tasks rerouted.
        count: u64,
    },
    /// The forwarder marked a live downstream dispatcher lost: its slot
    /// takes no work until re-admission.
    DispatcherLost,
    /// The forwarder re-admitted a dispatcher the driver re-established.
    DispatcherReadmitted,
    /// A wire codec encoded a bundle into `bytes`.
    BundleEncoded {
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A wire codec decoded a bundle of `bytes`.
    BundleDecoded {
        /// Decoded (wire) size in bytes.
        bytes: u64,
    },
}

/// Discriminant-only view of [`ObsEvent`], used to index [`Counters`]; the
/// `Socket*` and `SendDeferred` kinds have no event: a [`crate::WireTap`] counts them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // each kind documents itself on the ObsEvent variant
pub enum ObsEventKind {
    TaskSubmitted,
    TaskDispatched,
    TaskStarted,
    TaskFinished,
    TaskCompleted,
    TaskDelivered,
    TaskFailed,
    TaskRetried,
    DuplicateResult,
    NotifySent,
    TaskPiggybacked,
    DataLocalityHit,
    ExecutorRegistered,
    ResultsReported,
    AllocationRequested,
    AllocationGranted,
    AllocationReleased,
    BundleRouted,
    ResultsRouted,
    TaskRerouted,
    DispatcherLost,
    DispatcherReadmitted,
    BundleEncoded,
    BundleDecoded,
    SocketRead,
    SocketWrite,
    SendDeferred,
}

/// Every kind with its stable snake_case name, in declaration order.
const TABLE: [(ObsEventKind, &str); 27] = [
    (ObsEventKind::TaskSubmitted, "task_submitted"),
    (ObsEventKind::TaskDispatched, "task_dispatched"),
    (ObsEventKind::TaskStarted, "task_started"),
    (ObsEventKind::TaskFinished, "task_finished"),
    (ObsEventKind::TaskCompleted, "task_completed"),
    (ObsEventKind::TaskDelivered, "task_delivered"),
    (ObsEventKind::TaskFailed, "task_failed"),
    (ObsEventKind::TaskRetried, "task_retried"),
    (ObsEventKind::DuplicateResult, "duplicate_result"),
    (ObsEventKind::NotifySent, "notify_sent"),
    (ObsEventKind::TaskPiggybacked, "task_piggybacked"),
    (ObsEventKind::DataLocalityHit, "data_locality_hit"),
    (ObsEventKind::ExecutorRegistered, "executor_registered"),
    (ObsEventKind::ResultsReported, "results_reported"),
    (ObsEventKind::AllocationRequested, "allocation_requested"),
    (ObsEventKind::AllocationGranted, "allocation_granted"),
    (ObsEventKind::AllocationReleased, "allocation_released"),
    (ObsEventKind::BundleRouted, "bundle_routed"),
    (ObsEventKind::ResultsRouted, "results_routed"),
    (ObsEventKind::TaskRerouted, "task_rerouted"),
    (ObsEventKind::DispatcherLost, "dispatcher_lost"),
    (ObsEventKind::DispatcherReadmitted, "dispatcher_readmitted"),
    (ObsEventKind::BundleEncoded, "bundle_encoded"),
    (ObsEventKind::BundleDecoded, "bundle_decoded"),
    (ObsEventKind::SocketRead, "socket_read"),
    (ObsEventKind::SocketWrite, "socket_write"),
    (ObsEventKind::SendDeferred, "send_deferred"),
];

impl ObsEventKind {
    /// Every kind, in declaration order (the [`Counters`] index order).
    pub const ALL: [ObsEventKind; TABLE.len()] = {
        let mut all = [ObsEventKind::TaskSubmitted; TABLE.len()];
        let mut i = 0;
        while i < all.len() {
            assert!(TABLE[i].0 as usize == i, "TABLE is in declaration order");
            all[i] = TABLE[i].0;
            i += 1;
        }
        all
    };

    /// Stable snake_case name, used in trace dumps and test diagnostics.
    pub const fn name(self) -> &'static str {
        TABLE[self as usize].1
    }
}

impl ObsEvent {
    /// The event's kind (the [`Counters`] index).
    pub const fn kind(&self) -> ObsEventKind {
        match self {
            ObsEvent::TaskSubmitted { .. } => ObsEventKind::TaskSubmitted,
            ObsEvent::TaskDispatched { .. } => ObsEventKind::TaskDispatched,
            ObsEvent::TaskStarted => ObsEventKind::TaskStarted,
            ObsEvent::TaskFinished => ObsEventKind::TaskFinished,
            ObsEvent::TaskCompleted { .. } => ObsEventKind::TaskCompleted,
            ObsEvent::TaskDelivered { .. } => ObsEventKind::TaskDelivered,
            ObsEvent::TaskFailed => ObsEventKind::TaskFailed,
            ObsEvent::TaskRetried => ObsEventKind::TaskRetried,
            ObsEvent::DuplicateResult => ObsEventKind::DuplicateResult,
            ObsEvent::NotifySent => ObsEventKind::NotifySent,
            ObsEvent::TaskPiggybacked { .. } => ObsEventKind::TaskPiggybacked,
            ObsEvent::DataLocalityHit => ObsEventKind::DataLocalityHit,
            ObsEvent::ExecutorRegistered => ObsEventKind::ExecutorRegistered,
            ObsEvent::ResultsReported { .. } => ObsEventKind::ResultsReported,
            ObsEvent::AllocationRequested { .. } => ObsEventKind::AllocationRequested,
            ObsEvent::AllocationGranted { .. } => ObsEventKind::AllocationGranted,
            ObsEvent::AllocationReleased => ObsEventKind::AllocationReleased,
            ObsEvent::BundleRouted { .. } => ObsEventKind::BundleRouted,
            ObsEvent::ResultsRouted { .. } => ObsEventKind::ResultsRouted,
            ObsEvent::TaskRerouted { .. } => ObsEventKind::TaskRerouted,
            ObsEvent::DispatcherLost => ObsEventKind::DispatcherLost,
            ObsEvent::DispatcherReadmitted => ObsEventKind::DispatcherReadmitted,
            ObsEvent::BundleEncoded { .. } => ObsEventKind::BundleEncoded,
            ObsEvent::BundleDecoded { .. } => ObsEventKind::BundleDecoded,
        }
    }

    /// The event's primary magnitude, accumulated by [`Counters::value`]:
    /// the carried count/size for multi-item events, the measured duration
    /// for latency events, and 1 for bare occurrences (so `value` equals
    /// `count` for those kinds).
    pub const fn value(&self) -> u64 {
        match *self {
            ObsEvent::TaskSubmitted { count }
            | ObsEvent::TaskDelivered { count }
            | ObsEvent::TaskPiggybacked { count }
            | ObsEvent::ResultsReported { count }
            | ObsEvent::ResultsRouted { count }
            | ObsEvent::TaskRerouted { count } => count,
            ObsEvent::TaskDispatched { queue_us } => queue_us,
            ObsEvent::TaskCompleted { overhead_us, .. } => overhead_us,
            ObsEvent::AllocationRequested { executors }
            | ObsEvent::AllocationGranted { executors } => executors,
            ObsEvent::BundleRouted { tasks } => tasks,
            ObsEvent::BundleEncoded { bytes } | ObsEvent::BundleDecoded { bytes } => bytes,
            ObsEvent::TaskStarted
            | ObsEvent::TaskFinished
            | ObsEvent::TaskFailed
            | ObsEvent::TaskRetried
            | ObsEvent::DuplicateResult
            | ObsEvent::NotifySent
            | ObsEvent::DataLocalityHit
            | ObsEvent::ExecutorRegistered
            | ObsEvent::AllocationReleased
            | ObsEvent::DispatcherLost
            | ObsEvent::DispatcherReadmitted => 1,
        }
    }
}

/// A sink for observed events.
///
/// Implementations must be cheap and non-blocking — `on_event` runs inside
/// the dispatcher and executor hot paths. They must also be sans-io: `now`
/// is the only notion of time available.
pub trait Probe {
    /// Observe one event stamped with the driver-supplied time.
    fn on_event(&mut self, now: Micros, event: &ObsEvent);
}

/// The default probe: ignores everything. With `P = NoopProbe` the emission
/// call inlines to nothing, so unprobed machines pay no observability cost
/// beyond their internal [`Counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    #[inline(always)]
    fn on_event(&mut self, _now: Micros, _event: &ObsEvent) {}
}

const KINDS: usize = ObsEventKind::ALL.len();

/// Per-kind event counts and value sums.
///
/// Every `falkon-core` machine keeps one internally (independent of the
/// mounted probe) and hands it out from `counters()`, so a count is a view
/// of the event stream, never a hand-maintained field. The executor, at
/// 120 bytes, keeps its four counts in `ExecutorStats` and builds its
/// `Counters` on demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    counts: [u64; KINDS],
    values: [u64; KINDS],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            counts: [0; KINDS],
            values: [0; KINDS],
        }
    }
}

impl Counters {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Record one event.
    #[inline]
    pub fn observe(&mut self, event: &ObsEvent) {
        let k = event.kind() as usize;
        self.counts[k] += 1;
        self.values[k] += event.value();
    }

    /// Record `count` events of `kind` whose values sum to `value` (a
    /// machine that keeps its few counts compactly builds its view here).
    #[inline]
    pub fn add(&mut self, kind: ObsEventKind, count: u64, value: u64) {
        self.counts[kind as usize] += count;
        self.values[kind as usize] += value;
    }

    /// Number of events of `kind` observed.
    pub fn count(&self, kind: ObsEventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Sum of [`ObsEvent::value`] over events of `kind`.
    pub fn value(&self, kind: ObsEventKind) -> u64 {
        self.values[kind as usize]
    }

    /// Add another counter set into this one (sharded-recorder merge).
    pub fn merge(&mut self, other: &Counters) {
        for k in 0..KINDS {
            self.counts[k] += other.counts[k];
            self.values[k] += other.values[k];
        }
    }

    /// `(kind, count, value_sum)` for every kind with at least one event,
    /// in stable declaration order.
    pub fn by_kind(&self) -> Vec<(ObsEventKind, u64, u64)> {
        ObsEventKind::ALL
            .iter()
            .filter(|&&k| self.counts[k as usize] > 0)
            .map(|&k| (k, self.counts[k as usize], self.values[k as usize]))
            .collect()
    }
}

impl Probe for Counters {
    #[inline]
    fn on_event(&mut self, _now: Micros, event: &ObsEvent) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for k in ObsEventKind::ALL {
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(names.len(), ObsEventKind::ALL.len());
    }

    #[test]
    fn value_mapping() {
        assert_eq!(ObsEvent::TaskSubmitted { count: 7 }.value(), 7);
        assert_eq!(ObsEvent::TaskDispatched { queue_us: 42 }.value(), 42);
        assert_eq!(
            ObsEvent::TaskCompleted {
                exec_us: 10,
                overhead_us: 9
            }
            .value(),
            9
        );
        assert_eq!(ObsEvent::TaskStarted.value(), 1);
        assert_eq!(ObsEvent::BundleEncoded { bytes: 128 }.value(), 128);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.observe(&ObsEvent::TaskSubmitted { count: 3 });
        a.observe(&ObsEvent::TaskSubmitted { count: 2 });
        a.observe(&ObsEvent::TaskStarted);
        assert_eq!(a.count(ObsEventKind::TaskSubmitted), 2);
        assert_eq!(a.value(ObsEventKind::TaskSubmitted), 5);
        assert_eq!(a.count(ObsEventKind::TaskStarted), 1);
        assert_eq!(a.value(ObsEventKind::TaskStarted), 1);

        let mut b = Counters::new();
        b.observe(&ObsEvent::TaskSubmitted { count: 10 });
        b.merge(&a);
        assert_eq!(b.count(ObsEventKind::TaskSubmitted), 3);
        assert_eq!(b.value(ObsEventKind::TaskSubmitted), 15);

        let by_kind = b.by_kind();
        assert_eq!(by_kind.len(), 2);
        assert_eq!(by_kind[0].0, ObsEventKind::TaskSubmitted);
    }

    #[test]
    fn noop_probe_ignores() {
        let mut p = NoopProbe;
        p.on_event(0, &ObsEvent::TaskStarted);
        // Nothing observable; just proves the impl exists and is callable.
    }
}
