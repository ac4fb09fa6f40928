//! [`Recorder`]: the aggregating probe mounted by the drivers.

use crate::metrics::Histogram;
use crate::probe::{Counters, ObsEvent, Probe};
use crate::Micros;

/// Aggregates the event stream into counters and latency histograms. Its
/// size is fixed: nothing in it grows with the number of events observed.
///
/// Both drivers mount one: the simulator on the dispatcher (virtual time),
/// the real-time runtime one per thread (wall-clock-derived micros), merged
/// with [`Recorder::merge`] at join — the cheap "sharded recorder" scheme,
/// since each shard is plain owned data behind no lock.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Per-kind counts and value sums.
    pub counters: Counters,
    /// Per-task time spent in the wait queue (µs), from `TaskDispatched`.
    pub queue_time_us: Histogram,
    /// Per-task executor-reported run time (µs), from `TaskCompleted`.
    exec_time_us: Histogram,
    /// Per-task dispatch overhead (µs): lifetime minus execution time,
    /// from `TaskCompleted`. Drives the p50/p90/p99/max report.
    pub overhead_us: Histogram,
}

impl Recorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Absorb another recorder (e.g. a per-thread shard).
    pub fn merge(&mut self, other: &Recorder) {
        self.counters.merge(&other.counters);
        self.queue_time_us.merge(&other.queue_time_us);
        self.exec_time_us.merge(&other.exec_time_us);
        self.overhead_us.merge(&other.overhead_us);
    }

    /// Absorb a bare counter set (machines expose their internal
    /// [`Counters`] even when no recorder was mounted on them).
    pub fn merge_counters(&mut self, other: &Counters) {
        self.counters.merge(other);
    }
}

impl Probe for Recorder {
    fn on_event(&mut self, _now: Micros, event: &ObsEvent) {
        self.counters.observe(event);
        match *event {
            ObsEvent::TaskDispatched { queue_us } => self.queue_time_us.record(queue_us),
            ObsEvent::TaskCompleted {
                exec_us,
                overhead_us,
                ..
            } => {
                self.exec_time_us.record(exec_us);
                self.overhead_us.record(overhead_us);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ObsEventKind;

    #[test]
    fn recorder_routes_events() {
        let mut r = Recorder::new();
        r.on_event(100, &ObsEvent::TaskDispatched { queue_us: 50 });
        r.on_event(
            200,
            &ObsEvent::TaskCompleted {
                queue_us: 50,
                exec_us: 40,
                overhead_us: 60,
            },
        );
        r.on_event(300, &ObsEvent::QueueDepth { depth: 4 });
        r.on_event(300, &ObsEvent::TaskStarted);

        assert_eq!(r.counters.count(ObsEventKind::TaskDispatched), 1);
        assert_eq!(r.queue_time_us.count(), 1);
        assert_eq!(r.exec_time_us.count(), 1);
        assert_eq!(r.overhead_us.max(), 60);
        assert_eq!(r.counters.value(ObsEventKind::QueueDepth), 4);
        assert_eq!(r.counters.count(ObsEventKind::TaskStarted), 1);
    }

    #[test]
    fn recorder_merge_combines_shards() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        a.on_event(10, &ObsEvent::TaskDispatched { queue_us: 5 });
        b.on_event(20, &ObsEvent::TaskDispatched { queue_us: 15 });
        b.on_event(25, &ObsEvent::QueueDepth { depth: 1 });
        a.merge(&b);
        assert_eq!(a.counters.count(ObsEventKind::TaskDispatched), 2);
        assert_eq!(a.queue_time_us.count(), 2);
        assert_eq!(a.counters.count(ObsEventKind::QueueDepth), 1);
    }
}
