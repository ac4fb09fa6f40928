//! The discrete-event loop.
//!
//! [`Engine::run`] pops timed events and hands each to a handler closure
//! together with `&mut Engine`, so the handler can schedule follow-up
//! events. A simulation keeps its state in one "world" struct the closure
//! borrows.

use crate::event::EventQueue;
use crate::{SimDuration, SimTime};

/// The simulation clock plus event queue; the heart of every simulated
/// experiment.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    stopped: bool,
    events_processed: u64,
    /// Safety valve: abort if a run processes more events than this.
    max_events: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an engine at time zero.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stopped: false,
            events_processed: 0,
            max_events: u64::MAX,
        }
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Request that the run loop exit after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Drive the simulation until the queue drains, [`Engine::stop`] is
    /// called, or `max_events` is exceeded (panic: indicates a livelock).
    pub fn run<F: FnMut(&mut Engine<E>, E)>(&mut self, mut handler: F) {
        while !self.stopped {
            let Some((t, ev)) = self.queue.pop() else {
                return;
            };
            self.now = t;
            self.events_processed += 1;
            assert!(
                self.events_processed <= self.max_events,
                "simulation exceeded max_events = {} (livelock?)",
                self.max_events
            );
            handler(self, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_engine_runs_chained_events() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimDuration::from_secs(1), 0);
        let mut seen = Vec::new();
        eng.run(|eng, n| {
            seen.push((eng.now, n));
            if n < 3 {
                eng.schedule(SimDuration::from_secs(1), n + 1);
            }
        });
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[3], (SimTime::from_secs(4), 3));
        assert_eq!(eng.events_processed(), 4);
    }

    #[test]
    fn stop_exits_early() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..100 {
            eng.schedule(SimDuration::from_secs(i), i as u32);
        }
        let mut count = 0;
        eng.run(|eng, n| {
            count += 1;
            if n == 9 {
                eng.stop();
            }
        });
        assert_eq!(count, 10);
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn max_events_catches_livelock() {
        let mut eng: Engine<()> = Engine::new();
        eng.max_events = 50;
        eng.schedule(SimDuration::ZERO, ());
        eng.run(|eng, ()| eng.schedule(SimDuration::ZERO, ()));
    }
}
