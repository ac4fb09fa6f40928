//! The discrete-event loop.
//!
//! Two styles are supported:
//!
//! * **Closure-driven** — [`Engine::run`] pops timed events and hands each to
//!   a handler together with `&mut Engine`, so the handler can schedule
//!   follow-up events. Experiment harnesses that keep all state in one
//!   "world" struct use this.
//! * **Actor-driven** — register objects implementing [`Process`] with an
//!   [`Engine`]-owned [`ActorSystem`] and address events to a [`ProcessId`].
//!   Used where the simulation mirrors the paper's component diagram
//!   (dispatcher, provisioner, executors, LRM) one actor per component.

use crate::event::EventQueue;
use crate::{SimDuration, SimTime};

/// Identifies a registered [`Process`] within an [`ActorSystem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub usize);

/// The simulation clock plus event queue; the heart of every simulated
/// experiment.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    stopped: bool,
    events_processed: u64,
    /// Safety valve: abort if a run processes more events than this.
    pub max_events: u64,
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

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute instant (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Request that the run loop exit after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drive the simulation until the queue drains, [`Engine::stop`] is
    /// called, or `max_events` is exceeded (panic: indicates a livelock).
    pub fn run<F: FnMut(&mut Engine<E>, E)>(&mut self, mut handler: F) {
        self.run_until(SimTime::MAX, &mut handler);
    }

    /// Like [`Engine::run`] but stops (without consuming) at the first event
    /// scheduled after `deadline`. Returns `true` if stopped by the deadline.
    pub fn run_until<F: FnMut(&mut Engine<E>, E)>(
        &mut self,
        deadline: SimTime,
        handler: &mut F,
    ) -> bool {
        while !self.stopped {
            // One heap operation per event: `pop_at_or_before` folds the old
            // peek-then-pop double traversal into a single conditional pop.
            let Some((t, ev)) = self.queue.pop_at_or_before(deadline) else {
                return !self.queue.is_empty();
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
        false
    }
}

/// An actor in an [`ActorSystem`].
pub trait Process<E> {
    /// Handle one event addressed to this process. `ctx` allows scheduling
    /// follow-up events addressed to any process.
    fn on_event(&mut self, ctx: &mut Ctx<'_, E>, event: E);
}

/// Scheduling context handed to a [`Process`] during event delivery.
pub struct Ctx<'a, E> {
    now: SimTime,
    self_id: ProcessId,
    outbox: &'a mut Vec<(SimTime, ProcessId, E)>,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the process currently handling the event.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Send `event` to process `to` after `delay`.
    pub fn send_after(&mut self, delay: SimDuration, to: ProcessId, event: E) {
        self.outbox.push((self.now + delay, to, event));
    }

    /// Send `event` to process `to` immediately (still queued; delivered in
    /// FIFO order at the current instant).
    pub fn send_now(&mut self, to: ProcessId, event: E) {
        self.send_after(SimDuration::ZERO, to, event);
    }

    /// Schedule an event to self after `delay` (a timer).
    pub fn timer(&mut self, delay: SimDuration, event: E) {
        let id = self.self_id;
        self.send_after(delay, id, event);
    }

    /// Request the whole simulation to stop after this event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A collection of [`Process`] actors driven by an internal [`Engine`].
pub struct ActorSystem<E> {
    engine: Engine<(ProcessId, E)>,
    actors: Vec<Box<dyn Process<E>>>,
}

impl<E> Default for ActorSystem<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ActorSystem<E> {
    /// Create an empty actor system at time zero.
    pub fn new() -> Self {
        ActorSystem {
            engine: Engine::new(),
            actors: Vec::new(),
        }
    }

    /// Register an actor, returning its address.
    pub fn add(&mut self, actor: Box<dyn Process<E>>) -> ProcessId {
        self.actors.push(actor);
        ProcessId(self.actors.len() - 1)
    }

    /// Schedule an initial event for `to` at absolute time `at`.
    pub fn seed(&mut self, at: SimTime, to: ProcessId, event: E) {
        self.engine.schedule_at(at, (to, event));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Drive until no events remain or an actor calls [`Ctx::stop`].
    pub fn run(&mut self) {
        // Reuse the engine's single-pop path instead of reaching into the
        // queue directly; `Ctx::stop` maps onto `Engine::stop`.
        self.engine.stopped = false;
        let mut outbox: Vec<(SimTime, ProcessId, E)> = Vec::new();
        let actors = &mut self.actors;
        self.engine.run_until(SimTime::MAX, &mut |eng, (pid, ev)| {
            let mut stop = false;
            {
                let mut ctx = Ctx {
                    now: eng.now(),
                    self_id: pid,
                    outbox: &mut outbox,
                    stop: &mut stop,
                };
                actors[pid.0].on_event(&mut ctx, ev);
            }
            if stop {
                eng.stop();
            }
            for (at, to, event) in outbox.drain(..) {
                eng.schedule_at(at, (to, event));
            }
        });
    }

    /// Access a registered actor (e.g. to extract results after `run`).
    pub fn actor(&self, id: ProcessId) -> &dyn Process<E> {
        self.actors[id.0].as_ref()
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
            seen.push((eng.now(), n));
            if n < 3 {
                eng.schedule(SimDuration::from_secs(1), n + 1);
            }
        });
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[3], (SimTime::from_secs(4), 3));
        assert_eq!(eng.events_processed(), 4);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<()> = Engine::new();
        for s in 1..=10 {
            eng.schedule_at(SimTime::from_secs(s), ());
        }
        let mut count = 0;
        let hit = eng.run_until(SimTime::from_secs(5), &mut |_, _| count += 1);
        assert!(hit);
        assert_eq!(count, 5);
        assert_eq!(eng.pending(), 5);
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

    /// Bounces an event between itself and a peer until the counter drains.
    struct Bouncer {
        hops: u32,
    }
    impl Process<u32> for Bouncer {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
            self.hops += 1;
            if n == 0 {
                ctx.stop();
            } else {
                // Two actors: ids 0 and 1; send to the other one.
                let peer = ProcessId(1 - ctx.self_id().0);
                ctx.send_after(SimDuration::from_millis(10), peer, n - 1);
            }
        }
    }

    #[test]
    fn actor_system_ping_pong() {
        let mut sys: ActorSystem<u32> = ActorSystem::new();
        let a = sys.add(Box::new(Bouncer { hops: 0 }));
        let _b = sys.add(Box::new(Bouncer { hops: 0 }));
        sys.seed(SimTime::ZERO, a, 3);
        sys.run();
        // 3 -> 2 -> 1 -> 0: three 10ms hops after the seed event.
        assert_eq!(sys.now(), SimTime::from_micros(30_000));
    }

    #[test]
    fn actor_timers_fire_on_self() {
        struct Counter {
            fired: u32,
        }
        impl Process<()> for Counter {
            fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
                self.fired += 1;
                if self.fired < 5 {
                    ctx.timer(SimDuration::from_secs(1), ());
                }
            }
        }
        let mut sys: ActorSystem<()> = ActorSystem::new();
        let c = sys.add(Box::new(Counter { fired: 0 }));
        sys.seed(SimTime::ZERO, c, ());
        sys.run();
        assert_eq!(sys.now(), SimTime::from_secs(4));
    }
}
