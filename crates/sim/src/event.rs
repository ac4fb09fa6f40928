//! A deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (stable FIFO), which makes simulations bit-for-bit reproducible regardless
//! of how the underlying timing structure happens to balance.
//!
//! # Layout
//!
//! The queue is a **hierarchical timer wheel** ([`crate::wheel`]) ordered by
//! a packed `(time, sequence)` key, plus a **same-instant FIFO lane**:
//!
//! * The wheel indexes events by the bytes of their absolute time: O(1)
//!   push and amortised-O(1) pop regardless of how many timers are
//!   outstanding. This is what keeps 50K-outstanding-timer simulations
//!   (the paper's 54K-executor runs, and the 100k-executor arm beyond
//!   them) queue-light: a heap pays a cache-missing O(log n) sift per
//!   operation exactly at those scales (~9M events/s against the wheel's
//!   ~35M at 50k resident timers). Events beyond the wheel's 2^32 µs
//!   horizon sit in a far-future overflow heap until their epoch arrives.
//! * Pushes at exactly the current instant (`at == last_popped`) skip the
//!   wheel entirely and append to a `VecDeque` lane. Dispatcher pump
//!   cascades — dozens of notify/ack events emitted "now" — cost O(1) each
//!   with no wheel traffic. Because every wheel entry is keyed `(at, seq)`
//!   and lane entries keep their global `seq`, [`EventQueue::pop`] merges
//!   the two sources back into exactly the order a single heap would
//!   produce.
//!
//! The total order is that of a single heap on `(time, push sequence)`:
//! ascending time, FIFO within one instant. The `queue_model` proptest
//! suite drives this queue and a `BinaryHeap` model through identical
//! operation sequences and requires identical behaviour.

use crate::heap::{key_time, pack};
use crate::wheel::TimerWheel;
use crate::SimTime;
use std::collections::VecDeque;

/// A priority queue of `(SimTime, E)` pairs popped in time order, FIFO within
/// a single instant.
pub struct EventQueue<E> {
    /// Hierarchical timer wheel + far-future overflow heap.
    wheel: TimerWheel<E>,
    /// Events pushed at exactly `last_popped`: already in pop order, no wheel
    /// traffic. Invariant: every lane entry's time equals `last_popped`, and
    /// the lane drains before `last_popped` can advance (any later event
    /// compares greater than the lane front).
    lane: VecDeque<(u64, E)>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past would violate causality.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.last_popped,
            "event scheduled in the past: {:?} < {:?}",
            at,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at == self.last_popped {
            // Same-instant fast lane: globally minimal among future pushes,
            // ordered against same-instant wheel entries by `seq` at pop.
            self.lane.push_back((seq, event));
            return;
        }
        self.wheel.insert(pack(at, seq), event);
    }

    /// Remove and return the earliest event together with its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if it is scheduled at or before
    /// `deadline`; otherwise leave the queue untouched and return `None`.
    /// A refused pop is pure: the wheel peek never cascades, so pushes that
    /// arrive before the deadline event keep their correct order.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        // The lane, when non-empty, holds events at `last_popped`, which is
        // ≤ every wheel time; it loses only to a same-instant wheel entry
        // with an earlier sequence number.
        if let Some(&(lane_seq, _)) = self.lane.front() {
            let lane_key = pack(self.last_popped, lane_seq);
            // Pop the wheel iff its minimum is strictly below the lane
            // front: same instant, earlier push. (`last_popped` is
            // unchanged by construction: such a key ties its time.) The
            // peek is pure and fully inline, so the common all-lane case —
            // dispatcher pump cascades with an empty wheel — never pays the
            // out-of-line slab pop.
            if let Some(k) = self.wheel.peek_key() {
                if k < lane_key {
                    let (key, event) = self
                        .wheel
                        .pop_key_at_most(lane_key - 1)
                        .expect("peeked key below the bound");
                    return Some((key_time(key), event));
                }
            }
            if self.last_popped > deadline {
                return None;
            }
            let (_, event) = self.lane.pop_front().expect("front checked");
            return Some((self.last_popped, event));
        }
        // Sequence numbers never reach u64::MAX, so the inclusive key bound
        // is exactly "time ≤ deadline". A refused pop leaves the wheel
        // untouched (see `TimerWheel::pop_key_at_most`).
        let (key, event) = self.wheel.pop_key_at_most(pack(deadline, u64::MAX))?;
        let at = key_time(key);
        self.last_popped = at;
        Some((at, event))
    }

    /// The timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.lane.is_empty() {
            // A same-instant wheel entry can only tie the lane's time.
            return Some(self.last_popped);
        }
        self.wheel.peek_key().map(key_time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len() + self.lane.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty() && self.lane.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(2));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_events_in_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(5), ());
    }

    #[test]
    fn allows_events_at_current_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        q.pop();
        q.push(SimTime::from_secs(10), 2); // same instant as last pop: fine
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn lane_respects_earlier_wheel_entries_at_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, "wheel-early"); // seq 0, via wheel (last_popped = 0)
        q.push(SimTime::from_micros(500), "first"); // seq 1
        assert_eq!(q.pop().unwrap().1, "first"); // last_popped = 500µs
        q.push(SimTime::from_secs(1), "wheel-late"); // seq 2, wheel (1s > 0.5s)
        assert_eq!(q.pop().unwrap().1, "wheel-early"); // last_popped = 1s
        q.push(t, "lane-1"); // seq 3, lane
        q.push(t, "lane-2"); // seq 4, lane
                             // wheel-late (seq 2) precedes the lane entries (seqs 3, 4).
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["wheel-late", "lane-1", "lane-2"]);
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        for s in [5u64, 1, 3, 2, 4] {
            q.push(SimTime::from_secs(s), s);
        }
        let mut seen = Vec::new();
        while let Some((_, e)) = q.pop_at_or_before(SimTime::from_secs(3)) {
            seen.push(e);
        }
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(q.len(), 2);
        // The remainder pops in order with an unbounded deadline.
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.pop_at_or_before(SimTime::MAX).is_none());
    }

    #[test]
    fn pop_at_or_before_holds_lane_events_past_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        q.pop();
        q.push(SimTime::from_secs(10), "lane"); // same instant: lane
                                                // Deadline before the lane's instant: nothing deliverable.
        assert!(q.pop_at_or_before(SimTime::from_secs(9)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(10)).unwrap().1,
            "lane"
        );
    }

    #[test]
    fn refused_pop_then_earlier_push_keeps_order() {
        // The wheel must not cascade on a refused pop: after the refusal,
        // a push earlier than the refused event (but ≥ last_popped) is
        // legal and must still pop first.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), "past");
        q.pop(); // last_popped = 100µs
        q.push(SimTime::from_micros(400), "later"); // level 1 vs ref 100
        assert!(q.pop_at_or_before(SimTime::from_micros(200)).is_none());
        q.push(SimTime::from_micros(150), "sooner");
        assert_eq!(q.pop().unwrap().1, "sooner");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Past the wheel horizon (2^32 µs ≈ 71.6 min): overflow heap path.
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(100_000); // 1e11 µs >> 2^32
        q.push(far, "far-1");
        q.push(SimTime::from_secs(1), "near");
        q.push(far, "far-2");
        q.push(SimTime::from_secs(200_000), "farther");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "far-1", "far-2", "farther"]);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Deterministic pseudo-random workout across wheel levels.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut now = 0u64;
        let mut popped = Vec::new();
        for round in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Offsets spanning all four levels plus the overflow heap.
            q.push(SimTime::from_micros(now + x % (3 << 30)), round);
            if x.is_multiple_of(3) {
                if let Some((t, _)) = q.pop() {
                    now = t.as_micros();
                    popped.push(t);
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        assert_eq!(popped.len(), 2_000);
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "pops out of order");
    }
}
