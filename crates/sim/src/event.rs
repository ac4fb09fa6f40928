//! A deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (stable FIFO), which makes simulations bit-for-bit reproducible regardless
//! of how the underlying timing structure happens to balance.
//!
//! # Layout
//!
//! The queue is the causality check and a push sequence number around one
//! **hierarchical timer wheel** ([`crate::wheel`]). Every event is keyed by
//! the packed `(time << 64) | seq`, and the wheel pops in ascending key
//! order. It indexes events by the bytes of their absolute time: O(1) push
//! and amortised-O(1) pop regardless of how many timers are outstanding,
//! which keeps 50K-outstanding-timer simulations (the paper's 54K-executor
//! runs, and the 100k-executor arm beyond them) queue-light.
//!
//! The total order is that of a single heap on `(time, push sequence)`:
//! ascending time, FIFO within one instant. The `queue_model` proptest
//! suite drives this queue and a `BinaryHeap` model through identical
//! operation sequences and requires identical behaviour.

use crate::wheel::TimerWheel;
use crate::SimTime;

/// The ordering key: `(time << 64) | seq` compares exactly like
/// `(time, seq)`.
#[inline]
const fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_micros() as u128) << 64) | seq as u128
}

/// The time half of a [`pack`]ed key.
#[inline]
const fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

/// A priority queue of `(SimTime, E)` pairs popped in time order, FIFO within
/// a single instant.
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
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
        self.wheel.insert(pack(at, seq), event);
    }

    /// Remove and return the earliest event together with its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if it is scheduled at or before
    /// `deadline`; otherwise leave the queue untouched and return `None`.
    /// A refused pop is pure: the wheel never cascades on refusal, so pushes
    /// that arrive before the deadline event keep their correct order.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        // Sequence numbers never reach u64::MAX, so the inclusive key bound
        // is exactly "time ≤ deadline".
        let (key, event) = self.wheel.pop_key_at_most(pack(deadline, u64::MAX))?;
        let at = key_time(key);
        self.last_popped = at;
        Some((at, event))
    }

    /// The timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_key().map(key_time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
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
    fn same_instant_pushes_queue_behind_earlier_pushes_at_that_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, "early"); // seq 0
        q.push(SimTime::from_micros(500), "first"); // seq 1
        assert_eq!(q.pop().unwrap().1, "first"); // last_popped = 500µs
        q.push(SimTime::from_secs(1), "late"); // seq 2
        assert_eq!(q.pop().unwrap().1, "early"); // last_popped = 1s
        q.push(t, "now-1"); // seq 3, at the current instant
        q.push(t, "now-2"); // seq 4
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["late", "now-1", "now-2"]);
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
    fn pop_at_or_before_holds_current_instant_events_past_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        q.pop();
        q.push(SimTime::from_secs(10), "now"); // the current instant
        assert!(q.pop_at_or_before(SimTime::from_secs(9)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(10)).unwrap().1, "now");
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
        // Past the wheel horizon (2^32 µs ≈ 71.6 min): the overflow path.
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
    fn overflow_drains_one_epoch_at_a_time() {
        // An epoch is the 2^32 µs the wheel resolves. Draining the overflow
        // one epoch late would place the next epoch's events beyond the
        // horizon; one epoch early would drain nothing and never return.
        const EPOCH: u64 = 1 << 32;
        let us = SimTime::from_micros;
        let mut q = EventQueue::new();
        // Four epochs pending in the overflow, the last one included.
        q.push(SimTime::MAX, "last-epoch");
        q.push(us(3 * EPOCH + 5), "e3");
        q.push(us(2 * EPOCH + 3), "e2");
        q.push(us(EPOCH), "e1-a"); // ties at epoch 1's first µs
        q.push(us(EPOCH), "e1-b");
        assert_eq!(q.pop(), Some((us(EPOCH), "e1-a")));
        q.push(us(EPOCH), "e1-c"); // same instant, pushed after the drain
        assert_eq!(q.pop(), Some((us(EPOCH), "e1-b")));
        assert_eq!(q.pop(), Some((us(EPOCH), "e1-c")));
        // Refused across the boundary into epoch 2: nothing moves, so a
        // push into the current epoch still comes first.
        assert_eq!(q.pop_at_or_before(us(2 * EPOCH + 2)), None);
        assert_eq!(q.len(), 3);
        q.push(us(2 * EPOCH - 1), "e1-late");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (us(2 * EPOCH - 1), "e1-late"),
                (us(2 * EPOCH + 3), "e2"),
                (us(3 * EPOCH + 5), "e3"),
                (SimTime::MAX, "last-epoch"),
            ]
        );
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
            // Offsets spanning all four levels plus the overflow.
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
