//! The 4-ary-heap event queue, kept as the wheel's reference implementation.
//!
//! [`EventQueue`](crate::EventQueue) is now a hierarchical timer wheel (see
//! [`crate::wheel`]); this module preserves the previous heap-backed queue
//! in two forms:
//!
//! * [`KeyHeap`] — the raw 4-ary implicit min-heap on a packed
//!   `(time << 64 | seq)` key. The wheel reuses it as its far-future
//!   overflow level, where O(log n) is paid only by events scheduled
//!   beyond the wheel horizon.
//! * [`HeapQueue`] — the full previous `EventQueue` (heap + same-instant
//!   FIFO lane + causality check) behind the identical API. It exists so
//!   the `queue_model` proptest suite and the `event_queue` criterion
//!   bench can run the wheel *against* the heap on identical operation
//!   sequences: the two must agree on every pop, peek, and length.
//!
//! # Layout
//!
//! Each heap entry carries its ordering key *inline* as a single packed
//! `u128` (`time << 64 | seq`), so every sift comparison is one wide
//! integer compare with no pointer chasing. A 4-ary heap halves the tree
//! depth of a binary heap and keeps the four children of a node in at
//! most two cache lines. (A slab-indexed variant — dense key array,
//! payloads never moving — was measured and is *slower* for the small
//! event types the simulations actually use; see DESIGN.md § perf.)

use crate::SimTime;
use std::collections::VecDeque;

/// One heap entry: the packed ordering key and the payload.
struct Entry<E> {
    /// `(time << 64) | seq` — compares exactly like `(time, seq)`.
    key: u128,
    event: E,
}

#[inline]
pub(crate) const fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_micros() as u128) << 64) | seq as u128
}

#[inline]
pub(crate) const fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

/// A plain 4-ary implicit min-heap on a packed `(time, seq)` key.
///
/// No causality checks, no FIFO lane: those live in the wrappers
/// ([`HeapQueue`], [`crate::EventQueue`]). Keys must be unique per queue
/// (the wrappers guarantee this by embedding a monotone sequence number).
pub(crate) struct KeyHeap<E> {
    heap: Vec<Entry<E>>,
}

impl<E> KeyHeap<E> {
    pub(crate) const fn new() -> Self {
        KeyHeap { heap: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimal key, if any.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        self.heap.first().map(|e| e.key)
    }

    #[inline]
    pub(crate) fn push(&mut self, key: u128, event: E) {
        self.heap.push(Entry { key, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the minimal entry (caller typically checked non-empty via
    /// [`KeyHeap::peek_key`]).
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u128, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((entry.key, entry.event))
    }

    #[inline]
    fn sift_up(&mut self, mut pos: usize) {
        // The sifted entry's key is invariant: hoist it out of the loop so
        // each level is one load + one compare (+ one swap when moving).
        let key = self.heap[pos].key;
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if key < self.heap[parent].key {
                self.heap.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        let key = self.heap[pos].key;
        loop {
            let first = 4 * pos + 1;
            if first >= len {
                return;
            }
            let last = (first + 4).min(len);
            let mut min = first;
            let mut min_key = self.heap[first].key;
            for c in first + 1..last {
                let k = self.heap[c].key;
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < key {
                self.heap.swap(pos, min);
                pos = min;
            } else {
                return;
            }
        }
    }
}

/// The previous heap-only event queue: 4-ary heap plus a same-instant FIFO
/// lane, popped in ascending `(time, insertion sequence)` order.
///
/// API-identical to [`crate::EventQueue`]; kept as the reference
/// implementation the wheel is proven equivalent to (`queue_model.rs`) and
/// benchmarked against (`benches/event_queue.rs`).
pub struct HeapQueue<E> {
    heap: KeyHeap<E>,
    /// Events pushed at exactly `last_popped`: already in pop order, no heap
    /// traffic. Invariant: every lane entry's time equals `last_popped`, and
    /// the lane drains before `last_popped` can advance (any later event
    /// compares greater than the lane front).
    lane: VecDeque<(u64, E)>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: KeyHeap::new(),
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
            // ordered against same-instant heap entries by `seq` at pop.
            self.lane.push_back((seq, event));
            return;
        }
        self.heap.push(pack(at, seq), event);
    }

    /// Remove and return the earliest event together with its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if it is scheduled at or before
    /// `deadline`; otherwise leave the queue untouched and return `None`.
    /// One heap operation per delivered event — no peek-then-pop.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        // The lane, when non-empty, holds events at `last_popped`, which is
        // ≤ every heap time; it loses only to a same-instant heap entry with
        // an earlier sequence number.
        if let Some(&(lane_seq, _)) = self.lane.front() {
            let lane_key = pack(self.last_popped, lane_seq);
            if let Some(root) = self.heap.peek_key() {
                if root < lane_key {
                    // Same instant, earlier push: the heap entry goes first.
                    // (`last_popped` is unchanged by construction.)
                    let (key, event) = self.heap.pop().expect("peeked");
                    return Some((key_time(key), event));
                }
            }
            if self.last_popped > deadline {
                return None;
            }
            let (_, event) = self.lane.pop_front().expect("front checked");
            return Some((self.last_popped, event));
        }
        let root = self.heap.peek_key()?;
        if key_time(root) > deadline {
            return None;
        }
        let (key, event) = self.heap.pop().expect("peeked");
        let at = key_time(key);
        self.last_popped = at;
        Some((at, event))
    }

    /// The timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.lane.is_empty() {
            // A same-instant heap entry can only tie the lane's time.
            return Some(self.last_popped);
        }
        self.heap.peek_key().map(key_time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = HeapQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_events_in_the_past() {
        let mut q = HeapQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(5), ());
    }

    #[test]
    fn lane_respects_earlier_heap_entries_at_same_instant() {
        let mut q = HeapQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, "heap-early"); // seq 0, via heap (last_popped = 0)
        q.push(SimTime::from_micros(500), "first"); // seq 1
        assert_eq!(q.pop().unwrap().1, "first"); // last_popped = 500µs
        q.push(SimTime::from_secs(1), "heap-late"); // seq 2, heap (1s > 0.5s)
        assert_eq!(q.pop().unwrap().1, "heap-early"); // last_popped = 1s
        q.push(t, "lane-1"); // seq 3, lane
        q.push(t, "lane-2"); // seq 4, lane
                             // heap-late (seq 2) precedes the lane entries (seqs 3, 4).
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["heap-late", "lane-1", "lane-2"]);
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = HeapQueue::new();
        for s in [5u64, 1, 3, 2, 4] {
            q.push(SimTime::from_secs(s), s);
        }
        let mut seen = Vec::new();
        while let Some((_, e)) = q.pop_at_or_before(SimTime::from_secs(3)) {
            seen.push(e);
        }
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.pop_at_or_before(SimTime::MAX).is_none());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Deterministic pseudo-random workout for the 4-ary sift paths.
        let mut q = HeapQueue::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut now = 0u64;
        let mut popped = Vec::new();
        for round in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(SimTime::from_micros(now + x % 1_000), round);
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
