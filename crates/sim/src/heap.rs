//! The 4-ary implicit min-heap behind the timer wheel's overflow level.
//!
//! [`EventQueue`](crate::EventQueue) is a hierarchical timer wheel (see
//! [`crate::wheel`]); [`KeyHeap`] is its far-future overflow level, where
//! O(log n) is paid only by events scheduled beyond the wheel horizon.
//! [`pack`]/[`key_time`] define the `(time << 64 | seq)` ordering key the
//! wheel and the queue share with it.
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
/// No causality checks, no FIFO lane: those live in
/// [`crate::EventQueue`]. Keys must be unique per queue (the queue
/// guarantees this by embedding a monotone sequence number).
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
