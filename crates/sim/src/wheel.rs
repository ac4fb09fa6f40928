//! Hierarchical timer wheel: the O(1) core of [`crate::EventQueue`].
//!
//! # Structure
//!
//! Four levels of 256 slots each, indexed directly by the bytes of the
//! absolute event time in microseconds: level `k` slot `byte_k(t)`. Level 0
//! spans 256 µs at 1 µs granularity; each level up widens the slot by 256×,
//! so the wheel covers a 2^32 µs (~71 virtual minutes) horizon, one
//! *epoch*. Events in a later epoch wait in a far-future **overflow**
//! `BTreeMap` on their packed key, where O(log n) is paid only by the rare
//! long-range timer rather than by every operation; an epoch moves into the
//! wheel when the wheel has drained.
//!
//! * Slots are intrusive singly-linked lists over one node slab
//!   (`Vec<Node>` + free list): pushes and pops allocate nothing in steady
//!   state, and a cascade relinks nodes without moving payloads.
//! * Per-level occupancy bitmaps (4 × 4 words) make "first occupied slot"
//!   a couple of `trailing_zeros` calls.
//! * Levels ≥ 1 keep a running `slot_min` key per slot, maintained on
//!   append and reset when a cascade drains the slot (entries never leave
//!   a high-level slot individually), so peeking the earliest key is O(1)
//!   and — crucially — **never mutates the wheel**. A peek that cascaded
//!   would advance the placement reference past times the caller is still
//!   allowed to push (`pop_at_or_before` refusals), corrupting the order.
//!
//! # Determinism
//!
//! The wheel pops in exactly ascending packed `(time << 64 | seq)` key
//! order:
//!
//! * The placement reference `ref_time` only advances to popped times
//!   (or cascade bases below them), so `ref_time ≤ last popped time` and
//!   every live entry satisfies `t ≥ ref_time`.
//! * The earliest entry always lives in the *lowest* occupied level: an
//!   entry placed at level `L` against an older reference can become
//!   "stale-high" (its fresh level against the current reference is lower),
//!   but the byte-squeeze argument in DESIGN.md §10.5 shows a stale entry
//!   can never be earlier than a fresh entry at a lower level.
//! * Within a level, slots ascend by time (stale entries collect in slot
//!   `byte_k(ref_time)`, below every fresh slot), so the first occupied
//!   slot holds the minimum; `slot_min` (level ≥ 1) or the list head
//!   (level 0, where all entries share one instant) identifies it exactly.
//! * Keys arrive in ascending `seq` (the queue's push sequence), every
//!   insert appends, cascades walk the drained slot in list order and the
//!   overflow drains in key order, so same-instant entries keep
//!   ascending-`seq` list order everywhere — FIFO within an instant is
//!   preserved without ever sorting.
//!
//! Costs: push O(1); pop O(1) amortised — each entry is relinked by at
//! most `LEVELS - 1` cascades over its lifetime; peek O(1); far-future
//! push/drain O(log overflow).

use std::collections::BTreeMap;

/// Slot count per level (one byte of the time).
const SLOTS: usize = 256;
/// Bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Wheel levels; beyond `SLOTS^LEVELS` µs from the reference lies the
/// overflow.
const LEVELS: usize = 4;
/// Bits of absolute time the wheel resolves (`8 * LEVELS`).
const HORIZON_BITS: u32 = 32;

const NIL: u32 = u32::MAX;

/// One slab node: packed ordering key, intrusive next pointer, payload.
/// `event` is `None` only while the node sits on the free list.
struct Node<E> {
    /// `(time << 64) | seq` — compares exactly like `(time, seq)`.
    key: u128,
    next: u32,
    event: Option<E>,
}

/// The wheel proper: timing structure only. Causality checks and the push
/// sequence live in [`crate::EventQueue`].
pub(crate) struct TimerWheel<E> {
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Intrusive list head/tail per `level * SLOTS + slot`.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Minimum key per slot, exact for levels ≥ 1 (monotone under append,
    /// reset on cascade); unused at level 0 where the list head is minimal.
    slot_min: Vec<u128>,
    /// Occupancy bitmap: bit `slot % 64` of word `slot / 64`.
    occ: [[u64; WORDS]; LEVELS],
    /// One bit per `occ` word (bit `lvl * WORDS + word`), in scan order:
    /// `trailing_zeros` finds the lowest occupied level's first non-empty
    /// word without touching the bitmaps, so peek/pop stay O(1) however
    /// sparse the wheel is.
    summary: u16,
    /// Placement reference. Invariants: `ref_time` never exceeds the last
    /// popped time, and every live entry's time is ≥ `ref_time`.
    ref_time: u64,
    /// Entries resident in the wheel slab (excludes overflow).
    in_wheel: usize,
    /// Events in a later epoch than `ref_time`'s. Keys are unique: each
    /// embeds its push sequence number.
    overflow: BTreeMap<u128, E>,
}

#[inline]
const fn key_micros(key: u128) -> u64 {
    (key >> 64) as u64
}

impl<E> TimerWheel<E> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            nodes: Vec::new(),
            free_head: NIL,
            head: vec![NIL; LEVELS * SLOTS],
            tail: vec![NIL; LEVELS * SLOTS],
            slot_min: vec![u128::MAX; LEVELS * SLOTS],
            occ: [[0; WORDS]; LEVELS],
            summary: 0,
            ref_time: 0,
            in_wheel: 0,
            overflow: BTreeMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.in_wheel == 0 && self.overflow.is_empty()
    }

    /// Level and slot for time `t` relative to the current reference.
    /// Caller guarantees `t` is within the horizon (`xor >> 32 == 0`).
    #[inline]
    fn place(&self, t: u64) -> (usize, usize) {
        let xor = t ^ self.ref_time;
        debug_assert_eq!(xor >> HORIZON_BITS, 0, "place() beyond horizon");
        // `| 1` folds the xor == 0 case (same instant as the reference)
        // into level 0 without a branch.
        let lvl = ((63 - (xor | 1).leading_zeros()) >> 3) as usize;
        let slot = ((t >> (8 * lvl)) & 0xFF) as usize;
        (lvl, slot)
    }

    /// Append an existing slab node to `(lvl, slot)`, maintaining the
    /// bitmaps and (for levels ≥ 1) the slot minimum.
    #[inline]
    fn link_node(&mut self, lvl: usize, slot: usize, idx: u32) {
        let s = lvl * SLOTS + slot;
        self.nodes[idx as usize].next = NIL;
        let t = self.tail[s];
        if t == NIL {
            self.head[s] = idx;
            self.occ[lvl][slot / 64] |= 1u64 << (slot % 64);
            self.summary |= 1u16 << (lvl * WORDS + slot / 64);
        } else {
            self.nodes[t as usize].next = idx;
        }
        self.tail[s] = idx;
        if lvl != 0 {
            // Level 0 never reads `slot_min`: one instant per slot, and the
            // list head carries the minimal sequence number.
            let key = self.nodes[idx as usize].key;
            if key < self.slot_min[s] {
                self.slot_min[s] = key;
            }
        }
    }

    /// Take a node off the free list or grow the slab, and link it at the
    /// tail of its slot.
    #[inline]
    fn link_new(&mut self, key: u128, event: E) {
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.key = key;
            node.event = Some(event);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                key,
                next: NIL,
                event: Some(event),
            });
            idx
        };
        let (lvl, slot) = self.place(key_micros(key));
        self.link_node(lvl, slot, idx);
        self.in_wheel += 1;
    }

    /// Insert an entry. `key`'s time must be ≥ the last popped time (the
    /// queue's causality check guarantees this, and `ref_time` never
    /// exceeds it), and keys of one instant must arrive in ascending
    /// sequence (the queue's push counter), so appending keeps FIFO.
    #[inline]
    pub(crate) fn insert(&mut self, key: u128, event: E) {
        let t = key_micros(key);
        debug_assert!(t >= self.ref_time, "insert below wheel reference");
        if (t ^ self.ref_time) >> HORIZON_BITS != 0 {
            self.overflow.insert(key, event);
            return;
        }
        self.link_new(key, event);
    }

    /// Lowest occupied (level, slot) in the wheel proper, via the summary
    /// mask: two `trailing_zeros`, no bitmap scan. `None` = wheel empty
    /// (overflow may still hold entries).
    #[inline]
    fn first_occupied(&self) -> Option<(usize, usize)> {
        if self.summary == 0 {
            return None;
        }
        let bit = self.summary.trailing_zeros() as usize;
        let (lvl, w) = (bit / WORDS, bit % WORDS);
        let word = self.occ[lvl][w];
        debug_assert_ne!(word, 0, "summary bit set on empty word");
        Some((lvl, w * 64 + word.trailing_zeros() as usize))
    }

    /// The minimal key held by `(lvl, slot)` — O(1) via the list head
    /// (level 0: one instant per slot, appends in seq order) or the
    /// maintained slot minimum (levels ≥ 1).
    #[inline]
    fn slot_min_key(&self, lvl: usize, slot: usize) -> u128 {
        let s = lvl * SLOTS + slot;
        if lvl == 0 {
            self.nodes[self.head[s] as usize].key
        } else {
            self.slot_min[s]
        }
    }

    /// The minimal key, if any. Pure: never cascades, never drains.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        match self.first_occupied() {
            Some((lvl, slot)) => Some(self.slot_min_key(lvl, slot)),
            None => self.overflow.first_key_value().map(|(&key, _)| key),
        }
    }

    /// Drain one slot, relinking every node at its fresh placement against
    /// the (possibly advanced) reference. Entries land strictly below
    /// `lvl`, so each pop performs at most `LEVELS - 1` cascades.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let s = lvl * SLOTS + slot;
        let mut idx = self.head[s];
        self.head[s] = NIL;
        self.tail[s] = NIL;
        self.slot_min[s] = u128::MAX;
        let word = &mut self.occ[lvl][slot / 64];
        *word &= !(1u64 << (slot % 64));
        if *word == 0 {
            self.summary &= !(1u16 << (lvl * WORDS + slot / 64));
        }
        // Window base: reference bytes above `lvl`, this slot's byte at
        // `lvl`, zeros below. For the stale slot (`slot == byte_lvl(ref)`)
        // the base sits at or below the reference and must not move it
        // backwards; fresh slots advance it. Either way the base is ≤ the
        // pending minimum, preserving `ref_time ≤ last popped`.
        let low_mask = (1u64 << (8 * (lvl + 1))) - 1;
        let base = (self.ref_time & !low_mask) | ((slot as u64) << (8 * lvl));
        if base > self.ref_time {
            self.ref_time = base;
        }
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let t = key_micros(self.nodes[idx as usize].key);
            let (l2, s2) = self.place(t);
            debug_assert!(l2 < lvl, "cascade must lower the level");
            self.link_node(l2, s2, idx);
            idx = next;
        }
    }

    /// Move every overflow entry in the epoch of `root`, the overflow's
    /// minimal key, into the wheel. Called only when the wheel is empty, so
    /// jumping the reference to the epoch base skips no live entry.
    fn drain_overflow_epoch(&mut self, root: u128) {
        debug_assert_eq!(self.in_wheel, 0);
        let epoch = key_micros(root) >> HORIZON_BITS;
        self.ref_time = epoch << HORIZON_BITS;
        // Split at the epoch's last µs with sequence number u64::MAX, which
        // no push reaches: every key of this epoch sorts below it, every
        // later key above. (The next epoch's first key, `(epoch + 1) << 96`,
        // wraps to 0 in the last epoch.)
        let epoch_end = (u128::from(epoch) << (HORIZON_BITS + 64)) | (u128::MAX >> HORIZON_BITS);
        let later = self.overflow.split_off(&epoch_end);
        // Ascending key order: same-instant entries append in seq order, so
        // the FIFO invariant survives the epoch hop.
        for (key, event) in std::mem::replace(&mut self.overflow, later) {
            self.link_new(key, event);
        }
        debug_assert_ne!(self.in_wheel, 0, "drained an empty epoch");
    }

    /// Remove and return the entry with the minimal key **iff** that key is
    /// ≤ `bound`; otherwise return `None` without mutating anything. The
    /// purity of refusal is load-bearing: a refused `pop_at_or_before` may
    /// be followed by pushes earlier than the refused event, and a cascade
    /// (or overflow drain) here would advance the placement reference past
    /// them. The bound is checked against the slot minimum *before* any
    /// cascade, so a single scan serves both the refusal and the pop.
    pub(crate) fn pop_key_at_most(&mut self, bound: u128) -> Option<(u128, E)> {
        loop {
            let Some((lvl, slot)) = self.first_occupied() else {
                let (&root, _) = self.overflow.first_key_value()?;
                if root > bound {
                    return None;
                }
                self.drain_overflow_epoch(root);
                continue;
            };
            if self.slot_min_key(lvl, slot) > bound {
                return None;
            }
            if lvl > 0 {
                // The minimum survives the cascade unchanged, so the bound
                // check above stays decided; the next loop pass pops it
                // from a lower level.
                self.cascade(lvl, slot);
                continue;
            }
            let s = slot; // level 0: flat index == slot
            let idx = self.head[s];
            let node = &mut self.nodes[idx as usize];
            let key = node.key;
            let event = node.event.take().expect("live node has an event");
            let next = node.next;
            self.head[s] = next;
            if next == NIL {
                self.tail[s] = NIL;
                let word = &mut self.occ[0][s / 64];
                *word &= !(1u64 << (s % 64));
                if *word == 0 {
                    self.summary &= !(1u16 << (s / 64));
                }
            }
            // Return the node to the free list.
            self.nodes[idx as usize].next = self.free_head;
            self.free_head = idx;
            self.in_wheel -= 1;
            // Advance the reference to the popped instant: keeps placement
            // tight and upholds `ref_time ≤ last popped` for future pushes.
            self.ref_time = key_micros(key);
            return Some((key, event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> TimerWheel<E> {
        /// Remove and return the entry with the minimal key.
        fn pop_earliest(&mut self) -> Option<(u128, E)> {
            self.pop_key_at_most(u128::MAX)
        }
    }

    const fn k(t: u64, seq: u64) -> u128 {
        ((t as u128) << 64) | seq as u128
    }

    fn drain_all(w: &mut TimerWheel<u64>) -> Vec<u128> {
        std::iter::from_fn(|| w.pop_earliest())
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn single_level_orders_by_time_then_seq() {
        let mut w = TimerWheel::new();
        w.insert(k(5, 0), 0);
        w.insert(k(3, 1), 1);
        w.insert(k(3, 2), 2);
        w.insert(k(200, 3), 3);
        let keys = drain_all(&mut w);
        assert_eq!(keys, vec![k(3, 1), k(3, 2), k(5, 0), k(200, 3)]);
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = TimerWheel::new();
        // One entry per level: 10 (L0), 300 (L1), 70_000 (L2), 17_000_000 (L3).
        let times = [17_000_000u64, 300, 70_000, 10];
        for (seq, &t) in times.iter().enumerate() {
            w.insert(k(t, seq as u64), seq as u64);
        }
        let keys = drain_all(&mut w);
        assert_eq!(
            keys,
            vec![k(10, 3), k(300, 1), k(70_000, 2), k(17_000_000, 0)]
        );
    }

    #[test]
    fn overflow_handles_far_future() {
        let mut w = TimerWheel::new();
        let far = 1u64 << 40; // ~12 days past the horizon
        w.insert(k(far + 7, 0), 0);
        w.insert(k(5, 1), 1);
        w.insert(k(far, 2), 2);
        w.insert(k(far + 7, 3), 3);
        assert_eq!(w.len(), 4);
        let keys = drain_all(&mut w);
        assert_eq!(keys, vec![k(5, 1), k(far, 2), k(far + 7, 0), k(far + 7, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_never_mutates_and_matches_pop() {
        let mut w = TimerWheel::new();
        for (seq, t) in [(0u64, 1u64 << 36), (1, 900), (2, 70_000)] {
            w.insert(k(t, seq), seq);
        }
        while !w.is_empty() {
            let peeked = w.peek_key().unwrap();
            assert_eq!(w.peek_key().unwrap(), peeked, "peek must be stable");
            let (key, _) = w.pop_earliest().unwrap();
            assert_eq!(key, peeked);
        }
    }

    #[test]
    fn push_into_current_window_after_refused_peek() {
        // Regression shape for the "no cascade on peek" rule: entries only
        // in a higher level, a peek (refused-pop stand-in), then a push
        // *earlier* than the peeked time but later than anything popped.
        let mut w = TimerWheel::new();
        w.insert(k(100, 0), 0);
        assert_eq!(w.pop_earliest().unwrap().0, k(100, 0)); // ref -> 100
        w.insert(k(0x0150, 1), 1); // level 1 relative to ref 100 (0x64)
        assert_eq!(w.peek_key(), Some(k(0x0150, 1)));
        w.insert(k(0x90, 2), 2); // earlier, still > ref: must pop first
        let keys = drain_all(&mut w);
        assert_eq!(keys, vec![k(0x90, 2), k(0x0150, 1)]);
    }

    #[test]
    fn same_instant_entries_keep_insert_order_around_an_earlier_one() {
        // Seqs 0 and 1 share t = 5 in level-0 slot 5; an earlier seq 2
        // pops first, then the two in sequence order.
        let mut w = TimerWheel::new();
        w.insert(k(5, 0), 0);
        w.insert(k(5, 1), 1);
        w.insert(k(2, 2), 2);
        let keys = drain_all(&mut w);
        assert_eq!(keys, vec![k(2, 2), k(5, 0), k(5, 1)]);
    }

    #[test]
    fn slab_is_recycled() {
        let mut w = TimerWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                let t = round * 1_000 + i * 7 + 1;
                w.insert(k(t, round * 100 + i), i);
            }
            while w.pop_earliest().is_some() {}
        }
        // 100 live nodes at a time -> the slab never grows past one burst.
        assert!(w.nodes.len() <= 100, "slab grew: {}", w.nodes.len());
    }
}
