//! Hierarchical timer wheel: the O(1) core of [`crate::EventQueue`].
//!
//! # Structure
//!
//! Four levels of 256 slots each, indexed directly by the bytes of the
//! absolute event time in microseconds: level `k` slot `byte_k(t)`. Level 0
//! spans 256 µs at 1 µs granularity; each level up widens the slot by 256×,
//! so the wheel covers a 2^32 µs (~71 virtual minutes) horizon. Events
//! beyond the horizon go to a **far-future overflow heap** (the same packed
//! 4-ary [`KeyHeap`] the old queue used), where O(log n) is paid only by
//! the rare long-range timer rather than by every operation.
//!
//! * A one-entry **front register** caches the global minimum when it can
//!   be tracked for free (push onto an empty structure, or a push that
//!   undercuts the current front). Short event chains — the dispatcher
//!   pump's steady state of one or two outstanding timers — live entirely
//!   in the register: push and pop are a compare and a move, matching the
//!   old heap's near-empty fast path. The register never moves `ref_time`,
//!   so the slab invariants below do not depend on it.
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
//! order, byte-for-byte the order the old heap produced:
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
//!   (level 0, where all entries share one instant and appends happen in
//!   sequence order) identifies it exactly.
//! * Cascades walk the drained slot in list order and the overflow drains
//!   in heap (key) order, so same-instant entries keep ascending-`seq`
//!   list order everywhere — FIFO within an instant is preserved without
//!   ever sorting.
//!
//! Costs: push O(1); pop O(1) amortised — each entry is relinked by at
//! most `LEVELS - 1` cascades over its lifetime; peek O(1); far-future
//! push/drain O(log overflow).

use crate::heap::KeyHeap;

/// Slot count per level (one byte of the time).
const SLOTS: usize = 256;
/// Bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Wheel levels; beyond `SLOTS^LEVELS` µs from the reference lies the
/// overflow heap.
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

/// The wheel proper: timing structure only. Causality checks and the
/// same-instant FIFO lane live in [`crate::EventQueue`].
pub(crate) struct TimerWheel<E> {
    /// Fast-path cache of the global minimum. **Invariant: when `Some`, the
    /// held key is strictly below every key in the wheel slab and the
    /// overflow heap.** It is populated only by a push onto an otherwise
    /// empty structure or by a push that displaces the current front; it is
    /// never refilled from the slab on pop. The register never touches
    /// `ref_time`, so every slab invariant holds verbatim whether or not it
    /// is occupied. Simulations dominated by short event chains (one or two
    /// timers outstanding — the dispatcher pump steady state) run entirely
    /// through this register and pay no slab bookkeeping at all.
    front: Option<(u128, E)>,
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
    /// word without touching the bitmaps. Keeps peek/pop O(1) even when the
    /// wheel is empty — the lane-heavy facade paths peek on every pop.
    summary: u16,
    /// Placement reference. Invariants: `ref_time` never exceeds the last
    /// popped time, and every live entry's time is ≥ `ref_time`.
    ref_time: u64,
    /// Entries resident in the wheel slab (excludes overflow).
    in_wheel: usize,
    /// Events scheduled ≥ 2^32 µs past `ref_time`'s epoch.
    overflow: KeyHeap<E>,
}

#[inline]
const fn key_micros(key: u128) -> u64 {
    (key >> 64) as u64
}

impl<E> TimerWheel<E> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            front: None,
            nodes: Vec::new(),
            free_head: NIL,
            head: vec![NIL; LEVELS * SLOTS],
            tail: vec![NIL; LEVELS * SLOTS],
            slot_min: vec![u128::MAX; LEVELS * SLOTS],
            occ: [[0; WORDS]; LEVELS],
            summary: 0,
            ref_time: 0,
            in_wheel: 0,
            overflow: KeyHeap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        usize::from(self.front.is_some()) + self.in_wheel + self.overflow.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.front.is_none() && self.in_wheel == 0 && self.overflow.is_empty()
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

    /// Prepend an existing slab node to `(lvl, slot)`. Only legal for a key
    /// ≤ every key already in the slot — the displaced-front path, where
    /// the key is the strict slab minimum. Appending it instead would break
    /// the level-0 "list head is the slot minimum / ascending-seq list
    /// order" invariant whenever the slot already holds a same-instant
    /// entry with a later sequence number.
    #[inline]
    fn link_node_at_head(&mut self, lvl: usize, slot: usize, idx: u32) {
        let s = lvl * SLOTS + slot;
        let h = self.head[s];
        self.nodes[idx as usize].next = h;
        self.head[s] = idx;
        if h == NIL {
            self.tail[s] = idx;
            self.occ[lvl][slot / 64] |= 1u64 << (slot % 64);
            self.summary |= 1u16 << (lvl * WORDS + slot / 64);
        }
        if lvl != 0 {
            let key = self.nodes[idx as usize].key;
            debug_assert!(key <= self.slot_min[s], "head link above slot min");
            self.slot_min[s] = key;
        }
    }

    /// Take a node off the free list or grow the slab.
    #[inline]
    fn alloc(&mut self, key: u128, event: E) -> u32 {
        if self.free_head != NIL {
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
        }
    }

    /// Insert an entry. `key`'s time must be ≥ the last popped time (the
    /// facade's causality check guarantees this).
    ///
    /// Routing: an empty structure captures the entry in the front
    /// register; a key below the current front displaces it (the old front
    /// re-enters the slab — its time is ≥ `ref_time` because `ref_time`
    /// cannot advance while the register is occupied, see
    /// [`Self::pop_key_at_most`]); anything else goes straight to the slab.
    #[inline]
    pub(crate) fn insert(&mut self, key: u128, event: E) {
        match self.front.as_ref().map(|(k, _)| *k) {
            None if self.in_wheel == 0 && self.overflow.is_empty() => {
                self.front = Some((key, event));
            }
            Some(front_key) if key < front_key => {
                let (old_key, old_event) = self.front.take().expect("front checked");
                self.front = Some((key, event));
                self.insert_slab_min(old_key, old_event);
            }
            _ => self.insert_slab(key, event),
        }
    }

    /// Insert into the wheel slab or the overflow heap. `key`'s time must
    /// be ≥ `ref_time` (causality keeps pushes ≥ the last popped time, and
    /// `ref_time` never exceeds that).
    fn insert_slab(&mut self, key: u128, event: E) {
        let t = key_micros(key);
        debug_assert!(t >= self.ref_time, "insert below wheel reference");
        if (t ^ self.ref_time) >> HORIZON_BITS != 0 {
            self.overflow.push(key, event);
            return;
        }
        let (lvl, slot) = self.place(t);
        let idx = self.alloc(key, event);
        self.link_node(lvl, slot, idx);
        self.in_wheel += 1;
    }

    /// Re-slab a displaced front. The key is the strict slab minimum (front
    /// invariant), so it must *prepend* its slot list — a plain append
    /// would put a lower sequence number behind a same-instant entry and
    /// corrupt the FIFO order. Its time is ≥ `ref_time` because `ref_time`
    /// cannot advance while the register is occupied
    /// (see [`Self::pop_key_at_most`]).
    fn insert_slab_min(&mut self, key: u128, event: E) {
        let t = key_micros(key);
        debug_assert!(t >= self.ref_time, "insert below wheel reference");
        if (t ^ self.ref_time) >> HORIZON_BITS != 0 {
            self.overflow.push(key, event);
            return;
        }
        let (lvl, slot) = self.place(t);
        let idx = self.alloc(key, event);
        self.link_node_at_head(lvl, slot, idx);
        self.in_wheel += 1;
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

    /// The minimal key, if any. Pure: never cascades, never drains. One
    /// load when the front register is occupied.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        if let Some((k, _)) = self.front.as_ref() {
            return Some(*k);
        }
        match self.first_occupied() {
            Some((lvl, slot)) => Some(self.slot_min_key(lvl, slot)),
            None => self.overflow.peek_key(),
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

    /// Move every overflow entry in the earliest pending epoch into the
    /// wheel. Called only when the wheel is empty, so jumping the
    /// reference to the epoch base skips no live entry.
    fn drain_overflow_epoch(&mut self) {
        debug_assert_eq!(self.in_wheel, 0);
        let root = self.overflow.peek_key().expect("drain on empty overflow");
        let epoch = key_micros(root) >> HORIZON_BITS;
        self.ref_time = epoch << HORIZON_BITS;
        while let Some(k) = self.overflow.peek_key() {
            if key_micros(k) >> HORIZON_BITS != epoch {
                break;
            }
            let (key, event) = self.overflow.pop().expect("peeked");
            // Heap pops ascend by key, so same-instant entries append in
            // seq order — the FIFO invariant survives the epoch hop.
            let (lvl, slot) = self.place(key_micros(key));
            let idx = self.alloc(key, event);
            self.link_node(lvl, slot, idx);
            self.in_wheel += 1;
        }
    }

    /// Remove and return the entry with the minimal key **iff** that key is
    /// ≤ `bound`; otherwise return `None` without mutating anything. The
    /// purity of refusal is load-bearing: a refused `pop_at_or_before` may
    /// be followed by pushes earlier than the refused event, and a cascade
    /// (or overflow drain) here would advance the placement reference past
    /// them.
    ///
    /// The front register, when occupied, *is* the minimum: a hit costs one
    /// compare and one move, and leaves `ref_time` alone — which is exactly
    /// why a later push may displace the next front (its time is still
    /// ≥ `ref_time`; see [`Self::insert`]). A miss falls through to the
    /// slab scan.
    #[inline]
    pub(crate) fn pop_key_at_most(&mut self, bound: u128) -> Option<(u128, E)> {
        if let Some((k, _)) = self.front.as_ref() {
            if *k > bound {
                return None;
            }
            return self.front.take();
        }
        self.pop_slab_at_most(bound)
    }

    /// Slab/overflow half of [`Self::pop_key_at_most`]: the bound is
    /// checked against the slot minimum *before* any cascade, so a single
    /// scan serves both the refusal and the pop.
    fn pop_slab_at_most(&mut self, bound: u128) -> Option<(u128, E)> {
        loop {
            let Some((lvl, slot)) = self.first_occupied() else {
                let root = self.overflow.peek_key()?;
                if root > bound {
                    return None;
                }
                self.drain_overflow_epoch();
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
    fn overflow_heap_handles_far_future() {
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
    fn front_register_displacement_chain_keeps_order() {
        // Each push undercuts the previous minimum, so every one displaces
        // the front register and re-slabs the old front; the drain must
        // still come out fully sorted.
        let mut w = TimerWheel::new();
        for (seq, t) in (0u64..64).map(|i| (i, 1_000_000 - i * 1_000)) {
            w.insert(k(t, seq), seq);
        }
        let keys = drain_all(&mut w);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn displaced_front_prepends_into_occupied_same_instant_slot() {
        // Regression (found by the queue_model fuzz): seq 1 at t=5 sits in
        // level-0 slot 5; displacing the front (seq 0, t=5) must re-slab it
        // *ahead* of seq 1, or the same-instant FIFO inverts.
        let mut w = TimerWheel::new();
        w.insert(k(5, 0), 0); // front register
        w.insert(k(5, 1), 1); // slab, level-0 slot 5
        w.insert(k(2, 2), 2); // displaces seq 0 back into slot 5
        let keys = drain_all(&mut w);
        assert_eq!(keys, vec![k(2, 2), k(5, 0), k(5, 1)]);
    }

    #[test]
    fn front_register_respects_pop_bound() {
        let mut w = TimerWheel::new();
        w.insert(k(500, 0), 0); // held in the front register
        assert_eq!(w.pop_key_at_most(k(499, u64::MAX)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_key_at_most(k(500, u64::MAX)), Some((k(500, 0), 0)));
        assert!(w.is_empty());
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
