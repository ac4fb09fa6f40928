//! Model-equivalence proofs for the timer-wheel [`EventQueue`].
//!
//! Simulations depend on the queue's *exact* delivery order for bit-for-bit
//! reproducibility, so this suite drives arbitrary operation sequences
//! through the live queue and through a trivially-correct model of its
//! contract — a `BinaryHeap<Reverse<(time, seq)>>` — asserting that every
//! pop (timestamp and payload), every refused pop, every peek, and every
//! length agree, and that the "scheduled in the past" causality panic fires.
//!
//! Three offset regimes matter for the wheel: small offsets stay in level 0
//! (offset 0 is the current instant), offsets of 2^8..2^32 µs land in higher
//! levels (exercising cascades on pop), and offsets ≥ 2^32 µs leave the
//! wheel horizon entirely (exercising the far-future overflow). The
//! `*_across_cascades_and_overflow` tests draw from all three regimes.

use falkon_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The contract, restated as directly as possible: a binary min-heap on
/// `(time, insertion sequence)`. Ties in time resolve by sequence, giving
/// FIFO within an instant.
struct ModelQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
    last_popped: u64,
}

impl ModelQueue {
    fn new() -> Self {
        ModelQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: 0,
        }
    }

    fn push(&mut self, at: u64, payload: u32) {
        assert!(at >= self.last_popped, "model: event scheduled in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn pop_at_or_before(&mut self, deadline: u64) -> Option<(u64, u32)> {
        let &Reverse((at, _, _)) = self.heap.peek()?;
        if at > deadline {
            return None;
        }
        let Reverse((at, _, payload)) = self.heap.pop().expect("peeked");
        self.last_popped = at;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of a driving sequence. Push offsets are relative to the last
/// popped time so generated schedules are always causal; offset 0 schedules
/// at the current instant, behind every event already pending there.
#[derive(Clone, Debug)]
enum Op {
    Push {
        offset: u64,
    },
    Pop,
    /// Pop with a deadline `slack` past the current minimum (0 = exactly at
    /// it, i.e. the boundary case).
    PopBefore {
        slack: u64,
    },
    /// Pop with a deadline `early + 1` µs before the current minimum: the
    /// pop is refused and must leave the queue as it was, so the pushes
    /// that follow — possibly earlier than the refused event — keep order.
    PopEarly {
        early: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // (The vendored proptest's `prop_oneof!` is unweighted; listing the
    // push arm twice biases sequences toward growth.)
    prop_oneof![
        (0u64..50).prop_map(|offset| Op::Push { offset }),
        (0u64..50).prop_map(|offset| Op::Push { offset }),
        Just(Op::Pop),
        (0u64..80).prop_map(|slack| Op::PopBefore { slack }),
        (0u64..50).prop_map(|early| Op::PopEarly { early }),
    ]
}

/// Like [`arb_op`], but push offsets span the wheel's full placement range:
/// level 0 (< 2^8 µs), the upper levels whose delivery requires cascading
/// (up to the 2^32 µs horizon), and the far-future overflow beyond it.
/// `PopBefore` slack and `PopEarly` distance get the same treatment so
/// deadline-bounded pops also land mid-cascade and mid-overflow.
fn arb_far_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50).prop_map(|offset| Op::Push { offset }),
        (0u64..(3u64 << 30)).prop_map(|offset| Op::Push { offset }),
        ((1u64 << 31)..(6u64 << 31)).prop_map(|offset| Op::Push { offset }),
        Just(Op::Pop),
        (0u64..80).prop_map(|slack| Op::PopBefore { slack }),
        (0u64..(1u64 << 33)).prop_map(|slack| Op::PopBefore { slack }),
        (0u64..(1u64 << 33)).prop_map(|early| Op::PopEarly { early }),
    ]
}

/// Drive one operation sequence through the live queue and the model,
/// checking every observable after every step, then drain both.
fn drive_against_model(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut model = ModelQueue::new();
    let mut payload = 0u32;
    for op in ops {
        match op {
            Op::Push { offset } => {
                let at = model.last_popped + offset;
                q.push(SimTime::from_micros(at), payload);
                model.push(at, payload);
                payload += 1;
            }
            Op::Pop => {
                let got = q.pop();
                let want = model.pop_at_or_before(u64::MAX);
                prop_assert_eq!(got.map(|(t, p)| (t.as_micros(), p)), want);
            }
            Op::PopBefore { slack } => {
                // Anchor the deadline near the next event so both the
                // deliver and the hold branch are exercised.
                let deadline = model.peek_time().unwrap_or(model.last_popped) + slack;
                let got = q.pop_at_or_before(SimTime::from_micros(deadline));
                let want = model.pop_at_or_before(deadline);
                prop_assert_eq!(got.map(|(t, p)| (t.as_micros(), p)), want);
            }
            Op::PopEarly { early } => {
                let next = model.peek_time().unwrap_or(model.last_popped);
                let deadline = next.saturating_sub(early + 1);
                let got = q.pop_at_or_before(SimTime::from_micros(deadline));
                let want = model.pop_at_or_before(deadline);
                prop_assert_eq!(got.map(|(t, p)| (t.as_micros(), p)), want);
            }
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.is_empty(), model.len() == 0);
        prop_assert_eq!(q.peek_time().map(|t| t.as_micros()), model.peek_time());
    }
    // Drain: the full remaining order must agree.
    while let Some((t, p)) = q.pop() {
        prop_assert_eq!(model.pop_at_or_before(u64::MAX), Some((t.as_micros(), p)));
    }
    prop_assert_eq!(model.len(), 0);
    Ok(())
}

// Every operation sequence produces identical observable behaviour on the
// queue and the model.
proptest! {
    #[test]
    fn matches_binary_heap_model(ops in prop::collection::vec(arb_op(), 1..400)) {
        drive_against_model(ops)?;
    }

    // The same proof with offsets that land in every wheel level, force
    // cascades on delivery, and spill past the horizon into the overflow.
    #[test]
    fn matches_model_across_cascades_and_overflow(
        ops in prop::collection::vec(arb_far_op(), 1..250),
    ) {
        drive_against_model(ops)?;
    }

    // Same-instant bursts at the current instant drain in exact insertion
    // order even when interleaved with strictly later entries.
    #[test]
    fn same_instant_bursts_preserve_fifo_against_model(
        burst in 1usize..60,
        later in prop::collection::vec(1u64..40, 0..20),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = ModelQueue::new();
        // Advance both so `last_popped` is non-zero and the bursts land at
        // the current instant.
        q.push(SimTime::from_micros(10), 0);
        model.push(10, 0);
        assert_eq!(q.pop().map(|(t, p)| (t.as_micros(), p)), model.pop_at_or_before(u64::MAX));
        let mut payload = 1u32;
        for (i, offset) in later.iter().enumerate() {
            if i % 2 == 0 {
                q.push(SimTime::from_micros(10 + offset), payload);
                model.push(10 + offset, payload);
                payload += 1;
            }
            q.push(SimTime::from_micros(10), payload);
            model.push(10, payload);
            payload += 1;
        }
        for _ in 0..burst {
            q.push(SimTime::from_micros(10), payload);
            model.push(10, payload);
            payload += 1;
        }
        while let Some((t, p)) = q.pop() {
            prop_assert_eq!(model.pop_at_or_before(u64::MAX), Some((t.as_micros(), p)));
        }
        prop_assert_eq!(model.len(), 0);
    }
}

#[test]
#[should_panic(expected = "scheduled in the past")]
fn push_into_the_past_panics_after_pop() {
    let mut q: EventQueue<u32> = EventQueue::new();
    q.push(SimTime::from_micros(100), 1);
    q.pop();
    q.push(SimTime::from_micros(99), 2);
}

#[test]
#[should_panic(expected = "scheduled in the past")]
fn push_into_the_past_panics_after_same_instant_pop() {
    let mut q: EventQueue<u32> = EventQueue::new();
    q.push(SimTime::from_micros(100), 1);
    q.pop();
    q.push(SimTime::from_micros(100), 2); // the current instant
    q.pop();
    q.push(SimTime::from_micros(99), 3);
}
