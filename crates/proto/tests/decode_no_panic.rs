//! Adversarial decode fuzzing: every decode entry point in `falkon-proto`
//! must return `Err`, never panic, for hostile input. `proptests.rs` checks
//! that *valid* encodings round-trip; this harness feeds each decoder three
//! hostile shapes — arbitrary garbage, truncations of valid encodings, and
//! bit-flipped valid encodings — and only asserts survival. Together with
//! the clippy panic lints `falkon-proto` denies at its root (no indexing,
//! `unwrap`/`expect` or `panic!` anywhere in the crate) this pins the
//! "untrusted bytes never crash a peer" invariant from both sides:
//! statically and dynamically.

use falkon_proto::codec::{AxisCodec, Codec, EfficientCodec};
use falkon_proto::frame::FrameCursor;
use falkon_proto::message::{DispatcherStatus, ExecutorId, InstanceId, Message};
use falkon_proto::security::{established_pair, SecureChannel};
use falkon_proto::task::{TaskResult, TaskSpec};
use proptest::prelude::*;

/// A compact pool of representative valid messages — enough structural
/// variety (length-prefixed vectors, options, strings, nested specs) to
/// give truncation and bit-flipping something to corrupt in every field
/// kind.
fn arb_valid_message() -> impl Strategy<Value = Message> {
    let tasks = prop::collection::vec(
        (any::<u64>(), 0u64..1_000_000).prop_map(|(id, us)| TaskSpec::sleep_us(id, us)),
        0..6,
    );
    let results = prop::collection::vec(
        (any::<u64>(), any::<i32>(), prop::option::of("[ -~]{0,24}")).prop_map(
            |(id, exit_code, stdout)| {
                TaskResult::failure(falkon_proto::task::TaskId(id), exit_code)
                    .with_output(stdout, None)
            },
        ),
        0..6,
    );
    prop_oneof![
        Just(Message::CreateInstance),
        (any::<u64>(), tasks.clone()).prop_map(|(i, tasks)| Message::Submit {
            instance: InstanceId(i),
            tasks
        }),
        tasks.clone().prop_map(|tasks| Message::Work { tasks }),
        (any::<u64>(), results.clone()).prop_map(|(e, results)| Message::Result {
            executor: ExecutorId(e),
            results
        }),
        tasks.prop_map(|piggybacked| Message::ResultAck { piggybacked }),
        results.prop_map(|results| Message::Results { results }),
        (any::<u64>(), "[a-z0-9.-]{0,12}").prop_map(|(e, host)| Message::Register {
            executor: ExecutorId(e),
            host
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(q, r)| Message::Status {
            status: DispatcherStatus {
                queued_tasks: q,
                running_tasks: r,
                registered_executors: 3,
                busy_executors: 1,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn codecs_survive_arbitrary_garbage(data in prop::collection::vec(any::<u8>(), 0..1024)) {
        let _ = EfficientCodec.decode(&data);
        let _ = AxisCodec.decode(&data);
    }

    #[test]
    fn codecs_survive_every_truncation(msg in arb_valid_message()) {
        let bytes = EfficientCodec.encode(&msg);
        for cut in 0..bytes.len() {
            let _ = EfficientCodec.decode(&bytes[..cut]);
        }
    }

    #[test]
    fn codecs_survive_bit_flips(
        msg in arb_valid_message(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..16),
    ) {
        let mut bytes = EfficientCodec.encode(&msg);
        if bytes.is_empty() {
            return Ok(());
        }
        for (idx, bit) in flips {
            let i = idx % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        let _ = EfficientCodec.decode(&bytes);
        let _ = AxisCodec.decode(&bytes);
    }

    #[test]
    fn frame_cursor_survives_garbage_streams(
        chunks in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..64), any::<bool>()),
            0..16,
        ),
    ) {
        // Each chunk arrives through one of the cursor's two entry points:
        // `feed`, or `space`/`commit` as a socket read delivers it.
        let mut cur = FrameCursor::new();
        for (c, as_read) in &chunks {
            if *as_read {
                cur.space(c.len())[..c.len()].copy_from_slice(c);
                cur.commit(c.len());
            } else {
                cur.feed(c);
            }
            // An oversized declared length errors the stream; keep feeding
            // anyway — the cursor must stay panic-free even after errors.
            while let Ok(Some(_)) = cur.next_frame() {}
        }
    }

    #[test]
    fn secure_open_survives_garbage_and_tampering(
        psk in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..8),
    ) {
        let (a, b) = established_pair(psk, 1, 2);
        let (mut seal, _) = a.into_halves().unwrap();
        let (_, mut open) = b.into_halves().unwrap();
        // Arbitrary garbage (including frames shorter than the MAC).
        let _ = open.open_in_place(&mut garbage.clone());
        // Bit-flipped genuine frames must be rejected, not trusted or
        // panicked over.
        let mut sealed = Vec::new();
        seal.seal_into(&payload, &mut sealed);
        if !sealed.is_empty() {
            for (idx, bit) in flips {
                let i = idx % sealed.len();
                sealed[i] ^= 1 << bit;
            }
            prop_assert!(open.open_in_place(&mut sealed).is_err());
        }
    }

    #[test]
    fn handshake_survives_arbitrary_peer_messages(
        psk in any::<u64>(),
        nonce in any::<u64>(),
        peer in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut c = SecureChannel::new(psk, nonce);
        let _ = c.complete_handshake(&peer);
    }
}
