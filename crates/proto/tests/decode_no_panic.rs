//! Adversarial decode fuzzing: every decode entry point in `falkon-proto`
//! must return `Err`, never panic, for hostile input. `proptests.rs` checks
//! that *valid* encodings round-trip; this harness feeds each decoder three
//! hostile shapes — arbitrary garbage, truncations of valid encodings, and
//! bit-flipped valid encodings — and only asserts survival. Together with
//! the clippy panic lints `falkon-proto` denies at its root (no indexing,
//! `unwrap`/`expect` or `panic!` anywhere in the crate) this pins the
//! "untrusted bytes never crash a peer" invariant from both sides:
//! statically and dynamically.
//!
//! A task's strings are checked as UTF-8 once, over the one buffer they are
//! copied into, so two cases pin that this equals checking each string on
//! its own: two strings that split one code point between them, and every
//! bit flip inside a string.

use falkon_proto::codec::{AxisCodec, Codec, EfficientCodec};
use falkon_proto::error::CodecError;
use falkon_proto::frame::FrameCursor;
use falkon_proto::message::{DispatcherStatus, ExecutorId, InstanceId, Message};
use falkon_proto::security::{established_pair, SecureChannel};
use falkon_proto::task::{IStr, TaskResult, TaskSpec};
use proptest::prelude::*;

/// A one-task `Work` message whose string fields are `strings` in wire
/// order (command, two arguments, one environment pair, working
/// directory), and where each field's bytes sit in the encoding.
fn work_of(strings: [&str; 6]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let [command, a0, a1, k, v, dir] = strings;
    let mut t = TaskSpec::sleep(1, 0)
        .with_command(command)
        .with_args([a0, a1].into_iter().collect())
        .with_working_dir(dir);
    t.env = vec![(k.into(), v.into())];
    let bytes = EfficientCodec.encode(&Message::Work { tasks: vec![t] });
    let mut from = 0;
    let spans = strings
        .iter()
        .map(|s| {
            let at = from
                + bytes[from..]
                    .windows(s.len())
                    .position(|w| w == s.as_bytes())
                    .expect("field in the encoding");
            from = at + s.len();
            at..from
        })
        .collect();
    (bytes, spans)
}

/// The decoded task's string fields in wire order.
fn fields(msg: &Message) -> Vec<IStr> {
    let Message::Work { tasks } = msg else {
        panic!("decoded another message");
    };
    let t = &tasks[0];
    let mut out = vec![t.command().clone()];
    out.extend(t.args().iter().cloned());
    out.extend(t.env.iter().flat_map(|(k, v)| [k.clone(), v.clone()]));
    out.push(t.working_dir().clone());
    out
}

#[test]
fn strings_that_split_a_code_point_between_them_are_rejected() {
    // "é" is C3 A9: the first argument ends with its lead byte and the
    // second starts with its continuation byte. Neither is UTF-8 alone;
    // the two side by side, as the decode buffer holds them, are.
    let (mut bytes, spans) = work_of(["cmd-x", "arg-0", "arg-1", "KEY", "value", "/dir"]);
    let (first, second) = (spans[1].clone(), spans[2].clone());
    bytes[first.end - 1] = 0xC3;
    bytes[second.start] = 0xA9;
    for decoded in [EfficientCodec.decode(&bytes), AxisCodec.decode(&bytes)] {
        assert_eq!(
            decoded,
            Err(CodecError::InvalidUtf8 {
                context: "TaskSpec"
            })
        );
    }
    // The same two bytes inside one string are a valid "é".
    let (mut bytes, spans) = work_of(["cmd-x", "arg-0", "arg-1", "KEY", "value", "/dir"]);
    bytes[spans[1].start + 1] = 0xC3;
    bytes[spans[1].start + 2] = 0xA9;
    let decoded = EfficientCodec.decode(&bytes).expect("valid UTF-8");
    assert_eq!(&*fields(&decoded)[1], "aé-0");
}

#[test]
fn a_bit_flip_inside_a_string_fails_exactly_when_that_string_is_not_utf8() {
    // Multi-byte characters in every field, so flips land on lead and
    // continuation bytes alike; no field is short enough to flip into an
    // interned string.
    let strings = ["cmd-é", "ärg", "€-1", "KÉY", "vâlüe-€", "/wörk"];
    let (clean, spans) = work_of(strings);
    for span in &spans {
        for i in span.clone() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[i] ^= 1 << bit;
                let each: Option<Vec<&str>> = spans
                    .iter()
                    .map(|s| std::str::from_utf8(&bytes[s.clone()]).ok())
                    .collect();
                match (EfficientCodec.decode(&bytes), each) {
                    (Ok(msg), Some(want)) => {
                        let got = fields(&msg);
                        assert_eq!(got.iter().map(|s| &**s).collect::<Vec<_>>(), want);
                    }
                    (Err(e), None) => assert_eq!(
                        e,
                        CodecError::InvalidUtf8 {
                            context: "TaskSpec"
                        }
                    ),
                    (got, want) => panic!("byte {i} bit {bit}: decoded {got:?}, fields {want:?}"),
                }
            }
        }
    }
}

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
