//! Property-based tests for the wire protocol: arbitrary messages round-trip
//! through both codecs, framing survives arbitrary stream chunkings, and the
//! secure channel is lossless for arbitrary payloads.

use falkon_proto::*;
use proptest::prelude::*;

fn arb_task() -> BoxedStrategy<TaskSpec> {
    (
        any::<u64>(),
        "[a-zA-Z0-9_/.-]{0,20}",
        prop::collection::vec("[ -~]{0,16}", 0..5),
        prop::collection::vec(("[A-Z_]{1,8}", "[ -~]{0,12}"), 0..4),
        "[a-zA-Z0-9_/.-]{0,24}",
        prop::option::of(any::<u64>()),
        prop::option::of((any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>())),
    )
        .prop_map(
            |(id, command, args, env, working_dir, est, data)| TaskSpec {
                id: TaskId(id),
                command: command.into(),
                args: args.into_iter().map(IStr::from).collect(),
                env: env.into_iter().map(|(k, v)| (k.into(), v.into())).collect(),
                working_dir: working_dir.into(),
                estimated_runtime_us: est,
                data: data.map(|(object, bytes, loc, acc)| DataSpec {
                    object,
                    bytes,
                    location: if loc {
                        DataLocation::SharedFs
                    } else {
                        DataLocation::LocalDisk
                    },
                    access: if acc {
                        DataAccess::Read
                    } else {
                        DataAccess::ReadWrite
                    },
                }),
            },
        )
        .boxed()
}

fn arb_result() -> BoxedStrategy<TaskResult> {
    (
        any::<u64>(),
        any::<i32>(),
        prop::option::of("[ -~]{0,32}"),
        prop::option::of("[ -~]{0,32}"),
        any::<u64>(),
    )
        .prop_map(|(id, exit_code, stdout, stderr, t)| {
            let mut res = TaskResult::failure(TaskId(id), exit_code).with_output(stdout, stderr);
            res.executor_time_us = t;
            res
        })
        .boxed()
}

fn arb_message() -> impl Strategy<Value = Message> {
    let tasks = prop::collection::vec(arb_task(), 0..8);
    let results = prop::collection::vec(arb_result(), 0..8);
    prop_oneof![
        Just(Message::CreateInstance),
        any::<u64>().prop_map(|i| Message::InstanceCreated {
            instance: falkon_proto::message::InstanceId(i)
        }),
        (any::<u64>(), tasks.clone()).prop_map(|(i, tasks)| Message::Submit {
            instance: falkon_proto::message::InstanceId(i),
            tasks
        }),
        tasks.clone().prop_map(|tasks| Message::Work { tasks }),
        (any::<u64>(), results.clone()).prop_map(|(e, results)| Message::Result {
            executor: falkon_proto::message::ExecutorId(e),
            results
        }),
        tasks.prop_map(|piggybacked| Message::ResultAck { piggybacked }),
        results.prop_map(|results| Message::Results { results }),
        (any::<u64>(), "[a-z0-9.-]{0,16}").prop_map(|(e, host)| Message::Register {
            executor: falkon_proto::message::ExecutorId(e),
            host
        }),
        Just(Message::StatusPoll),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(q, r, reg, busy)| {
            Message::Status {
                status: DispatcherStatus {
                    queued_tasks: q,
                    running_tasks: r,
                    registered_executors: reg,
                    busy_executors: busy,
                },
            }
        }),
    ]
}

/// One step against an [`Args`] and its `Vec<IStr>` model: push a string
/// (`Some`) or clear (`None`).
fn arb_args_op() -> impl Strategy<Value = Option<String>> {
    // Interned ("7"), short and empty strings; clears are one step in six.
    (0u8..6, "[0-9a-z]{0,3}").prop_map(|(k, s)| (k > 0).then_some(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn args_match_a_vec_model(ops in prop::collection::vec(arb_args_op(), 0..10)) {
        // Clears keep the list within 0..=5 entries most of the time, on
        // both sides of the inline/boxed boundary.
        let mut args = Args::new();
        let mut model: Vec<IStr> = Vec::new();
        for op in ops {
            match op {
                Some(s) if model.len() < 5 => {
                    args.push(s.as_str());
                    model.push(s.into());
                }
                _ => {
                    args.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(&*args, &model[..]);
            prop_assert_eq!(args.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
            let copy = args.clone();
            prop_assert_eq!(&copy, &args);
            // Built in one go or push by push, equal lists are equal.
            let collected: Args = model.iter().cloned().collect();
            prop_assert_eq!(&collected, &args);
            if let Some(last) = model.last() {
                let mut longer = copy;
                longer.push(last.clone());
                prop_assert_ne!(&longer, &args);
            }
        }
    }

    #[test]
    fn efficient_codec_roundtrips(msg in arb_message()) {
        let bytes = EfficientCodec.encode(&msg);
        prop_assert_eq!(EfficientCodec.decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn codecs_agree_on_bytes(msg in arb_message()) {
        prop_assert_eq!(EfficientCodec.encode(&msg), AxisCodec.encode(&msg));
    }

    #[test]
    fn cross_codec_roundtrip(msg in arb_message()) {
        let bytes = AxisCodec.encode(&msg);
        prop_assert_eq!(EfficientCodec.decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn decode_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        // May error, must not panic.
        let _ = EfficientCodec.decode(&data);
    }

    #[test]
    fn truncated_prefix_never_decodes_to_wrong_message(msg in arb_message()) {
        let bytes = EfficientCodec.encode(&msg);
        for cut in 0..bytes.len() {
            // Either an error, or (never) an equal message with fewer bytes.
            if let Ok(decoded) = EfficientCodec.decode(&bytes[..cut]) {
                prop_assert_ne!(decoded, msg.clone());
            }
        }
    }

    #[test]
    fn framing_survives_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..10),
        splits in prop::collection::vec(1usize..64, 1..64),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p);
        }
        // Chunks arrive as a socket read delivers them to a `Conn`: copied
        // into `space`, then `commit`ted.
        let mut cur = FrameCursor::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut si = 0;
        while pos < stream.len() {
            let n = splits[si % splits.len()].min(stream.len() - pos);
            si += 1;
            cur.space(n)[..n].copy_from_slice(&stream[pos..pos + n]);
            cur.commit(n);
            pos += n;
            while let Some(frame) = cur.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(cur.buffered(), 0);
    }

    #[test]
    fn cursor_survives_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..10),
        splits in prop::collection::vec(1usize..64, 1..64),
    ) {
        // The same chunkings through the copying entry point, `feed`.
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p);
        }
        let mut cur = FrameCursor::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut si = 0;
        while pos < stream.len() {
            let n = splits[si % splits.len()].min(stream.len() - pos);
            si += 1;
            cur.feed(&stream[pos..pos + n]);
            pos += n;
            while let Some(frame) = cur.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(cur.buffered(), 0);
    }

    #[test]
    fn cursor_survives_byte_by_byte_feed(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p);
        }
        let mut cur = FrameCursor::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for b in &stream {
            cur.feed(std::slice::from_ref(b));
            while let Some(frame) = cur.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn cursor_interleaved_feed_and_lazy_consume(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 1..12),
        splits in prop::collection::vec(1usize..48, 1..32),
        budgets in prop::collection::vec(0usize..3, 1..32),
    ) {
        // Frames are not always drained as soon as they complete: each feed
        // is followed by a bounded number of `next_frame` calls, so decoded
        // frames pile up in the buffer across feeds and compaction runs
        // while undrained frames are still buffered.
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p);
        }
        let mut cur = FrameCursor::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut si = 0;
        while pos < stream.len() {
            let n = splits[si % splits.len()].min(stream.len() - pos);
            cur.feed(&stream[pos..pos + n]);
            pos += n;
            for _ in 0..budgets[si % budgets.len()] {
                match cur.next_frame().unwrap() {
                    Some(frame) => got.push(frame.to_vec()),
                    None => break,
                }
            }
            si += 1;
        }
        while let Some(frame) = cur.next_frame().unwrap() {
            got.push(frame.to_vec());
        }
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn cursor_rejects_oversized_lengths(
        extra in 1u64..u64::from(u32::MAX) - (MAX_FRAME_LEN as u64),
        tail in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let len = (MAX_FRAME_LEN as u64 + extra) as u32;
        let mut cur = FrameCursor::new();
        cur.feed(&len.to_le_bytes());
        cur.feed(&tail);
        prop_assert!(cur.next_frame().is_err());
    }

    #[test]
    fn cursor_buffer_recycling_preserves_decoding(
        first in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..5),
        second in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..5),
    ) {
        // A buffer recycled through into_buf/with_buf (the connection pool
        // path) must behave exactly like a fresh one.
        let mut cur = FrameCursor::new();
        let mut stream = Vec::new();
        for p in &first {
            write_frame(&mut stream, p);
        }
        cur.feed(&stream);
        let mut got = Vec::new();
        while let Some(frame) = cur.next_frame().unwrap() {
            got.push(frame.to_vec());
        }
        prop_assert_eq!(&got, &first);

        let mut cur = FrameCursor::with_buf(cur.into_buf());
        let mut stream = Vec::new();
        for p in &second {
            write_frame(&mut stream, p);
        }
        cur.feed(&stream);
        let mut got = Vec::new();
        while let Some(frame) = cur.next_frame().unwrap() {
            got.push(frame.to_vec());
        }
        prop_assert_eq!(&got, &second);
    }

    #[test]
    fn secure_channel_roundtrips_arbitrary_payloads(
        psk in any::<u64>(),
        na in any::<u64>(),
        nb in any::<u64>(),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..256), 1..8),
    ) {
        let (mut a, mut b) = falkon_proto::security::established_pair(psk, na, nb);
        for p in &payloads {
            let sealed = a.seal(p).unwrap();
            prop_assert_eq!(&b.open(&sealed).unwrap(), p);
        }
    }

    #[test]
    fn bundles_preserve_tasks(
        n in 0u64..500,
        k in 1usize..64,
    ) {
        let tasks: Vec<TaskSpec> = (0..n).map(|i| TaskSpec::sleep(i, 0)).collect();
        let b = bundles(tasks.clone(), k);
        let flat: Vec<TaskSpec> = b.iter().flatten().cloned().collect();
        prop_assert_eq!(flat, tasks);
        for (i, chunk) in b.iter().enumerate() {
            if i + 1 < b.len() {
                prop_assert_eq!(chunk.len(), k);
            } else {
                prop_assert!(chunk.len() <= k && !chunk.is_empty());
            }
        }
    }
}
