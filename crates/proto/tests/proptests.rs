//! Property-based tests for the wire protocol: arbitrary messages round-trip
//! through both codecs, a decoded task's heap strings share one buffer,
//! framing survives arbitrary stream chunkings, and the secure channel is
//! lossless for arbitrary payloads.

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
        .prop_map(|(id, command, args, env, working_dir, est, data)| {
            let mut t = TaskSpec::sleep(id, 0)
                .with_command(command)
                .with_args(args.into_iter().map(IStr::from).collect())
                .with_working_dir(working_dir)
                .with_estimate(est);
            t.env = env.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
            match data {
                None => t,
                Some((object, bytes, loc, acc)) => t.with_object(
                    object,
                    bytes,
                    if loc {
                        DataLocation::SharedFs
                    } else {
                        DataLocation::LocalDisk
                    },
                    if acc {
                        DataAccess::Read
                    } else {
                        DataAccess::ReadWrite
                    },
                ),
            }
        })
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

/// Any task string: empty, multi-byte, an interned one, or a look-alike of
/// one that must not intern (`"07"`, `"/tmp/"`).
fn arb_field() -> impl Strategy<Value = String> {
    const PICKS: [&str; 8] = ["", "0", "07", "42", "sleep", "sleeps", "/tmp", "/tmp/"];
    prop_oneof![
        (0..PICKS.len()).prop_map(|i| PICKS[i].to_string()),
        "[ -~é-ÿ€-₿🦀]{0,12}",
        "[a-zé€🦀]{1,6}",
    ]
}

fn arb_string_task() -> impl Strategy<Value = TaskSpec> {
    (
        any::<u64>(),
        arb_field(),
        prop::collection::vec(arb_field(), 0..4),
        prop::collection::vec((arb_field(), arb_field()), 0..4),
        arb_field(),
    )
        .prop_map(|(id, command, args, env, working_dir)| {
            let mut t = TaskSpec::sleep(id, 0)
                .with_command(command)
                .with_args(args.into_iter().collect())
                .with_working_dir(working_dir);
            t.env = env.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
            t
        })
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
    fn a_decoded_tasks_heap_strings_share_one_buffer(task in arb_string_task()) {
        let bytes = EfficientCodec.encode(&Message::Work { tasks: vec![task.clone()] });
        let Message::Work { tasks } = EfficientCodec.decode(&bytes).unwrap() else {
            panic!("decoded another message");
        };
        let [back] = &tasks[..] else { panic!("one task in, {} out", tasks.len()) };
        prop_assert_eq!(back, &task);
        let strings = std::iter::once(back.command())
            .chain(back.args().iter())
            .chain(back.env.iter().flat_map(|(k, v)| [k, v]))
            .chain(std::iter::once(back.working_dir()));
        // The task holds the only references: n heap strings of one buffer
        // count n each.
        let counts: Vec<usize> = strings.filter_map(IStr::strong_count).collect();
        prop_assert!(counts.iter().all(|&c| c == counts.len()), "{:?}", counts);
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
        let (a, b) = falkon_proto::security::established_pair(psk, na, nb);
        let (mut seal, _) = a.into_halves().unwrap();
        let (_, mut open) = b.into_halves().unwrap();
        for p in &payloads {
            let mut sealed = Vec::new();
            seal.seal_into(p, &mut sealed);
            prop_assert_eq!(open.open_in_place(&mut sealed).unwrap(), &p[..]);
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
