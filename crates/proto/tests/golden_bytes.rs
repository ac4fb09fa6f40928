//! The wire format, pinned byte for byte: a fixed message set encodes to
//! hex constants captured at commit `674f598` (the 200-byte `TaskSpec`),
//! and the constants decode back to the same messages. How a task is held
//! in memory is free to change; what leaves the socket is not.

use falkon_proto::codec::{AxisCodec, Codec, EfficientCodec};
use falkon_proto::message::{ExecutorId, InstanceId, Message};
use falkon_proto::task::{DataAccess, DataLocation, IStr, TaskId, TaskResult, TaskSpec};

fn three_args() -> TaskSpec {
    TaskSpec::sleep(3, 7)
        .with_command("convert")
        .with_args(["-resize", "50%", "in.fits"].into_iter().collect())
        .with_working_dir("/scratch/run")
        .with_estimate(None)
}

fn env_task() -> TaskSpec {
    let mut t = TaskSpec::sleep(4, 0);
    t.env = (0..8)
        .map(|i| {
            (
                IStr::from(format!("FK_{i}")),
                IStr::from(format!("value-{i}")),
            )
        })
        .collect();
    t
}

fn submit(task: TaskSpec) -> Message {
    Message::Submit {
        instance: InstanceId(1),
        tasks: vec![task],
    }
}

fn result(res: TaskResult) -> Message {
    Message::Result {
        executor: ExecutorId(3),
        results: vec![res],
    }
}

fn golden() -> Vec<(&'static str, Message, &'static str)> {
    let mut captured = TaskResult::failure(TaskId(6), -1)
        .with_output(Some("out".into()), Some("falkon: retries exhausted".into()));
    captured.executor_time_us = 1234;
    let mut plain = TaskResult::success(TaskId(7));
    plain.executor_time_us = 99;
    vec![
        (
            "submit_sleep",
            submit(TaskSpec::sleep(1, 0)),
            "03010000000000000001000000010000000000000005000000736c656570010000000100000030\
             00000000040000002f746d7001000000000000000000",
        ),
        (
            "submit_sleep_us",
            submit(TaskSpec::sleep_us(2, 1500)),
            "03010000000000000001000000020000000000000005000000736c6565700100000006000000302e\
             3030313500000000040000002f746d7001dc0500000000000000",
        ),
        (
            "submit_three_args",
            submit(three_args()),
            "03010000000000000001000000030000000000000007000000636f6e7665727403000000070000002d\
             726573697a650300000035302507000000696e2e66697473000000000c0000002f736372617463682f\
             72756e0000",
        ),
        (
            "submit_env",
            submit(env_task()),
            "03010000000000000001000000040000000000000005000000736c6565700100000001000000300800\
             000004000000464b5f300700000076616c75652d3004000000464b5f310700000076616c75652d3104\
             000000464b5f320700000076616c75652d3204000000464b5f330700000076616c75652d3304000000\
             464b5f340700000076616c75652d3404000000464b5f350700000076616c75652d3504000000464b5f\
             360700000076616c75652d3604000000464b5f370700000076616c75652d37040000002f746d700100\
             0000000000000000",
        ),
        (
            "submit_data",
            submit(TaskSpec::sleep(5, 2).with_data(
                1 << 20,
                DataLocation::LocalDisk,
                DataAccess::ReadWrite,
            )),
            "03010000000000000001000000050000000000000005000000736c6565700100000001000000320000\
             0000040000002f746d700180841e000000000001050000000000000000001000000000000101",
        ),
        (
            "result_captured",
            result(captured),
            "080300000000000000010000000600000000000000ffffffff01030000006f7574011900000066616c\
             6b6f6e3a207265747269657320657868617573746564d204000000000000",
        ),
        (
            "result_plain",
            result(plain),
            "0803000000000000000100000007000000000000000000000000006300000000000000",
        ),
        (
            "result_ack_piggyback",
            Message::ResultAck {
                piggybacked: vec![TaskSpec::sleep(8, 1), TaskSpec::sleep(9, 64)],
            },
            "0902000000080000000000000005000000736c65657001000000010000003100000000040000002f74\
             6d700140420f000000000000090000000000000005000000736c656570010000000200000036340000\
             0000040000002f746d70010090d0030000000000",
        ),
        (
            // Added with the message, after the capture above.
            "results_ack",
            Message::ResultsAck {
                instance: InstanceId(1),
                count: 3,
            },
            "1301000000000000000300000000000000",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn messages_encode_to_the_parent_commits_bytes_and_decode_back() {
    for (name, msg, want) in golden() {
        assert_eq!(hex(&EfficientCodec.encode(&msg)), want, "{name}: encode");
        assert_eq!(hex(&AxisCodec.encode(&msg)), want, "{name}: axis encode");
        assert_eq!(EfficientCodec.encoded_len(&msg) * 2, want.len(), "{name}");
        let back = EfficientCodec
            .decode(&unhex(want))
            .expect("golden bytes decode");
        assert_eq!(back, msg, "{name}: decode");
    }
}
