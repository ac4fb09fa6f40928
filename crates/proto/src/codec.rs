//! Binary codecs for [`Message`].
//!
//! Both codecs produce *identical bytes*; they differ only in how the output
//! buffer grows while encoding arrays:
//!
//! * [`EfficientCodec`] uses normal amortized growth (O(n) for an n-element
//!   bundle).
//! * [`AxisCodec`] reallocates-and-copies the whole buffer on every element
//!   append, reproducing the O(n²) encode cost of the Apache Axis grow-able
//!   array that the paper blames for the Figure 5 bundling degradation past
//!   ~300 tasks per bundle.
//!
//! Because the bytes are identical, a message encoded with one codec decodes
//! with the other.

use crate::error::CodecError;
use crate::message::{DispatcherStatus, ExecutorId, InstanceId, Message, NotifyKey};
use crate::task::{Args, DataAccess, DataLocation, DataSpec, IStr, TaskId, TaskResult, TaskSpec};
use crate::wire::{CountSink, GrowByCopySink, Reader, Sink};

/// A message codec: symmetric encode/decode over byte buffers.
pub trait Codec {
    /// Serialize `msg`, appending nothing — the returned buffer is complete.
    fn encode(&self, msg: &Message) -> Vec<u8>;

    /// Serialize `msg` into `out` (cleared first), so a driver can reuse one
    /// scratch buffer across bundles instead of allocating per message. The
    /// default round-trips through [`Codec::encode`]; codecs whose growth
    /// behaviour is not itself the point override it to write in place.
    fn encode_into(&self, msg: &Message, out: &mut Vec<u8>) {
        *out = self.encode(msg);
    }

    /// Serialize `msg` *appending* to `out` without clearing it — lets a
    /// driver encode straight into an outbound batch buffer behind a frame
    /// header. The default round-trips through [`Codec::encode`]; codecs
    /// whose growth behaviour is not itself the point override it to write
    /// in place.
    fn encode_append(&self, msg: &Message, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode(msg));
    }

    /// Deserialize one message occupying the entire buffer.
    fn decode(&self, buf: &[u8]) -> Result<Message, CodecError> {
        let mut r = Reader::new(buf);
        let msg = decode_message(&mut r)?;
        r.finish()?;
        Ok(msg)
    }

    /// The encoded size of `msg` (used by cost models charging per byte).
    /// Counts bytes without materialising the buffer; correct for every
    /// codec because they all produce identical bytes.
    fn encoded_len(&self, msg: &Message) -> usize {
        let mut sink = CountSink::default();
        encode_message(&mut sink, msg);
        sink.len
    }
}

/// The sane codec: amortized buffer growth.
#[derive(Clone, Copy, Debug, Default)]
pub struct EfficientCodec;

impl Codec for EfficientCodec {
    fn encode(&self, msg: &Message) -> Vec<u8> {
        // Same monomorphization as `encode_into` (a plain `Vec<u8>` sink),
        // so the one-shot and scratch-reuse paths share hot code. Sizing
        // the buffer up front (a `CountSink` walk costs a few additions)
        // replaces the log₂(n) realloc-and-copy ladder of growing from
        // empty with a single allocation.
        let mut buf = Vec::with_capacity(self.encoded_len(msg));
        encode_message(&mut buf, msg);
        buf
    }

    fn encode_into(&self, msg: &Message, out: &mut Vec<u8>) {
        out.clear();
        encode_message(out, msg);
    }

    fn encode_append(&self, msg: &Message, out: &mut Vec<u8>) {
        encode_message(out, msg);
    }
}

/// The Axis-emulating codec: every array-element append copies the whole
/// buffer. `encode` also reports the copy traffic via [`AxisCodec::encode_counting`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AxisCodec;

impl AxisCodec {
    /// Encode and additionally return the number of bytes copied due to
    /// grow-by-copy reallocation (a direct measure of the quadratic waste).
    pub fn encode_counting(&self, msg: &Message) -> (Vec<u8>, u64) {
        let mut sink = GrowByCopySink::default();
        encode_message(&mut sink, msg);
        (sink.buf, sink.bytes_copied)
    }
}

impl Codec for AxisCodec {
    fn encode(&self, msg: &Message) -> Vec<u8> {
        self.encode_counting(msg).0
    }
}

// ---------------------------------------------------------------------------
// Shared encode/decode routines
// ---------------------------------------------------------------------------

mod tag {
    pub(crate) const CREATE_INSTANCE: u8 = 1;
    pub(crate) const INSTANCE_CREATED: u8 = 2;
    pub(crate) const SUBMIT: u8 = 3;
    pub(crate) const SUBMIT_ACK: u8 = 4;
    pub(crate) const NOTIFY: u8 = 5;
    pub(crate) const GET_WORK: u8 = 6;
    pub(crate) const WORK: u8 = 7;
    pub(crate) const RESULT: u8 = 8;
    pub(crate) const RESULT_ACK: u8 = 9;
    pub(crate) const CLIENT_NOTIFY: u8 = 10;
    pub(crate) const GET_RESULTS: u8 = 11;
    pub(crate) const RESULTS: u8 = 12;
    pub(crate) const REGISTER: u8 = 13;
    pub(crate) const REGISTER_ACK: u8 = 14;
    pub(crate) const DEREGISTER: u8 = 15;
    pub(crate) const STATUS_POLL: u8 = 16;
    pub(crate) const STATUS: u8 = 17;
    pub(crate) const DESTROY_INSTANCE: u8 = 18;
    pub(crate) const RESULTS_ACK: u8 = 19;
}

fn encode_task<S: Sink>(s: &mut S, t: &TaskSpec) {
    s.put_u64(t.id.0);
    s.put_string(&t.command);
    s.put_len(t.args.len());
    for a in &t.args {
        s.put_string(a);
    }
    s.put_len(t.env.len());
    for (k, v) in &t.env {
        s.put_string(k);
        s.put_string(v);
    }
    s.put_string(&t.working_dir);
    s.put_opt_u64(&t.estimated_runtime_us);
    match &t.data {
        None => s.put_u8(0),
        Some(d) => {
            s.put_u8(1);
            s.put_u64(d.object);
            s.put_u64(d.bytes);
            s.put_u8(match d.location {
                DataLocation::SharedFs => 0,
                DataLocation::LocalDisk => 1,
            });
            s.put_u8(match d.access {
                DataAccess::Read => 0,
                DataAccess::ReadWrite => 1,
            });
        }
    }
}

/// Read one string into an [`IStr`], reusing the static intern tables for
/// the hot cases: a `sleep N /tmp` task decodes with zero string
/// allocations and zero refcount traffic.
fn istr(r: &mut Reader<'_>, context: &'static str) -> Result<IStr, CodecError> {
    let s = r.str_slice(context)?;
    Ok(IStr::from(s))
}

fn decode_task(r: &mut Reader<'_>) -> Result<TaskSpec, CodecError> {
    const C: &str = "TaskSpec";
    let id = TaskId(r.u64(C)?);
    let command = istr(r, C)?;
    let args = match r.len(C)? {
        0 => Args::new(),
        1 => Args::one(istr(r, C)?),
        // One argument is every measured task: built directly, it decodes
        // in half the time the general `collect` takes. `collect` and not
        // `push` for the rest: a push re-boxes the whole list.
        n => (0..n).map(|_| istr(r, C)).collect::<Result<Args, _>>()?,
    };
    let nenv = r.len(C)?;
    let mut env = Vec::with_capacity(nenv.min(1024));
    for _ in 0..nenv {
        let k = istr(r, C)?;
        let v = istr(r, C)?;
        env.push((k, v));
    }
    let working_dir = istr(r, C)?;
    let estimated_runtime_us = r.opt_u64(C)?;
    let data = match r.u8(C)? {
        0 => None,
        1 => {
            let object = r.u64(C)?;
            let bytes = r.u64(C)?;
            let location = match r.u8(C)? {
                0 => DataLocation::SharedFs,
                1 => DataLocation::LocalDisk,
                tag => return Err(CodecError::UnknownTag { context: C, tag }),
            };
            let access = match r.u8(C)? {
                0 => DataAccess::Read,
                1 => DataAccess::ReadWrite,
                tag => return Err(CodecError::UnknownTag { context: C, tag }),
            };
            Some(DataSpec {
                object,
                bytes,
                location,
                access,
            })
        }
        tag => return Err(CodecError::UnknownTag { context: C, tag }),
    };
    Ok(TaskSpec {
        id,
        command,
        args,
        env,
        working_dir,
        estimated_runtime_us,
        data,
    })
}

fn encode_result<S: Sink>(s: &mut S, res: &TaskResult) {
    s.put_u64(res.id.0);
    s.put_i32(res.exit_code);
    s.put_opt_string(res.stdout());
    s.put_opt_string(res.stderr());
    s.put_u64(res.executor_time_us);
}

fn decode_result(r: &mut Reader<'_>) -> Result<TaskResult, CodecError> {
    const C: &str = "TaskResult";
    let id = TaskId(r.u64(C)?);
    let exit_code = r.i32(C)?;
    let stdout = r.opt_string(C)?;
    let stderr = r.opt_string(C)?;
    let mut res = TaskResult::failure(id, exit_code).with_output(stdout, stderr);
    res.executor_time_us = r.u64(C)?;
    Ok(res)
}

fn encode_tasks<S: Sink>(s: &mut S, tasks: &[TaskSpec]) {
    s.put_len(tasks.len());
    for t in tasks {
        // Each task is appended individually: with the grow-by-copy sink
        // this is where the quadratic cost accumulates.
        encode_task(s, t);
    }
}

fn decode_tasks(r: &mut Reader<'_>) -> Result<Vec<TaskSpec>, CodecError> {
    let n = r.len("tasks")?;
    let mut v = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        v.push(decode_task(r)?);
    }
    Ok(v)
}

fn encode_results<S: Sink>(s: &mut S, results: &[TaskResult]) {
    s.put_len(results.len());
    for res in results {
        encode_result(s, res);
    }
}

fn decode_results(r: &mut Reader<'_>) -> Result<Vec<TaskResult>, CodecError> {
    let n = r.len("results")?;
    let mut v = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        v.push(decode_result(r)?);
    }
    Ok(v)
}

fn encode_message<S: Sink>(s: &mut S, msg: &Message) {
    match msg {
        Message::CreateInstance => s.put_u8(tag::CREATE_INSTANCE),
        Message::InstanceCreated { instance } => {
            s.put_u8(tag::INSTANCE_CREATED);
            s.put_u64(instance.0);
        }
        Message::Submit { instance, tasks } => {
            s.put_u8(tag::SUBMIT);
            s.put_u64(instance.0);
            encode_tasks(s, tasks);
        }
        Message::SubmitAck { instance, accepted } => {
            s.put_u8(tag::SUBMIT_ACK);
            s.put_u64(instance.0);
            s.put_u64(*accepted);
        }
        Message::Notify { key } => {
            s.put_u8(tag::NOTIFY);
            s.put_u64(key.0);
        }
        Message::GetWork { executor, key } => {
            s.put_u8(tag::GET_WORK);
            s.put_u64(executor.0);
            s.put_u64(key.0);
        }
        Message::Work { tasks } => {
            s.put_u8(tag::WORK);
            encode_tasks(s, tasks);
        }
        Message::Result { executor, results } => {
            s.put_u8(tag::RESULT);
            s.put_u64(executor.0);
            encode_results(s, results);
        }
        Message::ResultAck { piggybacked } => {
            s.put_u8(tag::RESULT_ACK);
            encode_tasks(s, piggybacked);
        }
        Message::ClientNotify { instance, ready } => {
            s.put_u8(tag::CLIENT_NOTIFY);
            s.put_u64(instance.0);
            s.put_u64(*ready);
        }
        Message::GetResults { instance } => {
            s.put_u8(tag::GET_RESULTS);
            s.put_u64(instance.0);
        }
        Message::Results { results } => {
            s.put_u8(tag::RESULTS);
            encode_results(s, results);
        }
        Message::ResultsAck { instance, count } => {
            s.put_u8(tag::RESULTS_ACK);
            s.put_u64(instance.0);
            s.put_u64(*count);
        }
        Message::Register { executor, host } => {
            s.put_u8(tag::REGISTER);
            s.put_u64(executor.0);
            s.put_string(host);
        }
        Message::RegisterAck { executor } => {
            s.put_u8(tag::REGISTER_ACK);
            s.put_u64(executor.0);
        }
        Message::Deregister { executor } => {
            s.put_u8(tag::DEREGISTER);
            s.put_u64(executor.0);
        }
        Message::StatusPoll => s.put_u8(tag::STATUS_POLL),
        Message::Status { status } => {
            s.put_u8(tag::STATUS);
            s.put_u64(status.queued_tasks);
            s.put_u64(status.running_tasks);
            s.put_u64(status.registered_executors);
            s.put_u64(status.busy_executors);
        }
        Message::DestroyInstance { instance } => {
            s.put_u8(tag::DESTROY_INSTANCE);
            s.put_u64(instance.0);
        }
    }
}

fn decode_message(r: &mut Reader<'_>) -> Result<Message, CodecError> {
    const C: &str = "Message";
    let t = r.u8(C)?;
    Ok(match t {
        tag::CREATE_INSTANCE => Message::CreateInstance,
        tag::INSTANCE_CREATED => Message::InstanceCreated {
            instance: InstanceId(r.u64(C)?),
        },
        tag::SUBMIT => Message::Submit {
            instance: InstanceId(r.u64(C)?),
            tasks: decode_tasks(r)?,
        },
        tag::SUBMIT_ACK => Message::SubmitAck {
            instance: InstanceId(r.u64(C)?),
            accepted: r.u64(C)?,
        },
        tag::NOTIFY => Message::Notify {
            key: NotifyKey(r.u64(C)?),
        },
        tag::GET_WORK => Message::GetWork {
            executor: ExecutorId(r.u64(C)?),
            key: NotifyKey(r.u64(C)?),
        },
        tag::WORK => Message::Work {
            tasks: decode_tasks(r)?,
        },
        tag::RESULT => Message::Result {
            executor: ExecutorId(r.u64(C)?),
            results: decode_results(r)?,
        },
        tag::RESULT_ACK => Message::ResultAck {
            piggybacked: decode_tasks(r)?,
        },
        tag::CLIENT_NOTIFY => Message::ClientNotify {
            instance: InstanceId(r.u64(C)?),
            ready: r.u64(C)?,
        },
        tag::GET_RESULTS => Message::GetResults {
            instance: InstanceId(r.u64(C)?),
        },
        tag::RESULTS => Message::Results {
            results: decode_results(r)?,
        },
        tag::RESULTS_ACK => Message::ResultsAck {
            instance: InstanceId(r.u64(C)?),
            count: r.u64(C)?,
        },
        tag::REGISTER => Message::Register {
            executor: ExecutorId(r.u64(C)?),
            host: r.string(C)?,
        },
        tag::REGISTER_ACK => Message::RegisterAck {
            executor: ExecutorId(r.u64(C)?),
        },
        tag::DEREGISTER => Message::Deregister {
            executor: ExecutorId(r.u64(C)?),
        },
        tag::STATUS_POLL => Message::StatusPoll,
        tag::STATUS => Message::Status {
            status: DispatcherStatus {
                queued_tasks: r.u64(C)?,
                running_tasks: r.u64(C)?,
                registered_executors: r.u64(C)?,
                busy_executors: r.u64(C)?,
            },
        },
        tag::DESTROY_INSTANCE => Message::DestroyInstance {
            instance: InstanceId(r.u64(C)?),
        },
        tag => return Err(CodecError::UnknownTag { context: C, tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let mut captured = TaskResult::success(TaskId(1)).with_output(Some("ok".into()), None);
        captured.executor_time_us = 1234;
        vec![
            Message::CreateInstance,
            Message::InstanceCreated {
                instance: InstanceId(9),
            },
            Message::Submit {
                instance: InstanceId(1),
                tasks: vec![
                    TaskSpec::sleep(1, 0),
                    TaskSpec::sleep(2, 480).with_data(
                        1 << 20,
                        DataLocation::LocalDisk,
                        DataAccess::ReadWrite,
                    ),
                ],
            },
            Message::SubmitAck {
                instance: InstanceId(1),
                accepted: 2,
            },
            Message::Notify { key: NotifyKey(7) },
            Message::GetWork {
                executor: ExecutorId(3),
                key: NotifyKey(7),
            },
            Message::Work {
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
            Message::Result {
                executor: ExecutorId(3),
                results: vec![captured],
            },
            Message::ResultAck {
                piggybacked: vec![TaskSpec::sleep(5, 1)],
            },
            Message::ClientNotify {
                instance: InstanceId(1),
                ready: 10,
            },
            Message::GetResults {
                instance: InstanceId(1),
            },
            Message::Results {
                results: vec![TaskResult::failure(TaskId(2), -9)],
            },
            Message::ResultsAck {
                instance: InstanceId(1),
                count: 3,
            },
            Message::Register {
                executor: ExecutorId(4),
                host: "node-17".into(),
            },
            Message::RegisterAck {
                executor: ExecutorId(4),
            },
            Message::Deregister {
                executor: ExecutorId(4),
            },
            Message::StatusPoll,
            Message::Status {
                status: DispatcherStatus {
                    queued_tasks: 100,
                    running_tasks: 50,
                    registered_executors: 64,
                    busy_executors: 50,
                },
            },
            Message::DestroyInstance {
                instance: InstanceId(1),
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants_efficient() {
        let codec = EfficientCodec;
        for msg in sample_messages() {
            let bytes = codec.encode(&msg);
            let back = codec.decode(&bytes).unwrap();
            assert_eq!(msg, back, "roundtrip failed for {}", msg.kind());
        }
    }

    #[test]
    fn axis_and_efficient_produce_identical_bytes() {
        for msg in sample_messages() {
            assert_eq!(
                EfficientCodec.encode(&msg),
                AxisCodec.encode(&msg),
                "byte mismatch for {}",
                msg.kind()
            );
        }
    }

    #[test]
    fn axis_decode_of_efficient_bytes() {
        let msg = Message::Work {
            tasks: (0..50).map(|i| TaskSpec::sleep(i, 0)).collect(),
        };
        let bytes = EfficientCodec.encode(&msg);
        assert_eq!(AxisCodec.decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn axis_copy_traffic_grows_superlinearly() {
        let bundle = |n: u64| Message::Submit {
            instance: InstanceId(0),
            tasks: (0..n).map(|i| TaskSpec::sleep(i, 0)).collect(),
        };
        let (_, c100) = AxisCodec.encode_counting(&bundle(100));
        let (_, c400) = AxisCodec.encode_counting(&bundle(400));
        // 4x the tasks must cost much more than 4x the copies (quadratic-ish).
        assert!(
            c400 > c100 * 10,
            "copies: 100 tasks = {c100}, 400 tasks = {c400}"
        );
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let err = EfficientCodec.decode(&[200]).unwrap_err();
        assert!(matches!(err, CodecError::UnknownTag { tag: 200, .. }));
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = EfficientCodec.encode(&Message::StatusPoll);
        bytes.push(0xFF);
        assert!(matches!(
            EfficientCodec.decode(&bytes),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let msg = Message::Submit {
            instance: InstanceId(1),
            tasks: vec![TaskSpec::sleep(1, 3)],
        };
        let bytes = EfficientCodec.encode(&msg);
        for cut in 0..bytes.len() {
            assert!(
                EfficientCodec.decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn encode_append_preserves_prefix() {
        let msg = Message::Work {
            tasks: vec![TaskSpec::sleep(1, 0)],
        };
        let mut buf = vec![0xEE, 0xFF];
        EfficientCodec.encode_append(&msg, &mut buf);
        assert_eq!(&buf[..2], &[0xEE, 0xFF]);
        assert_eq!(&buf[2..], &EfficientCodec.encode(&msg)[..]);
    }

    #[test]
    fn encoded_len_matches_encode() {
        let msg = Message::Work {
            tasks: vec![TaskSpec::sleep(1, 0)],
        };
        assert_eq!(
            EfficientCodec.encoded_len(&msg),
            EfficientCodec.encode(&msg).len()
        );
    }
}
