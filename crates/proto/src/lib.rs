//! The Falkon wire protocol.
//!
//! The paper's components exchange Web-Service messages plus a custom
//! TCP-based notification protocol (Figure 2). This crate is our equivalent
//! substrate: a typed message set ([`message::Message`]) mirroring the
//! paper's message sequence `{1..10}`, binary codecs, length-delimited
//! framing, task bundling, and a security layer standing in for
//! GSISecureConversation.
//!
//! Two codecs are provided:
//!
//! * [`codec::EfficientCodec`] — a sensible length-prefixed binary encoding.
//! * [`codec::AxisCodec`] — functionally identical, but its array encoding
//!   deliberately reallocates-and-copies on every element append, emulating
//!   the Apache Axis grow-able-array behaviour that the paper identifies as
//!   the cause of throughput degradation for bundles larger than ~300 tasks
//!   (Section 4.3 / Figure 5). Benchmarking the two against each other is the
//!   bundling ablation.
//!
//! Decoding untrusted bytes must never crash a peer, so nothing in this
//! crate may panic: no indexing or slicing, no `unwrap`/`expect`, no
//! `panic!`-family macros. Clippy enforces it below; tests are exempt
//! through `clippy.toml`, and an exception is an `#[expect]` with a
//! `reason` at the site.
#![forbid(unsafe_code)]
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn
)]

pub mod bundle;
pub mod codec;
pub mod error;
pub mod frame;
pub mod message;
pub mod security;
pub mod task;
mod wire;

pub use bundle::{bundles, BundleConfig};
pub use codec::{AxisCodec, Codec, EfficientCodec};
pub use error::CodecError;
pub use frame::{write_frame, FrameCursor, MAX_FRAME_LEN};
pub use message::{DispatcherStatus, Message};
pub use security::SecureChannel;
pub use task::{Args, DataAccess, DataLocation, DataSpec, IStr, TaskId, TaskResult, TaskSpec};
