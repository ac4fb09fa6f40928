//! The real-time Falkon runtime.
//!
//! This crate mounts the sans-io state machines of `falkon-core` onto real
//! OS threads and sockets. `repro measured` and the benchmark run on it;
//! the paper's figures and tables are simulated (`falkon-exp`):
//!
//! * [`tcp`] — Falkon over real localhost TCP sockets with
//!   length-delimited frames (the custom TCP notification path of Figure 2,
//!   extended to all messages), and [`forwarder`] — the 3-tier deployment
//!   on top of it. Every socket is a [`conn::Conn`] serviced by the one
//!   readiness loop in [`engine`]; `server.rs` mounts that loop as a
//!   server's one thread — listener, control fd, every connection, and the
//!   `falkon-core` node run inside the turn (one OS thread per dispatcher or
//!   forwarder, for thousands of connections) — and [`muxpeer`] mounts it
//!   on the caller's thread for any number of executor peers.
//! * [`inproc`] — that deployment started and torn down around one
//!   workload in one call: dispatcher server (or, with
//!   [`InprocConfig::forwarder`], a forwarder over several), a thread per
//!   executor, and the calling thread as the client, on loopback; with
//!   [`WireMode::Secure`] every connection seals its frames with the
//!   GSISecureConversation stand-in, so "security on/off" and
//!   "serialization cost" are real CPU work, like the paper's WS stack.
//! * [`wscounter`] — the paper's GT4 "counter service" baseline: a trivial
//!   request/response server whose call rate upper-bounds achievable
//!   dispatch throughput on the same transport.
//! * [`clock`] — a monotonic microsecond clock shared by all components.
//!
//! The runtime is event-driven: threads block on sockets and wake on data
//! or on a deadline a machine armed, never on a timer. The
//! `disallowed-methods` in `clippy.toml` (wall-clock reads, sleeps, socket
//! read timeouts) bind here as everywhere else; the three functions that
//! must call one carry an `#[expect]` with a `reason`.

pub mod clock;
pub mod conn;
pub mod engine;
mod exec;
pub mod forwarder;
pub mod inproc;
pub mod muxpeer;
pub mod poll;
mod server;
pub mod tcp;
pub mod wscounter;

pub use inproc::{InprocConfig, RunOutcome, WireMode};
