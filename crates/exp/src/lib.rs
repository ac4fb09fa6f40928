//! Experiment harnesses: simulated Falkon deployments and reproduction
//! runners for every table and figure in the paper's evaluation.
//!
//! The real-time runtime (`falkon-rt`) measures what this machine can do;
//! this crate simulates what the *paper's testbed* did, by mounting the
//! same `falkon-core` state machines into the `falkon-sim` discrete-event
//! engine together with calibrated cost models (dispatcher CPU per message,
//! network latency, JVM startup and GC stalls, LRM queueing from
//! `falkon-lrm`, filesystem contention from `falkon-fs`).
//!
//! * [`costs`] — the calibrated cost model.
//! * [`simfalkon`] — a full simulated deployment: client, dispatcher,
//!   executors, provisioner, LRM, shared/local filesystems.
//! * [`lrmdirect`] — baseline runs that submit every task straight to
//!   PBS or Condor (what Falkon is compared against).
//! * [`providers`] — `falkon-workflow` providers backed by the simulator
//!   (Falkon, GRAM4+PBS, clustered GRAM4+PBS) for the Section 5
//!   application experiments.
//! * [`experiments`] — one runner per table/figure, returning structured
//!   results and rendering them as text; [`experiments::registry`] is the
//!   dispatch table, whose runs hand the `repro` binary rendered blocks.
//! * [`trace`] — opt-in per-task lifecycle capture behind `repro --trace`.
#![forbid(unsafe_code)]

pub mod costs;
pub mod experiments;
pub mod lrmdirect;
pub mod providers;
pub mod simfalkon;
pub mod trace;

pub use costs::CostModel;
pub use simfalkon::{SimFalkon, SimFalkonConfig, SimOutcome};

/// Microsecond timestamps, matching `falkon-core`.
pub type Micros = u64;
