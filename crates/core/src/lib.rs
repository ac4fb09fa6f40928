//! Falkon core: the paper's primary contribution as sans-io state machines.
//!
//! Falkon (SC'07) separates **resource acquisition** (first-level requests to
//! batch schedulers) from **task dispatch** (a streamlined second-level
//! scheduler). This crate implements the three components of Figure 1 —
//! [`dispatcher::Dispatcher`], [`executor::Executor`], and
//! [`provisioner::Provisioner`] — plus the execution-model policies of
//! Section 3.1 ([`policy`]) and a client-side session ([`client::Client`]).
//!
//! **Sans-io design.** Every component is a pure state machine: it consumes
//! typed events carrying an explicit timestamp and emits typed actions; it
//! never blocks, spawns, sleeps, or touches sockets. The same machines are
//! driven by
//!
//! * `falkon-rt` — real threads, channels, and TCP for measured
//!   microbenchmarks, and
//! * `falkon-exp` — a discrete-event simulator for the paper's at-scale
//!   experiments (54 K executors, 2 M tasks).
//!
//! Because both drivers execute identical dispatch logic, simulated results
//! reflect the actual implementation rather than a separate model of it.
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod dispatcher;
pub mod executor;
pub mod forwarder;
pub mod ids;
pub mod mapping;
pub mod policy;
pub mod provisioner;
pub mod table;
mod waitqueue;

pub use client::{Client, ClientEvent};
pub use config::DispatcherConfig;
pub use dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent, DispatcherStats};
pub use executor::{Executor, ExecutorAction, ExecutorConfig, ExecutorEvent, ExecutorStats};
pub use forwarder::{Forwarder, ForwarderAction, ForwarderEvent, ForwarderStats};
pub use ids::AllocationId;
pub use policy::{AcquisitionPolicy, ProvisionerPolicy, ReleasePolicy, ReplayPolicy};
pub use provisioner::{Provisioner, ProvisionerAction, ProvisionerEvent, ProvisionerStats};
pub use table::{DenseMap, FxHashMap, FxHashSet};

/// Microsecond-resolution timestamp passed explicitly into every state
/// machine. The real-time driver derives it from a monotonic clock; the
/// simulator passes virtual time. Identical to `falkon_obs::Micros` (and
/// semantically to `falkon_sim::SimTime`), re-declared here so downstream
/// code can use it without importing the observability crate.
pub type Micros = u64;
