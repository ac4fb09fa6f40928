//! Discrete-event simulation substrate for the Falkon reproduction.
//!
//! The Falkon paper evaluates the system at scales (54,000 executors,
//! 2,000,000 tasks, multi-hour provisioning runs on TeraGrid clusters) that
//! cannot be reproduced in real time on a single machine. This crate provides
//! the virtual-time machinery used to run the *same* Falkon state machines
//! (from `falkon-core`) against modelled clusters:
//!
//! * [`SimTime`], [`SimDuration`] — the microsecond-resolution virtual
//!   clock, shared with (and defined in) `falkon-obs`.
//! * [`event`] — a deterministic event queue with stable FIFO ordering for
//!   simultaneous events, backed by the hierarchical timer wheel in
//!   [`wheel`] (events past its 2^32 µs horizon wait in a `BTreeMap`).
//! * [`engine`] — the event loop: [`engine::Engine`] delivers timed events
//!   to a handler closure.
//! * [`Histogram`], [`TimeSeries`] — the `falkon-obs` measurement
//!   primitives used to regenerate the paper's figures.
//! * [`rng`] — deterministic, seedable random distributions so every
//!   experiment is exactly reproducible.
//! * [`platform`] — the Table 1 testbed profiles (node counts, CPUs, network).
//! * [`table`] — plain-text table/TSV formatting for experiment output.
#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod platform;
pub mod rng;
pub mod table;
pub mod wheel;

pub use engine::Engine;
pub use event::EventQueue;
pub use falkon_obs::metrics::{Histogram, TimeSeries};
pub use falkon_obs::time::{SimDuration, SimTime};
pub use rng::SimRng;
