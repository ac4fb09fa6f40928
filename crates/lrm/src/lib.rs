//! Local Resource Manager (LRM) substrates.
//!
//! The Falkon paper's baselines and its provisioning path both go through
//! conventional batch schedulers: PBS v2.1.8 and Condor v6.7.2 manage the
//! TeraGrid testbed and GRAM4 fronts them for grid submission. None of those
//! systems can be linked into a Rust reproduction, so this crate implements
//! discrete-event models of them, calibrated to the paper's own
//! measurements:
//!
//! * PBS v2.1.8 sustains ≈0.45 tasks/sec; Condor v6.7.2 ≈0.49 (the paper
//!   ran it as a MyCluster personal pool; here it is the Condor profile
//!   driven directly); Condor v6.9.3 ≈11 (per-task overhead 0.0909 s);
//!   Condor-J2 ≈22 (Table 2).
//! * The scheduler assigns work on a periodic poll cycle (≈60 s for the
//!   paper's PBS), which is why Falkon executor creation takes 5–65 s.
//! * GRAM4 handles roughly 0.5 requests/sec and adds its own state-change
//!   notification path (Section 4.6).
//!
//! The models are sans-io state machines in the same style as
//! `falkon-core`: explicit timestamps in, actions out, a `next_wakeup` hook
//! for the simulator.

pub mod gram;
pub mod job;
pub mod profile;
pub mod scheduler;

pub use gram::{Gram, GramConfig, GramInput, GramOutput};
pub use job::{DoneReason, JobId, JobSpec, JobState};
pub use profile::LrmProfile;
pub use scheduler::{BatchScheduler, LrmInput, LrmOutput};

/// Microsecond timestamps, matching `falkon-core`.
pub type Micros = u64;
