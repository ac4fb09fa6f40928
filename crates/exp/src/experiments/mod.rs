//! One runner per paper table/figure.
//!
//! Each experiment exposes `run(scale)` returning a structured result and a
//! `render(&result)` producing the text table/series that the `repro`
//! binary prints. [`Scale::Full`] reproduces the paper's parameters
//! (2,000,000 tasks, 54,000 executors, …); [`Scale::Quick`] shrinks the
//! workloads for tests and smoke runs while preserving every qualitative
//! feature. The [`registry`] module lists every runner as one entry of the
//! [`registry::Experiment`] table that the `repro` binary dispatches over; an
//! entry's run renders its text block, so the typed results here are read
//! only by their own module's renderer and by tests that check numbers.

pub mod ablation;
pub mod applications;
pub mod bundling;
pub mod data;
pub mod efficiency;
pub mod endurance;
pub mod measured;
pub mod provisioning;
pub mod registry;
pub mod scale54k;
pub mod tables;
pub mod threetier;
pub mod throughput;

pub use registry::{lookup, Experiment, Report, REGISTRY};

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Reduced workloads for tests and smoke runs.
    Quick,
    /// The paper's parameters.
    Full,
}

impl Scale {
    /// Pick `full` or `quick` depending on scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
