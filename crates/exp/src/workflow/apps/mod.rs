//! Application workload generators for the paper's experiments.

pub mod fmri;
pub mod montage;
pub mod synthetic;
pub(crate) mod table5;
