//! The `repro` harness binary (`src/bin/repro.rs`) and its two library
//! halves.
//!
//! [`harness`] is the `repro all` runner (serial or `--jobs N` parallel,
//! byte-identical output either way). [`perfbench`] is the scenario table
//! behind `repro bench`, a floor tripwire for CI — performance is
//! *measured* by `benchmark/`, not here.

pub mod harness;
pub mod perfbench;
