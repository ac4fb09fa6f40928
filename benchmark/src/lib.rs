//! The Falkon-rs benchmark: five workloads, four end-to-end metrics, and
//! per-layer metrics taken from outside the program. README.md in this
//! directory describes workloads, metrics and method; `BENCHMARK.json` at
//! the repository root is the contract the driver runs it under.
//!
//! The benchmark compiles against the repository's public API only and
//! changes no program code: what it cannot see from outside (time inside
//! the runtime) is reported as `rt.unattributed_us_per_task`.

// The benchmark is a driver: reading clocks and waiting are its job. The
// repository's clippy.toml (which clippy finds from this directory too)
// bans both for the sans-io crates.
#![allow(clippy::disallowed_methods)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux /proc and binds 64-bit clock_gettime");

pub mod alloc;
pub mod cli;
pub mod gen;
pub mod json;
pub mod replay;
pub mod report;
pub mod repro;
pub mod run;
pub mod selfcheck;
pub mod spec;
pub mod sys;
pub mod trial;
