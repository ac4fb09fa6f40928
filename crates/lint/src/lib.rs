//! `falkon-lint`: architecture-invariant static analysis for the falkon
//! workspace.
//!
//! The SC'07 reproduction rests on one implementation of the protocol and
//! policy logic being driven identically by the real-time runtime and the
//! discrete-event simulator. That only holds if a handful of architecture
//! rules — previously enforced by convention alone — actually hold in the
//! source. This crate makes them machine-checkable:
//!
//! 1. **sans-io purity** ([`rules::check_sans_io`]) — no sockets, threads,
//!    sleeps, or wall-clock reads in `falkon-core`, `falkon-proto`,
//!    `falkon-obs`, or `falkon-sim`; time enters as an explicit `Micros`.
//! 2. **probe provenance** ([`rules::check_probe_provenance`]) — drivers
//!    mount recorders but never construct `ObsEvent`s, the invariant behind
//!    `tests/obs_parity.rs`.
//! 3. **calibration traceability** ([`rules::check_calibration`]) — every
//!    `const` in `crates/exp/src/costs.rs` and `crates/lrm/src/profile.rs`
//!    cites the paper number it reproduces.
//! 4. **registry completeness** ([`rules::check_registry`]) — every module
//!    under `crates/exp/src/experiments/` is reachable from `REGISTRY`.
//! 5. **atomic ordering protocols** ([`rules::check_atomic_protocol`]) —
//!    files touching `std::sync::atomic` open with a `//! Ordering
//!    protocol:` module doc; every `Ordering::Relaxed` and `fence` site
//!    carries a justification; atomics stay in the driver crates.
//!
//! Three properties are the toolchain's, not this crate's (DESIGN.md §7.1):
//! `unsafe` (the workspace lints and the sans-io roots' `forbid`), panic-free
//! decode (`falkon-proto` denies clippy's panic lints at its root), and the
//! event-driven runtime (`clippy.toml` bans sleeps and read timeouts).
//!
//! The workspace builds fully offline (no `syn`), so the rules run over a
//! purpose-built token scanner ([`lexer`]) that elides comments and literal
//! contents, plus a brace-matching layer ([`syntax`]) that exempts
//! `#[cfg(test)]` / `#[test]` regions. No rule has exceptions: a finding is
//! fixed at the site.
//!
//! Run as `cargo run -p falkon-lint` or `cargo xtask lint`; pass
//! `--format json` for machine-readable output and `--rule <id>`
//! (repeatable) to run a subset. Exits non-zero on any violation.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod syntax;

pub use diag::{Diagnostic, Rule};
pub use engine::{
    lint_files, lint_files_filtered, lint_workspace, lint_workspace_filtered, LintReport,
};
pub use lexer::SourceFile;
