//! `cargo xtask <task>` — the blessed spellings for workspace chores.
//!
//! ```text
//! cargo xtask repro [args...] the repro binary (`repro all --jobs 8`, ...)
//! cargo xtask tsan            ThreadSanitizer pass over the concurrency
//!                             surface (nightly-only; skips if unavailable)
//! cargo xtask miri            Miri pass over the event-queue model suite
//!                             (nightly + cargo-miri; skips if unavailable)
//! ```
//!
//! Each task shells back out to cargo so it always runs the current tree;
//! extra arguments are forwarded to the underlying tool.
//!
//! `tsan` and `miri` are the *dynamic* complement to the static checks on
//! the concurrency surface (the workspace's `unsafe` lints and the atomic
//! ordering protocols `tests/architecture.rs` checks): those prove the
//! invariants are *stated*; the sanitizers check the stated orderings
//! actually hold under real interleavings. Both need a nightly toolchain (TSan needs
//! `-Zsanitizer=thread` + rust-src; Miri needs the `cargo-miri`
//! component). When the toolchain isn't present — as in the offline CI
//! container — they print `SKIPPED` and exit 0, so only a genuine test
//! failure is ever red; CI runs them in `continue-on-error` jobs.

use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cargo xtask <repro|tsan|miri> [tool args...]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(task) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = args.collect();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = match task.as_str() {
        // `cargo build --bins` at the workspace root is a no-op (the root
        // `falkon` package has no binaries); this is the spelled-out path
        // to the actual repro binary.
        "repro" => Command::new(&cargo)
            .args([
                "run",
                "--quiet",
                "--release",
                "-p",
                "falkon-bench",
                "--bin",
                "repro",
                "--",
            ])
            .args(&rest)
            .status(),
        "tsan" => return tsan(&rest),
        "miri" => return miri(&rest),
        "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("xtask: unknown task `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    exit_of(status, &cargo)
}

fn exit_of(status: std::io::Result<std::process::ExitStatus>, cargo: &str) -> ExitCode {
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => ExitCode::from(s.code().unwrap_or(1).clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("xtask: cannot run {cargo}: {e}");
            ExitCode::from(2)
        }
    }
}

/// `true` if `cargo +nightly <probe args>` runs successfully — the
/// preflight for the sanitizer tasks. A missing nightly toolchain, missing
/// component, or missing rustup all read as "unavailable".
fn nightly_supports(cargo: &str, probe: &[&str]) -> bool {
    Command::new(cargo)
        .arg("+nightly")
        .args(probe)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// ThreadSanitizer over the concurrency surface: the connection engine's
/// three soaks — wire balance and backpressure, 1k-connection fan-out,
/// three-tier dispatcher loss (root-package integration tests `tcp_soak` /
/// `tcp_fanout` / `tcp_threetier`).
/// TSan needs nightly (`-Zsanitizer=thread`) plus rust-src for a
/// `-Zbuild-std` rebuild of std with the sanitizer runtime.
fn tsan(rest: &[String]) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    if !nightly_supports(&cargo, &["--version"]) {
        println!("xtask tsan: SKIPPED — no nightly toolchain available");
        return ExitCode::SUCCESS;
    }
    if !nightly_rust_src_present() {
        println!("xtask tsan: SKIPPED — nightly lacks rust-src (needed for -Zbuild-std)");
        return ExitCode::SUCCESS;
    }
    let host = host_triple(&cargo).unwrap_or_else(|| "x86_64-unknown-linux-gnu".into());
    let suites: &[&[&str]] = &[
        // The soak tests are integration tests of the root `falkon`
        // package (they live in the top-level tests/), not of falkon-rt.
        &["test", "-p", "falkon", "--test", "tcp_soak"],
        &["test", "-p", "falkon", "--test", "tcp_fanout"],
        &["test", "-p", "falkon", "--test", "tcp_threetier"],
    ];
    for suite in suites {
        let status = Command::new(&cargo)
            .arg("+nightly")
            .args(*suite)
            .args(["-Zbuild-std", "--target", &host])
            .args(rest)
            .env("RUSTFLAGS", "-Zsanitizer=thread")
            .env("RUST_TEST_THREADS", "2")
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask tsan: FAILED in `cargo {}`", suite.join(" "));
                return ExitCode::from(s.code().unwrap_or(1).clamp(0, 255) as u8);
            }
            Err(e) => {
                eprintln!("xtask tsan: cannot run {cargo}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("xtask tsan: PASSED (tcp_soak + tcp_fanout + tcp_threetier soaks, vendored channel)");
    ExitCode::SUCCESS
}

/// Miri over `falkon-sim`'s event-queue model suite (`queue_model`) — the
/// interpreter catches provenance and aliasing violations TSan cannot.
/// Scoped to that one suite because Miri cannot execute real sockets or
/// poll(2). The model runs hundreds to thousands of proptest cases
/// natively; under Miri's ~50× slowdown we cap them via `PROPTEST_CASES` —
/// the interpreter's value is per-operation soundness, not case volume.
fn miri(rest: &[String]) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    if !nightly_supports(&cargo, &["--version"]) {
        println!("xtask miri: SKIPPED — no nightly toolchain available");
        return ExitCode::SUCCESS;
    }
    if !nightly_supports(&cargo, &["miri", "--version"]) {
        println!("xtask miri: SKIPPED — cargo-miri not installed on nightly");
        return ExitCode::SUCCESS;
    }
    let status = Command::new(&cargo)
        .args(["+nightly", "miri", "test"])
        .args(["-p", "falkon-sim", "--test", "queue_model"])
        .args(rest)
        // Deterministic scheduling preemption surfaces more interleavings.
        .env("MIRIFLAGS", "-Zmiri-preemption-rate=0.5")
        .env("PROPTEST_CASES", "16")
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask miri: PASSED (sim event-queue model suite)");
            ExitCode::SUCCESS
        }
        Ok(s) => {
            eprintln!("xtask miri: FAILED");
            ExitCode::from(s.code().unwrap_or(1).clamp(0, 255) as u8)
        }
        Err(e) => {
            eprintln!("xtask miri: cannot run {cargo}: {e}");
            ExitCode::from(2)
        }
    }
}

/// The nightly sysroot must ship `library/std` sources for `-Zbuild-std`.
fn nightly_rust_src_present() -> bool {
    let out = Command::new("rustc")
        .args(["+nightly", "--print", "sysroot"])
        .output();
    let Ok(o) = out else { return false };
    if !o.status.success() {
        return false;
    }
    let sysroot = String::from_utf8_lossy(&o.stdout).trim().to_string();
    std::path::Path::new(&sysroot)
        .join("lib/rustlib/src/rust/library/std")
        .is_dir()
}

fn host_triple(cargo: &str) -> Option<String> {
    let o = Command::new(cargo)
        .args(["--version", "--verbose"])
        .output()
        .ok()?;
    String::from_utf8_lossy(&o.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(|h| h.trim().to_string()))
}
