//! End-to-end fixtures: each of the five rules catches a seeded violation,
//! and `#[cfg(test)]` regions are exempt.

use falkon_lint::engine::lint_files;
use falkon_lint::lexer::SourceFile;
use falkon_lint::Rule;

#[test]
fn sans_io_catches_sockets_threads_and_clocks() {
    let f = SourceFile::parse(
        "crates/core/src/dispatcher.rs",
        r#"
use std::net::TcpListener;
fn tick() {
    let t0 = Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _ = SystemTime::now();
    let _ = t0;
}
"#,
    );
    let report = lint_files(&[f]);
    assert!(report.diags.len() >= 4, "diags: {:#?}", report.diags);
    assert!(report.diags.iter().all(|d| d.rule == Rule::SansIo));
}

#[test]
fn sans_io_exempts_test_regions() {
    let f = SourceFile::parse(
        "crates/core/src/dispatcher.rs",
        r#"
fn pure(now: u64) -> u64 { now + 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_ok_in_tests() {
        let _ = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_micros(1));
    }
}
"#,
    );
    let report = lint_files(&[f]);
    assert!(report.clean(), "diags: {:#?}", report.diags);
}

#[test]
fn probe_provenance_catches_driver_built_events() {
    let f = SourceFile::parse(
        "crates/rt/src/tcp.rs",
        r#"
use falkon_obs::{Counters, ObsEvent};
fn leak(c: &mut Counters, bytes: u64) {
    c.observe(&ObsEvent::BundleEncoded { bytes });
}
"#,
    );
    let report = lint_files(&[f]);
    assert_eq!(report.diags.len(), 1, "diags: {:#?}", report.diags);
    assert_eq!(report.diags[0].rule, Rule::ProbeProvenance);
    // The same construction inside the obs crate itself is fine — that is
    // where events are supposed to come from.
    let machine = SourceFile::parse(
        "crates/obs/src/wiretap.rs",
        "fn emit(bytes: u64) -> ObsEvent { ObsEvent::BundleEncoded { bytes } }",
    );
    assert!(lint_files(&[machine]).clean());
}

#[test]
fn calibration_requires_a_paper_citation() {
    let f = SourceFile::parse(
        "crates/exp/src/costs.rs",
        r#"
/// Dispatcher CPU per message (Fig. 3: 487 tasks/sec, two messages/task).
pub const DOCUMENTED: u64 = 1_030;

/// A lovingly hand-tuned number.
pub const UNCITED: u64 = 42;

pub const UNDOCUMENTED: u64 = 7;
"#,
    );
    let report = lint_files(&[f]);
    let names: Vec<&str> = report
        .diags
        .iter()
        .filter(|d| d.rule == Rule::Calibration)
        .map(|d| {
            if d.message.contains("UNCITED") {
                "UNCITED"
            } else if d.message.contains("UNDOCUMENTED") {
                "UNDOCUMENTED"
            } else {
                "?"
            }
        })
        .collect();
    assert_eq!(
        names,
        ["UNCITED", "UNDOCUMENTED"],
        "diags: {:#?}",
        report.diags
    );
}

// The hot-path data structures added by the perf overhaul are inside the
// enforced scopes: a wall-clock read in the dense-table module is a sans-io
// violation like anywhere else in `falkon-core`.
#[test]
fn sans_io_covers_dense_table_module() {
    let f = SourceFile::parse(
        "crates/core/src/table.rs",
        r#"
fn bad_probe() -> u64 {
    let t0 = Instant::now();
    t0.elapsed().as_micros() as u64
}
"#,
    );
    let report = lint_files(&[f]);
    assert_eq!(report.diags.len(), 1, "diags: {:#?}", report.diags);
    assert_eq!(report.diags[0].rule, Rule::SansIo);
}

// The timer wheel is the simulators' clock authority: every placement and
// cascade is derived from explicit `SimTime` keys, so a wall-clock read
// there would silently decouple sim time from delivery order. `wheel.rs`
// sits inside the `crates/sim/src/` sans-io scope and must stay there.
#[test]
fn sans_io_covers_timer_wheel_module() {
    let f = SourceFile::parse(
        "crates/sim/src/wheel.rs",
        r#"
fn cascade_deadline() -> u64 {
    let t0 = Instant::now();
    t0.elapsed().as_micros() as u64
}
"#,
    );
    let report = lint_files(&[f]);
    assert_eq!(report.diags.len(), 1, "diags: {:#?}", report.diags);
    assert_eq!(report.diags[0].rule, Rule::SansIo);
}

// The thread pool is driver-side: real threads are its whole point. The
// same `thread::spawn` that is fine there must still flag inside the
// simulator, which remains sans-io even though both are driver scopes for
// the probe-provenance rule.
#[test]
fn pool_is_driver_side_but_sim_stays_sans_io() {
    let src = r#"
use std::thread;
fn start() {
    thread::spawn(|| {});
}
"#;
    let in_sim = SourceFile::parse("crates/sim/src/engine.rs", src);
    let report = lint_files(&[in_sim]);
    assert_eq!(report.diags.len(), 1, "diags: {:#?}", report.diags);
    assert_eq!(report.diags[0].rule, Rule::SansIo);

    let in_pool = SourceFile::parse("crates/pool/src/lib.rs", src);
    assert!(lint_files(&[in_pool]).clean());
}

#[test]
fn registry_catches_unreachable_experiments() {
    let alpha = SourceFile::parse("crates/exp/src/experiments/alpha.rs", "pub fn run() {}");
    let beta = SourceFile::parse("crates/exp/src/experiments/beta.rs", "pub fn run() {}");
    let registry = SourceFile::parse(
        "crates/exp/src/experiments/registry.rs",
        "use super::alpha; pub static REGISTRY: &[&str] = &[\"alpha\"];",
    );
    let report = lint_files(&[alpha, beta, registry]);
    assert_eq!(report.diags.len(), 1, "diags: {:#?}", report.diags);
    assert_eq!(report.diags[0].rule, Rule::Registry);
    assert!(report.diags[0].message.contains("`beta`"));
}

// The atomics rule guards the pool and the rt socket code: every atomics
// file names its ordering protocol and every `Relaxed` site says why.

#[test]
fn atomic_protocol_wants_module_doc_and_site_justifications() {
    let f = SourceFile::parse(
        "crates/rt/src/stats.rs",
        r#"
use std::sync::atomic::{fence, AtomicU64, Ordering};
static CALLS: AtomicU64 = AtomicU64::new(0);
fn bump() {
    CALLS.fetch_add(1, Ordering::Relaxed);
    fence(Ordering::SeqCst);
}
"#,
    );
    let report = lint_files(&[f]);
    let n = report
        .diags
        .iter()
        .filter(|d| d.rule == Rule::AtomicProtocol)
        .count();
    // missing `//! Ordering protocol:` + bare Relaxed + bare fence = 3
    assert_eq!(n, 3, "diags: {:#?}", report.diags);

    let fixed = SourceFile::parse(
        "crates/rt/src/stats.rs",
        r#"
//! Ordering protocol: the counter is a monotonic tally with no
//! synchronizes-with edges; the fence pairs with the reader's fence.
use std::sync::atomic::{fence, AtomicU64, Ordering};
static CALLS: AtomicU64 = AtomicU64::new(0);
fn bump() {
    // Relaxed: monotonic tally, readers tolerate staleness.
    CALLS.fetch_add(1, Ordering::Relaxed);
    // Pairs with the SeqCst fence in `snapshot`.
    fence(Ordering::SeqCst);
}
"#,
    );
    assert!(lint_files(&[fixed]).clean());
}

#[test]
fn atomics_are_confined_to_driver_crates() {
    let src = "//! Ordering protocol: none.\nuse std::sync::atomic::AtomicU64;\nstatic N: AtomicU64 = AtomicU64::new(0);\n";
    let outside = SourceFile::parse("crates/exp/src/costs.rs", src);
    let report = lint_files(&[outside]);
    let confined: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.rule == Rule::AtomicProtocol)
        .collect();
    assert_eq!(confined.len(), 1, "diags: {:#?}", report.diags);
    assert!(confined[0].message.contains("confined"));

    let inside = SourceFile::parse("crates/pool/src/lib.rs", src);
    assert!(lint_files(&[inside]).clean());
}

#[test]
fn conc_rules_exempt_test_regions() {
    let f = SourceFile::parse(
        "crates/rt/src/shard.rs",
        r#"
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    #[test]
    fn races() {
        static F: AtomicBool = AtomicBool::new(false);
        F.store(true, Ordering::Relaxed);
    }
}
"#,
    );
    let report = lint_files(&[f]);
    assert!(report.clean(), "diags: {:#?}", report.diags);
}
