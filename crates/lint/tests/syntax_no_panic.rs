//! Property tests for the lexer + block-structure layer.
//!
//! The lint parses every source file in the workspace (vendor included) on
//! every run, so the syntax layer inherits the same contract as the proto
//! decode paths: *never* panic, whatever the bytes. Three properties:
//!
//! 1. Arbitrary byte soup parses without panicking, and so do all five
//!    rules run over the result.
//! 2. Mutated Rust-ish sources (random token splices into real-looking
//!    code) parse without panicking and keep test spans in bounds.
//! 3. Comment attachment is stable under horizontal-whitespace shuffles —
//!    re-indenting a file must not detach its `Relaxed` justifications.

use falkon_lint::engine::lint_files;
use falkon_lint::lexer::SourceFile;
use falkon_lint::syntax::test_spans;
use proptest::prelude::*;

/// Every test span must index into the token stream, in order.
fn assert_spans_in_bounds(f: &SourceFile) {
    let n = f.toks.len();
    for (a, b) in test_spans(&f.toks) {
        assert!(a < n && b < n && a <= b, "test span oob");
    }
}

/// Paths chosen to route the parsed soup through every scope-sensitive
/// rule (sans-io, probe provenance, calibration, atomic confinement…).
const PATHS: [&str; 6] = [
    "crates/core/src/dispatcher.rs",
    "crates/proto/src/frame.rs",
    "crates/rt/src/tcp.rs",
    "crates/pool/src/lib.rs",
    "vendor/crossbeam/src/lib.rs",
    "crates/exp/src/costs.rs",
];

/// Splice fragments for the Rust-flavored mutation test: real constructs
/// the lexer and the rules see, combined in arbitrary (mostly ill-formed)
/// orders.
const PIECES: [&str; 26] = [
    "fn f",
    "#[test]",
    "{",
    "}",
    "(",
    ")",
    "<",
    ">",
    ";",
    ",",
    "impl Send for T",
    "mod m",
    "trait T",
    "#[cfg(test)]",
    "let g = s.a.lock().unwrap()",
    "s.b.lock().unwrap()",
    "Ordering::Relaxed",
    "fence(",
    "AtomicUsize",
    "// Relaxed: x",
    "//! Ordering protocol:",
    "w.write_all(&q)",
    "r#\"raw\"#",
    "'a",
    "'x'",
    "-> impl Iterator<Item = u8>",
];

const SEPS: [&str; 3] = [" ", "\n", "\n    "];

proptest! {
    #[test]
    fn byte_soup_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        which in 0usize..PATHS.len(),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let f = SourceFile::parse(PATHS[which], &src);
        assert_spans_in_bounds(&f);
        // All five rules must also survive the resulting token stream.
        let _ = lint_files(&[f]);
    }

    #[test]
    fn rust_flavored_soup_never_panics(
        picks in proptest::collection::vec(0usize..PIECES.len(), 0..64),
        which in 0usize..PATHS.len(),
        sep in 0usize..SEPS.len(),
    ) {
        let src: Vec<&str> = picks.iter().map(|&i| PIECES[i]).collect();
        let src = src.join(SEPS[sep]);
        let f = SourceFile::parse(PATHS[which], &src);
        assert_spans_in_bounds(&f);
        let _ = lint_files(&[f]);
    }

    #[test]
    fn attachment_stable_under_indentation_shuffle(
        pads in proptest::collection::vec(0usize..12, 8..9),
    ) {
        let lines = [
            "fn push(&self) {",
            "    // Relaxed: monotonic tally, readers tolerate staleness.",
            "    n.fetch_add(1, Ordering::Relaxed);",
            "}",
            "fn pop(&self) {",
            "    // Relaxed: owner-only writer.",
            "    let b = x.load(Ordering::Relaxed);",
            "}",
        ];
        let src: String = lines
            .iter()
            .zip(pads.iter().cycle())
            .map(|(l, p)| format!("{}{l}\n", " ".repeat(*p)))
            .collect();
        let f = SourceFile::parse("crates/pool/src/lib.rs", &src);
        // Whatever the indentation, each justification stays attached to
        // its statement.
        prop_assert!(f.attached_comment(3).contains("monotonic tally"));
        prop_assert!(f.attached_comment(7).contains("owner-only writer"));
        // And linting keeps accepting both annotated sites (the missing
        // module-doc finding is expected; site-level findings are not).
        let report = lint_files(&[f]);
        prop_assert!(
            report
                .diags
                .iter()
                .all(|d| !d.message.contains("justification")),
            "diags: {:#?}",
            report.diags
        );
    }
}
