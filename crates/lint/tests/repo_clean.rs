//! The workspace itself must lint clean — this is the tier-1 form of the
//! CI gate, so `cargo test --workspace` fails the moment an architecture
//! invariant regresses, even without running the `falkon-lint` binary.
//! The toolchain enforces `unsafe`, panic-free decode and the no-sleep
//! runtime only where the manifests, crate roots and `clippy.toml` opt in,
//! so those opt-ins are pinned here too.

use falkon_lint::engine::{collect_sources, lint_workspace};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_violations() {
    let report = lint_workspace(&root()).expect("lint engine runs");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    let rendered: String = report.diags.iter().map(|d| d.render_text()).collect();
    assert!(
        report.clean(),
        "architecture invariants violated:\n{rendered}"
    );
}

/// The `key = value` lines of TOML table `[name]`, whitespace removed.
fn table(toml: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.replace(' ', ""))
        .collect()
}

/// The first line of `src` that is neither blank nor a comment.
fn first_code_line(src: &str) -> &str {
    src.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with("//"))
        .unwrap_or("")
}

#[test]
fn unsafe_is_enforced_by_the_toolchain() {
    let root = root();
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let workspace = read(&root.join("Cargo.toml"));
    assert!(table(&workspace, "workspace.lints.rust").contains(&r#"unsafe_code="deny""#.into()));
    assert!(table(&workspace, "workspace.lints.clippy")
        .contains(&r#"undocumented_unsafe_blocks="deny""#.into()));

    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "wrong root? {manifests:?}");
    for m in &manifests {
        assert!(
            table(&read(m), "lints").contains(&"workspace=true".into()),
            "{} does not inherit the workspace lints (`[lints] workspace = true`)",
            m.display()
        );
    }

    // The sans-io crates and the vendored stand-ins ban `unsafe` outright,
    // even behind an `allow` and a SAFETY comment.
    let mut roots: Vec<PathBuf> = ["core", "proto", "obs", "sim", "exp"]
        .iter()
        .map(|c| root.join("crates").join(c))
        .collect();
    for entry in fs::read_dir(root.join("vendor")).expect("vendor/ lists") {
        let dir = entry.expect("dir entry").path();
        if dir.is_dir() {
            roots.push(dir);
        }
    }
    for r in roots {
        let lib = r.join("src/lib.rs");
        assert_eq!(
            first_code_line(&read(&lib)),
            "#![forbid(unsafe_code)]",
            "{} must open with `#![forbid(unsafe_code)]`",
            lib.display()
        );
    }
}

#[test]
fn decode_panics_and_cadence_are_enforced_by_clippy() {
    let root = root();
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));

    // `falkon-proto` denies every panicking construct at its root.
    let proto = read(&root.join("crates/proto/src/lib.rs"));
    let denied: Vec<&str> = proto
        .split_once("#![deny(")
        .and_then(|(_, rest)| rest.split_once(")]"))
        .map(|(list, _)| list.split(',').map(str::trim).collect())
        .unwrap_or_default();
    for lint in [
        "clippy::indexing_slicing",
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::panic_in_result_fn",
    ] {
        assert!(
            denied.contains(&lint),
            "crates/proto/src/lib.rs must `#![deny({lint})]`"
        );
    }

    // `falkon-rt` lifts the sleep/read-timeout ban only site by site, with
    // an `#[expect]` that fails once the call it excuses is gone.
    let sources = collect_sources(&root).expect("sources read");
    let rt: Vec<_> = sources
        .iter()
        .filter(|f| f.path.starts_with("crates/rt/src/"))
        .collect();
    assert!(rt.len() > 5, "wrong root? {} rt files", rt.len());
    for f in rt {
        assert!(
            !f.lines
                .iter()
                .any(|l| l.contains("allow(clippy::disallowed_methods)")),
            "{} allows `disallowed_methods`; use an `#[expect]` with a reason at the site",
            f.path
        );
    }

    let clippy = read(&root.join("clippy.toml")).replace(' ', "");
    for banned in [
        "std::thread::sleep",
        "std::net::TcpStream::set_read_timeout",
    ] {
        assert!(
            clippy.contains(&format!(r#"path="{banned}""#)),
            "clippy.toml must list `{banned}` in `disallowed-methods`"
        );
    }
}
