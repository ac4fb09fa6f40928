//! The workspace itself must lint clean — this is the tier-1 form of the
//! CI gate, so `cargo test --workspace` fails the moment an architecture
//! invariant regresses, even without running the `falkon-lint` binary.
//! The compiler enforces `unsafe` only where the manifests opt in, so the
//! opt-in is pinned here too.

use falkon_lint::engine::lint_workspace;
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
