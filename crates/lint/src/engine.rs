//! Workspace walking and rule orchestration.
//!
//! Every source file is read and lexed exactly once; each file visit runs
//! all selected rules over the shared [`SourceFile`] before moving on, so
//! adding a rule costs one pure function call per file, not another pass
//! over the tree. One rule needs cross-file state and runs after the pass:
//! registry completeness (rule 4). There is no exceptions mechanism: a
//! finding is fixed at the site.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::SourceFile;
use crate::rules;
use std::fs;
use std::path::{Path, PathBuf};

/// The outcome of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Every violation, sorted by location.
    pub diags: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the run found no violations.
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
    }
}

/// A fatal engine error (unreadable tree).
#[derive(Debug)]
pub struct EngineError(pub String);

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for EngineError {}

/// Lint the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, EngineError> {
    lint_workspace_filtered(root, &Rule::ALL)
}

/// [`lint_workspace`] restricted to `selected` rules (`--rule` filters).
pub fn lint_workspace_filtered(root: &Path, selected: &[Rule]) -> Result<LintReport, EngineError> {
    Ok(lint_files_filtered(&collect_sources(root)?, selected))
}

/// Lint pre-lexed sources (the fixture tests call this directly).
pub fn lint_files(files: &[SourceFile]) -> LintReport {
    lint_files_filtered(files, &Rule::ALL)
}

/// [`lint_files`] restricted to `selected` rules. One pass over `files`:
/// each file's diagnostics for all selected rules are gathered in a single
/// visit, then the cross-file registry rule runs.
pub fn lint_files_filtered(files: &[SourceFile], selected: &[Rule]) -> LintReport {
    let on = |r: Rule| selected.contains(&r);
    let mut diags = Vec::new();
    for f in files {
        if on(Rule::SansIo) {
            diags.extend(rules::check_sans_io(f));
        }
        if on(Rule::ProbeProvenance) {
            diags.extend(rules::check_probe_provenance(f));
        }
        if on(Rule::Calibration) {
            diags.extend(rules::check_calibration(f));
        }
        if on(Rule::AtomicProtocol) {
            diags.extend(rules::check_atomic_protocol(f));
        }
    }
    if on(Rule::Registry) {
        diags.extend(registry_diags(files));
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    LintReport {
        diags,
        files_scanned: files.len(),
    }
}

/// Run rule 4 over whatever experiment modules are present in `files`.
fn registry_diags(files: &[SourceFile]) -> Vec<Diagnostic> {
    const EXP_DIR: &str = "crates/exp/src/experiments/";
    let modules: Vec<String> = files
        .iter()
        .filter_map(|f| {
            let rest = f.path.strip_prefix(EXP_DIR)?;
            let stem = rest.strip_suffix(".rs")?;
            if rest.contains('/') {
                return None;
            }
            Some(stem.to_string())
        })
        .collect();
    let Some(registry) = files
        .iter()
        .find(|f| f.path == "crates/exp/src/experiments/registry.rs")
    else {
        // No registry in this file set (fixture runs): nothing to check.
        return Vec::new();
    };
    rules::check_registry(&modules, registry)
}

/// Collect and lex every non-test `.rs` source under `crates/*/src`,
/// `vendor/*/src`, and the root facade `src/` (integration `tests/`,
/// `benches/`, and `examples/` trees are exempt by construction — the
/// invariants govern shipped library code). Vendored stand-ins are scanned
/// because the atomics rule applies to every line the workspace actually
/// runs, not just the lines it authored.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, EngineError> {
    let mut files = Vec::new();
    for tree in ["crates", "vendor"] {
        let dir = root.join(tree);
        if !dir.is_dir() {
            continue;
        }
        let entries = fs::read_dir(&dir)
            .map_err(|e| EngineError(format!("reading {}: {e}", dir.display())))?;
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let src = crate_dir.join("src");
            if src.is_dir() {
                walk_rs(&src, root, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, root, &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), EngineError> {
    let entries =
        fs::read_dir(dir).map_err(|e| EngineError(format!("reading {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&p)
                .map_err(|e| EngineError(format!("reading {}: {e}", p.display())))?;
            out.push(SourceFile::parse(&rel, &text));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_violations() -> Vec<SourceFile> {
        vec![
            SourceFile::parse(
                "crates/rt/src/tcp.rs",
                "fn g() -> ObsEvent { ObsEvent::BundleEncoded { bytes: 1 } }",
            ),
            SourceFile::parse(
                "crates/core/src/bad.rs",
                "fn f() { let t = Instant::now(); }",
            ),
        ]
    }

    #[test]
    fn lint_files_runs_all_rules_and_sorts() {
        let r = lint_files(&two_violations());
        assert_eq!(r.files_scanned, 2);
        assert_eq!(r.diags.len(), 2);
        assert!(r.diags[0].path < r.diags[1].path);
    }

    #[test]
    fn rule_filter_restricts_findings() {
        let r = lint_files_filtered(&two_violations(), &[Rule::ProbeProvenance]);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, Rule::ProbeProvenance);
    }
}
