//! The five architecture-invariant checks.
//!
//! Each rule is a pure function over lexed [`SourceFile`]s, so the unit
//! tests can run them on inline fixture snippets and the engine on the
//! real workspace. Test regions (`#[cfg(test)]` / `#[test]` items) are
//! exempt from every rule; they are computed by the block-structure layer
//! ([`crate::syntax`]), which also anchors the statement-level comment
//! attachment the atomics rule reads.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{SourceFile, Tok, TokKind};
use crate::syntax::stmt_start;

/// Crate source prefixes that must stay sans-io (state machines only).
pub const SANS_IO_SCOPES: [&str; 4] = [
    "crates/core/src/",
    "crates/proto/src/",
    "crates/obs/src/",
    "crates/sim/src/",
];

/// Driver-side crates: they may own threads and mount probes, but never
/// construct `ObsEvent`s. `crates/pool` is driver-side by definition — it
/// exists to run driver work on real threads — and must never be pulled
/// into the sans-io set.
pub const DRIVER_SCOPES: [&str; 4] = [
    "crates/rt/src/",
    "crates/exp/src/",
    "crates/sim/src/",
    "crates/pool/src/",
];

/// Files whose `const` items are calibration constants and must cite the
/// paper.
pub const CALIBRATION_SCOPES: [&str; 2] = ["crates/exp/src/costs.rs", "crates/lrm/src/profile.rs"];

fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes
        .iter()
        .any(|s| path == *s || (s.ends_with('/') && path.starts_with(s)))
}

fn diag(rule: Rule, file: &SourceFile, tok: &Tok, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: file.line_text(tok.line).to_string(),
    }
}

/// Does the token sequence starting at `i` match `pat`? Each pattern element
/// matches an identifier by text or a single punctuation character.
fn seq_matches(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| match toks.get(i + k) {
        Some(t) => {
            if p.len() == 1
                && !p
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                t.is_punct(p.chars().next().unwrap_or(' '))
            } else {
                t.is_ident(p)
            }
        }
        None => false,
    })
}

// ---------------------------------------------------------------------------
// Rule 1: sans-io purity
// ---------------------------------------------------------------------------

/// Forbidden constructs in sans-io crates: `(pattern, what it is)`.
const SANS_IO_FORBIDDEN: [(&[&str], &str); 7] = [
    (&["std", ":", ":", "net"], "socket I/O (`std::net`)"),
    (&["std", ":", ":", "thread"], "threading (`std::thread`)"),
    (&["thread", ":", ":", "sleep"], "sleeping (`thread::sleep`)"),
    (&["Instant"], "wall-clock type (`std::time::Instant`)"),
    (&["SystemTime"], "wall-clock type (`std::time::SystemTime`)"),
    (&["TcpStream"], "socket type (`TcpStream`)"),
    (&["TcpListener"], "socket type (`TcpListener`)"),
];

/// Rule 1: no sockets, threads, sleeps, or wall-clock reads in sans-io
/// crates — time must enter state machines as an explicit `Micros` argument.
pub fn check_sans_io(file: &SourceFile) -> Vec<Diagnostic> {
    if !in_scope(&file.path, &SANS_IO_SCOPES) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, tok) in file.toks.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        for (pat, what) in SANS_IO_FORBIDDEN {
            if seq_matches(&file.toks, i, pat) {
                out.push(diag(
                    Rule::SansIo,
                    file,
                    tok,
                    format!(
                        "{what} in sans-io crate; time and I/O must be driven \
                         externally (pass `Micros`, return actions)"
                    ),
                ));
                break;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 2: probe provenance
// ---------------------------------------------------------------------------

/// Rule 2: drivers (`falkon-rt`, `falkon-exp`, `falkon-sim`) may mount
/// recorders but must never construct (or otherwise path-reference)
/// `ObsEvent` values — lifecycle events are emitted by the sans-io machines
/// only, or cross-driver parity (`tests/obs_parity.rs`) silently breaks.
pub fn check_probe_provenance(file: &SourceFile) -> Vec<Diagnostic> {
    if !in_scope(&file.path, &DRIVER_SCOPES) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, tok) in file.toks.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        if tok.is_ident("ObsEvent") && seq_matches(&file.toks, i + 1, &[":", ":"]) {
            out.push(diag(
                Rule::ProbeProvenance,
                file,
                tok,
                "driver code constructs `ObsEvent` directly; events must be \
                 emitted by the sans-io machines (e.g. report byte counts \
                 through `falkon_obs::WireTap`) so both drivers produce \
                 identical event streams"
                    .into(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 3: calibration traceability
// ---------------------------------------------------------------------------

/// Does `text` contain a paper reference (`Table N`, `Figure N` / `Fig. N`,
/// `Section N`, `§N`, or `p. N`)?
pub fn has_paper_reference(text: &str) -> bool {
    const KEYWORDS: [&str; 5] = ["Table", "Figure", "Fig", "Section", "§"];
    for kw in KEYWORDS {
        let mut from = 0;
        while let Some(pos) = text[from..].find(kw) {
            let after = &text[from + pos + kw.len()..];
            // Allow plural/punctuation between keyword and number:
            // "Tables 3/4", "Fig. 7", "§4.6".
            let rest = after.trim_start_matches(['s', '.', ' ', '\u{a0}']);
            if rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                return true;
            }
            from += pos + kw.len();
        }
    }
    // `p. N` page references.
    let mut from = 0;
    while let Some(pos) = text[from..].find("p.") {
        let rest = text[from + pos + 2..].trim_start();
        if rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return true;
        }
        from += pos + 2;
    }
    false
}

/// Rule 3: every `const` in the calibration files must carry a doc comment
/// citing the paper number it reproduces.
pub fn check_calibration(file: &SourceFile) -> Vec<Diagnostic> {
    if !in_scope(&file.path, &CALIBRATION_SCOPES) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &file.toks;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || !tok.is_ident("const") {
            continue;
        }
        // `const NAME:` — skip `const fn` and `*const T` pointers.
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident
            || name.text == "fn"
            || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        if i > 0 && toks[i - 1].is_punct('*') {
            continue;
        }
        let docs = file.docs_above(tok.line);
        if docs.is_empty() {
            out.push(diag(
                Rule::Calibration,
                file,
                tok,
                format!(
                    "calibration constant `{}` has no doc comment; every \
                     constant here must cite the paper number it reproduces \
                     (`Table N`, `Figure N`, `§N`, or `p. N`)",
                    name.text
                ),
            ));
        } else if !has_paper_reference(&docs) {
            out.push(diag(
                Rule::Calibration,
                file,
                tok,
                format!(
                    "doc comment on calibration constant `{}` cites no paper \
                     reference (`Table N`, `Figure N`, `§N`, or `p. N`)",
                    name.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 4: registry completeness
// ---------------------------------------------------------------------------

/// Rule 4: every module under `crates/exp/src/experiments/` must be
/// referenced from `experiments/registry.rs` — the `repro` binary only
/// dispatches through `REGISTRY`, so an unregistered experiment is
/// unreachable.
pub fn check_registry(modules: &[String], registry: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !registry.toks.iter().any(|t| t.is_ident("REGISTRY")) {
        out.push(Diagnostic {
            rule: Rule::Registry,
            path: registry.path.clone(),
            line: 1,
            col: 1,
            message: "no `REGISTRY` table found in the experiment registry".into(),
            snippet: registry.line_text(1).to_string(),
        });
        return out;
    }
    for m in modules {
        if m == "mod" || m == "registry" {
            continue;
        }
        if !registry.toks.iter().any(|t| t.is_ident(m)) {
            out.push(Diagnostic {
                rule: Rule::Registry,
                path: registry.path.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "experiment module `{m}` is never referenced from the \
                     registry; add a run function that renders its block and \
                     a `REGISTRY` entry, or the `repro` binary cannot reach it"
                ),
                snippet: registry.line_text(1).to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 5: atomic ordering protocols
// ---------------------------------------------------------------------------

/// Crates allowed to use raw atomics: the thread-pool, the real-I/O
/// runtime, and vendored stand-ins. Everyone else synchronizes through
/// channels/locks or stays single-threaded.
pub const ATOMIC_SCOPES: [&str; 3] = ["crates/pool/src/", "crates/rt/src/", "vendor/"];

const ATOMIC_TYPES: [&str; 12] = [
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// Does non-test code in `file` touch `std::sync::atomic`? Anchored on the
/// import path, the `Atomic*` type names, and `fence(` — deliberately not
/// on bare `Ordering`, which `std::cmp` also exports.
fn first_atomic_site(file: &SourceFile) -> Option<&Tok> {
    file.toks.iter().enumerate().find_map(|(i, t)| {
        if t.in_test {
            return None;
        }
        let hit = (t.kind == TokKind::Ident && ATOMIC_TYPES.contains(&t.text.as_str()))
            || (t.is_ident("sync") && seq_matches(&file.toks, i + 1, &[":", ":", "atomic"]))
            || (t.is_ident("fence") && file.toks.get(i + 1).is_some_and(|n| n.is_punct('(')));
        hit.then_some(t)
    })
}

/// Rule 5: a file whose non-test code touches `std::sync::atomic` must
/// (a) live in a driver crate ([`ATOMIC_SCOPES`]), (b) open with a
/// `//! Ordering protocol:` module doc naming the synchronizes-with edges,
/// and (c) justify every `Ordering::Relaxed` access and every `fence` with
/// a comment attached to the enclosing statement.
pub fn check_atomic_protocol(file: &SourceFile) -> Vec<Diagnostic> {
    let Some(anchor) = first_atomic_site(file) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if !in_scope(&file.path, &ATOMIC_SCOPES) {
        out.push(diag(
            Rule::AtomicProtocol,
            file,
            anchor,
            "atomics are confined to the driver crates (`crates/pool`, \
             `crates/rt`, vendor stand-ins); synchronize through channels \
             or locks here"
                .into(),
        ));
        return out;
    }
    let has_protocol_doc = file
        .comments
        .iter()
        .any(|c| c.is_inner_doc() && c.text.contains("Ordering protocol:"));
    if !has_protocol_doc {
        out.push(diag(
            Rule::AtomicProtocol,
            file,
            anchor,
            "file uses atomics but its module docs have no `//! Ordering \
             protocol:` section; name the synchronizes-with edges (which \
             store publishes what, which load/fence observes it)"
                .into(),
        ));
    }
    for (i, t) in file.toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("Ordering") && seq_matches(&file.toks, i + 1, &[":", ":", "Relaxed"]) {
            if !justified(file, i) {
                out.push(diag(
                    Rule::AtomicProtocol,
                    file,
                    t,
                    "`Ordering::Relaxed` without a justification comment; \
                     say why unordered access is sound here (single writer? \
                     monotonic counter? ordering provided by a fence?)"
                        .into(),
                ));
            }
        } else if t.is_ident("fence")
            && file.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !justified(file, i)
        {
            out.push(diag(
                Rule::AtomicProtocol,
                file,
                t,
                "`fence` without a justification comment; name the paired \
                 access it synchronizes with"
                    .into(),
            ));
        }
    }
    out
}

/// Is a comment attached to the statement containing token `i` (above its
/// first line, or trailing either that line or the token's own line)?
fn justified(file: &SourceFile, i: usize) -> bool {
    let anchor = file.toks[stmt_start(&file.toks, i)].line;
    !file.attached_comment(anchor).is_empty() || file.trailing_comment(file.toks[i].line).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        assert!(in_scope("crates/core/src/dispatcher.rs", &SANS_IO_SCOPES));
        assert!(!in_scope("crates/rt/src/tcp.rs", &SANS_IO_SCOPES));
        // The thread pool is a driver: threads allowed, probe rules apply.
        assert!(!in_scope("crates/pool/src/lib.rs", &SANS_IO_SCOPES));
        assert!(in_scope("crates/pool/src/lib.rs", &DRIVER_SCOPES));
        // The simulator stays pure even though it is also a driver scope.
        assert!(in_scope("crates/sim/src/engine.rs", &SANS_IO_SCOPES));
        // Exact-file scopes match only that file.
        assert!(in_scope("crates/exp/src/costs.rs", &CALIBRATION_SCOPES));
        assert!(!in_scope(
            "crates/exp/src/costs.rs.bak",
            &CALIBRATION_SCOPES
        ));
        assert!(!in_scope("crates/exp/src/params.rs", &CALIBRATION_SCOPES));
    }

    #[test]
    fn paper_reference_patterns() {
        assert!(has_paper_reference("Calibrated to Table 2."));
        assert!(has_paper_reference("the \"Ideal\" column of Tables 3/4"));
        assert!(has_paper_reference("see Fig. 7 for the curve"));
        assert!(has_paper_reference("Figure 10 max"));
        assert!(has_paper_reference("poll loop (§4.6)"));
        assert!(has_paper_reference("Section 4.3 / Figure 5"));
        assert!(has_paper_reference("measured on p. 7"));
        assert!(!has_paper_reference("a carefully chosen number"));
        assert!(!has_paper_reference("see the Table below"));
    }

    #[test]
    fn atomic_protocol_requires_module_doc_and_justifications() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   fn bump(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let f = SourceFile::parse("crates/pool/src/lib.rs", src);
        let d = check_atomic_protocol(&f);
        assert_eq!(d.len(), 2, "{d:#?}"); // missing module doc + unjustified Relaxed
        let fixed = "//! Ordering protocol: counter is monotonic, no edges.\n\
                     use std::sync::atomic::{AtomicUsize, Ordering};\n\
                     fn bump(c: &AtomicUsize) {\n\
                         // Monotonic stat counter; readers tolerate staleness.\n\
                         c.fetch_add(1, Ordering::Relaxed);\n\
                     }\n";
        let f = SourceFile::parse("crates/pool/src/lib.rs", fixed);
        assert!(check_atomic_protocol(&f).is_empty());
    }

    #[test]
    fn atomics_confined_to_driver_crates() {
        let src = "//! Ordering protocol: none.\nuse std::sync::atomic::AtomicBool;\nstatic F: AtomicBool = AtomicBool::new(false);\n";
        let f = SourceFile::parse("crates/lrm/src/profile.rs", src);
        let d = check_atomic_protocol(&f);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("confined"));
        // Test-only atomics don't drag a file into the rule.
        let test_only = "#[cfg(test)]\nmod tests {\n use std::sync::atomic::AtomicBool;\n static F: AtomicBool = AtomicBool::new(false);\n}\n";
        let f = SourceFile::parse("crates/lrm/src/profile.rs", test_only);
        assert!(check_atomic_protocol(&f).is_empty());
    }
}
