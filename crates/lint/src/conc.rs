//! The concurrency-soundness rule family (rules 7–9).
//!
//! The drivers' concurrency surface is three `unsafe` sites (the pool's
//! lifetime-erasing `transmute` in `Scope::spawn`; `listen` and `poll(2)`
//! in `rt/poll.rs`) and atomics in three files (the pool's `pending` count,
//! `rt/conn.rs`'s nonce, `rt/wscounter.rs`). These rules keep it auditable
//! the same way the sans-io rules keep the state machines auditable:
//!
//! 7. **unsafe provenance** ([`check_unsafe_safety`]) — every `unsafe`
//!    block/fn/impl carries an attached `// SAFETY:` comment (or a
//!    `# Safety` doc section) stating the invariant; `unsafe` is banned
//!    outright in the sans-io crates.
//! 8. **atomic ordering protocols** ([`check_atomic_protocol`]) — a file
//!    touching `std::sync::atomic` must open with a `//! Ordering
//!    protocol:` module doc naming its synchronizes-with edges; every
//!    `Ordering::Relaxed` site and every `fence` carries a justification
//!    comment; atomics are confined to the driver crates (pool, rt,
//!    vendor).
//! 9. **lock discipline** ([`lock_edges_and_blocking`] +
//!    [`lock_cycle_diags`]) — a static lock-order graph built from nested
//!    `.lock()` calls inside fn spans must be acyclic, and no guard may be
//!    held across a blocking call in `crates/rt`.
//!
//! All three are built on the [`crate::syntax`] block-structure layer:
//! `unsafe` extents and fn spans come from brace matching, and every
//! "needs a comment" check resolves through the statement-anchored
//! attachment in [`SourceFile::attached_comment`], not line-proximity
//! guessing.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{SourceFile, Tok, TokKind};
use crate::rules::{diag, in_scope, seq_matches};
use crate::syntax::{stmt_start, ItemKind};
use std::collections::{BTreeMap, BTreeSet};

/// Crates where `unsafe` is banned outright: the sans-io state machines
/// (and the experiment layer that replays them) must be trivially
/// data-race-free for deterministic replay — ROADMAP item 2's state-machine
/// replication depends on it.
pub const UNSAFE_BANNED_SCOPES: [&str; 5] = [
    "crates/core/src/",
    "crates/proto/src/",
    "crates/obs/src/",
    "crates/sim/src/",
    "crates/exp/src/",
];

/// Crates allowed to use raw atomics: the thread-pool, the real-I/O
/// runtime, and vendored stand-ins. Everyone else synchronizes through
/// channels/locks or stays single-threaded.
pub const ATOMIC_SCOPES: [&str; 3] = ["crates/pool/src/", "crates/rt/src/", "vendor/"];

/// Where the "no blocking call under a lock guard" check applies: the
/// real-I/O runtime, where a guard held across `write_all`/`recv`/`poll`
/// stalls every thread contending for that lock.
pub const LOCK_BLOCKING_SCOPES: [&str; 1] = ["crates/rt/src/"];

// ---------------------------------------------------------------------------
// Rule 7: unsafe provenance
// ---------------------------------------------------------------------------

/// Rule 7: every `unsafe` extent needs an attached `// SAFETY:` comment
/// (`# Safety` doc sections count for `unsafe fn` contracts); in the
/// sans-io crates `unsafe` is banned outright. The attachment is
/// syntax-aware: the comment may sit above the construct (attributes
/// skipped), trail it on the same line, or — for blocks — open the body.
pub fn check_unsafe_safety(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for us in &file.syntax.unsafes {
        let Some(kw) = file.toks.get(us.kw) else {
            continue;
        };
        if kw.in_test {
            continue;
        }
        if in_scope(&file.path, &UNSAFE_BANNED_SCOPES) {
            out.push(diag(
                Rule::UnsafeSafety,
                file,
                kw,
                "`unsafe` is banned in sans-io crates: these are state \
                 machines both drivers must replay deterministically — \
                 express this safely or move it to a driver crate"
                    .into(),
            ));
            continue;
        }
        if !safety_comment_attached(file, us.kw, us.open) {
            out.push(diag(
                Rule::UnsafeSafety,
                file,
                kw,
                format!(
                    "`unsafe` {} has no attached `// SAFETY:` comment; state \
                     the invariant that makes this sound (what the caller \
                     guarantees, what orders the access)",
                    us.kind.label()
                ),
            ));
        }
    }
    out
}

/// Is a SAFETY comment attached to the `unsafe` at token `kw` (body opening
/// at token `open`, when present)? Accepted positions: the comment block
/// above the statement, a trailing comment, or own-line comments at the
/// head of the block body.
fn safety_comment_attached(file: &SourceFile, kw: usize, open: Option<usize>) -> bool {
    let has_marker = |s: &str| s.contains("SAFETY:") || s.contains("# Safety");
    let kw_line = file.toks[kw].line;
    // Anchor at the statement head: `let v = unsafe { … }` documents the
    // whole statement, not the keyword's own line.
    let anchor = file.toks[stmt_start(&file.toks, kw)].line;
    if has_marker(&file.attached_comment(anchor)) || has_marker(&file.attached_comment(kw_line)) {
        return true;
    }
    if let Some(open) = open {
        let open_line = file.toks[open].line;
        if file
            .trailing_comment(open_line)
            .is_some_and(|c| has_marker(&c.text))
        {
            return true;
        }
        // Comment block at the head of the body:
        //     unsafe {
        //         // SAFETY: …
        let mut l = open_line + 1;
        while let Some(c) = file.own_line_comment(l) {
            if has_marker(&c.text) {
                return true;
            }
            l += 1;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 8: atomic ordering protocols
// ---------------------------------------------------------------------------

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

/// Rule 8: a file whose non-test code touches `std::sync::atomic` must
/// (a) live in an allowlisted driver crate, (b) open with a `//! Ordering
/// protocol:` module doc naming the synchronizes-with edges, and (c)
/// justify every `Ordering::Relaxed` access and every `fence` with a
/// comment attached to the enclosing statement.
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

// ---------------------------------------------------------------------------
// Rule 9: lock discipline
// ---------------------------------------------------------------------------

/// One lock-order edge: while a guard for `from` was held, `to` was
/// acquired. Keyed by the lock's field/static path tail (`self.shared.sleep`
/// → `sleep`), per crate.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Crate the edge was observed in (`crates/pool`, `vendor/crossbeam`).
    pub crate_key: String,
    /// Outer lock (held).
    pub from: String,
    /// Inner lock (acquired under it).
    pub to: String,
    /// File, line, col, and source line of the inner acquisition.
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub snippet: String,
}

/// Methods that block on I/O or another thread; holding a lock guard
/// across one of these in `crates/rt` stalls every contender. Condvar
/// `wait`/`wait_timeout` are exempt — they *consume* the guard, which is
/// the one legitimate block-while-locked pattern.
const BLOCKING_CALLS: [&str; 7] = [
    "write_all",
    "flush",
    "read_exact",
    "recv",
    "recv_timeout",
    "accept",
    "poll_wait",
];

/// Per-file half of rule 9: scan every fn span for `.lock()` calls, derive
/// each guard's extent (see below), and report (a) lock-order edges for
/// the engine's cycle check and (b) blocking calls made under a guard in
/// `crates/rt`.
///
/// Guard-extent heuristic, resolved on the block structure:
/// - `let g = x.lock()…;` — held to the end of the enclosing brace block
///   (drops/shadowing are ignored: conservative).
/// - `let _ = x.lock()…;` — dropped immediately (extent = the statement).
/// - `if`/`while`/`match` with `.lock()` in the scrutinee — held through
///   the following block: Rust 2021 keeps scrutinee temporaries alive for
///   the whole expression.
/// - any other temporary — held to the end of the statement.
pub fn lock_edges_and_blocking(file: &SourceFile) -> (Vec<LockEdge>, Vec<Diagnostic>) {
    let mut edges = Vec::new();
    let mut diags = Vec::new();
    let toks = &file.toks;
    let crate_key = crate_key(&file.path);
    let check_blocking = in_scope(&file.path, &LOCK_BLOCKING_SCOPES);
    for item in &file.syntax.items {
        if item.kind != ItemKind::Fn {
            continue;
        }
        for i in item.open..item.close.min(toks.len()) {
            if !is_lock_call(toks, i) || toks[i].in_test {
                continue;
            }
            let Some(key) = lock_key(toks, i) else {
                continue;
            };
            let end = guard_extent(file, i).min(item.close);
            for j in (i + 2)..=end.min(toks.len().saturating_sub(1)) {
                if toks[j].in_test {
                    continue;
                }
                if is_lock_call(toks, j) {
                    if let Some(inner) = lock_key(toks, j) {
                        if inner != key {
                            edges.push(LockEdge {
                                crate_key: crate_key.clone(),
                                from: key.clone(),
                                to: inner,
                                path: file.path.clone(),
                                line: toks[j].line,
                                col: toks[j].col,
                                snippet: file.line_text(toks[j].line).to_string(),
                            });
                        }
                    }
                }
                if check_blocking
                    && toks[j].kind == TokKind::Ident
                    && BLOCKING_CALLS.contains(&toks[j].text.as_str())
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    diags.push(diag(
                        Rule::LockDiscipline,
                        file,
                        &toks[j],
                        format!(
                            "`{}` called while the `{}` lock guard is held; \
                             blocking under a lock stalls every contending \
                             thread — drop the guard first",
                            toks[j].text, key
                        ),
                    ));
                }
            }
        }
    }
    (edges, diags)
}

/// Engine half of rule 9: per-crate cycle detection over the union of all
/// files' lock-order edges. Reports one diagnostic per back edge, naming
/// the cycle path.
pub fn lock_cycle_diags(edges: &[LockEdge]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Group (deduplicated) edges per crate; BTree keeps output order
    // deterministic across runs.
    let mut per_crate: BTreeMap<&str, BTreeMap<&str, Vec<&LockEdge>>> = BTreeMap::new();
    let mut seen: BTreeSet<(&str, &str, &str)> = BTreeSet::new();
    for e in edges {
        if seen.insert((&e.crate_key, &e.from, &e.to)) {
            per_crate
                .entry(&e.crate_key)
                .or_default()
                .entry(&e.from)
                .or_default()
                .push(e);
        }
    }
    for (ck, adj) in &per_crate {
        // Iterative DFS with an explicit on-stack path so the cycle can be
        // reported verbatim.
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        for &start in adj.keys() {
            if visited.contains(start) {
                continue;
            }
            let mut path: Vec<(&str, &LockEdge)> = Vec::new();
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let succs = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
                if *next < succs.len() {
                    let edge = succs[*next];
                    *next += 1;
                    let to: &str = &edge.to;
                    if let Some(pos) = stack.iter().position(|&(n, _)| n == to) {
                        // Back edge: stack[pos..] + this edge is a cycle.
                        let mut names: Vec<&str> = stack[pos..].iter().map(|&(n, _)| n).collect();
                        names.push(to);
                        out.push(Diagnostic {
                            rule: Rule::LockDiscipline,
                            path: edge.path.clone(),
                            line: edge.line,
                            col: edge.col,
                            message: format!(
                                "lock-order cycle in `{ck}`: `{}`; acquire \
                                 these locks in one global order (or narrow \
                                 a guard's scope so the orders never nest)",
                                names.join("` -> `")
                            ),
                            snippet: edge.snippet.clone(),
                        });
                    } else if !stack.iter().any(|&(n, _)| n == to) {
                        path.push((node, edge));
                        stack.push((to, 0));
                    }
                } else {
                    visited.insert(node);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    out
}

/// `toks[i]` is the `lock` of a `.lock()` call.
fn is_lock_call(toks: &[Tok], i: usize) -> bool {
    toks[i].is_ident("lock")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// The lock's identity: the last field/static ident before `.lock()`.
/// `self.shared.sleep.lock()` → `sleep`. Method-call receivers
/// (`stdout().lock()`) and tuple-index tails return `None` — they are not
/// trackable lock paths.
fn lock_key(toks: &[Tok], i: usize) -> Option<String> {
    let recv = toks.get(i.checked_sub(2)?)?;
    (recv.kind == TokKind::Ident && recv.text != "self").then(|| recv.text.clone())
}

/// Inclusive token index where the guard acquired at `.lock()` token `i`
/// stops being held, per the heuristic documented on
/// [`lock_edges_and_blocking`].
fn guard_extent(file: &SourceFile, i: usize) -> usize {
    let toks = &file.toks;
    let last = toks.len().saturating_sub(1);
    let s = stmt_start(toks, i);
    let head = &toks[s];
    if head.is_ident("let") {
        if toks.get(s + 1).is_some_and(|t| t.is_ident("_")) {
            return stmt_end(toks, i);
        }
        // Bound guard: alive to the end of the enclosing block.
        return file
            .syntax
            .enclosing_open(toks, i)
            .and_then(|o| file.syntax.close_of(o))
            .unwrap_or(last);
    }
    if head.is_ident("if") || head.is_ident("while") || head.is_ident("match") {
        // Scrutinee temporary: alive through the expression's block.
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                return file.syntax.close_of(j).unwrap_or(last);
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        return stmt_end(toks, i);
    }
    stmt_end(toks, i)
}

/// Token index of the `;` ending the statement containing `idx` (or the
/// last token).
fn stmt_end(toks: &[Tok], idx: usize) -> usize {
    let mut j = idx;
    while j < toks.len() {
        if toks[j].is_punct(';') {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// The owning crate of a repo-relative path: `crates/pool/src/lib.rs` →
/// `crates/pool`, `vendor/crossbeam/src/lib.rs` → `vendor/crossbeam`,
/// `src/lib.rs` → `src`. Lock-order graphs are per-crate so same-named
/// fields in unrelated crates never alias.
fn crate_key(path: &str) -> String {
    let mut segs = path.split('/');
    match (segs.next(), segs.next()) {
        (Some(a @ ("crates" | "vendor")), Some(b)) => format!("{a}/{b}"),
        (Some(a), _) => a.to_string(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_comment_positions_all_accepted() {
        let above = "// SAFETY: slot owned by caller.\nunsafe fn write(&self) { w() }\n";
        let trailing =
            "fn f() { let v = unsafe { read(b) }; // SAFETY: CAS arbitrates.\n drop(v); }";
        let inside =
            "fn f() {\n    unsafe {\n        // SAFETY: top CAS won.\n        read(b);\n    }\n}\n";
        let doc = "/// # Safety\n/// Caller owns the slot.\nunsafe fn write(&self) { w() }\n";
        for src in [above, trailing, inside, doc] {
            let f = SourceFile::parse("crates/pool/src/lib.rs", src);
            assert!(check_unsafe_safety(&f).is_empty(), "src: {src}");
        }
        let bare = "fn f() { let v = unsafe { read(b) }; drop(v); }";
        let f = SourceFile::parse("crates/pool/src/lib.rs", bare);
        assert_eq!(check_unsafe_safety(&f).len(), 1);
    }

    #[test]
    fn unsafe_banned_in_sans_io_crates() {
        let src = "// SAFETY: even a justified one is banned here.\nfn f() { unsafe { q() } }";
        let f = SourceFile::parse("crates/core/src/queue.rs", src);
        let d = check_unsafe_safety(&f);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("banned"));
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

    #[test]
    fn lock_cycle_detected_and_order_respected() {
        let cyclic = "fn ab(s: &S) { let g = s.a.lock().unwrap(); s.b.lock().unwrap().push(1); drop(g); }\n\
                      fn ba(s: &S) { let g = s.b.lock().unwrap(); s.a.lock().unwrap().push(1); drop(g); }\n";
        let f = SourceFile::parse("crates/pool/src/lib.rs", cyclic);
        let (edges, diags) = lock_edges_and_blocking(&f);
        assert!(diags.is_empty());
        assert_eq!(edges.len(), 2);
        let cycles = lock_cycle_diags(&edges);
        assert_eq!(cycles.len(), 1, "{cycles:#?}");
        assert!(cycles[0].message.contains("lock-order cycle"));
        // Consistent order: no cycle.
        let ordered = "fn ab(s: &S) { let g = s.a.lock().unwrap(); s.b.lock().unwrap().push(1); drop(g); }\n\
                       fn ab2(s: &S) { let g = s.a.lock().unwrap(); s.b.lock().unwrap().push(2); drop(g); }\n";
        let f = SourceFile::parse("crates/pool/src/lib.rs", ordered);
        let (edges, _) = lock_edges_and_blocking(&f);
        assert!(lock_cycle_diags(&edges).is_empty());
    }

    #[test]
    fn guard_scope_ends_at_block_close() {
        // The panic-slot guard's block closes before the second lock: the
        // two guards are sequential, not nested — no edge. This is the
        // precision the block-structure layer buys.
        let src = "fn job(s: &S) {\n\
                   if bad {\n    let mut slot = s.panic.lock().unwrap();\n    slot.replace(1);\n}\n\
                   let mut done = s.done.lock().unwrap();\n    *done += 1;\n}\n";
        let f = SourceFile::parse("crates/pool/src/lib.rs", src);
        let (edges, _) = lock_edges_and_blocking(&f);
        assert!(edges.is_empty(), "{edges:#?}");
    }

    #[test]
    fn if_let_scrutinee_guard_spans_the_body() {
        // Rust 2021: the scrutinee temporary lives for the whole `if let`,
        // so a lock in the body nests under it.
        let src = "fn take(s: &S) {\n    if let Some(j) = s.injector.lock().unwrap().pop() {\n        s.sleep.lock().unwrap().wake(j);\n    }\n}\n";
        let f = SourceFile::parse("crates/pool/src/lib.rs", src);
        let (edges, _) = lock_edges_and_blocking(&f);
        assert_eq!(edges.len(), 1, "{edges:#?}");
        assert_eq!(
            (edges[0].from.as_str(), edges[0].to.as_str()),
            ("injector", "sleep")
        );
    }

    #[test]
    fn blocking_call_under_guard_flagged_in_rt_only() {
        let src = "fn fwd(s: &S, w: &mut W) {\n    let q = s.queue.lock().unwrap();\n    w.write_all(&q).unwrap();\n}\n";
        let rt = SourceFile::parse("crates/rt/src/tcp.rs", src);
        let (_, diags) = lock_edges_and_blocking(&rt);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("write_all"));
        let pool = SourceFile::parse("crates/pool/src/lib.rs", src);
        let (_, diags) = lock_edges_and_blocking(&pool);
        assert!(diags.is_empty());
    }

    #[test]
    fn untrackable_receivers_are_skipped() {
        let src = "fn p() { let mut out = stdout().lock(); out.go(); }";
        let f = SourceFile::parse("crates/bench/src/main.rs", src);
        let (edges, diags) = lock_edges_and_blocking(&f);
        assert!(edges.is_empty() && diags.is_empty());
    }
}
