//! The architecture invariants rustc and clippy cannot see, checked over
//! the text of every `.rs` file under `crates/*/src`, `vendor/*/src` and
//! `src` (DESIGN.md §7.1), the docs' backticked paths, checked against the
//! tree, the `pub` items of `crates/*/src`, checked against every `.rs`
//! file that could use them, and the workspace manifests' dependencies.
//!
//! A check reads a file's *code*: the lines before its first line that is a
//! `#[cfg(test)]` attribute (the rule CI's line counter applies), each cut
//! at its first `//`. `test_layout` keeps that cut honest: everything after
//! the first `#[cfg(test)]` line must be test code. The toolchain enforces
//! `unsafe`, panic-free decode and the no-sleep runtime only where the
//! manifests, crate roots and `clippy.toml` opt in, so those opt-ins are
//! pinned here too.

use std::fs;
use std::path::{Path, PathBuf};

/// Sans-io crates: state machines only; time enters as `Micros`.
const SANS_IO: [&str; 7] = ["core", "proto", "obs", "sim", "fs", "lrm", "workflow"];
/// What sans-io code may not name: sockets, threads, sleeps, wall clocks.
const IO_WORDS: &str =
    "std::net std::thread thread::sleep Instant SystemTime TcpStream TcpListener";
/// Drivers mount probes but never build `ObsEvent`s. `pool` runs driver
/// work on real threads; `sim` is a driver that stays sans-io.
const DRIVERS: [&str; 4] = ["rt", "exp", "sim", "pool"];
/// Drivers that run `falkon_core::client::Client` rather than speak its
/// half of the protocol themselves.
const CLIENT_DRIVERS: [&str; 2] = ["rt", "exp"];
/// The client's requests: creating an instance and fetching results, as
/// messages or as the dispatcher events they map to.
const CLIENT_REQUESTS: [&str; 4] = [
    "Message::CreateInstance",
    "Message::GetResults",
    "DispatcherEvent::CreateInstance",
    "DispatcherEvent::GetResults",
];
/// Every constant in these files reproduces a number in the paper.
const CALIBRATION: [&str; 4] = [
    "crates/exp/src/costs.rs",
    "crates/fs/src/lib.rs",
    "crates/lrm/src/gram.rs",
    "crates/lrm/src/profile.rs",
];
/// `repro` reaches an experiment module only through `registry.rs`.
const EXP_DIR: &str = "crates/exp/src/experiments/";
/// The docs that map the tree as it is; ROADMAP.md and CHANGES.md are
/// plans and history.
const DOCS: [&str; 4] = ["DESIGN.md", "README.md", "CLAUDE.md", "EXPERIMENTS.md"];
/// The tables of a manifest that list dependencies, as the last part of
/// the table's name (`[workspace.dependencies]` is one).
const DEP_TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];
/// The one crate from outside the workspace, test-only, and the manifest
/// tables that may name it.
const TEST_CRATE: &str = "proptest";
const TEST_TABLES: [&str; 3] = [
    "dev-dependencies",
    "workspace.dependencies",
    "patch.crates-io",
];
/// A backticked span ending in one of these names a file.
const FILE_TYPES: [&str; 6] = [".rs", ".md", ".toml", ".json", ".yml", ".lock"];

type Check = fn(&str, &str) -> Vec<String>;
/// The per-source-file checks, by name; `registry`, `docs`,
/// `public_surface` and `dependencies` read the whole file set.
const CHECKS: [(&str, Check); 7] = [
    ("sans_io", sans_io),
    ("probe_provenance", probe_provenance),
    ("routing", routing),
    ("client_protocol", client_protocol),
    ("calibration", calibration),
    ("atomic_protocol", atomic_protocol),
    ("test_layout", test_layout),
];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `line` with no identifier character directly
/// before it, nor directly after it when `word` ends in one.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(i, _)| {
        let glued_after = word.ends_with(is_ident) && line[i + word.len()..].starts_with(is_ident);
        !line[..i].ends_with(is_ident) && !glued_after
    })
}

/// Whether `path` is a `.rs` file under `crates/*/src`, `vendor/*/src` or
/// `src`, the files the per-file checks read.
fn is_source(path: &str) -> bool {
    let in_crate = path.starts_with("crates/") || path.starts_with("vendor/");
    let in_src = path.starts_with("src/") || in_crate && path.contains("/src/");
    in_src && path.ends_with(".rs")
}

/// The crate `path` is a source of: `rt` for `crates/rt/src/tcp.rs`.
fn krate(path: &str) -> &str {
    let rest = path.strip_prefix("crates/").unwrap_or("");
    rest.split_once("/src/").map_or("", |(c, _)| c)
}

fn is_cfg_test(line: &str) -> bool {
    line.trim_start().starts_with("#[cfg(test)]")
}

/// A file's code: its lines before the first `#[cfg(test)]` line, each cut
/// at its first `//`. Index `i` is line `i + 1` of the file.
fn code(src: &str) -> Vec<&str> {
    let lines = src.lines().take_while(|l| !is_cfg_test(l));
    lines.map(|l| l.find("//").map_or(l, |i| &l[..i])).collect()
}

/// `path:line: message` for each code line on which `hit` has a message.
fn per_line(path: &str, src: &str, hit: impl Fn(usize, &str) -> Option<String>) -> Vec<String> {
    let mut out = Vec::new();
    for (i, l) in code(src).into_iter().enumerate() {
        out.extend(hit(i, l).map(|m| format!("{path}:{}: {m}", i + 1)));
    }
    out
}

/// A finding for each code line that names one of `words` (space-separated)
/// in a file of one of `crates`.
fn forbid(path: &str, src: &str, crates: &[&str], words: &str, why: &str) -> Vec<String> {
    if !crates.contains(&krate(path)) {
        return Vec::new();
    }
    per_line(path, src, |_, l| {
        let word = words.split(' ').find(|w| has_word(l, w))?;
        Some(format!("`{word}`: {why}"))
    })
}

fn sans_io(path: &str, src: &str) -> Vec<String> {
    let why = "sans-io code takes time as `Micros` and does no I/O";
    forbid(path, src, &SANS_IO, IO_WORDS, why)
}

fn probe_provenance(path: &str, src: &str) -> Vec<String> {
    let why = "machines emit events; drivers report bytes through `WireTap`";
    forbid(path, src, &DRIVERS, "ObsEvent::", why)
}

/// Whether `line` names a map type (`HashMap<`, `DenseMap::<`…) whose key
/// is an executor or an instance id.
fn keyed_by_id(line: &str) -> bool {
    line.match_indices("Map").any(|(i, m)| {
        let rest = line[i + m.len()..].trim_start_matches("::");
        let Some(key) = rest.strip_prefix('<') else {
            return false;
        };
        let key = key.split([',', '>']).next().unwrap_or("");
        let key = key.rsplit("::").next().unwrap_or("").trim();
        ["ExecutorId", "InstanceId"].contains(&key)
    })
}

fn routing(path: &str, src: &str) -> Vec<String> {
    if krate(path) != "rt" {
        return Vec::new();
    }
    let why = "drivers keep no routes: `falkon_core::switchboard` binds executors and instances";
    per_line(path, src, |_, l| keyed_by_id(l).then(|| why.into()))
}

/// Whether the `word` at byte `i` of `line` is a pattern, not a value:
/// inside `matches!(`, before a match arm's `=>`, or right after `let` or
/// `|`.
fn is_pattern(line: &str, i: usize, word: &str) -> bool {
    let (before, after) = (&line[..i], &line[i + word.len()..]);
    let lead = before.trim_end();
    before.contains("matches!(")
        || after.contains("=>")
        || lead.ends_with("let")
        || lead.ends_with('|')
}

fn client_protocol(path: &str, src: &str) -> Vec<String> {
    if !CLIENT_DRIVERS.contains(&krate(path)) {
        return Vec::new();
    }
    let why = "drivers run `falkon_core::client::Client`, which makes the client's requests";
    per_line(path, src, |_, l| {
        let at = |w: &str, i: usize| !l[..i].ends_with(is_ident) && !is_pattern(l, i, w);
        let built = |w: &str| l.match_indices(w).any(|(i, _)| at(w, i));
        let word = CLIENT_REQUESTS.into_iter().find(|w| built(w))?;
        Some(format!("`{word}`: {why}"))
    })
}

/// `NAME` if `line` declares `const NAME:` (not `const fn`, not `*const`).
fn const_name(line: &str) -> Option<&str> {
    let mut words = line.split_whitespace().skip_while(|w| *w != "const");
    let name = words.nth(1)?.strip_suffix(':')?;
    name.chars().all(is_ident).then_some(name)
}

/// Whether `doc` cites `Table N`, `Fig. N`, `Figure N`, `Section N`, `§N`
/// or `p. N`; a plural (`Tables 3/4`) counts.
fn cites_paper(doc: &str) -> bool {
    let cites = |kw: &str| {
        doc.match_indices(kw).any(|(i, _)| {
            let rest = doc[i + kw.len()..].trim_start_matches(['s', '.', ' ', '\u{a0}']);
            !doc[..i].ends_with(is_ident) && rest.starts_with(|c: char| c.is_ascii_digit())
        })
    };
    let keywords = ["Table", "Figure", "Fig", "Section", "§", "p."];
    keywords.into_iter().any(cites)
}

fn calibration(path: &str, src: &str) -> Vec<String> {
    if !CALIBRATION.contains(&path) {
        return Vec::new();
    }
    let lines: Vec<&str> = src.lines().collect();
    per_line(path, src, |i, l| {
        let name = const_name(l)?;
        // The comment and attribute lines directly above the constant.
        let above = lines[..i].iter().rev().map(|l| l.trim_start());
        let mut docs = above.take_while(|l| l.starts_with("//") || l.starts_with("#["));
        let cited = docs.any(|l| l.starts_with("///") && cites_paper(l));
        (!cited).then(|| format!("`{name}` has no `///` doc citing the paper"))
    })
}

/// `name` for `crates/exp/src/experiments/name.rs`, bar `mod` and `registry`.
fn experiment(path: &str) -> Option<&str> {
    let name = path.strip_prefix(EXP_DIR)?.strip_suffix(".rs")?;
    (!name.contains('/') && name != "mod" && name != "registry").then_some(name)
}

fn registry(files: &[(&str, &str)]) -> Vec<String> {
    let path = format!("{EXP_DIR}registry.rs");
    let Some((_, src)) = files.iter().find(|(p, _)| *p == path) else {
        return Vec::new();
    };
    let code = code(src);
    let modules = files.iter().filter_map(|(p, _)| experiment(p));
    let lost = modules.filter(|m| !code.iter().any(|l| has_word(l, m)));
    let why = "is not in `registry.rs`, so `repro` cannot reach it";
    lost.map(|m| format!("{EXP_DIR}{m}.rs: {why}")).collect()
}

/// An `Atomic*` type, the `sync::atomic` path or a `fence(` call.
fn names_atomic(l: &str) -> bool {
    let atomic_type = |(i, _): (usize, &str)| {
        let after = &l[i + "Atomic".len()..];
        !l[..i].ends_with(is_ident) && after.starts_with(|c: char| c.is_ascii_uppercase())
    };
    let path_or_fence = has_word(l, "sync::atomic") || has_word(l, "fence(");
    path_or_fence || l.match_indices("Atomic").any(atomic_type)
}

fn atomic_protocol(path: &str, src: &str) -> Vec<String> {
    let code = code(src);
    let Some(first) = code.iter().position(|l| names_atomic(l)) else {
        return Vec::new();
    };
    let at = format!("{path}:{}", first + 1);
    if !path.starts_with("vendor/") && krate(path) != "rt" {
        return vec![format!("{at}: atomics outside `rt` and `vendor/`")];
    }
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let protocol = |l: &&str| l.trim_start().starts_with("//! Ordering protocol:");
    if !lines[..code.len()].iter().any(protocol) {
        out.push(format!("{at}: no `//! Ordering protocol:` doc"));
    }
    out.extend(per_line(path, src, |i, l| {
        if !has_word(l, "Ordering::Relaxed") && !has_word(l, "fence(") {
            return None;
        }
        // The statement starts after the last line ending in `;`, `{` or `}`.
        let open = |l: &&&str| !l.trim().is_empty() && !l.trim_end().ends_with([';', '{', '}']);
        let start = i - code[..i].iter().rev().take_while(open).count();
        let trailing = code[i].len() < lines[i].len();
        let above = start > 0 && lines[start - 1].trim_start().starts_with("//");
        let why = "`Relaxed` or `fence` with no comment saying why it is enough";
        (!trailing && !above).then(|| why.into())
    }));
    out
}

/// After a file's first `#[cfg(test)]` line, every column-0 item is itself
/// under `#[cfg(test)]`, so `code` cuts off only test code.
fn test_layout(path: &str, src: &str) -> Vec<String> {
    let (mut under_test, mut out) = (false, Vec::new());
    for (i, l) in src.lines().enumerate().skip(code(src).len()) {
        if l.starts_with("#[") {
            under_test |= is_cfg_test(l);
        } else if !l.is_empty() && !l.starts_with([' ', '\t', '}', ')', ']', '/']) {
            let why = "an item after the first `#[cfg(test)]` is not under one";
            if !under_test {
                out.push(format!("{path}:{}: {why}", i + 1));
            }
            under_test = false;
        }
    }
    out
}

/// Each backticked span of `doc` that opens and closes on one line outside
/// a fenced block, with its line number. A span spread over lines is prose:
/// it has a space in it, so it names no path.
fn spans(doc: &str) -> Vec<(usize, &str)> {
    let (mut out, mut fenced, mut open) = (Vec::new(), false, false);
    for (i, line) in doc.lines().enumerate() {
        let fence = line.trim_start().starts_with("```");
        fenced ^= fence;
        if fence || fenced || line.trim().is_empty() {
            open = false;
            continue;
        }
        // Piece `j` is inside a span when a span was left open above or `j`
        // backticks precede it, but not both.
        let pieces: Vec<&str> = line.split('`').collect();
        for (j, piece) in pieces.iter().enumerate() {
            if (open ^ (j % 2 == 1)) && j > 0 && j + 1 < pieces.len() {
                out.push((i + 1, *piece));
            }
        }
        // An odd number of backticks leaves the state flipped.
        open ^= pieces.len().is_multiple_of(2);
    }
    out
}

/// The file or directory path `span` names, if it names one: `rt/conn.rs`,
/// `conn.rs::READ_BUF` (the part before `:`), `crates/exp/src/experiments/`.
fn path_of(span: &str) -> Option<&str> {
    let path = span.split(':').next()?;
    let plain = path.contains(is_ident) && path.chars().all(|c| is_ident(c) || "./-".contains(c));
    let file = FILE_TYPES
        .iter()
        .any(|t| path.len() > t.len() && path.ends_with(t));
    let dir = path.len() > 1 && path.ends_with('/');
    (plain && (file || dir)).then_some(path)
}

/// Whether `path` is a file or directory of `tree`, from the root or as a
/// suffix that starts after a `/`; a crate's `src/` may be left out
/// (`rt/conn.rs`).
fn in_tree(tree: &[&str], path: &str) -> bool {
    let glued = format!("/{path}");
    let names = |t: &str| match path.ends_with('/') {
        true => t.starts_with(path) || t.contains(&glued),
        false => t == path || t.ends_with(&glued),
    };
    tree.iter()
        .any(|t| names(t) || names(&t.replace("/src/", "/")))
}

/// `a::{b, c}` as `a::b` and `a::c`.
fn expand(span: &str) -> Vec<String> {
    let Some((head, group)) = span.split_once('{') else {
        return vec![span.to_string()];
    };
    let items = group.trim_end_matches('}').split(',');
    items.map(|item| format!("{head}{}", item.trim())).collect()
}

/// What is wrong with a `falkon[-_]<crate>::a::b…` span, if anything. Each
/// segment resolves to `a.rs` or `a/mod.rs` below `crates/<crate>/src/`,
/// and the first that does not must be a word in the code of the last file
/// resolved (`lib.rs` at the crate root).
fn module_path(files: &[(&str, &str)], span: &str) -> Option<String> {
    let rest = span
        .strip_prefix("falkon-")
        .or(span.strip_prefix("falkon_"))?;
    let (krate, rest) = rest.split_once("::")?;
    let src = |p: &str| files.iter().find(|(f, _)| *f == p).map(|(_, s)| *s);
    let mut dir = format!("crates/{krate}/src/");
    let mut file = format!("{dir}lib.rs");
    for segment in rest.split("::") {
        let Some(text) = src(&file) else {
            return Some(format!("no `{file}`"));
        };
        let word = segment.split(|c| !is_ident(c)).next().unwrap_or("");
        let module = [format!("{dir}{word}.rs"), format!("{dir}{word}/mod.rs")];
        let Some(m) = module.into_iter().find(|m| src(m).is_some()) else {
            let known = word.is_empty() || code(text).iter().any(|l| has_word(l, word));
            return (!known).then(|| format!("`{word}` is no module of, nor a word in, `{file}`"));
        };
        (dir, file) = (format!("{dir}{word}/"), m);
    }
    None
}

/// Every backticked path in the four `DOCS` that names nothing in `files`.
fn docs(files: &[(&str, &str)]) -> Vec<String> {
    let tree: Vec<&str> = files.iter().map(|(p, _)| *p).collect();
    let mut out = Vec::new();
    for (doc, text) in files.iter().filter(|(p, _)| DOCS.contains(p)) {
        for (line, span) in spans(text) {
            let found = match path_of(span) {
                Some(p) => (!in_tree(&tree, p)).then(|| "no such file or directory".to_string()),
                None => expand(span).iter().find_map(|s| module_path(files, s)),
            };
            out.extend(found.map(|m| format!("{doc}:{line}: `{span}`: {m}")));
        }
    }
    out
}

/// The identifiers of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The compilation unit `path` belongs to: its crate, or the file itself
/// for a `src/bin/` target; `""` for a file outside `crates/*/src`.
fn unit(path: &str) -> &str {
    if path.contains("/src/bin/") {
        return path;
    }
    krate(path)
}

/// The name a code line declares `pub` (`pub fn`, `pub const fn`, `pub
/// struct`…, or a field, `pub name: Type`), and whether it is a field;
/// `pub(crate)` and `pub use` declare none.
fn pub_item(line: &str) -> Option<(&str, bool)> {
    let decl = line.trim_start().strip_prefix("pub ")?;
    let decl = decl
        .strip_prefix("const ")
        .filter(|d| d.starts_with("fn "))
        .unwrap_or(decl);
    let (kind, rest) = decl.split_once(' ')?;
    if let Some(field) = kind.strip_suffix(':').filter(|f| f.chars().all(is_ident)) {
        return Some((field, true));
    }
    let kinds = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    kinds
        .contains(&kind)
        .then(|| Some((words(rest).next()?, false)))
        .flatten()
}

/// `..Name` for each `..Name::` in `src`: a functional record update from
/// one of `Name`'s constructors, which needs every field of `Name` visible.
fn spreads(src: &str) -> impl Iterator<Item = &str> {
    src.match_indices("..").filter_map(|(at, _)| {
        let (name, _) = src[at + 2..].split_once("::")?;
        let named = !name.is_empty() && name.chars().all(is_ident);
        named.then(|| &src[at..at + 2 + name.len()])
    })
}

/// The lines of a crate's public text in one file's code, by index: each
/// `pub` declaration through the end of its signature, and every line of a
/// `pub enum` or `pub trait` body, whose variants and methods are public.
fn public_lines(code: &[&str]) -> Vec<usize> {
    let (mut out, mut i) = (Vec::new(), 0);
    while i < code.len() {
        let decl = code[i].trim_start();
        let start = i;
        if decl.starts_with("pub ") && !decl.starts_with("pub use ") {
            let close = format!("{}}}", &code[i][..code[i].len() - decl.len()]);
            let body = decl.starts_with("pub enum ") || decl.starts_with("pub trait ");
            let ends = |l: &str| match body {
                true => l.trim_end() == close,
                false => l.contains('{') || l.trim_end().ends_with(';'),
            };
            let one_line =
                decl.trim_end().ends_with([',', ';', '}']) || !body && decl.contains('{');
            while !one_line && i + 1 < code.len() && !ends(code[i]) {
                i += 1;
            }
            out.extend(start..=i);
        }
        i += 1;
    }
    out
}

/// The text of the fenced blocks in `src`'s doc comments: doctests, which
/// rustdoc compiles as crates of their own.
fn doctests(src: &str) -> Vec<&str> {
    let (mut out, mut fenced) = (Vec::new(), false);
    for l in src.lines().map(str::trim_start) {
        let Some(doc) = l.strip_prefix("///").or(l.strip_prefix("//!")) else {
            fenced = false;
            continue;
        };
        let fence = doc.trim_start().starts_with("```");
        if fenced && !fence {
            out.push(doc);
        }
        fenced ^= fence;
    }
    out
}

/// Every `pub` item in the code of `crates/*/src` whose name appears
/// nowhere outside its compilation unit: in no other crate, test, example,
/// `src/` or `benchmark/` file, no doctest, and no other line of its own
/// crate's public text, where rustc's private-in-public rules need it. A
/// `pub` field is held to the first rule only, and is kept as well by a
/// functional record update of its struct (`..Name::default()`) outside
/// its unit. A name that collides with another only hides a finding.
/// `vendor/` is neither checked nor counted as a user.
fn public_surface(files: &[(&str, &str)]) -> Vec<String> {
    use std::collections::{HashMap, HashSet};
    // Each word or `..Name` spread, with the units whose files name it (a
    // doctest is a unit of its own), and the lines of public text that name
    // it.
    let mut users: HashMap<&str, HashSet<&str>> = HashMap::new();
    let mut public: HashMap<&str, Vec<(&str, usize)>> = HashMap::new();
    let mut decls = Vec::new();
    for (path, src) in files
        .iter()
        .filter(|(p, _)| p.ends_with(".rs") && !p.starts_with("vendor/"))
    {
        let owner = unit(path);
        for w in src.lines().flat_map(words).chain(spreads(src)) {
            users.entry(w).or_default().insert(owner);
        }
        for w in doctests(src).into_iter().flat_map(words) {
            users.entry(w).or_default().insert("doctest");
        }
        if owner.is_empty() {
            continue;
        }
        let code = code(src);
        for i in public_lines(&code) {
            for w in words(code[i]) {
                public.entry(w).or_default().push((path, i));
            }
        }
        // A field's struct: the last one declared above it.
        let mut within = "";
        for (i, l) in code.iter().enumerate() {
            let mut w = words(l).skip_while(|w| *w != "struct");
            within = w.nth(1).unwrap_or(within);
            if let Some((name, field)) = pub_item(l) {
                decls.push((*path, owner, i, name, field.then_some(within)));
            }
        }
    }
    let foreign = |name: &str, owner: &str| {
        let u = users.get(name);
        u.is_some_and(|u| u.iter().any(|o| *o != owner))
    };
    let used = |&(path, owner, i, name, within): &(&str, &str, usize, &str, Option<&str>)| {
        let on_public_text = || {
            let at = public.get(name);
            at.is_some_and(|at| at.iter().any(|&a| a != (path, i)))
        };
        let spread = |s| foreign(&format!("..{s}"), owner);
        foreign(name, owner) || within.map_or_else(on_public_text, spread)
    };
    let why = "is `pub`, but nothing outside its crate names it";
    let orphans = decls.iter().filter(|d| !used(d));
    orphans
        .map(|(path, _, i, name, _)| format!("{path}:{}: `{name}` {why}", i + 1))
        .collect()
}

fn is_dep_table(table: &str) -> bool {
    DEP_TABLES.contains(&table.rsplit('.').next().unwrap_or(table))
}

/// Each dependency or patch that manifest `text` names, as (table, name,
/// line): `rand` in `dependencies` for `rand = "0.9"`, `rand.workspace =
/// true` or a `[dependencies.rand]` header.
fn manifest_entries(text: &str) -> Vec<(&str, &str, usize)> {
    let (mut table, mut out) = ("", Vec::new());
    for (i, line) in text.lines().map(str::trim).enumerate() {
        if let Some(header) = line.strip_prefix('[').and_then(|h| h.split(']').next()) {
            table = header;
            let dotted = header.rsplit_once('.').filter(|(t, _)| is_dep_table(t));
            out.extend(dotted.map(|(t, name)| (t, name, i + 1)));
        } else if let Some((key, _)) = line.split_once('=').filter(|_| !line.starts_with('#')) {
            out.push((table, key.split('.').next().unwrap_or("").trim(), i + 1));
        }
    }
    out.retain(|&(t, _, _)| is_dep_table(t) || t == "patch.crates-io");
    out
}

/// Every dependency or patch of the root's or a member's manifest that is
/// no workspace crate, bar `TEST_CRATE` in `TEST_TABLES`; and every item in the `src/lib.rs`
/// of a `vendor/` crate that none of those manifests names, a stub.
fn dependencies(files: &[(&str, &str)]) -> Vec<String> {
    let workspace = |p: &str| {
        let member = p
            .strip_prefix("crates/")
            .and_then(|p| p.strip_suffix("/Cargo.toml"));
        p == "Cargo.toml" || member.is_some_and(|m| !m.contains('/'))
    };
    let (mut named, mut out) = (Vec::new(), Vec::new());
    for (path, text) in files.iter().filter(|(p, _)| workspace(p)) {
        for (table, name, line) in manifest_entries(text) {
            named.push(name);
            let ours = name.starts_with("falkon-") && is_dep_table(table);
            let test_only = name == TEST_CRATE && TEST_TABLES.contains(&table);
            if !ours && !test_only {
                let why = "only workspace crates ship; `proptest` is a dev-dependency";
                out.push(format!("{path}:{line}: `{name}` in `[{table}]`: {why}"));
            }
        }
    }
    for (path, src) in files {
        let stub = path
            .strip_prefix("vendor/")
            .and_then(|p| p.strip_suffix("/src/lib.rs"));
        let Some(name) = stub.filter(|n| !named.contains(n)) else {
            continue;
        };
        for (i, l) in src.lines().enumerate() {
            let l = l.find("//").map_or(l, |c| &l[..c]).trim();
            if !l.is_empty() && !l.starts_with("#!") {
                let why =
                    format!("no workspace manifest names `{name}`, so its stub holds no item");
                out.push(format!("{path}:{}: {why}", i + 1));
            }
        }
    }
    out
}

/// Every finding over `files`, each with the name of the check behind it.
fn check(files: &[(&str, &str)]) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (path, src) in files.iter().filter(|(p, _)| is_source(p)) {
        for (name, f) in CHECKS {
            out.extend(f(path, src).into_iter().map(|m| (name, m)));
        }
    }
    out.extend(registry(files).into_iter().map(|m| ("registry", m)));
    out.extend(docs(files).into_iter().map(|m| ("docs", m)));
    out.extend(
        public_surface(files)
            .into_iter()
            .map(|m| ("public_surface", m)),
    );
    out.extend(dependencies(files).into_iter().map(|m| ("dependencies", m)));
    out
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(p: &Path) -> String {
    fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// The file at `p` with its spaces removed.
fn squeezed(p: &Path) -> String {
    read(p).replace(' ', "")
}

/// The entries of directory `dir`.
fn entries(dir: &Path) -> impl Iterator<Item = PathBuf> {
    let list = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    list.map(|e| e.expect("a directory entry").path())
}

/// Every file of the repository bar `.git` and build output, as
/// (repo-relative path, text); only `.rs`, `.md` and `.toml` files are read.
fn tree() -> Vec<(String, String)> {
    let root = root();
    let (mut dirs, mut out) = (vec![root.clone()], Vec::new());
    while let Some(dir) = dirs.pop() {
        for p in entries(&dir) {
            let name = p.file_name().map_or("".into(), |n| n.to_string_lossy());
            if p.is_dir() {
                if ![".git", "target", ".bench_build"].contains(&&*name) {
                    dirs.push(p);
                }
                continue;
            }
            let rel = p.strip_prefix(&root).expect("a path under the root");
            let text = [".rs", ".md", ".toml"].iter().any(|x| name.ends_with(x));
            let src = if text { read(&p) } else { String::new() };
            out.push((rel.to_string_lossy().replace('\\', "/"), src));
        }
    }
    out
}

#[test]
fn tree_keeps_the_architecture_invariants() {
    let tree = tree();
    let sources = tree.iter().filter(|(p, _)| is_source(p)).count();
    assert!(sources > 50, "wrong root? {sources} source files");
    let files: Vec<_> = tree.iter().map(|(p, s)| (&p[..], &s[..])).collect();
    let found = check(&files);
    assert!(found.is_empty(), "{found:#?}");
}

type Files = &'static [(&'static str, &'static str)];
/// (what the row shows, its files, each expected finding as `check path[:line]`).
type Fixture = (&'static str, Files, &'static [&'static str]);

#[rustfmt::skip]
const FIXTURES: &[Fixture] = &[
    ("sans_io: a socket, a wall clock, a sleep, not in a comment or a test; the table, the wheel and sim \
      are in scope, pool is not", &[
        ("crates/core/src/dispatcher.rs", "use std::net::TcpListener;\nfn tick() {\n    let t0 = Instant::now(); // Instant::now\n    \
          std::thread::sleep(d);\n    let _ = SystemTime::now();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}"),
        ("crates/core/src/table.rs", "fn probe() -> Duration { Instant::now().elapsed() }"),
        ("crates/sim/src/wheel.rs", "fn deadline() -> Duration { Instant::now().elapsed() }"),
        ("crates/sim/src/engine.rs", "use std::thread;\nfn start() { thread::spawn(|| {}); }"),
        ("crates/pool/src/lib.rs", "use std::thread;\nfn start() { thread::spawn(|| {}); }"),
    ], &["sans_io crates/core/src/dispatcher.rs:1", "sans_io crates/core/src/dispatcher.rs:3",
        "sans_io crates/core/src/dispatcher.rs:4", "sans_io crates/core/src/dispatcher.rs:5", "sans_io crates/core/src/table.rs:1",
        "sans_io crates/sim/src/wheel.rs:1", "sans_io crates/sim/src/engine.rs:1"]),
    ("probe_provenance: a driver builds an event; the obs machine may", &[
        ("crates/rt/src/tcp.rs", "fn leak(c: &mut Counters, bytes: u64) {\n    c.observe(&ObsEvent::BundleEncoded { bytes });\n}"),
        ("crates/obs/src/wiretap.rs", "fn emit(bytes: u64) -> ObsEvent { ObsEvent::BundleEncoded { bytes } }"),
    ], &["probe_provenance crates/rt/src/tcp.rs:2"]),
    ("routing: the parent's two route maps, one by path; a map keyed by a connection, a comment, a test \
      and the switchboard itself are fine", &[
        ("crates/rt/src/tcp.rs", "struct DispatcherMount {\n    exec_conn: HashMap<ExecutorId, Token>,\n    \
          inst_conn: HashMap::<falkon_proto::message::InstanceId, Token>,\n    peers: HashMap<Token, Vec<ExecutorId>>, \
          // HashMap<ExecutorId, Token>\n}\n#[cfg(test)]\nmod tests {\n    type Seen = BTreeMap<InstanceId, u64>;\n}"),
        ("crates/core/src/switchboard.rs", "struct Switchboard<K> {\n    executors: HashMap<ExecutorId, (K, u64)>,\n}"),
    ], &["routing crates/rt/src/tcp.rs:2", "routing crates/rt/src/tcp.rs:3"]),
    ("client_protocol: the parent's forwarder links and simulator make a client's requests; a `matches!`, a \
      match arm, an `if let`, a comment, a test and the client machine itself are fine", &[
        ("crates/rt/src/forwarder.rs", "fn admit(&mut self, token: Token) {\n    self.outbox.push((token, Message::CreateInstance));\n}\n\
          fn on_downstream(&mut self, token: Token, msg: Message) {\n    match (msg, self.instance) {\n        \
          (Message::ClientNotify { .. }, Some(instance)) => {\n            self.outbox.push((token, Message::GetResults { instance }));\n        \
          }\n        _ => {}\n    }\n}\nfn on_upstream(&mut self, msg: Message) {\n    match msg {\n        \
          Message::CreateInstance => {} // Message::GetResults\n        _ => {}\n    }\n}"),
        ("crates/exp/src/simfalkon.rs", "fn new() {\n    sim.dispatcher\n        .on_event(0, DispatcherEvent::CreateInstance, &mut out);\n}\n\
          #[cfg(test)]\nmod tests {\n    fn t() { d.on_event(0, DispatcherEvent::GetResults { instance }, &mut out); }\n}"),
        ("crates/rt/src/tcp.rs", "fn count(msg: &Message) -> bool {\n    matches!(msg, Message::GetResults { .. })\n}\n\
          fn fetch(msg: Message) {\n    if let Message::GetResults { instance } = msg {}\n}"),
        ("crates/core/src/client.rs", "fn start(out: &mut Vec<ClientAction>) {\n    out.push(ClientAction::Send(Message::CreateInstance));\n}"),
    ], &["client_protocol crates/rt/src/forwarder.rs:2", "client_protocol crates/rt/src/forwarder.rs:7",
        "client_protocol crates/exp/src/simfalkon.rs:3"]),
    ("calibration: an uncited and an undocumented constant; each citation form, with notes and attributes \
      between; no const fn or *const; only the calibration files", &[
        ("crates/exp/src/costs.rs", "/// A lovingly hand-tuned number; see the Table below.\npub const UNCITED: u64 = 42;\n\n\
          pub const BARE: u64 = 7;"),
        ("crates/lrm/src/profile.rs", "/// The \"Ideal\" column of Tables 3/4.\npub const A: u64 = 1;\n\
          /// Fig. 7, and the max of Figure 10.\npub(crate) const B: u64 = 2;\n/// The poll loop (§4.6).\n// A note.\n\
          #[allow(dead_code)]\nconst C: u64 = 3;\n/// Measured on p. 7, as Section 4.3 says.\npub const D: u64 = 4;\n\
          pub const fn f(p: *const u8) -> bool { p.is_null() }"),
        ("crates/exp/src/params.rs", "pub const X: u64 = 42;"),
    ], &["calibration crates/exp/src/costs.rs:2", "calibration crates/exp/src/costs.rs:4"]),
    ("registry: a module named only in a comment is unregistered; mod.rs is not a module", &[
        ("crates/exp/src/experiments/alpha.rs", "pub fn run() {}"),
        ("crates/exp/src/experiments/beta.rs", "pub fn run() {}"),
        ("crates/exp/src/experiments/mod.rs", "pub mod alpha;\npub mod beta;\npub mod registry;"),
        ("crates/exp/src/experiments/registry.rs", "use super::alpha; // beta\npub static REGISTRY: &[&str] = &[\"alpha\"];"),
    ], &["registry crates/exp/src/experiments/beta.rs"]),
    ("atomic_protocol: no protocol doc, a Relaxed a blank line below its comment, a bare fence; a comment \
      above each statement or trailing its line; atomics outside rt and vendor; test-only atomics", &[
        ("crates/rt/src/stats.rs", "use std::sync::atomic::{fence, AtomicU64, Ordering};\nfn bump() {\n    // Relaxed: too far.\n\n    \
          CALLS.fetch_add(1, Ordering::Relaxed);\n    fence(Ordering::SeqCst);\n}"),
        ("crates/rt/src/conn.rs", "//! Ordering protocol: a tally; the fence pairs with the reader's.\nfn bump(inner: &Inner) {\n    \
          // Relaxed: a monotonic tally.\n    CALLS.fetch_add(1, Ordering::Relaxed);\n    fence(Ordering::SeqCst); // Pairs with `snapshot`.\n    \
          // Relaxed: a failed exchange re-reads.\n    #[allow(unused)]\n    let won = inner\n        .cas(1, Ordering::Relaxed)\n        .is_ok();\n}"),
        ("crates/lrm/src/job.rs", "//! Ordering protocol: none.\nstatic F: AtomicBool = AtomicBool::new(false);"),
        ("crates/pool/src/lib.rs", "//! Ordering protocol: none.\nstatic F: AtomicBool = AtomicBool::new(false);"),
        ("vendor/crossbeam/src/lib.rs", "//! Ordering protocol: none.\nstatic F: AtomicBool = AtomicBool::new(false);"),
        ("crates/lrm/src/profile.rs", "#[cfg(test)]\nmod tests {\n    fn t(f: &AtomicBool) { f.store(true, Ordering::Relaxed); }\n}"),
    ], &["atomic_protocol crates/rt/src/stats.rs:1", "atomic_protocol crates/rt/src/stats.rs:5",
        "atomic_protocol crates/rt/src/stats.rs:6", "atomic_protocol crates/lrm/src/job.rs:2",
        "atomic_protocol crates/pool/src/lib.rs:2"]),
    ("test_layout: an item after the tests, one after a test-only `use`; test items under more attributes \
      and docs; a nested test module", &[
        ("crates/core/src/dispatcher.rs", "fn live() {}\n#[cfg(test)]\nmod tests {}\npub fn late() -> Instant { todo!() }"),
        ("crates/core/src/table.rs", "#[cfg(test)]\nuse foo::bar;\nfn live() {}"),
        ("crates/core/src/queue.rs", "fn live() {}\n\n#[cfg(test)]\n#[allow(unused)]\nmod tests {\n    fn helper() {}\n}\n\n\
          /// A helper.\n#[cfg(test)]\nfn fixture() {}"),
        ("vendor/crossbeam/src/lib.rs", "pub mod channel {\n    #[cfg(test)]\n    mod tests {}\n}"),
    ], &["test_layout crates/core/src/dispatcher.rs:4", "test_layout crates/core/src/table.rs:3"]),
    ("docs: a module and a file that do not exist, a word only a comment has; an item, a directory module, \
      a path suffix, a `file::item`, a directory, a brace group; spans in a fence or over two lines; ROADMAP.md", &[
        ("DESIGN.md", "PBS is `falkon-lrm::pbs`, read through `crates/rt/src/bufpool.rs`.\n\
          It is `falkon-lrm::scheduler::BatchScheduler` under `falkon_workflow::apps::fmri`, `lrm/scheduler.rs`,\n\
          `scheduler.rs::BatchScheduler`, `crates/lrm/` and `falkon_lrm::{scheduler, Micros}`.\n\
          Condor is `falkon_lrm::Condor`.\n```\n`falkon-lrm::condor`\n```\nA `falkon-lrm::\nmatchmaker`."),
        ("ROADMAP.md", "`falkon-lrm::pbs`"),
        ("crates/lrm/src/lib.rs", "pub mod scheduler;\npub type Micros = u64; // Condor"),
        ("crates/lrm/src/scheduler.rs", "pub struct BatchScheduler;"),
        ("crates/workflow/src/lib.rs", "pub mod apps;"),
        ("crates/workflow/src/apps/mod.rs", "pub mod fmri;"),
        ("crates/workflow/src/apps/fmri.rs", ""),
    ], &["docs DESIGN.md:1", "docs DESIGN.md:1", "docs DESIGN.md:4"]),
    ("public_surface: an orphan `pub fn` and `pub const fn`, a `pub use` of one, a type its own crate names only off a `pub` line; \
      types named only in a signature over lines, a field, a variant or a trait method; names used only by \
      `benchmark/src`, a test, a doctest, another crate or a bin target; `pub(crate)`, test code and vendor/", &[
        ("crates/core/src/orphan.rs", "pub fn orphan() {}\npub use crate::orphan::orphan as alias;\npub struct Local;\n\
          fn local() -> Local { Local }\npub fn make(\n    a: Arg,\n) -> Made {}\npub struct Arg;\npub struct Made;\n\
          pub struct Holder {\n    pub field: Field,\n}\npub struct Field;\npub enum Event {\n    Carry(Payload),\n}\n\
          pub struct Payload;\npub trait Provider {\n    fn submit(&mut self, job: Job);\n}\npub struct Job;\n\
          pub const fn limit() -> u64 { 1 }\npub(crate) fn internal() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}"),
        ("crates/core/src/used.rs", "pub const BENCHED: u64 = 1;\npub fn tested() {}\n/// ```\n/// falkon_core::documented();\n\
          /// ```\npub fn documented() {}\npub static SHARED: u8 = 0;\npub mod visible;"),
        ("crates/bench/src/harness.rs", "pub fn run_all() {}"),
        ("crates/bench/src/bin/repro.rs", "fn main() { falkon_bench::harness::run_all(); }"),
        ("benchmark/src/run.rs", "use falkon_core::used::BENCHED;"),
        ("tests/end_to_end.rs", "use falkon_core::used::tested;\nfn t() { falkon_core::make(); }"),
        ("crates/rt/src/tcp.rs", "use falkon_core::{used::visible, Event, Holder, Provider, SHARED};\nfn read(h: &Holder) { h.field; }"),
        ("vendor/rand/src/lib.rs", "pub fn unused() {}"),
    ], &["public_surface crates/core/src/orphan.rs:1", "public_surface crates/core/src/orphan.rs:3",
        "public_surface crates/core/src/orphan.rs:22"]),
    ("public_surface fields: a field named only on its crate's public text, one spread only inside its crate; \
      fields named by a test or `benchmark/src`, or spread there (`..Config::default()`); `pub(crate)`, tuple and \
      test-code fields", &[
        ("crates/exp/src/outcome.rs", "pub struct Config {\n    pub seed: u64,\n    pub caching: bool,\n}\n\
          pub struct Outcome {\n    pub tasks: u64,\n    pub elapsed_us: u64,\n    pub unread: u64,\n    pub(crate) internal: u64,\n}\n\
          pub struct Id(pub u64);\npub fn scale(elapsed_us: u64) -> Id { Id(elapsed_us) }\n\
          fn again(o: Outcome) -> Outcome {\n    Outcome { tasks: 1, ..Outcome::from(o) }\n}\n\
          #[cfg(test)]\nmod tests {\n    pub struct Fake {\n        pub unused: u64,\n    }\n}"),
        ("benchmark/src/run.rs", "fn config() -> Config { Config { seed: 1, ..Config::default() } }"),
        ("tests/end_to_end.rs", "fn t(o: Outcome) -> Id { falkon_exp::outcome::scale(o.tasks) }"),
    ], &["public_surface crates/exp/src/outcome.rs:7", "public_surface crates/exp/src/outcome.rs:8"]),
    ("dependencies: a vendored crate as a dependency, a workspace declaration, a patch and a `[target…]` \
      header; `proptest` outside the dev tables; an item in a stub no workspace manifest names; workspace crates, a \
      dev `proptest`, a comment, `benchmark/`'s manifest and a named vendor crate are fine", &[
        ("Cargo.toml", "[workspace.dependencies]\nfalkon-sim = { path = \"crates/sim\" }\nrand = \"0.9\"\nproptest = \"1\"\n\n\
          [patch.crates-io]\nrand = { path = \"vendor/rand\" }\nproptest = { path = \"vendor/proptest\" }\n\n\
          [dependencies]\nfalkon-sim.workspace = true\n# serde = \"1\"\n\n[dev-dependencies]\nproptest.workspace = true"),
        ("crates/sim/Cargo.toml", "[package]\nname = \"falkon-sim\"\n\n[dependencies]\nrand.workspace = true\n\
          proptest.workspace = true\n\n[target.'cfg(unix)'.dependencies.libc]\nversion = \"0.2\""),
        ("benchmark/Cargo.toml", "[patch.crates-io]\nserde = { path = \"../vendor/serde\" }"),
        ("vendor/serde/src/lib.rs", "//! Empty.\n#![forbid(unsafe_code)]\npub trait Serialize {}"),
        ("vendor/crossbeam/src/lib.rs", "//! Empty: `pub fn` is no item here.\n#![forbid(unsafe_code)]\n"),
        ("vendor/rand/src/lib.rs", "pub fn random() -> u64 { 4 }"),
    ], &["dependencies Cargo.toml:3", "dependencies Cargo.toml:7", "dependencies crates/sim/Cargo.toml:5",
        "dependencies crates/sim/Cargo.toml:6", "dependencies crates/sim/Cargo.toml:8", "dependencies vendor/serde/src/lib.rs:3"]),
];

#[test]
fn each_check_flags_its_fixtures_and_passes_their_clean_twins() {
    let at = |(c, m): &(&str, String)| format!("{c} {}", m.split(": ").next().unwrap_or(""));
    for (what, files, want) in FIXTURES {
        // A row's planted `pub` items have no users outside it, and its
        // planted vendor files no manifest; only the `public_surface` and
        // `dependencies` rows count what those checks say of them.
        let mut found = check(files);
        let whole_tree = |c: &str| ["public_surface", "dependencies"].contains(&c);
        found.retain(|(c, _)| !whole_tree(c) || what.starts_with(c));
        let got: Vec<String> = found.iter().map(at).collect();
        assert_eq!(got, *want, "{what}: {found:#?}");
    }
}

#[test]
fn unsafe_is_enforced_by_the_toolchain() {
    let workspace = squeezed(&root().join("Cargo.toml"));
    assert!(workspace.contains("[workspace.lints.rust]\nunsafe_code=\"deny\""));
    assert!(workspace.contains("[workspace.lints.clippy]\nundocumented_unsafe_blocks=\"deny\""));
    for member in entries(&root().join("crates")).chain([root()]) {
        let manifest = member.join("Cargo.toml");
        let inherits = squeezed(&manifest).contains("[lints]\nworkspace=true");
        let m = manifest.display();
        assert!(inherits, "{m} lacks `[lints] workspace = true`");
    }
    // The sans-io crates and the vendored stand-ins ban `unsafe` outright,
    // even behind an `allow` and a SAFETY comment.
    let crates = ["core", "proto", "obs", "sim", "exp"].map(|c| root().join("crates").join(c));
    for dir in crates.into_iter().chain(entries(&root().join("vendor"))) {
        let lib = dir.join("src/lib.rs");
        let src = read(&lib);
        let mut lines = src.lines();
        let first = lines.find(|l| !l.trim().is_empty() && !l.starts_with("//"));
        assert_eq!(first, Some("#![forbid(unsafe_code)]"), "{}", lib.display());
    }
}

#[test]
fn decode_panics_and_cadence_are_enforced_by_clippy() {
    // `falkon-proto` denies every panicking construct at its root.
    let proto = squeezed(&root().join("crates/proto/src/lib.rs")).replace('\n', "");
    let list = proto.split_once("#![deny(").map_or("", |(_, rest)| rest);
    let list = list.split_once(")]").map_or("", |(l, _)| l);
    let denied: Vec<&str> = list.split(',').collect();
    let panics = "indexing_slicing unwrap_used expect_used panic unreachable todo unimplemented";
    for lint in panics.split(' ').chain(["panic_in_result_fn"]) {
        let lint = format!("clippy::{lint}");
        assert!(denied.contains(&lint.as_str()), "proto must deny {lint}");
    }
    // `falkon-rt` lifts the sleep/read-timeout ban only site by site, with
    // an `#[expect]` that fails once the call it excuses is gone.
    let tree = tree();
    let rt: Vec<_> = tree.iter().filter(|(p, _)| krate(p) == "rt").collect();
    assert!(rt.len() > 5, "wrong root? {} rt files", rt.len());
    for (path, src) in rt {
        let allows = src.contains("allow(clippy::disallowed_methods)");
        assert!(!allows, "{path}: `#[expect]` it at the site instead");
    }
    let clippy = squeezed(&root().join("clippy.toml"));
    for banned in ["thread::sleep", "net::TcpStream::set_read_timeout"] {
        let listed = clippy.contains(&format!("path=\"std::{banned}\""));
        assert!(listed, "clippy.toml must ban `std::{banned}`");
    }
}
