//! The architecture invariants rustc and clippy cannot see, checked over
//! the text of every `.rs` file under `crates/*/src`, `vendor/*/src` and
//! `src` (DESIGN.md §7.1).
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
const SANS_IO: [&str; 4] = ["core", "proto", "obs", "sim"];
/// What sans-io code may not name: sockets, threads, sleeps, wall clocks.
const IO_WORDS: &str =
    "std::net std::thread thread::sleep Instant SystemTime TcpStream TcpListener";
/// Drivers mount probes but never build `ObsEvent`s. `pool` runs driver
/// work on real threads; `sim` is a driver that stays sans-io.
const DRIVERS: [&str; 4] = ["rt", "exp", "sim", "pool"];
/// Every constant in these files reproduces a number in the paper.
const CALIBRATION: [&str; 2] = ["crates/exp/src/costs.rs", "crates/lrm/src/profile.rs"];
/// `repro` reaches an experiment module only through `registry.rs`.
const EXP_DIR: &str = "crates/exp/src/experiments/";

type Check = fn(&str, &str) -> Vec<String>;
/// The per-file checks, by name; `registry` reads the whole file set.
const CHECKS: [(&str, Check); 5] = [
    ("sans_io", sans_io),
    ("probe_provenance", probe_provenance),
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
    if !path.starts_with("vendor/") && !["pool", "rt"].contains(&krate(path)) {
        return vec![format!("{at}: atomics outside `pool`, `rt` and `vendor/`")];
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

/// Every finding over `files`, each with the name of the check behind it.
fn check(files: &[(&str, &str)]) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (path, src) in files {
        for (name, f) in CHECKS {
            out.extend(f(path, src).into_iter().map(|m| (name, m)));
        }
    }
    out.extend(registry(files).into_iter().map(|m| ("registry", m)));
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

/// Every `.rs` file under `crates/*/src`, `vendor/*/src` and `src`, as
/// (repo-relative path, source).
fn sources() -> Vec<(String, String)> {
    let root = root();
    let crates = entries(&root.join("crates")).chain(entries(&root.join("vendor")));
    let mut dirs = vec![root.join("src")];
    dirs.extend(crates.map(|c| c.join("src")));
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for p in entries(&dir) {
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let rel = p.strip_prefix(&root).expect("a path under the root");
                out.push((rel.to_string_lossy().replace('\\', "/"), read(&p)));
            }
        }
    }
    out
}

#[test]
fn tree_keeps_the_architecture_invariants() {
    let sources = sources();
    assert!(sources.len() > 50, "wrong root? {} files", sources.len());
    let files: Vec<_> = sources.iter().map(|(p, s)| (&p[..], &s[..])).collect();
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
    ("calibration: an uncited and an undocumented constant; each citation form, with notes and attributes \
      between; no const fn or *const; only the two calibration files", &[
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
      above each statement or trailing its line; atomics outside pool, rt and vendor; test-only atomics", &[
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
        "atomic_protocol crates/rt/src/stats.rs:6", "atomic_protocol crates/lrm/src/job.rs:2"]),
    ("test_layout: an item after the tests, one after a test-only `use`; test items under more attributes \
      and docs; a nested test module", &[
        ("crates/core/src/dispatcher.rs", "fn live() {}\n#[cfg(test)]\nmod tests {}\npub fn late() -> Instant { todo!() }"),
        ("crates/core/src/table.rs", "#[cfg(test)]\nuse foo::bar;\nfn live() {}"),
        ("crates/core/src/queue.rs", "fn live() {}\n\n#[cfg(test)]\n#[allow(unused)]\nmod tests {\n    fn helper() {}\n}\n\n\
          /// A helper.\n#[cfg(test)]\nfn fixture() {}"),
        ("vendor/crossbeam/src/lib.rs", "pub mod channel {\n    #[cfg(test)]\n    mod tests {}\n}"),
    ], &["test_layout crates/core/src/dispatcher.rs:4", "test_layout crates/core/src/table.rs:3"]),
];

#[test]
fn each_check_flags_its_fixtures_and_passes_their_clean_twins() {
    let at = |(c, m): &(&str, String)| format!("{c} {}", m.split(": ").next().unwrap_or(""));
    for (what, files, want) in FIXTURES {
        let found = check(files);
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
    let sources = sources();
    let rt: Vec<_> = sources.iter().filter(|(p, _)| krate(p) == "rt").collect();
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
