//! A minimal Rust token scanner.
//!
//! The workspace builds fully offline, so `syn` is not available; the lint
//! rules instead run over this purpose-built scanner. It is not a parser —
//! it produces a flat token stream with comments and literal *contents*
//! removed (so a forbidden name inside a string or comment never trips a
//! rule), tracks line/column positions for diagnostics, records every `//`
//! line comment (for comment attachment), and marks the token regions
//! belonging to `#[cfg(test)]` / `#[test]` items so rules can exempt test
//! code. Those regions come from the brace-matching layer in
//! [`crate::syntax`].

use crate::syntax::test_spans;

/// Classification of one scanned token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `const`, `fn`, …).
    Ident,
    /// Numeric literal, suffix included (`64`, `0xFF`, `1_030u64`).
    Number,
    /// A lifetime (`'a`) — distinct from `Ident` so `&'a [u8]` never looks
    /// like indexing.
    Lifetime,
    /// A string/char/byte literal, contents elided.
    Literal,
    /// Single punctuation character (`:`, `[`, `!`, …).
    Punct(char),
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token classification.
    pub kind: TokKind,
    /// Source text for `Ident`/`Number`/`Lifetime` tokens; empty otherwise.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (byte offset within the line).
    pub col: usize,
    /// Whether the token sits inside a `#[cfg(test)]` or `#[test]` item.
    pub in_test: bool,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One `//` line comment (doc or plain), recorded for the attachment layer.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: usize,
    /// Full comment text including the leading slashes.
    pub text: String,
    /// Whether the comment is the only content on its line (`false` for a
    /// trailing comment after code).
    pub own_line: bool,
}

impl Comment {
    /// Whether this is a `///` or `//!` doc comment.
    pub fn is_doc(&self) -> bool {
        self.text.starts_with("///") || self.text.starts_with("//!")
    }

    /// Whether this is an inner (`//!`) doc comment — module docs.
    pub fn is_inner_doc(&self) -> bool {
        self.text.starts_with("//!")
    }
}

/// One lexed source file: raw lines for diagnostic snippets, the sanitized
/// token stream (test regions flagged), and every `//` comment.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (`crates/core/src/lib.rs`).
    pub path: String,
    /// Raw source, split into lines (1-based indexing via `line_text`).
    pub lines: Vec<String>,
    /// The sanitized token stream.
    pub toks: Vec<Tok>,
    /// Every `//` line comment in source order (doc comments included).
    pub comments: Vec<Comment>,
}

impl SourceFile {
    /// Lex `source` under the given repo-relative path and flag its test
    /// regions. One pass over the bytes, one over the tokens; every rule
    /// shares the result.
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
        let (mut toks, comments) = lex(source);
        for (a, b) in test_spans(&toks) {
            for t in toks.iter_mut().take(b + 1).skip(a) {
                t.in_test = true;
            }
        }
        SourceFile {
            path: path.to_string(),
            lines,
            toks,
            comments,
        }
    }

    /// The raw text of 1-based `line`, or `""` past EOF.
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// The contiguous run of own-line comments directly above 1-based
    /// `line`, in source order. Attribute lines (`#[...]` / `#![...]`)
    /// between the comment block and `line` are skipped; a blank or code
    /// line breaks attachment.
    fn comments_above(&self, line: usize) -> Vec<&Comment> {
        let mut collected: Vec<&Comment> = Vec::new();
        let mut at = line;
        while at > 1 {
            let prev = at - 1;
            let text = self.line_text(prev).trim_start();
            if text.starts_with("#[") || text.starts_with("#![") {
                at = prev;
                continue;
            }
            match self.comments.iter().find(|c| c.line == prev && c.own_line) {
                Some(c) => {
                    collected.push(c);
                    at = prev;
                }
                None => break,
            }
        }
        collected.reverse();
        collected
    }

    /// The trailing comment on 1-based `line` itself (code, then `//`).
    pub fn trailing_comment(&self, line: usize) -> Option<&Comment> {
        self.comments.iter().find(|c| c.line == line && !c.own_line)
    }

    /// The comment text attached to 1-based `line`: the contiguous comment
    /// block above it plus a trailing comment on the line itself,
    /// concatenated. This is the attachment primitive the atomics rule's
    /// ordering justifications are built on.
    pub fn attached_comment(&self, line: usize) -> String {
        let mut parts: Vec<&str> = self
            .comments_above(line)
            .iter()
            .map(|c| c.text.as_str())
            .collect();
        if let Some(c) = self.trailing_comment(line) {
            parts.push(&c.text);
        }
        parts.join("\n")
    }

    /// Doc-comment lines (contiguous `///` block) immediately above `line`,
    /// skipping attribute lines, concatenated into one string. Built on the
    /// same attachment walk as [`attached_comment`](Self::attached_comment),
    /// restricted to doc comments.
    pub fn docs_above(&self, line: usize) -> String {
        let collected: Vec<&str> = self
            .comments_above(line)
            .iter()
            .filter(|c| c.is_doc())
            .map(|c| c.text.as_str())
            .collect();
        collected.join("\n")
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan `source` into tokens plus every `//` line comment.
fn lex(source: &str) -> (Vec<Tok>, Vec<Comment>) {
    let mut toks = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    // Last line on which a token *ended* — a comment on the same line is a
    // trailing comment, not an own-line one.
    let mut last_code_line = 0usize;

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        // Line comments (incl. doc comments); all are recorded for the
        // attachment layer.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            let at_line = line;
            while i < chars.len() && chars[i] != '\n' {
                bump!();
            }
            let text: String = chars[start..i].iter().collect();
            comments.push(Comment {
                line: at_line,
                text,
                own_line: last_code_line != at_line,
            });
            continue;
        }
        // Block comments, nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!();
                    bump!();
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Raw strings r"..." / r#"..."# / byte-raw br#"..."#.
        if (c == 'r' || c == 'b') && raw_string_hashes(&chars, i).is_some() {
            let (hash_count, body_start) = raw_string_hashes(&chars, i).unwrap_or((0, i));
            let (l0, c0) = (line, col);
            while i < body_start {
                bump!();
            }
            // Consume until `"` followed by hash_count '#'s.
            while i < chars.len() {
                if chars[i] == '"' {
                    let mut ok = true;
                    for k in 0..hash_count {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        bump!();
                        for _ in 0..hash_count {
                            bump!();
                        }
                        break;
                    }
                }
                bump!();
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line: l0,
                col: c0,
                in_test: false,
            });
            last_code_line = line;
            continue;
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
            let (l0, c0) = (line, col);
            if c == 'b' {
                bump!();
            }
            bump!(); // opening quote
            while i < chars.len() {
                if chars[i] == '\\' {
                    bump!();
                    if i < chars.len() {
                        bump!();
                    }
                } else if chars[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line: l0,
                col: c0,
                in_test: false,
            });
            last_code_line = line;
            continue;
        }
        // Lifetimes vs char literals.
        if c == '\'' {
            let (l0, c0) = (line, col);
            // `'a` not followed by a closing quote is a lifetime (or loop
            // label); `'x'` / `'\n'` are char literals.
            let next = chars.get(i + 1).copied();
            let is_lifetime = match next {
                Some(n) if is_ident_start(n) => {
                    // Find the end of the ident run; lifetime iff no quote.
                    let mut j = i + 1;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    chars.get(j) != Some(&'\'')
                }
                _ => false,
            };
            if is_lifetime {
                bump!();
                let start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line: l0,
                    col: c0,
                    in_test: false,
                });
                last_code_line = line;
            } else {
                // Char literal: consume up to the closing quote.
                bump!(); // opening '
                if chars.get(i) == Some(&'\\') {
                    bump!();
                    if i < chars.len() {
                        bump!();
                    }
                } else if i < chars.len() {
                    bump!();
                }
                if chars.get(i) == Some(&'\'') {
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: l0,
                    col: c0,
                    in_test: false,
                });
                last_code_line = line;
            }
            continue;
        }
        // Identifiers and keywords.
        if is_ident_start(c) {
            let (l0, c0) = (line, col);
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                bump!();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line: l0,
                col: c0,
                in_test: false,
            });
            last_code_line = line;
            continue;
        }
        // Numbers (suffixes included; `1.5` lexes as `1` `.` `5`, which is
        // fine for every rule here).
        if c.is_ascii_digit() {
            let (l0, c0) = (line, col);
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                bump!();
            }
            toks.push(Tok {
                kind: TokKind::Number,
                text: chars[start..i].iter().collect(),
                line: l0,
                col: c0,
                in_test: false,
            });
            last_code_line = line;
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Everything else: single punctuation character.
        toks.push(Tok {
            kind: TokKind::Punct(c),
            text: String::new(),
            line,
            col,
            in_test: false,
        });
        last_code_line = line;
        bump!();
    }
    (toks, comments)
}

/// If position `i` starts a raw-string opener (`r"`, `r#"`, `br##"`, …),
/// return `(hash_count, index_of_opening_quote + 1)`.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_elided() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"Instant::now()\"; // Instant::now\n/* SystemTime */ let b = 'x';",
        );
        assert!(!f.toks.iter().any(|t| t.is_ident("Instant")));
        assert!(!f.toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(f.toks.iter().any(|t| t.is_ident("let")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a [u8]) -> char { 'b' }");
        let lifetimes: Vec<_> = f
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(
            f.toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            1
        );
    }

    #[test]
    fn raw_strings_elided() {
        let f = SourceFile::parse("x.rs", r####"let s = r#"panic!("x")"#; let t = 1;"####);
        assert!(!f.toks.iter().any(|t| t.is_ident("panic")));
        assert!(f.toks.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn test_regions_marked() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let unwraps: Vec<_> = f.toks.iter().filter(|t| t.is_ident("unwrap")).collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].in_test);
        assert!(unwraps[1].in_test);
    }

    #[test]
    fn attribute_on_use_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let u = f.toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert!(!u.in_test);
    }

    #[test]
    fn docs_collected_and_found_above() {
        let src =
            "/// Table 2: 0.45 tasks/sec.\n/// More.\n#[allow(dead_code)]\npub const X: u64 = 1;\n";
        let f = SourceFile::parse("x.rs", src);
        let docs = f.docs_above(4);
        assert!(docs.contains("Table 2"));
        assert!(docs.contains("More"));
    }

    #[test]
    fn positions_are_one_based() {
        let f = SourceFile::parse("x.rs", "ab\n  cd");
        assert_eq!((f.toks[0].line, f.toks[0].col), (1, 1));
        assert_eq!((f.toks[1].line, f.toks[1].col), (2, 3));
    }

    #[test]
    fn plain_comments_recorded_with_own_line_flag() {
        let src = "// above\nlet x = 1; // trailing\n// below\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.comments.len(), 3);
        assert!(f.comments[0].own_line);
        assert!(!f.comments[1].own_line);
        assert!(f.comments[2].own_line);
        assert_eq!(f.trailing_comment(2).unwrap().text, "// trailing");
        assert!(f.trailing_comment(1).is_none());
    }

    #[test]
    fn attachment_collects_block_above_and_trailing() {
        let src = "// Relaxed: monotonic tally.\n// Second line.\n#[inline]\nbump(); // tail\n";
        let f = SourceFile::parse("x.rs", src);
        let a = f.attached_comment(4);
        assert!(a.contains("Relaxed: monotonic tally"));
        assert!(a.contains("Second line"));
        assert!(a.contains("tail"));
        // A blank line breaks attachment.
        let g = SourceFile::parse("x.rs", "// far away\n\nbump();\n");
        assert!(!g.attached_comment(3).contains("far away"));
    }

    #[test]
    fn docs_above_ignores_interleaved_plain_comments_but_keeps_docs() {
        let src = "/// Table 2.\n// implementation note\npub const X: u64 = 1;\n";
        let f = SourceFile::parse("x.rs", src);
        let docs = f.docs_above(3);
        assert!(docs.contains("Table 2"));
        assert!(!docs.contains("implementation note"));
    }
}
