//! Block-structure layer over the flat token stream.
//!
//! One brace-matching pass over a lexed file derives the **test regions**
//! ([`test_spans`]): the bodies of items under a `cfg(test)` or `test`
//! attribute, which [`crate::lexer::SourceFile::parse`] folds back into
//! per-token `in_test` flags so every rule can exempt test code.
//!
//! Comment *attachment* (which `//` lines document which statement) lives
//! on [`crate::lexer::SourceFile`] because it needs the raw lines; this
//! module contributes the statement-boundary helper ([`stmt_start`]) that
//! anchors an attachment to the first line of the enclosing statement.
//!
//! This is not a parser. Spans are heuristic (good enough for a
//! conventional rustfmt'd workspace) and building them must never panic,
//! whatever the input bytes — `tests/syntax_no_panic.rs` feeds the builder
//! arbitrary byte soup to keep that true. Unbalanced braces degrade to
//! "span runs to end of file", never to an index error.

use crate::lexer::{Tok, TokKind};

/// Token index where the statement containing token `idx` starts: the first
/// token after the previous `;`, `{`, or `}` (or the start of the file).
/// Used to anchor comment attachment for mid-statement tokens — a
/// justification comment sits above the `let`, not above the line an
/// `Ordering::Relaxed` happens to wrap onto.
pub fn stmt_start(toks: &[Tok], idx: usize) -> usize {
    let mut s = idx.min(toks.len().saturating_sub(1));
    while s > 0 {
        match toks[s - 1].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            _ => s -= 1,
        }
    }
    s
}

/// One stack-based pass matching every `{` to its `}`. Unmatched braces
/// stay `usize::MAX`.
fn match_braces(toks: &[Tok]) -> Vec<usize> {
    let mut close = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => stack.push(i),
            TokKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    close[open] = i;
                }
            }
            _ => {}
        }
    }
    close
}

/// `#[cfg(test)]` / `#[test]` regions, as inclusive token ranges.
///
/// A `test` ident inside an outer attribute (not under `not(…)`) exempts
/// the next braced body; an intervening `;` (e.g. `#[cfg(test)] mod t;`)
/// clears the pending exemption. The body extent comes from the brace
/// matcher.
pub fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let close = match_braces(toks);
    let mut out = Vec::new();
    let mut i = 0;
    let mut pending = false;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute body for the `test` ident.
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_ident("test") {
                    // `#[cfg(not(test))]` guards *non*-test code.
                    let negated =
                        j >= 2 && toks[j - 1].is_punct('(') && toks[j - 2].is_ident("not");
                    if !negated {
                        pending = true;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if pending {
            if toks[i].is_punct(';') {
                pending = false;
            } else if toks[i].is_punct('{') {
                let end = match close.get(i) {
                    Some(&c) if c != usize::MAX => c,
                    _ => toks.len().saturating_sub(1),
                };
                out.push((i, end));
                pending = false;
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lexer::SourceFile;
    use crate::syntax::{stmt_start, test_spans};

    #[test]
    fn stmt_start_walks_to_statement_head() {
        let src = "fn f() {\n    let won = inner\n        .top\n        .cas(t, Ordering::Relaxed)\n        .is_ok();\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let relaxed = f.toks.iter().position(|t| t.is_ident("Relaxed")).unwrap();
        let s = stmt_start(&f.toks, relaxed);
        assert!(f.toks[s].is_ident("let"));
        assert_eq!(f.toks[s].line, 2);
    }

    #[test]
    fn unbalanced_braces_degrade_gracefully() {
        // One `}` short: the test region runs to the last token.
        let f = SourceFile::parse("x.rs", "#[cfg(test)]\nmod t { fn f() { if x { y(); \n}");
        let spans = test_spans(&f.toks);
        assert_eq!(
            spans,
            [(
                f.toks.iter().position(|t| t.is_punct('{')).unwrap(),
                f.toks.len() - 1
            )]
        );
        assert!(f.toks.last().unwrap().in_test);
        let g = SourceFile::parse("x.rs", "}}}{{{#[test]"); // nonsense
        assert!(test_spans(&g.toks).is_empty());
    }

    #[test]
    fn test_spans_match_old_marking_semantics() {
        let src = "#[cfg(test)]\nuse foo;\nfn live() {}\n#[cfg(test)]\nmod t { fn x() {} }\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(test_spans(&f.toks).len(), 1);
        let live = f.toks.iter().find(|t| t.is_ident("live")).unwrap();
        assert!(!live.in_test);
        let x = f.toks.iter().find(|t| t.is_ident("x")).unwrap();
        assert!(x.in_test);
    }
}
