//! Diagnostics: rustc-style text rendering and `--format json` output.

use std::fmt::Write as _;

/// Stable identifiers for the five enforced invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// No sockets, threads, sleeps, or wall-clock reads in sans-io crates.
    SansIo,
    /// Drivers mount recorders but never construct `ObsEvent` values.
    ProbeProvenance,
    /// Calibration constants must cite a paper table/figure/section.
    Calibration,
    /// Every experiment module must be registered in `REGISTRY`.
    Registry,
    /// Atomics-using files document their ordering protocol; `Relaxed`
    /// and `fence` sites carry justification comments; atomics stay in
    /// driver crates.
    AtomicProtocol,
}

impl Rule {
    /// The rule's stable snake_case id (used in output and `--rule`).
    pub const fn id(self) -> &'static str {
        match self {
            Rule::SansIo => "sans_io",
            Rule::ProbeProvenance => "probe_provenance",
            Rule::Calibration => "calibration",
            Rule::Registry => "registry",
            Rule::AtomicProtocol => "atomic_protocol",
        }
    }

    /// Look up a rule by its stable id (for `--rule` filters).
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Every rule, in rule-number order.
    pub const ALL: [Rule; 5] = [
        Rule::SansIo,
        Rule::ProbeProvenance,
        Rule::Calibration,
        Rule::Registry,
        Rule::AtomicProtocol,
    ];
}

/// One violation, anchored to a source location.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which invariant was violated.
    pub rule: Rule,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The raw source line the violation sits on.
    pub snippet: String,
}

impl Diagnostic {
    /// Render in rustc style:
    ///
    /// ```text
    /// error[falkon_lint::sans_io]: wall-clock read in sans-io crate
    ///   --> crates/core/src/foo.rs:12:9
    ///    |     let t = Instant::now();
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "error[falkon_lint::{}]: {}",
            self.rule.id(),
            self.message
        );
        let _ = writeln!(out, "  --> {}:{}:{}", self.path, self.line, self.col);
        if !self.snippet.is_empty() {
            let _ = writeln!(out, "   |{}", self.snippet);
        }
        out
    }

    /// Render as one JSON object.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            self.rule.id(),
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.message),
            json_escape(self.snippet.trim())
        )
    }
}

/// Render a full diagnostic list as a JSON array.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let body: Vec<String> = diags.iter().map(Diagnostic::render_json).collect();
    format!("[{}]", body.join(","))
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: Rule::SansIo,
            path: "crates/core/src/foo.rs".into(),
            line: 12,
            col: 9,
            message: "wall-clock read".into(),
            snippet: "    let t = Instant::now();".into(),
        }
    }

    #[test]
    fn text_has_rule_id_and_span() {
        let t = sample().render_text();
        assert!(t.contains("falkon_lint::sans_io"));
        assert!(t.contains("crates/core/src/foo.rs:12:9"));
        assert!(t.contains("Instant::now()"));
    }

    #[test]
    fn json_is_escaped_and_arrayed() {
        let mut d = sample();
        d.message = "a \"quoted\"\nthing".into();
        let j = render_json_report(&[d]);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("a \\\"quoted\\\"\\nthing"));
        assert!(j.contains("\"rule\":\"sans_io\""));
    }

    #[test]
    fn rule_ids_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in Rule::ALL {
            assert!(seen.insert(r.id()));
        }
    }
}
