//! The `falkon-lint` binary: lint the workspace, print diagnostics, exit
//! non-zero on any violation.

use falkon_lint::diag::render_json_report;
use falkon_lint::engine::lint_workspace_filtered;
use falkon_lint::Rule;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: falkon-lint [lint] [--format text|json] [--rule <id>]... [--root <dir>]";

fn main() -> ExitCode {
    let mut format = String::from("text");
    // Default the root to the workspace containing this crate, so the tool
    // works from any cwd under `cargo run -p falkon-lint`.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut selected: Vec<Rule> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // `cargo xtask lint` forwards a `lint` subcommand; accept it.
            "lint" => {}
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                _ => return usage_error("--format takes `text` or `json`"),
            },
            "--rule" => match args.next().as_deref().and_then(Rule::from_id) {
                Some(r) => {
                    if !selected.contains(&r) {
                        selected.push(r);
                    }
                }
                None => {
                    let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
                    return usage_error(&format!("--rule takes one of: {}", ids.join(", ")));
                }
            },
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage_error("--root takes a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unrecognized argument `{other}`")),
        }
    }
    if selected.is_empty() {
        selected.extend(Rule::ALL);
    }

    // The lint is a dev tool, not part of the sans-io surface — the
    // workspace-wide `disallowed_methods` ban on wall-clock reads exists to
    // keep *simulated* components deterministic, and a scan-duration stat
    // doesn't feed any simulation.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let report = match lint_workspace_filtered(&root, &selected) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("falkon-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if format == "json" {
        println!("{}", render_json_report(&report.diags));
    } else {
        for d in &report.diags {
            print!("{}", d.render_text());
        }
        eprintln!(
            "falkon-lint: {} file(s) scanned, {} rule(s), {} violation(s) in {:.0?}",
            report.files_scanned,
            selected.len(),
            report.diags.len(),
            t0.elapsed()
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("falkon-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
