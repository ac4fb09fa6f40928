//! `repro` — regenerate every table and figure of the Falkon paper.
//!
//! ```text
//! repro [<experiment>] [--full] [--jobs <n>] [--trace <path>]
//!
//! repro list       enumerate experiments (id + description)
//! repro all        run everything (the default)
//! repro <id>       run one experiment (see `repro list`)
//! repro bench      floor tripwire over seven hot-path scenarios (DESIGN.md
//!                  §10); takes no flags, exits 1 on a rate under its floor
//!
//! flags:
//!   --full         the paper's parameters (2,000,000 tasks, 54,000
//!                  executors) instead of the quick smoke scale
//!   --jobs <n>     run on an n-worker thread pool (default 1 =
//!                  serial). Output is byte-identical for every n except
//!                  the wall-clock "measured" block.
//!   --trace <path> with a single experiment: also dump every completed
//!                  task's lifecycle (enqueue/dispatch/complete timestamps)
//!                  as TSV to <path>. Forces serial execution: the trace
//!                  sink is thread-local.
//! ```
//!
//! Experiments sharing one expensive run (fig9/fig10; table3/table4/
//! fig12/fig13) execute it once per `repro all` via their registry group.

use falkon_bench::harness;
use falkon_exp::experiments::{registry, Scale};
use falkon_exp::trace;
use std::io::Write;

/// Print a block, exiting quietly on a closed pipe (`repro all | head`).
fn emit(block: &str) {
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{block}").is_err() {
        std::process::exit(0);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let value_flag = |flag: &str| match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => Some(p.clone()),
            _ => {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let trace_path = value_flag("--trace");
    let jobs = match value_flag("--jobs") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs needs a worker count >= 1, got `{n}`");
                std::process::exit(2);
            }
        },
        None => 1,
    };
    const VALUE_FLAGS: [&str; 2] = ["--trace", "--jobs"];
    if let Some(bad) = args
        .iter()
        .enumerate()
        .find(|&(i, a)| {
            a.starts_with("--")
                && a != "--full"
                && !VALUE_FLAGS.contains(&a.as_str())
                && !(i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a)
    {
        eprintln!("unknown flag `{bad}`; flags are --full, --jobs <n>, --trace <path>");
        std::process::exit(2);
    }
    let scale = if full { Scale::Full } else { Scale::Quick };
    let what = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && (i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or("all");

    if what == "bench" {
        if args.len() > 1 {
            eprintln!("`repro bench` takes no arguments (floors are constants in perfbench.rs)");
            std::process::exit(2);
        }
        run_bench();
        return;
    }

    if what == "list" {
        for e in registry::REGISTRY {
            emit(&format!("{:<10} {}", e.id(), e.title()));
        }
        return;
    }

    if what == "all" {
        if trace_path.is_some() {
            eprintln!("--trace needs a single experiment (see `repro list`)");
            std::process::exit(2);
        }
        harness::run_all_with(scale, jobs, &mut |_id, text| emit(text));
        return;
    }

    let Some(exp) = registry::lookup(what) else {
        let known: Vec<&str> = registry::REGISTRY.iter().map(|e| e.id()).collect();
        eprintln!(
            "unknown experiment `{what}`; choose one of: list all {}",
            known.join(" ")
        );
        std::process::exit(2);
    };
    // Single-experiment runs stay serial: the lifecycle trace sink is
    // thread-local, and pool workers would swallow records. The pool's
    // win is concurrency *across* experiments anyway.
    if trace_path.is_some() && jobs > 1 {
        eprintln!("--trace is serial-only; drop --jobs or use --jobs 1");
        std::process::exit(2);
    }
    if trace_path.is_some() {
        trace::enable();
    }
    let report = run_single(exp, scale, jobs);
    let text = exp.render(&report);
    if !text.is_empty() {
        emit(&text);
    }
    if let Some(path) = trace_path {
        let runs = trace::take();
        let tasks: usize = runs.iter().map(Vec::len).sum();
        if let Err(e) = std::fs::write(&path, trace::render_tsv(&runs)) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("trace: {tasks} tasks over {} runs -> {path}", runs.len());
    }
}

/// Run one experiment, with the pool installed so its inner sweeps (if
/// any) fan out when `--jobs` asks for it.
fn run_single(exp: &dyn registry::Experiment, scale: Scale, jobs: usize) -> registry::Report {
    if jobs <= 1 {
        return exp.run(scale);
    }
    let pool = falkon_pool::Pool::new(jobs);
    pool.install(|| exp.run(scale))
}

/// `repro bench`: run the floored scenarios, print the table, exit 1 if
/// any rate is under its floor.
fn run_bench() {
    use falkon_bench::perfbench;

    eprintln!("repro bench: running the seven floored scenarios (seconds)...");
    let results = perfbench::run_benches();
    emit(&perfbench::render_table(&results));
    let mut failed = false;
    for r in results.iter().filter(|r| !r.ok()) {
        eprintln!(
            "FLOOR VIOLATION: {} measured {:.1} {} < required {}",
            r.id, r.rate, r.unit, r.floor
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
