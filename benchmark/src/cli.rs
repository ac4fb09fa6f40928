//! Command line of the benchmark binary.

use crate::run::{self, Options};
use crate::selfcheck;
use crate::spec::{RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;

const USAGE: &str =
    "usage: falkon-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
         [--quick] [--spans <file>]
       falkon-benchmark --selfcheck

  --workload  flat_sat | fat_secure | tier3_1k | repro_full | short_tasks
  --seed      input seed: the same seed gives byte-identical task lists
  --seconds   measured seconds per run, split over the trials
  --trace     0: end-to-end metrics; 1: per-layer metrics from a traced trial
  --quick     smoke scale (one short trial); never a reported number
  --spans     write the benchmark's spans to <file> as JSON lines
  --selfcheck run every workload in two alternating sets of ten runs (each its
              own process and seed, as the driver runs them) and hold the sets'
              medians and spreads against the bounds; takes no other argument";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The run's options.
    pub opts: Options,
    /// Where to write spans, if anywhere.
    pub spans: Option<PathBuf>,
    /// Self-check mode.
    pub selfcheck: bool,
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options {
            workload: String::new(),
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            quick: false,
        },
        spans: None,
        selfcheck: false,
    };
    if args == ["--selfcheck"] {
        cli.selfcheck = true;
        return Ok(cli);
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.opts.workload = value()?,
            "--seed" => cli.opts.seed = number(value()?)?,
            "--seconds" => cli.opts.seconds = number(value()?)?.max(1),
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--spans" => cli.spans = Some(PathBuf::from(value()?)),
            "--quick" => cli.opts.quick = true,
            "--selfcheck" => return Err("--selfcheck takes no other argument".into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&cli.opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

/// Run the command line; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if cli.selfcheck {
        return selfcheck::main();
    }
    let report = run::run(&cli.opts).expect("workload name was validated");
    if let Some(path) = &cli.spans {
        if let Err(e) = report.write_spans(path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return 2;
        }
    }
    if report.print(&mut std::io::stdout().lock()).is_err() {
        return 2;
    }
    i32::from(!report.correct())
}
