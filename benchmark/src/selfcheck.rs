//! `--selfcheck`: does the benchmark agree with itself?
//!
//! For every workload, two sets of runs of the same binary are taken in
//! alternation (A1 B1 A2 B2 ...), each run its own process with its own
//! seed and the contract's `--seconds`, as the driver takes them. For
//! every end-to-end metric the two sets' medians must agree within the
//! metric's bound, and each set's spread (third minus first quartile, as a
//! share of the median) must stay within it too. `setup_s` is held to the
//! median rule only, as by the driver.

use crate::json::{self, Json};
use crate::report::{median, quartiles};
use crate::spec::{MetricDef, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::sys;
use std::process::Command;
use std::time::Instant;

/// Runs in each of the two sets, as the driver takes them.
const RUNS_PER_SET: u32 = 10;

/// Seed of the first run; every later run takes the next one.
const FIRST_SEED: u64 = 1;

/// How two sets of runs of one metric compare.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Median of set A.
    pub median_a: f64,
    /// Median of set B.
    pub median_b: f64,
    /// By what share of A's median B's is worse (negative: better).
    pub worse: f64,
    /// Quartile distance of set A as a share of its median.
    pub spread_a: f64,
    /// Quartile distance of set B as a share of its median.
    pub spread_b: f64,
    /// The medians agree within the bound and (but for `setup_s`) both
    /// spreads stay within it.
    pub pass: bool,
}

/// Hold two sets of values of metric `m` against its bound.
pub fn verdict(m: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (median_a, median_b) = (median(a), median(b));
    let worse = if m.higher_is_better {
        (median_a - median_b) / median_a
    } else {
        (median_b - median_a) / median_a
    };
    let spread = |v: &[f64], med: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / med
    };
    let (spread_a, spread_b) = (spread(a, median_a), spread(b, median_b));
    let spread_ok = m.name == "setup_s" || (spread_a <= m.bound && spread_b <= m.bound);
    Verdict {
        median_a,
        median_b,
        worse,
        spread_a,
        spread_b,
        pass: worse.abs() <= m.bound && spread_ok,
    }
}

fn one_run(workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("run exited with {}: {last}", out.status));
    }
    json::parse(last)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run the self-check; returns the process exit code.
pub fn main() -> i32 {
    let mut ok = true;
    println!(
        "selfcheck: {RUNS_PER_SET} runs per set, --seconds {RUN_SECONDS}, seeds {FIRST_SEED}.. (set A odd runs, set B even runs)"
    );
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for workload in WORKLOADS {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        let mut failed_tasks = 0.0;
        let (started, stolen) = (Instant::now(), sys::steal_seconds());
        for i in 0..RUNS_PER_SET * 2 {
            let seed = FIRST_SEED + u64::from(i);
            match one_run(workload, seed) {
                Ok(r) => {
                    failed_tasks += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    sets[(i % 2) as usize].push(r);
                }
                Err(e) => {
                    println!("{workload}: run {i} (seed {seed}) failed: {e}");
                    ok = false;
                }
            }
        }
        for m in END_TO_END {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter().filter_map(|r| metric(r, m.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(&m, &a, &b);
            ok &= v.pass;
            println!(
                "{:<12} {:<16} {:>14.4} {:>14.4} {:>+7.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                workload,
                m.name,
                v.median_a,
                v.median_b,
                v.worse * 100.0,
                v.spread_a * 100.0,
                v.spread_b * 100.0,
                m.bound * 100.0,
                if v.pass { "ok" } else { "OUTSIDE" }
            );
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<12} {:<16} all {} runs: min {lo:.4} max {hi:.4} (max/min {:.3})",
                "",
                "",
                all.len(),
                hi / lo
            );
            // In the order the runs were taken, so a drift of the machine
            // can be told from scatter.
            let in_order = |v: &[f64]| {
                let each: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
                each.join(" ")
            };
            println!("{:<12} {:<16} A [{}]", "", "", in_order(&a));
            println!("{:<12} {:<16} B [{}]", "", "", in_order(&b));
        }
        println!(
            "{workload}: tasks_failed over both sets: {failed_tasks}; the hypervisor stole {:.1} CPU-seconds during the {:.0} s of these runs",
            sys::steal_seconds() - stolen,
            started.elapsed().as_secs_f64()
        );
        ok &= failed_tasks == 0.0;
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    i32::from(!ok)
}
