//! What a run prints: every metric by name and unit for people, then one
//! JSON line for the driver.

use crate::json::escape;
use crate::spec::MetricDef;
use crate::trial::Span;
use std::io::{self, Write};
use std::path::Path;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of `values` by the nearest-rank rule.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Reading {
    /// Which metric.
    pub def: MetricDef,
    /// Its value.
    pub value: f64,
    /// How it came about (`median of 5 trials, min .. max ..`), for people.
    pub note: String,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Tasks the program was asked to run.
    pub attempted: u64,
    /// Tasks not completed exactly once, or lost to an abandoned trial.
    pub failed: u64,
    /// Accounting checks that did not hold, and abandoned trials.
    pub problems: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub readings: Vec<Reading>,
    /// Free-form lines for people (sample counts, what the run did).
    pub notes: Vec<String>,
    /// The benchmark's spans (traced runs).
    pub spans: Vec<Span>,
}

impl RunReport {
    /// Outputs were correct: every task completed exactly once and every
    /// accounting check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Add a reading.
    pub fn push(&mut self, def: MetricDef, value: f64, note: impl Into<String>) {
        self.readings.push(Reading {
            def,
            // JSON has no NaN or infinity; a degenerate ratio reads 0.
            value: if value.is_finite() { value } else { 0.0 },
            note: note.into(),
        });
    }

    /// Value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.def.name == name)
            .map(|r| r.value)
    }

    /// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .readings
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(r.def.name),
                    r.value,
                    escape(r.def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the human-readable report, then the driver's line last.
    pub fn print(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "workload {}", self.workload)?;
        for r in &self.readings {
            writeln!(
                out,
                "  {:<34} {:>16.4} {:<10} {}",
                r.def.name, r.value, r.def.unit, r.note
            )?;
        }
        writeln!(
            out,
            "  tasks_attempted {}  tasks_failed {}",
            self.attempted, self.failed
        )?;
        for n in &self.notes {
            writeln!(out, "  note: {n}")?;
        }
        for p in &self.problems {
            writeln!(out, "  PROBLEM: {p}")?;
        }
        writeln!(out, "{}", self.json_line())
    }

    /// Write the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let or_null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"trial\": {}, \"cpu_us\": {}}}",
                escape(&s.name),
                s.start_us,
                s.end_us,
                or_null(s.parent.map(|p| p as u64)),
                s.trial,
                or_null(s.cpu_us)
            )?;
        }
        f.flush()
    }
}
