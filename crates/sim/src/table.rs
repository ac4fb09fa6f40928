//! Plain-text table rendering for experiment output.
//!
//! The `repro` harness prints every paper table/figure as an aligned text
//! table plus TSV series blocks that are trivially machine-parseable.

use std::fmt::Write as _;

/// A simple column-aligned text table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must have the same arity as the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == ncols { "\n" } else { "  " };
                let _ = write!(out, "{:<width$}{}", cell, sep, width = widths[i]);
            }
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Format a float with `prec` decimals.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Render a `(x, y)` series as a two-column TSV block with a heading —
/// the standard way the harness emits "figure" data.
pub fn series_tsv(name: &str, xlabel: &str, ylabel: &str, points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {name}");
    let _ = writeln!(out, "{xlabel}\t{ylabel}");
    for (x, y) in points {
        let _ = writeln!(out, "{x}\t{y}");
    }
    out
}

/// Render a crude ASCII line plot of a series: useful for eyeballing the
/// figure shapes straight from the terminal.
pub fn ascii_plot(name: &str, points: &[(f64, f64)], width: usize, height: usize) -> String {
    let mut out = format!("-- {name} --\n");
    if points.is_empty() || width == 0 || height == 0 {
        out.push_str("(no data)\n");
        return out;
    }
    let (xmin, xmax) = points
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| {
            (lo.min(x), hi.max(x))
        });
    let (ymin, ymax) = points
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
            (lo.min(y), hi.max(y))
        });
    let xspan = (xmax - xmin).max(f64::MIN_POSITIVE);
    let yspan = (ymax - ymin).max(f64::MIN_POSITIVE);
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = b'*';
    }
    let _ = writeln!(
        out,
        "y: [{ymin:.3} .. {ymax:.3}]  x: [{xmin:.3} .. {xmax:.3}]"
    );
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).unwrap());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["System", "Throughput"]);
        t.row(vec!["Falkon".into(), "487".into()]);
        t.row(vec!["PBS".into(), "0.45".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Falkon"));
        assert!(s.contains("0.45"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.895), "89.5%");
    }

    #[test]
    fn series_tsv_format() {
        let s = series_tsv("fig", "x", "y", &[(1.0, 2.0), (3.0, 4.0)]);
        assert!(s.starts_with("# fig\n"));
        assert!(s.contains("1\t2"));
    }

    #[test]
    fn ascii_plot_handles_all_inputs() {
        assert!(ascii_plot("empty", &[], 10, 5).contains("no data"));
        let p = ascii_plot("line", &[(0.0, 0.0), (1.0, 1.0)], 20, 10);
        assert!(p.contains('*'));
        // constant series must not divide by zero
        let c = ascii_plot("const", &[(0.0, 5.0), (1.0, 5.0)], 10, 3);
        assert!(c.contains('*'));
    }
}
