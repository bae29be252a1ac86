//! Plain-text table rendering and per-passage RMR summaries. Files are
//! written by [`crate::artifact`].

use std::fmt::Write as _;

/// A simple aligned-text table (the experiments print the same rows
/// the paper's Table 1 reports, with measured numbers).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a two-column `metric | value` row.
    pub fn metric(&mut self, name: &str, value: impl std::fmt::Display) {
        self.row(vec![name.to_string(), value.to_string()]);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Summary statistics over a set of per-passage RMR counts: the
/// distributional view the sweep CLI prints alongside the max.
#[derive(Debug, Clone)]
pub struct RmrSummary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Median (lower of the middle pair for even counts).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl RmrSummary {
    /// Summarize a set of counts; `None` if empty.
    pub fn of(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| -> u64 {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        Some(RmrSummary {
            count: sorted.len(),
            min: sorted[0],
            p50: rank(0.50),
            p95: rank(0.95),
            max: *sorted.last().unwrap(),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        })
    }

    /// One-line rendering, e.g. `n=24 min=6 p50=8 p95=11 max=12 mean=8.3`.
    pub fn render(&self) -> String {
        format!(
            "n={} min={} p50={} p95={} max={} mean={:.1}",
            self.count, self.min, self.p50, self.p95, self.max, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["lock", "N", "rmrs"]);
        t.row(vec!["mcs".into(), "8".into(), "5".into()]);
        t.row(vec!["one-shot(B=16)".into(), "128".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("one-shot(B=16)"));
        // Title, header, separator and both rows present.
        assert_eq!(s.trim_start().lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rows_are_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let s = RmrSummary::of(&[5, 1, 3, 2, 4]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 5);
        assert_eq!(s.max, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert!(s.render().contains("p50=3"));
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(RmrSummary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_singleton() {
        let s = RmrSummary::of(&[7]).unwrap();
        assert_eq!((s.min, s.p50, s.p95, s.max), (7, 7, 7, 7));
    }
}
