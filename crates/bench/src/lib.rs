//! # saiyan-bench — experiment harness shared code
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of the
//! paper (the README's "Running the experiments" section lists them). They
//! all print an aligned text table to stdout — the same rows/series the paper
//! plots — and optionally dump the data as JSON under `results/` for
//! plotting. The sweep → table → JSON → floor-gate loop they share lives in
//! [`runner::Runner`].

#![warn(missing_docs)]

pub mod runner;

use std::fs;
use std::path::PathBuf;

pub use runner::{trial_seeds, Runner};

/// A simple aligned text table used by every experiment binary.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed as a header).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of already formatted cells.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Prints the selected SIMD backend (one line, shared by the `exp_*` bins).
pub fn print_simd_report() {
    println!("simd: {}", analog::simd::simd_report());
}

/// Formats a BER in the paper's per-mille / percent style.
pub fn fmt_ber(ber: f64) -> String {
    if ber >= 0.01 {
        format!("{:.1}%", ber * 100.0)
    } else {
        format!("{:.2}‰", ber * 1000.0)
    }
}

/// Writes a JSON value to `results/<name>.json` (best effort; failures are
/// reported but not fatal so experiments work in read-only checkouts).
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("note: could not create results/: {e}");
        return;
    }
    write_json_at(dir.join(format!("{name}.json")), value);
}

/// Writes a JSON value to an explicit path (best effort, like
/// [`write_json`]) — used by `serve_daemon` for its telemetry file.
pub fn write_json_at(path: impl Into<PathBuf>, value: &serde_json::Value) {
    let path = path.into();
    match serde_json::to_string_pretty(value) {
        Ok(body) => {
            if let Err(e) = fs::write(&path, body) {
                eprintln!("note: could not write {}: {e}", path.display());
            } else {
                println!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("note: could not serialise results: {e}"),
    }
}

/// Parses a `--check-floor <x>` argument from the process command line, if
/// present. Experiments use it as a CI regression gate on their headline
/// throughput metric.
pub fn check_floor_arg() -> Option<f64> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--check-floor" {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("--check-floor needs a value"));
            return Some(
                v.parse()
                    .unwrap_or_else(|e| panic!("--check-floor value {v:?} is not a number: {e}")),
            );
        }
    }
    None
}

/// Enforces a `--check-floor` gate: if `floor` is set and `value` falls
/// below it, prints a FAIL line and exits with status 1; otherwise prints
/// the verdict and returns.
pub fn enforce_floor(metric: &str, value: f64, floor: Option<f64>) {
    let Some(floor) = floor else { return };
    if value < floor {
        eprintln!("check-floor FAIL: {metric} = {value:.2} < floor {floor:.2}");
        std::process::exit(1);
    }
    println!("check-floor PASS: {metric} = {value:.2} >= floor {floor:.2}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("Demo", &["a", "long-column", "c"]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        t.add_row(vec!["10".into(), "2000".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-column"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_ber(0.0004), "0.40‰");
        assert_eq!(fmt_ber(0.25), "25.0%");
    }
}
