//! Shared experiment runner: sweep grid × trials → aligned table + JSON +
//! optional CI floor gate.
//!
//! Every `exp_*` binary does the same dance: iterate a sweep grid, measure
//! each point (possibly averaging seeded trials), print an aligned
//! [`Table`], dump the rows as JSON under `results/`, print footer notes,
//! and optionally enforce a `--check-floor` gate on one headline metric.
//! [`Runner`] owns that dance so the binaries only contain their physics:
//!
//! ```no_run
//! use saiyan_bench::runner::Runner;
//!
//! let mut runner = Runner::new("my_experiment", "My sweep", &["x", "y"]);
//! for x in [1.0, 2.0, 4.0] {
//!     let y = x * x;
//!     runner.row(
//!         vec![format!("{x}"), format!("{y:.1}")],
//!         serde_json::json!({ "x": x, "y": y }),
//!     );
//! }
//! runner.footer("paper: y grows quadratically");
//! runner.gate("min y", 1.0);
//! runner.finish();
//! ```

use crate::{check_floor_arg, enforce_floor, write_json, Table};

/// Deterministic per-trial seeds for Monte-Carlo sweeps: `trials` seeds
/// derived from one base seed by a splitmix-style mix, so adding a trial
/// never reshuffles the previous ones.
pub fn trial_seeds(base_seed: u64, trials: usize) -> Vec<u64> {
    (0..trials as u64)
        .map(|i| {
            let mut z = base_seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// The shared sweep → table → JSON → floor-gate harness. See the
/// [module docs](self).
pub struct Runner {
    name: &'static str,
    table: Table,
    json_rows: Vec<serde_json::Value>,
    footers: Vec<String>,
    gate: Option<(String, f64)>,
}

impl Runner {
    /// Creates a runner: `name` is the `results/<name>.json` stem, `title`
    /// and `columns` shape the printed table.
    pub fn new(name: &'static str, title: impl Into<String>, columns: &[&str]) -> Self {
        Runner {
            name,
            table: Table::new(title, columns),
            json_rows: Vec::new(),
            footers: Vec::new(),
            gate: None,
        }
    }

    /// Records one sweep point: a formatted table row plus its JSON record.
    pub fn row(&mut self, cells: Vec<String>, json: serde_json::Value) {
        self.table.add_row(cells);
        self.json_rows.push(json);
    }

    /// Adds a footer line printed after the table (paper reference numbers,
    /// commentary).
    pub fn footer(&mut self, line: impl Into<String>) {
        self.footers.push(line.into());
    }

    /// Declares the headline metric checked against `--check-floor` at
    /// [`Runner::finish`]. The last call wins.
    pub fn gate(&mut self, metric: impl Into<String>, value: f64) {
        self.gate = Some((metric.into(), value));
    }

    /// Number of rows recorded so far.
    pub fn rows(&self) -> usize {
        self.json_rows.len()
    }

    /// Prints the table and footers, writes `results/<name>.json`, and
    /// enforces the floor gate if `--check-floor` was passed (exits
    /// non-zero on a violation).
    pub fn finish(self) {
        self.table.print();
        for line in &self.footers {
            println!("{line}");
        }
        crate::print_simd_report();
        write_json(self.name, &serde_json::json!(self.json_rows));
        if let Some((metric, value)) = self.gate {
            enforce_floor(&metric, value, check_floor_arg());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_stable_prefixes() {
        let four = trial_seeds(42, 4);
        let six = trial_seeds(42, 6);
        assert_eq!(&six[..4], &four[..]);
        assert_eq!(four.len(), 4);
        // All distinct, and a different base gives different seeds.
        let mut sorted = four.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_ne!(trial_seeds(43, 4), four);
    }

    #[test]
    fn runner_accumulates_rows() {
        let mut runner = Runner::new("test_runner", "Demo", &["a"]);
        runner.row(vec!["1".into()], serde_json::json!({"a": 1}));
        runner.row(vec!["2".into()], serde_json::json!({"a": 2}));
        runner.footer("note");
        runner.gate("a", 2.0);
        assert_eq!(runner.rows(), 2);
        // finish() writes under results/ — exercised by the exp smoke runs.
    }
}
