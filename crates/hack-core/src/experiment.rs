//! Result tables: the common output format of the paper's figures and of the
//! scenario sweeps, and the one runner both take to their tables.
//!
//! A sweep or figure is a list of [`Cell`]s — row labels with the simulators
//! that produce them. [`run_cells`] runs them on worker threads and returns
//! the results in cell order; [`ExperimentTable::sweep`] reads each row's
//! columns off the results. Every cell carries its own trace seed, so no
//! result depends on which thread ran it.

use hack_cluster::{SimulationResult, Simulator};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// One labelled row of numeric values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Row label (e.g. a method or dataset name).
    pub label: String,
    /// Values, one per column.
    pub values: Vec<f64>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }
}

/// A named table of results that prints like the paper's figures/tables and serialises
/// to JSON for downstream processing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentTable {
    /// Identifier of the experiment (e.g. "fig9", "table5").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers (not counting the row-label column).
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<Row>,
    /// Unit of the values (e.g. "s", "%", "ratio").
    pub unit: String,
}

/// One cell of a scenario sweep: its row label and the simulator that runs
/// it. The simulator carries the cell's configuration and trace.
pub type Cell = (String, Simulator);

/// Runs labelled cells on one worker thread per available core and yields
/// their results in cell order. Each cell carries its own seed, so the
/// results equal a sequential run's.
pub fn run_cells(cells: Vec<Cell>) -> impl Iterator<Item = (String, SimulationResult)> {
    par_map(cells, |(label, sim)| (label, sim.run())).into_iter()
}

/// Applies `f` to every item on `available_parallelism().min(len)` scoped
/// worker threads and returns the results in input order. Each worker takes
/// the next unclaimed item until none is left, so a slow item does not hold
/// up the others; results are merged back by index. Items move into the
/// workers rather than being shared: a [`Simulator`] is `Send` but not
/// `Sync`. A panic in `f` resurfaces on the calling thread.
pub(crate) fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(len))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue
                            .lock()
                            .expect("no worker panics holding the queue")
                            .next();
                        let Some((index, item)) = next else {
                            return done;
                        };
                        done.push((index, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, result) in done {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item was taken by a worker"))
        .collect()
}

/// The JCTs (`finish - arrival`) of every completed request in `results`,
/// ascending: the pool [`percentile`] reads. `JctStats` sums each request's
/// stage breakdown instead; the pinned grids depend on each formula, so the
/// two stay apart.
pub(crate) fn sorted_jcts<'a>(results: impl IntoIterator<Item = &'a SimulationResult>) -> Vec<f64> {
    let mut jcts: Vec<f64> = results
        .into_iter()
        .flat_map(|r| r.records.iter().map(|rec| rec.jct()))
        .collect();
    // Unstable is exact: `total_cmp`-equal values have identical bits.
    jcts.sort_unstable_by(f64::total_cmp);
    jcts
}

/// Nearest-rank percentile of an ascending-sorted slice (0 for an empty one).
///
/// The rank is `ceil(q * n)` (1-based), saturated into `[1, n]`: an empty
/// pool returns 0 instead of indexing, and for tiny pools — any `q` above
/// `(n - 1) / n`, e.g. p99 of fewer than 100 samples — the rank clamps to
/// the maximum sample rather than rounding past the end of the slice.
/// `JctStats` reads index `round((n - 1) * q)` instead, kept apart for the
/// same reason as in [`sorted_jcts`].
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

impl ExperimentTable {
    /// The table of a scenario sweep: one row per labelled run, in order,
    /// whose values `read` takes off the run (usually a [`SimulationResult`]
    /// from [`run_cells`]). Sweep columns mix units, so the unit is "mixed".
    pub fn sweep<T>(
        id: &str,
        title: String,
        columns: impl IntoIterator<Item = impl Into<String>>,
        runs: impl IntoIterator<Item = (String, T)>,
        mut read: impl FnMut(&T) -> Vec<f64>,
    ) -> Self {
        let mut table = Self::new(
            id,
            title,
            columns.into_iter().map(Into::into).collect(),
            "mixed",
        );
        for (label, run) in runs {
            table.push_row(Row::new(label, read(&run)));
        }
        table
    }

    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: Vec<String>,
        unit: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
            unit: unit.into(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, row: Row) {
        assert_eq!(
            row.values.len(),
            self.columns.len(),
            "row '{}' has {} values for {} columns",
            row.label,
            row.values.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Looks up a value by row label and column name.
    pub fn value(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|r| r.label == row_label)
            .map(|r| r.values[col])
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} [{}] (values in {}) ==",
            self.title, self.id, self.unit
        );
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("method".len()))
            .max()
            .unwrap_or(8)
            + 2;
        let col_width = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(8)
            .max(10)
            + 2;
        let _ = write!(out, "{:<label_width$}", "");
        for c in &self.columns {
            let _ = write!(out, "{c:>col_width$}");
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let _ = write!(out, "{:<label_width$}", r.label);
            for v in &r.values {
                let formatted = if v.abs() >= 1000.0 {
                    format!("{v:.0}")
                } else if v.abs() >= 1.0 {
                    format!("{v:.2}")
                } else {
                    format!("{v:.4}")
                };
                let _ = write!(out, "{formatted:>col_width$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises the table to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment tables always serialise")
    }

    /// Writes the JSON representation under `dir/<id>.json`, creating the directory.
    pub fn save_json(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "fig9",
            "Average JCT across requests",
            vec!["IMDb".into(), "Cocktail".into()],
            "s",
        );
        t.push_row(Row::new("Baseline", vec![10.0, 40.0]));
        t.push_row(Row::new("HACK", vec![6.0, 15.5]));
        t
    }

    #[test]
    fn lookup_by_label_and_column() {
        let t = sample();
        assert_eq!(t.value("HACK", "Cocktail"), Some(15.5));
        assert_eq!(t.value("HACK", "arXiv"), None);
        assert_eq!(t.value("Nope", "IMDb"), None);
    }

    #[test]
    fn render_contains_headers_and_values() {
        let r = sample().render();
        assert!(r.contains("Average JCT"));
        assert!(r.contains("Cocktail"));
        assert!(r.contains("Baseline"));
        assert!(r.contains("15.5"));
    }

    #[test]
    fn json_round_trips_structurally() {
        let t = sample();
        let json = t.to_json();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["id"], "fig9");
        assert_eq!(value["rows"][1]["label"], "HACK");
        assert_eq!(value["rows"][1]["values"][1], 15.5);
    }

    #[test]
    fn save_json_writes_file() {
        let dir = std::env::temp_dir().join("hack_experiment_table_test");
        let path = sample().save_json(&dir).unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn tail_percentiles_saturate_on_tiny_pools() {
        // n == 0: no sample to index, no panic — 0 by convention.
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[], 0.999), 0.0);

        // n == 1: every tail percentile is the single sample.
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[7.5], 0.999), 7.5);

        // n == 99 (< 100 samples): p99 and p999 both clamp to the max
        // sample — the nearest rank ceil(0.99 * 99) = 99 is the last one.
        let n99: Vec<f64> = (1..=99).map(|i| i as f64).collect();
        assert_eq!(percentile(&n99, 0.99), 99.0);
        assert_eq!(percentile(&n99, 0.999), 99.0);

        // n == 100: p99 is the 99th sample (not the max), p999 still clamps.
        let n100: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&n100, 0.99), 99.0);
        assert_eq!(percentile(&n100, 0.999), 100.0);
        assert_eq!(percentile(&n100, 0.5), 50.0);
    }

    #[test]
    fn par_map_returns_results_in_input_order() {
        let items: Vec<u64> = (0..23).collect();
        let got = par_map(items.clone(), |c| c * 3);
        let want: Vec<u64> = items.iter().map(|c| c * 3).collect();
        assert_eq!(got, want);
        assert!(par_map(Vec::<u64>::new(), |c| c).is_empty());
    }

    #[test]
    fn run_cells_matches_sequential_runs() {
        use crate::hetero_fleet::HeteroFleetExperiment;
        use crate::method::Method;
        let fleet = HeteroFleetExperiment {
            num_requests: 10,
            ..HeteroFleetExperiment::paper_mixed()
        };
        let sequential: Vec<(String, SimulationResult)> = fleet
            .cells(Method::hack())
            .into_iter()
            .map(|(label, sim)| (label, sim.run()))
            .collect();
        assert!(sequential.len() > 1, "the sweep has several cells");
        let sharded: Vec<_> = run_cells(fleet.cells(Method::hack())).collect();
        assert_eq!(sharded, sequential);
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn mismatched_row_width_panics() {
        let mut t = sample();
        t.push_row(Row::new("bad", vec![1.0]));
    }
}
