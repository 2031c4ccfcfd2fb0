//! # hack-bench
//!
//! Experiment harness of the HACK reproduction: the `figures` binary runs the
//! paper's figures and tables ([`hack_core::figures::FIGURES`]: Fig. 1–4, the
//! §3 FP4/6/8 study, Fig. 9–14, Tables 5–8), prints each table and writes a
//! JSON copy under `target/experiments/`.
//!
//! `cargo run -p hack-bench --release --bin figures [id…]` runs the named
//! figures, or all of them without an argument; `HACK_BENCH_REQUESTS` sets the
//! requests per simulated row (default 60). Bad input or an unwritable output
//! directory stops the run with a message and a non-zero exit. Performance is
//! measured by the standalone `bench/` package, not by this crate.

use hack_core::experiment::ExperimentTable;
use hack_core::figures::{FigureFn, FIGURES};
use std::path::PathBuf;

/// Directory where the harness drops its JSON results.
pub fn output_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Prints a table and saves its JSON next to the other experiment outputs.
pub fn emit(table: &ExperimentTable) -> Result<(), String> {
    println!("{}", table.render());
    let path = table
        .save_json(&output_dir())
        .map_err(|err| format!("could not save {}: {err}", table.id))?;
    println!("[saved {}]\n", path.display());
    Ok(())
}

/// Number of requests per simulated row: `HACK_BENCH_REQUESTS` if set (so CI
/// can run the harness quickly while full runs use more samples), else 60.
pub fn default_requests() -> Result<usize, String> {
    std::env::var_os("HACK_BENCH_REQUESTS").map_or(Ok(60), |v| parse_requests(&v.to_string_lossy()))
}

/// Parses a request count; only a positive integer is one.
pub fn parse_requests(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "HACK_BENCH_REQUESTS must be a positive integer, got {value:?}"
        )),
    }
}

/// The figures named by `ids`, in the given order, or every figure when
/// `ids` is empty. An unknown id is an error that lists the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, FigureFn, &'static str)>, String> {
    if ids.is_empty() {
        return Ok(FIGURES.to_vec());
    }
    ids.iter()
        .map(|id| {
            FIGURES
                .iter()
                .find(|(name, _, _)| name == id)
                .copied()
                .ok_or_else(|| {
                    let valid: Vec<&str> = FIGURES.iter().map(|(name, _, _)| *name).collect();
                    format!("unknown figure {id:?}; valid ids: {}", valid.join(" "))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_requests_is_positive() {
        assert!(default_requests().unwrap() > 0);
    }

    #[test]
    fn requests_must_be_a_positive_integer() {
        assert_eq!(parse_requests("20"), Ok(20));
        for bad in ["0", "abc", "", "-3", "2.5", " 20"] {
            let err = parse_requests(bad).unwrap_err();
            assert!(err.contains("HACK_BENCH_REQUESTS"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn select_runs_all_or_the_named_figures() {
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
        let ids = ["table7".to_string(), "fig9".to_string()];
        let picked: Vec<&str> = select(&ids).unwrap().iter().map(|f| f.0).collect();
        assert_eq!(picked, ["table7", "fig9"]);
        let err = select(&["fig99".to_string()]).unwrap_err();
        assert!(
            err.contains("fig99") && err.contains("fig1 ") && err.contains("table8"),
            "{err}"
        );
    }
}
