//! # hack-bench
//!
//! Experiment harness of the HACK reproduction: one binary per figure and table
//! of the paper's evaluation (`src/bin/`: Fig. 1–4, the §3 FP4/6/8 study,
//! Fig. 9–14, Tables 5–8). Each prints the same rows/series the paper reports
//! and writes a JSON copy under `target/experiments/`. Grid cells are sharded
//! across threads by [`shard`]; cells with `rps: None` measure the cluster's
//! capacity by bisection over simulator runs
//! ([`hack_core::JctExperiment::with_measured_load`]).
//!
//! Run `cargo run -p hack-bench --release --bin <experiment>` for a single
//! experiment. Performance is measured by the standalone `bench/` package, not
//! by this crate.

pub mod shard;

pub use shard::{run_grid, run_grid_measured, run_sharded, worker_threads};

use hack_core::prelude::*;
use std::path::PathBuf;

/// Directory where the experiment binaries drop their JSON results.
pub fn output_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Prints a table and saves its JSON next to the other experiment outputs.
pub fn emit(table: &ExperimentTable) {
    println!("{}", table.render());
    match table.save_json(&output_dir()) {
        Ok(path) => println!("[saved {}]\n", path.display()),
        Err(err) => eprintln!("[warning: could not save JSON: {err}]\n"),
    }
}

/// The per-dataset experiment grid of Figs. 9/10 and Table 5 (Llama-3.1 70B on A10G).
pub fn dataset_grid(num_requests: usize) -> Vec<(Dataset, JctExperiment)> {
    Dataset::all()
        .into_iter()
        .map(|dataset| {
            (
                dataset,
                JctExperiment {
                    num_requests,
                    ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, dataset)
                },
            )
        })
        .collect()
}

/// The per-model experiment grid of Figs. 1(b)/3/11 (Cocktail, or arXiv for Falcon-180B
/// whose context window is capped at 2K — §7.1).
pub fn model_grid(num_requests: usize) -> Vec<(ModelKind, JctExperiment)> {
    ModelKind::all()
        .into_iter()
        .map(|model| {
            let dataset = if model == ModelKind::Falcon180B {
                Dataset::Arxiv
            } else {
                Dataset::Cocktail
            };
            (
                model,
                JctExperiment {
                    num_requests,
                    ..JctExperiment::new(model, GpuKind::A10G, dataset)
                },
            )
        })
        .collect()
}

/// The per-prefill-GPU experiment grid of Figs. 1(a)/2/12 (Llama-3.1 70B, Cocktail).
pub fn gpu_grid(num_requests: usize) -> Vec<(GpuKind, JctExperiment)> {
    GpuKind::all()
        .into_iter()
        .map(|gpu| {
            (
                gpu,
                JctExperiment {
                    num_requests,
                    ..JctExperiment::new(ModelKind::Llama31_70B, gpu, Dataset::Cocktail)
                },
            )
        })
        .collect()
}

/// Number of requests per simulation, overridable with `HACK_BENCH_REQUESTS` so CI can
/// run the harness quickly while full runs use more samples.
pub fn default_requests() -> usize {
    std::env::var("HACK_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Builds the standard "stage-ratio" table rows (prefill/quant/comm/dequant/decode in
/// percent of JCT) for one outcome.
pub fn ratio_row(label: impl Into<String>, outcome: &JctOutcome) -> Row {
    Row::new(
        label,
        vec![
            100.0 * outcome.ratios.prefill,
            100.0 * outcome.ratios.quantization,
            100.0 * outcome.ratios.communication,
            100.0 * outcome.ratios.dequant_or_approx,
            100.0 * outcome.ratios.decode,
            100.0 * outcome.ratios.queueing,
        ],
    )
}

/// Column headers matching [`ratio_row`].
pub fn ratio_columns() -> Vec<String> {
    vec![
        "prefill %".into(),
        "quant %".into(),
        "comm %".into(),
        "dequant/approx %".into(),
        "decode %".into(),
        "queueing %".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_paper_matrix() {
        assert_eq!(dataset_grid(5).len(), 4);
        assert_eq!(model_grid(5).len(), 5);
        assert_eq!(gpu_grid(5).len(), 5);
        // Falcon-180B must be paired with arXiv.
        let falcon = &model_grid(5)[4];
        assert_eq!(falcon.0, ModelKind::Falcon180B);
        assert_eq!(falcon.1.dataset, Dataset::Arxiv);
    }

    #[test]
    fn ratio_row_matches_columns() {
        let e = JctExperiment {
            num_requests: 5,
            ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Imdb)
        };
        let o = e.run(Method::hack());
        let row = ratio_row("HACK", &o);
        assert_eq!(row.values.len(), ratio_columns().len());
    }

    #[test]
    fn default_requests_is_positive() {
        assert!(default_requests() > 0);
    }
}
