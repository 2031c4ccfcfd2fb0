//! Long-prompt summarization scenario (the workload class that motivates the paper).
//!
//! Serves an arXiv-summarization-like workload (6.3K-token prompts on average) with
//! Llama-3.1 70B on A10G prefill instances and A100 decode instances, and compares the
//! disaggregated baseline, CacheGen-like, KVQuant-like and HACK end to end on the
//! cluster simulator: average JCT, its decomposition, and peak decode-GPU memory.
//!
//! Run with: `cargo run --release --example long_prompt_summarization`

use hack_core::prelude::*;

fn main() {
    let experiment = JctExperiment {
        num_requests: 80,
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Arxiv)
    };
    println!(
        "Serving {} with {:?} prefill instances on the {} dataset (RPS {:.3})",
        ModelKind::Llama31_70B.spec().name,
        GpuKind::A10G,
        Dataset::Arxiv.name(),
        experiment.effective_rps()
    );
    println!(
        "simulating {} requests per method...\n",
        experiment.num_requests
    );

    let methods = Method::main_comparison();
    let cells = methods
        .iter()
        .map(|&m| (m.name(), Simulator::new(experiment.simulation_config(m))))
        .collect();
    let results: Vec<(String, SimulationResult)> = run_cells(cells).collect();

    let mut table = ExperimentTable::new(
        "long_prompt_summarization",
        "Average JCT and decomposition (arXiv summarization, Llama-3.1 70B, A10G prefill)",
        vec![
            "avg JCT (s)".into(),
            "prefill %".into(),
            "comm %".into(),
            "dequant/approx %".into(),
            "decode %".into(),
            "peak mem %".into(),
        ],
        "mixed",
    );
    for (name, r) in &results {
        let ratios = r.average_ratios();
        table.push_row(Row::new(
            name.clone(),
            vec![
                r.average_jct(),
                100.0 * ratios.prefill,
                100.0 * ratios.communication,
                100.0 * ratios.dequant_or_approx,
                100.0 * ratios.decode,
                100.0 * r.peak_decode_memory_fraction,
            ],
        ));
    }
    println!("{}", table.render());

    let reduction = |r: &SimulationResult, other: &SimulationResult| {
        100.0 * (1.0 - r.average_jct() / other.average_jct())
    };
    let baseline = &results[0].1;
    for (name, r) in &results[1..] {
        println!(
            "{name:<10} reduces average JCT by {:.1}% vs the baseline",
            reduction(r, baseline)
        );
    }
    println!(
        "HACK       reduces average JCT by {:.1}% vs KVQuant (paper reports up to 52.3%)",
        reduction(&results[3].1, &results[2].1)
    );
}
