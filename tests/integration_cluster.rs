//! Cross-crate integration tests: the cluster simulator driven through the public
//! `hack-core` experiment API (the machinery behind Figs. 1–4 and 9–14).

use hack_core::prelude::*;

fn experiment(dataset: Dataset, n: usize) -> JctExperiment {
    JctExperiment {
        num_requests: n,
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, dataset)
    }
}

fn run(e: &JctExperiment, method: Method) -> SimulationResult {
    Simulator::new(e.simulation_config(method)).run()
}

#[test]
fn fig9_shape_hack_wins_on_every_dataset() {
    for dataset in [Dataset::Imdb, Dataset::Cocktail] {
        let e = experiment(dataset, 30);
        let methods = Method::main_comparison();
        let results: Vec<SimulationResult> = methods.iter().map(|&m| run(&e, m)).collect();
        let baseline = results[0].average_jct();
        let hack = results[3].average_jct();
        assert!(
            hack < baseline,
            "{}: HACK {hack} vs baseline {baseline}",
            dataset.name()
        );
        for (method, result) in methods.iter().zip(&results) {
            assert_eq!(result.records.len(), 30, "{}", method.name());
        }
    }
}

#[test]
fn long_datasets_benefit_more_than_short_ones() {
    // Fig. 9: the JCT improvement of HACK over the baseline is larger for arXiv and
    // Cocktail than for IMDb and HumanEval.
    let gain = |dataset: Dataset| {
        let e = experiment(dataset, 30);
        let base = run(&e, Method::Baseline).average_jct();
        let hack = run(&e, Method::hack()).average_jct();
        1.0 - hack / base
    };
    let short = gain(Dataset::Imdb);
    let long = gain(Dataset::Cocktail);
    assert!(
        long > short,
        "long-dataset gain {long} should exceed short-dataset gain {short}"
    );
}

#[test]
fn fig12_baseline_comm_ratio_tracks_bandwidth() {
    // Fig. 1(a): the A100 prefill instance (400 Gbps) has a far smaller communication
    // ratio than the 10-50 Gbps instances.
    let ratio = |gpu: GpuKind| {
        let e = JctExperiment {
            num_requests: 30,
            ..JctExperiment::new(ModelKind::Llama31_70B, gpu, Dataset::Cocktail)
        };
        run(&e, Method::Baseline).average_ratios().communication
    };
    let a100 = ratio(GpuKind::A100);
    let v100 = ratio(GpuKind::V100);
    let a10g = ratio(GpuKind::A10G);
    assert!(a100 < a10g, "A100 comm {a100} vs A10G {a10g}");
    assert!(a100 < v100, "A100 comm {a100} vs V100 {v100}");
}

#[test]
fn table5_memory_shape() {
    // Table 5: quantized methods cut peak decode memory; HACK sits at or slightly above
    // CacheGen/KVQuant (sums + FP16 tail) but below the baseline. The simulated
    // residency is lower than the paper's (its decode instances run much closer to
    // memory saturation), so only the ordering is asserted here; the table5 figure
    // additionally reports the analytic at-capacity breakdown, which reproduces the
    // paper's magnitudes.
    let e = experiment(Dataset::Cocktail, 40);
    let base = run(&e, Method::Baseline);
    let cachegen = run(&e, Method::CacheGen);
    let hack = run(&e, Method::hack());
    assert!(base.peak_decode_memory_fraction > cachegen.peak_decode_memory_fraction);
    assert!(hack.peak_decode_memory_fraction >= cachegen.peak_decode_memory_fraction - 1e-9);
    assert!(hack.peak_decode_memory_fraction <= base.peak_decode_memory_fraction);
}

#[test]
fn fig13_ablations_cost_time() {
    // Fig. 13: HACK/SE is slower than HACK, especially on long sequences; HACK/RQE is
    // never faster than HACK.
    let e = experiment(Dataset::Cocktail, 30);
    let hack = run(&e, Method::hack()).average_jct();
    let no_se = run(&e, Method::HackNoSe).average_jct();
    let no_rqe = run(&e, Method::HackNoRqe).average_jct();
    assert!(no_se > hack, "SE removal must cost time");
    assert!(no_rqe >= hack);
}

#[test]
fn fig14_scalability_completes_and_keeps_the_method_ordering() {
    // Fig. 14: at every prefill:decode ratio p the compressed methods stay below the
    // baseline. This deviates from the paper: its 127% baseline JCT growth from p=1 to
    // p=8 comes from running its real decode side at saturation, while at
    // RPS = 0.02·p the simulated decode side stays below saturation, so the simulated
    // growth is smaller (the fig14 figure prints this note with its series).
    for p in [1usize, 4] {
        let e = JctExperiment::scalability(p);
        let base = run(&e, Method::Baseline);
        let hack = run(&e, Method::hack());
        assert_eq!(base.records.len(), e.num_requests);
        assert_eq!(hack.records.len(), e.num_requests);
        assert!(
            hack.average_jct() < base.average_jct(),
            "p={p}: HACK {} vs baseline {}",
            hack.average_jct(),
            base.average_jct()
        );
    }
}

#[test]
fn pipelining_only_helps_communication() {
    let plain = experiment(Dataset::Cocktail, 30);
    let mut piped = plain;
    piped.pipelining = true;
    let a = run(&plain, Method::Baseline);
    let b = run(&piped, Method::Baseline);
    assert!(b.average_ratios().communication <= a.average_ratios().communication + 1e-9);
    // Prefill and decode service times are untouched by pipelining.
    let prefill = |r: &SimulationResult| r.jct_stats().mean_breakdown.prefill;
    assert!((prefill(&a) - prefill(&b)).abs() < 1e-6);
}

#[test]
fn outcomes_serialize_to_json() {
    // A figure's table, read off the result, serialises with its columns and labels.
    let e = experiment(Dataset::HumanEval, 10);
    let method = Method::hack();
    let runs = [(method.name(), run(&e, method))];
    let table = ExperimentTable::sweep("outcome", "outcome".into(), ["average_jct"], runs, |r| {
        vec![r.average_jct()]
    });
    let json = table.to_json();
    assert!(json.contains("average_jct"));
    assert!(json.contains("HACK"));
}
