//! The paper's figures and tables: Figs. 1–4 and the §3 FP4/6/8 study (why
//! existing KV compression falls short), Figs. 9–14 (JCT) and Tables 5–8
//! (memory, accuracy, partition size).
//!
//! Each figure is a function from the number of requests per simulated row to
//! its tables, listed with its id in [`FIGURES`]. A simulated figure lists its
//! grid rows ([`JctExperiment`]s), resolves every unset load by measured
//! bisection ([`JctExperiment::with_measured_load`], rows in parallel), runs
//! one labelled cell per (row, method) through [`run_cells`] and reads every
//! column straight off each [`SimulationResult`]. Tables 6–8 measure
//! numerical fidelity ([`crate::fidelity`]) instead, one method per worker.
//! Every cell and every fidelity trial carries its own seed, so each figure is
//! a pure function of its request count.

use crate::experiment::{par_map, run_cells, ExperimentTable, Row};
use crate::fidelity::{evaluate, FidelitySetup};
use crate::jct_runner::JctExperiment;
use crate::method::Method;
use hack_cluster::{ClusterConfig, SimulationResult, Simulator};
use hack_kvcache::{DecodeMemoryModel, KvShape};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;

/// A figure: its tables, computed from the number of requests per simulated
/// row (the fidelity tables 6 and 7 do not simulate and ignore it).
pub type FigureFn = fn(usize) -> Vec<ExperimentTable>;

/// Every figure and table of the paper's evaluation: its id, its function
/// and a fixed note to print after its tables (empty for none).
pub const FIGURES: &[(&str, FigureFn, &str)] = &[
    ("fig1", fig1, ""),
    ("fig2", fig2, ""),
    ("fig3", fig3, ""),
    ("fig4", fig4, ""),
    ("fp_lowprec", fp_lowprec, ""),
    ("fig9", fig9, ""),
    ("fig10", fig10, ""),
    ("fig11", fig11, ""),
    ("fig12", fig12, ""),
    ("fig13", fig13, ""),
    (
        "fig14",
        fig14,
        "note: the paper reports a 127% baseline JCT increase from p=1 to p=8 because its decode\n\
         side saturates; the calibrated service-time model stays below saturation at RPS=0.02·p,\n\
         so the simulated growth is smaller.",
    ),
    ("table5", table5, ""),
    ("table6", table6, ""),
    (
        "table7",
        table7,
        "(the paper reports decreases between -0.14 and -0.29 accuracy points)",
    ),
    ("table8", table8, ""),
];

/// One row of a figure's grid: its label and its experiment.
type GridRow = (String, JctExperiment);

/// The per-dataset grid of Figs. 1(c)/4/9/10/13 and Tables 5/8 (Llama-3.1 70B
/// on A10G).
fn dataset_grid(n: usize) -> Vec<GridRow> {
    Dataset::all()
        .into_iter()
        .map(|dataset| {
            let experiment = JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, dataset);
            (dataset.name().to_string(), requests(experiment, n))
        })
        .collect()
}

/// The per-model grid of Figs. 1(b)/3/11 (Cocktail, or arXiv for Falcon-180B
/// whose context window is capped at 2K — §7.1).
fn model_grid(n: usize) -> Vec<GridRow> {
    ModelKind::all()
        .into_iter()
        .map(|model| {
            let (label, dataset) = if model == ModelKind::Falcon180B {
                ("F-arXiv", Dataset::Arxiv)
            } else {
                (model.letter(), Dataset::Cocktail)
            };
            let experiment = JctExperiment::new(model, GpuKind::A10G, dataset);
            (label.to_string(), requests(experiment, n))
        })
        .collect()
}

/// The per-prefill-GPU grid of Figs. 1(a)/2/12 and §3 (Llama-3.1 70B,
/// Cocktail).
fn gpu_grid(n: usize) -> Vec<GridRow> {
    GpuKind::all()
        .into_iter()
        .map(|gpu| {
            let experiment = JctExperiment::new(ModelKind::Llama31_70B, gpu, Dataset::Cocktail);
            (format!("{gpu:?}"), requests(experiment, n))
        })
        .collect()
}

/// `experiment` with `num_requests` requests.
fn requests(experiment: JctExperiment, num_requests: usize) -> JctExperiment {
    JctExperiment {
        num_requests,
        ..experiment
    }
}

/// A figure's grid after its run: the row labels and, per row, one result
/// per method.
struct Runs {
    labels: Vec<String>,
    methods: Vec<Method>,
    /// `results[row][method]`.
    results: Vec<Vec<SimulationResult>>,
}

impl Runs {
    /// Resolves each row's load by measurement (rows in parallel), then runs
    /// one cell per (row, method) through [`run_cells`].
    fn new(grid: Vec<GridRow>, methods: &[Method]) -> Self {
        let (labels, rows): (Vec<String>, Vec<JctExperiment>) = grid.into_iter().unzip();
        let rows = par_map(rows, JctExperiment::with_measured_load);
        let cells = labels
            .iter()
            .zip(&rows)
            .flat_map(|(label, row)| {
                methods.iter().map(move |&method| {
                    let sim = Simulator::new(row.simulation_config(method));
                    (format!("{label}/{}", method.name()), sim)
                })
            })
            .collect();
        let mut results = run_cells(cells).map(|(_, result)| result);
        let results = rows
            .iter()
            .map(|_| results.by_ref().take(methods.len()).collect())
            .collect();
        Self {
            labels,
            methods: methods.to_vec(),
            results,
        }
    }

    /// Method `m`'s value, `read` off each row's result.
    fn series(&self, m: usize, read: impl Fn(&SimulationResult) -> f64) -> Vec<f64> {
        self.results.iter().map(|row| read(&row[m])).collect()
    }

    /// One row per method, one column per grid row.
    fn per_method(
        &self,
        id: &str,
        title: &str,
        unit: &str,
        read: impl Fn(&SimulationResult) -> f64,
    ) -> ExperimentTable {
        let mut table = ExperimentTable::new(id, title, self.labels.clone(), unit);
        for (m, method) in self.methods.iter().enumerate() {
            table.push_row(Row::new(method.name(), self.series(m, &read)));
        }
        table
    }

    /// One row per grid row, one column per method.
    fn per_row(
        &self,
        id: &str,
        title: &str,
        unit: &str,
        read: impl Fn(&SimulationResult) -> f64,
    ) -> ExperimentTable {
        let columns = self.methods.iter().map(Method::name).collect();
        let mut table = ExperimentTable::new(id, title, columns, unit);
        for (label, row) in self.labels.iter().zip(&self.results) {
            table.push_row(Row::new(label.clone(), row.iter().map(&read).collect()));
        }
        table
    }

    /// Method `m`'s stage ratios in percent of JCT, one row per grid row
    /// (Figs. 1–4).
    fn ratios(&self, id: &str, title: &str, m: usize) -> ExperimentTable {
        let columns = [
            "prefill %",
            "quant %",
            "comm %",
            "dequant/approx %",
            "decode %",
            "queueing %",
        ];
        let mut table =
            ExperimentTable::new(id, title, columns.map(String::from).to_vec(), "% of JCT");
        for (label, row) in self.labels.iter().zip(&self.results) {
            let r = row[m].average_ratios();
            let values = [
                r.prefill,
                r.quantization,
                r.communication,
                r.dequant_or_approx,
                r.decode,
                r.queueing,
            ];
            table.push_row(Row::new(label.clone(), values.map(|v| 100.0 * v).to_vec()));
        }
        table
    }

    /// One ratio table per method, `fig_<method>` (Figs. 2–4), each titled
    /// "Fig. `number`: `method` time ratios vs `axis`".
    fn ratio_tables(&self, number: u8, axis: &str) -> Vec<ExperimentTable> {
        self.methods
            .iter()
            .enumerate()
            .map(|(m, method)| {
                let name = method.name();
                let id = format!("fig{number}_{}", name.to_lowercase());
                let title = format!("Fig. {number}: {name} time ratios vs {axis}");
                self.ratios(&id, &title, m)
            })
            .collect()
    }
}

/// `f` applied to `a` and `b` elementwise.
fn zip_with(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// HACK's JCT reduction against each other method of
/// [`Method::main_comparison`] (HACK is its last entry).
fn reductions(runs: &Runs, id: &str, title: &str) -> ExperimentTable {
    let mut table = ExperimentTable::new(id, title, runs.labels.clone(), "%");
    let hack = runs.series(3, SimulationResult::average_jct);
    for (i, method) in runs.methods.iter().enumerate().take(3) {
        let other = runs.series(i, SimulationResult::average_jct);
        table.push_row(Row::new(
            format!("HACK vs {}", method.name()),
            zip_with(&hack, &other, |h, o| 100.0 * (1.0 - h / o)),
        ));
    }
    table
}

fn peak_memory_percent(result: &SimulationResult) -> f64 {
    100.0 * result.peak_decode_memory_fraction
}

/// Fig. 1 — Bottlenecks in disaggregated LLM inference (baseline, no
/// compression): stage time ratios varying the prefill GPU (a), the model (b)
/// and the dataset (c), and (d) the communication ratio vs RPS with
/// pipelining.
pub fn fig1(n: usize) -> Vec<ExperimentTable> {
    let baseline = [Method::Baseline];
    let a = Runs::new(gpu_grid(n), &baseline);
    let b = Runs::new(model_grid(n), &baseline);
    let c = Runs::new(dataset_grid(n), &baseline);

    let rps_points = [0.06, 0.10, 0.14, 0.18];
    let grid = GpuKind::all()
        .into_iter()
        .flat_map(|gpu| {
            rps_points.into_iter().map(move |rps| {
                let experiment = JctExperiment {
                    rps: Some(rps),
                    pipelining: true,
                    ..JctExperiment::new(ModelKind::Llama31_70B, gpu, Dataset::Cocktail)
                };
                (format!("{gpu:?}"), requests(experiment, n))
            })
        })
        .collect();
    let d = Runs::new(grid, &baseline);
    let mut fig1d = ExperimentTable::new(
        "fig1d",
        "Fig. 1(d): baseline communication ratio vs RPS with pipelining (Llama-3.1 70B, Cocktail)",
        rps_points.iter().map(|r| format!("RPS {r}")).collect(),
        "% of JCT",
    );
    let comm = d.series(0, |r| 100.0 * r.average_ratios().communication);
    for (gpu, values) in GpuKind::all()
        .into_iter()
        .zip(comm.chunks(rps_points.len()))
    {
        fig1d.push_row(Row::new(format!("{gpu:?}"), values.to_vec()));
    }

    vec![
        a.ratios(
            "fig1a",
            "Fig. 1(a): baseline time ratios vs prefill GPU (Llama-3.1 70B, Cocktail)",
            0,
        ),
        b.ratios(
            "fig1b",
            "Fig. 1(b): baseline time ratios vs model (Cocktail; arXiv for F)",
            0,
        ),
        c.ratios(
            "fig1c",
            "Fig. 1(c): baseline time ratios vs dataset (Llama-3.1 70B, A10G)",
            0,
        ),
        fig1d,
    ]
}

/// The two existing quantizers of Figs. 2–4.
const QUANTIZERS: [Method; 2] = [Method::CacheGen, Method::KvQuant];

/// Fig. 2 — CacheGen / KVQuant stage time ratios across prefill instances
/// (Llama-3.1 70B, Cocktail).
pub fn fig2(n: usize) -> Vec<ExperimentTable> {
    Runs::new(gpu_grid(n), &QUANTIZERS).ratio_tables(2, "prefill GPU (Llama-3.1 70B, Cocktail)")
}

/// Fig. 3 — CacheGen / KVQuant stage time ratios across models (Cocktail;
/// arXiv for Falcon-180B).
pub fn fig3(n: usize) -> Vec<ExperimentTable> {
    Runs::new(model_grid(n), &QUANTIZERS).ratio_tables(3, "model (Cocktail; arXiv for F)")
}

/// Fig. 4 — CacheGen / KVQuant stage time ratios across datasets
/// (Llama-3.1 70B, A10G).
pub fn fig4(n: usize) -> Vec<ExperimentTable> {
    Runs::new(dataset_grid(n), &QUANTIZERS).ratio_tables(4, "dataset (Llama-3.1 70B, A10G)")
}

/// §3 — FP4/FP6/FP8 against HACK across prefill instances: the communication
/// ratio and the peak decode memory. The minifloat formats cannot reach the
/// compression (and hence the savings) of 2-bit quantization.
pub fn fp_lowprec(n: usize) -> Vec<ExperimentTable> {
    let runs = Runs::new(
        gpu_grid(n),
        &[Method::Fp4, Method::Fp6, Method::Fp8, Method::hack()],
    );
    vec![
        runs.per_row(
            "fp_lowprec_comm",
            "§3: average communication time ratio of FP4/6/8 vs HACK across prefill GPUs",
            "% of JCT",
            |r| 100.0 * r.average_ratios().communication,
        ),
        runs.per_row(
            "fp_lowprec_memory",
            "§3: peak decode memory usage of FP4/6/8 vs HACK across prefill GPUs",
            "% of GPU memory",
            peak_memory_percent,
        ),
    ]
}

/// Fig. 9 — Average JCT for Llama-3.1 70B across datasets, and HACK's
/// reduction against each other method.
pub fn fig9(n: usize) -> Vec<ExperimentTable> {
    let runs = Runs::new(dataset_grid(n), &Method::main_comparison());
    vec![
        runs.per_method(
            "fig9",
            "Fig. 9: average JCT across requests (Llama-3.1 70B, A10G prefill)",
            "s",
            SimulationResult::average_jct,
        ),
        reductions(
            &runs,
            "fig9_reductions",
            "Fig. 9 (derived): HACK's JCT reduction vs each comparison method",
        ),
    ]
}

/// Fig. 10 — Average JCT decomposition (prefill, quantization, communication,
/// dequantization/approximation, decode, queueing) per dataset.
pub fn fig10(n: usize) -> Vec<ExperimentTable> {
    let runs = Runs::new(dataset_grid(n), &Method::main_comparison());
    let columns = [
        "prefill (s)",
        "quant (s)",
        "comm (s)",
        "dequant/approx (s)",
        "decode (s)",
        "queueing (s)",
        "total (s)",
    ];
    runs.labels
        .iter()
        .zip(&runs.results)
        .map(|(dataset, row)| {
            let mut table = ExperimentTable::new(
                format!("fig10_{}", dataset.to_lowercase()),
                format!("Fig. 10: average JCT decomposition on {dataset} (Llama-3.1 70B, A10G)"),
                columns.map(String::from).to_vec(),
                "s",
            );
            for (method, result) in runs.methods.iter().zip(row) {
                let b = result.jct_stats().mean_breakdown;
                table.push_row(Row::new(
                    method.name(),
                    vec![
                        b.prefill,
                        b.quantization,
                        b.communication,
                        b.dequant_or_approx,
                        b.decode,
                        b.queueing,
                        b.total(),
                    ],
                ));
            }
            table
        })
        .collect()
}

/// Fig. 11 — Average JCT across models (Cocktail; arXiv for Falcon-180B).
pub fn fig11(n: usize) -> Vec<ExperimentTable> {
    let runs = Runs::new(model_grid(n), &Method::main_comparison());
    vec![runs.per_method(
        "fig11",
        "Fig. 11: average JCT across requests for different models (Cocktail / arXiv)",
        "s",
        SimulationResult::average_jct,
    )]
}

/// Fig. 12 — Average JCT across prefill instances (Llama-3.1 70B, Cocktail),
/// and HACK's reduction against each other method.
pub fn fig12(n: usize) -> Vec<ExperimentTable> {
    let runs = Runs::new(gpu_grid(n), &Method::main_comparison());
    vec![
        runs.per_method(
            "fig12",
            "Fig. 12: average JCT across requests vs prefill instance (Llama-3.1 70B, Cocktail)",
            "s",
            SimulationResult::average_jct,
        ),
        reductions(
            &runs,
            "fig12_reductions",
            "Fig. 12 (derived): HACK's JCT reduction vs each method, per prefill instance",
        ),
    ]
}

/// Fig. 13 — Ablation study: HACK, HACK without Summation Elimination
/// (HACK/SE) and without Requantization Elimination (HACK/RQE) per dataset,
/// and each ablation's JCT increase over HACK.
pub fn fig13(n: usize) -> Vec<ExperimentTable> {
    let runs = Runs::new(
        dataset_grid(n),
        &[Method::hack(), Method::HackNoSe, Method::HackNoRqe],
    );
    let mut overhead = ExperimentTable::new(
        "fig13_overhead",
        "Fig. 13 (derived): JCT increase of each ablation vs full HACK",
        runs.labels.clone(),
        "%",
    );
    let hack = runs.series(0, SimulationResult::average_jct);
    for (i, method) in runs.methods.iter().enumerate().skip(1) {
        let ablation = runs.series(i, SimulationResult::average_jct);
        overhead.push_row(Row::new(
            format!("{} vs HACK", method.name()),
            zip_with(&ablation, &hack, |a, h| 100.0 * (a / h - 1.0)),
        ));
    }
    vec![
        runs.per_method(
            "fig13",
            "Fig. 13: ablation study — average JCT (Llama-3.1 70B, A10G)",
            "s",
            SimulationResult::average_jct,
        ),
        overhead,
    ]
}

/// Fig. 14 — Scalability: average JCT as the ratio `p` of prefill to decode
/// replicas grows (RPS = 0.02·p, decode on half an A100 instance; at most 80
/// requests per row). The load is pinned, so no capacity is measured.
pub fn fig14(n: usize) -> Vec<ExperimentTable> {
    let grid = [1usize, 2, 3, 4, 6, 8]
        .into_iter()
        .map(|p| {
            (
                format!("p={p}"),
                requests(JctExperiment::scalability(p), n.min(80)),
            )
        })
        .collect();
    vec![Runs::new(grid, &Method::main_comparison()).per_method(
        "fig14",
        "Fig. 14: average JCT vs prefill:decode replica ratio p (Llama-3.1 70B, Cocktail)",
        "s",
        SimulationResult::average_jct,
    )]
}

/// Analytic decode-GPU memory of `method` holding `resident_tokens` on the
/// paper's Llama-3.1 70B deployment: (peak usage, SE sums, RQE FP16 tail), as
/// fractions of GPU memory.
fn analytic_fraction(method: Method, resident_tokens: usize) -> (f64, f64, f64) {
    let spec = ModelKind::Llama31_70B.spec();
    let cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
    let model = DecodeMemoryModel {
        gpu_memory_bytes: cluster.decode_replica_mem_bytes() as usize,
        param_bytes: spec.param_bytes_fp16() as usize,
        activation_bytes: (cluster.activation_reserve * cluster.decode_replica_mem_bytes())
            as usize,
        shape: KvShape {
            layers: spec.layers,
            kv_heads: spec.kv_heads,
            head_dim: spec.head_dim,
        },
        layout: method.cache_layout(),
    };
    (
        model.peak_usage_fraction(resident_tokens),
        model.se_overhead_fraction(resident_tokens),
        model.rqe_overhead_fraction(resident_tokens),
    )
}

/// Table 5 — Peak GPU memory on decode instances per dataset (Llama-3.1
/// 70B): the simulated peak at the simulated load, the analytic at-capacity
/// breakdown (every decode replica filled to its admission limit, the regime
/// of the paper's 65–94%), and the §7.4 SE/RQE memory overheads.
pub fn table5(n: usize) -> Vec<ExperimentTable> {
    let methods = Method::main_comparison();
    let runs = Runs::new(dataset_grid(n), &methods);
    let simulated = runs.per_method(
        "table5_simulated",
        "Table 5 (simulated load): peak decode-GPU memory usage",
        "% of GPU memory",
        peak_memory_percent,
    );

    // Resident tokens scaled by dataset sequence length: the baseline's
    // residency at the paper's load (quantized methods hold the same request
    // mix, so the same token count) — enough sequences of the dataset's
    // average length to fill ~95% of the FP16 KV budget.
    let resident_per_dataset: Vec<usize> = Dataset::all()
        .into_iter()
        .map(|d| {
            let avg = d.input_stats().avg + d.output_stats().avg;
            let spec = ModelKind::Llama31_70B.spec();
            let cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
            let budget = cluster.decode_kv_budget_bytes() * 0.95;
            let fp16_per_token = spec.kv_bytes_per_token_fp16() as f64;
            let sequences = (budget / (fp16_per_token * avg as f64)).floor().max(1.0);
            (sequences as usize) * avg
        })
        .collect();
    let at_capacity = |method: Method, part: fn((f64, f64, f64)) -> f64| -> Vec<f64> {
        resident_per_dataset
            .iter()
            .map(|&tokens| 100.0 * part(analytic_fraction(method, tokens)))
            .collect()
    };

    let mut analytic = ExperimentTable::new(
        "table5",
        "Table 5 (at capacity): peak decode-GPU memory usage with the paper's residency",
        runs.labels.clone(),
        "% of GPU memory",
    );
    for method in methods {
        analytic.push_row(Row::new(method.name(), at_capacity(method, |f| f.0)));
    }
    let mut overheads = ExperimentTable::new(
        "table5_overheads",
        "§7.4: memory overhead of SE sums and the RQE FP16 tail (HACK, at capacity)",
        runs.labels.clone(),
        "% of GPU memory",
    );
    overheads.push_row(Row::new("SE sums", at_capacity(Method::hack(), |f| f.1)));
    overheads.push_row(Row::new(
        "RQE FP16 tail",
        at_capacity(Method::hack(), |f| f.2),
    ));
    vec![simulated, analytic, overheads]
}

/// Baseline accuracies from Table 6 (per dataset, for the Llama-3.1 70B
/// column), the anchor of the accuracy proxy.
const BASELINE_ACCURACY: [(Dataset, f64); 4] = [
    (Dataset::Imdb, 95.73),
    (Dataset::Arxiv, 83.79),
    (Dataset::Cocktail, 86.39),
    (Dataset::HumanEval, 85.21),
];

/// The dataset columns of the accuracy tables.
fn accuracy_columns() -> Vec<String> {
    BASELINE_ACCURACY
        .iter()
        .map(|(d, _)| d.name().to_string())
        .collect()
}

/// Table 6 — Accuracy across datasets. The paper measures task accuracy of
/// real models; this measures numerical fidelity (kernel- and model-level)
/// and reports the accuracy proxy anchored at the paper's baseline accuracy,
/// preserving the ordering HACK(Π=32) ≥ HACK(Π=64) ≥ CacheGen ≈ KVQuant ≳
/// HACK(Π=128).
pub fn table6(_n: usize) -> Vec<ExperimentTable> {
    let methods = vec![
        Method::Baseline,
        Method::Hack { partition: 32 },
        Method::hack(),
        Method::CacheGen,
        Method::KvQuant,
        Method::Hack { partition: 128 },
    ];
    let setup = FidelitySetup::default();
    let reports = par_map(methods, |method| evaluate(method, &setup));

    let mut fidelity = ExperimentTable::new(
        "table6_fidelity",
        "Table 6 (underlying measurement): numerical fidelity per method",
        [
            "attention cos",
            "logit cos",
            "token agree",
            "ROUGE-1",
            "edit sim",
        ]
        .map(String::from)
        .to_vec(),
        "score",
    );
    let mut table = ExperimentTable::new(
        "table6",
        "Table 6 (proxy): accuracy anchored at the paper's Llama-3.1 70B baseline accuracy",
        accuracy_columns(),
        "%",
    );
    for r in &reports {
        fidelity.push_row(Row::new(
            r.method_name.clone(),
            vec![
                r.attention_cosine,
                r.logit_cosine,
                r.token_agreement,
                r.rouge1,
                r.edit_similarity,
            ],
        ));
        let values = BASELINE_ACCURACY
            .iter()
            .map(|(_, acc)| r.accuracy_proxy(*acc, 3.0))
            .collect();
        table.push_row(Row::new(r.method_name.clone(), values));
    }
    vec![fidelity, table]
}

/// Table 7 — Accuracy decrease of HACK/RQE (requantizing the last V block
/// every iteration) against full HACK, per dataset. The RQE effect
/// accumulates with the generated tokens (§7.4), so each dataset generates in
/// proportion to its average output length.
pub fn table7(_n: usize) -> Vec<ExperimentTable> {
    let drops = par_map(BASELINE_ACCURACY.to_vec(), |(dataset, anchor)| {
        let setup = FidelitySetup {
            generate_tokens: (dataset.output_stats().avg / 8).clamp(8, 40),
            trials: 4,
            ..FidelitySetup::default()
        };
        let hack = evaluate(Method::hack(), &setup);
        let no_rqe = evaluate(Method::HackNoRqe, &setup);
        no_rqe.accuracy_proxy(anchor, 3.0) - hack.accuracy_proxy(anchor, 3.0)
    });
    let mut table = ExperimentTable::new(
        "table7",
        "Table 7: accuracy decrease of HACK/RQE compared to HACK",
        accuracy_columns(),
        "accuracy points",
    );
    table.push_row(Row::new("HACK/RQE - HACK", drops));
    vec![table]
}

/// Table 8 — Sensitivity to the quantization partition size: the accuracy
/// and average-JCT increase of Π = 32 and Π = 64 over Π = 128, per dataset.
pub fn table8(n: usize) -> Vec<ExperimentTable> {
    let partitions = [32usize, 64, 128];
    let methods = partitions.map(|partition| Method::Hack { partition });
    let setup = FidelitySetup {
        trials: 4,
        ..FidelitySetup::default()
    };
    let reports = par_map(methods.to_vec(), |method| evaluate(method, &setup));
    let runs = Runs::new(dataset_grid(n), &methods);

    let mut accuracy = ExperimentTable::new(
        "table8_accuracy",
        "Table 8: accuracy increase of Π=32 / Π=64 over Π=128",
        accuracy_columns(),
        "accuracy points",
    );
    let mut jct = ExperimentTable::new(
        "table8_jct",
        "Table 8: average-JCT increase of Π=32 / Π=64 over Π=128",
        runs.labels.clone(),
        "%",
    );
    let coarsest = runs.series(2, SimulationResult::average_jct);
    for (i, p) in partitions.into_iter().enumerate().take(2) {
        let values = BASELINE_ACCURACY
            .iter()
            .map(|(_, anchor)| {
                reports[i].accuracy_proxy(*anchor, 3.0) - reports[2].accuracy_proxy(*anchor, 3.0)
            })
            .collect();
        accuracy.push_row(Row::new(format!("Pi={p}"), values));
        let finer = runs.series(i, SimulationResult::average_jct);
        jct.push_row(Row::new(
            format!("Pi={p}"),
            zip_with(&finer, &coarsest, |a, b| 100.0 * (a / b - 1.0)),
        ));
    }
    vec![accuracy, jct]
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
        let (label, falcon) = &model_grid(5)[4];
        assert_eq!(label, "F-arXiv");
        assert_eq!(falcon.model, ModelKind::Falcon180B);
        assert_eq!(falcon.dataset, Dataset::Arxiv);
        assert!(dataset_grid(5).iter().all(|(_, e)| e.num_requests == 5));
    }

    #[test]
    fn ratio_row_matches_columns() {
        let grid = vec![dataset_grid(5).remove(0)];
        let table = Runs::new(grid, &[Method::hack()]).ratios("t", "t", 0);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].values.len(), table.columns.len());
    }

    #[test]
    fn figure_ids_are_unique() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids.len(), 15);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
    }
}
