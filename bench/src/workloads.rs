//! The four workloads and one repetition of each.
//!
//! A repetition times its work (input synthesis, simulator or kernel calls,
//! result post-processing) and only then reads the peak RSS, runs the output
//! checks and digests the result. A traced repetition additionally records a
//! span around every layer call and, after the timed section, measures the
//! per-layer quantities the spans cannot see (event counts from the engine
//! log, cost-table builds, capacity-probe counts, kernel sub-kernels).

use crate::digest::{self, Fields, Fnv};
use crate::spans::Tracer;
use crate::stats;
use hack_attention::{baseline_attention, hack_prefill_attention, AttentionMask, HackKvState};
use hack_cluster::{
    AdmissionPolicyKind, AvailabilityModel, CacheConfig, ClusterConfig, DispatchPolicyKind,
    LinkGraphSpec, MtbfSpec, PolicyConfig, RetryPolicy, ScalingPolicyKind, SchedulingPolicyKind,
    SimulationConfig, SimulationResult, Simulator, TelemetryConfig, TenantClass, TenantClasses,
    TopologySpec,
};
use hack_core::{JctExperiment, Method};
use hack_model::spec::ModelKind;
use hack_model::{DecodeCostTable, GpuKind, PrefillCostTable};
use hack_quant::homomorphic::homomorphic_matmul_counted;
use hack_quant::{HackConfig, QuantizedTensor};
use hack_sim::{EngineMode, RecordKind};
use hack_tensor::matmul::matmul;
use hack_tensor::softmax::softmax_slice_inplace;
use hack_tensor::{cosine_similarity, DetRng, Matrix};
use hack_workload::trace::TraceTemplate;
use hack_workload::{
    Dataset, Request, SessionKind, SessionSpec, SessionTrace, TenantId, TraceConfig, TraceGenerator,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 300k IMDb requests at 2 rps on the paper fleet under HACK, every
    /// opt-in layer off: the engine, the default handlers and result
    /// assembly do almost all the work.
    Imdb300k,
    /// The Figs. 9–12 matrix: 14 (dataset, model, GPU) rows, each measuring
    /// its capacity by bisection, then running the four compared methods.
    /// Many short simulators: per-simulator costs (trace synthesis, cost
    /// tables, capacity probes) are about a third of the work.
    PaperGrid,
    /// Every opt-in layer at once: session DAGs of two tenants under WRR,
    /// the prefix cache, session-affinity dispatch, target-utilization
    /// autoscaling, a 2-spine link graph with generated outages and
    /// degradations, and telemetry.
    SessionsFaults,
    /// The paper's kernels on one head: HACK prefill (matrix-matrix) and
    /// 256 decode steps (vector-matrix) for eight sequences.
    KernelDecode,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Imdb300k,
        Workload::PaperGrid,
        Workload::SessionsFaults,
        Workload::KernelDecode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Imdb300k => "imdb-300k",
            Workload::PaperGrid => "paper-grid",
            Workload::SessionsFaults => "sessions-faults",
            Workload::KernelDecode => "kernel-decode",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn simulates(self) -> bool {
        self != Workload::KernelDecode
    }
}

/// Failed and attempted output checks of one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// One measured value; units are fixed here and cross-checked against
/// `BENCHMARK.json` when the result is printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub digest: Fields,
    pub tracer: Tracer,
    pub wall_s: f64,
}

impl Rep {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The seed of one input stream of a workload, derived from `--seed`.
fn derive(seed: u64, stream: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(stream.as_bytes());
    // splitmix64 finalizer over the run seed mixed with the stream name.
    let mut z = seed ^ h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `full` scaled by `size` (1.0 = the benchmark of record), at least 1.
fn scaled(full: usize, size: f64) -> usize {
    ((full as f64 * size).round() as usize).max(1)
}

/// Timed context of one repetition: the tracer plus the set-up seconds.
struct Ctx {
    tracer: Tracer,
    setup_s: f64,
}

impl Ctx {
    /// Input synthesis or simulator construction: counted in `setup_s`.
    fn setup<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = self.tracer.span(layer, f);
        self.setup_s += start.elapsed().as_secs_f64();
        out
    }

    fn layer<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(layer, f)
    }
}

/// Runs one repetition of `workload` at `seed`. `size` scales the request,
/// session and step counts (1.0 is the benchmark of record; tests use 0.01).
pub fn run_rep(workload: Workload, seed: u64, size: f64, traced: bool) -> Rep {
    let mut ctx = Ctx {
        tracer: Tracer::new(traced),
        setup_s: 0.0,
    };
    let start = Instant::now();
    let work = match workload {
        Workload::Imdb300k => Work::Sim(imdb_300k(&mut ctx, seed, size)),
        Workload::PaperGrid => Work::Sim(paper_grid(&mut ctx, seed, size)),
        Workload::SessionsFaults => Work::Sim(sessions_faults(&mut ctx, seed, size)),
        Workload::KernelDecode => Work::Kernel(kernel_decode(&mut ctx, seed, size)),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    let mut rep = Rep {
        metrics: Vec::new(),
        checks: Checks::default(),
        digest: Fields::new(),
        tracer: ctx.tracer,
        wall_s,
    };
    let run_s = wall_s - ctx.setup_s;
    rep.put("wall_s", wall_s, "s");
    rep.put("setup_s", ctx.setup_s, "s");
    rep.put("peak_rss_mb", peak_rss_mb, "MiB");
    match work {
        Work::Sim(sim) => sim.finish(&mut rep, run_s, traced),
        Work::Kernel(kernel) => kernel.finish(&mut rep, run_s, traced),
    }
    if traced {
        let unattributed = (wall_s - rep.tracer.top_level_s()) / wall_s;
        rep.put("trace.unattributed_share", unattributed, "fraction");
        if workload.simulates() {
            // The layer spans of a simulator workload cover its whole work.
            rep.checks.check(unattributed.abs() <= 0.02, || {
                format!(
                    "top-level spans leave {:.2}% of the traced wall time unattributed",
                    100.0 * unattributed
                )
            });
        }
    }
    rep
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

enum Work {
    Sim(SimWork),
    Kernel(KernelWork),
}

// ---------------------------------------------------------------- simulators

/// One simulator of a workload, kept for the checks and the traced extras.
struct SimRun {
    label: String,
    sim: Simulator,
    requests: Arc<Vec<Request>>,
    result: SimulationResult,
}

/// One row of the paper grid: the measured load and the mean JCT of each
/// compared method (in [`Method::main_comparison`] order).
struct GridRow {
    experiment: JctExperiment,
    rps: f64,
    mean_jct: Vec<f64>,
}

struct SimWork {
    runs: Vec<SimRun>,
    grid: Vec<GridRow>,
}

/// Synthesizes the inputs, builds the simulator, runs it and post-processes
/// the result the way the figure binaries do.
fn simulate(
    ctx: &mut Ctx,
    label: String,
    inputs: impl FnOnce() -> (SimulationConfig, Vec<Request>),
) -> SimRun {
    let (config, requests) = ctx.setup("workload.trace_gen", inputs);
    let requests = Arc::new(requests);
    let sim = ctx
        .setup("cluster.try_new", || {
            Simulator::try_with_requests(config, requests.clone())
        })
        .unwrap_or_else(|e| panic!("{label}: benchmark configuration rejected: {e}"));
    let result = ctx.layer("cluster.run", || sim.run());
    ctx.layer("metrics.post", || {
        black_box((result.jct_stats(), result.average_ratios()));
    });
    SimRun {
        label,
        sim,
        requests,
        result,
    }
}

fn imdb_300k(ctx: &mut Ctx, seed: u64, size: f64) -> SimWork {
    let experiment = JctExperiment {
        num_requests: scaled(300_000, size),
        rps: Some(2.0),
        seed: derive(seed, "imdb-300k/trace"),
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Imdb)
    };
    let run = simulate(ctx, "imdb-300k".into(), || {
        let config = experiment.simulation_config(Method::hack());
        (config, TraceGenerator::new(config.trace).generate())
    });
    SimWork {
        runs: vec![run],
        grid: Vec::new(),
    }
}

/// The rows of Figs. 9–12: every dataset on Llama-3.1 70B/A10G, every model
/// on Cocktail (arXiv for Falcon-180B, whose context is 2K), every prefill
/// GPU on Llama-3.1 70B/Cocktail.
fn grid_rows() -> Vec<JctExperiment> {
    let datasets =
        Dataset::all().map(|d| JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, d));
    let models = ModelKind::all().map(|m| {
        let dataset = if m == ModelKind::Falcon180B {
            Dataset::Arxiv
        } else {
            Dataset::Cocktail
        };
        JctExperiment::new(m, GpuKind::A10G, dataset)
    });
    let gpus =
        GpuKind::all().map(|g| JctExperiment::new(ModelKind::Llama31_70B, g, Dataset::Cocktail));
    datasets.into_iter().chain(models).chain(gpus).collect()
}

fn grid_label(e: &JctExperiment) -> String {
    format!("{}/{:?}/{:?}", e.dataset.name(), e.model, e.prefill_gpu)
}

fn paper_grid(ctx: &mut Ctx, seed: u64, size: f64) -> SimWork {
    let trace_seed = derive(seed, "paper-grid/trace");
    let mut work = SimWork {
        runs: Vec::new(),
        grid: Vec::new(),
    };
    for (i, row) in grid_rows().into_iter().enumerate() {
        let experiment = JctExperiment {
            num_requests: scaled(2000, size),
            seed: trace_seed,
            ..row
        };
        let loaded = ctx.layer("core.bisection", || experiment.with_measured_load());
        let mut mean_jct = Vec::new();
        for method in Method::main_comparison() {
            let label = format!("rows[{i}].{}/{}", grid_label(&loaded), method.name());
            let run = simulate(ctx, label, || {
                let config = loaded.simulation_config(method);
                (config, TraceGenerator::new(config.trace).generate())
            });
            mean_jct.push(run.result.average_jct());
            work.runs.push(run);
        }
        work.grid.push(GridRow {
            experiment,
            rps: loaded.rps.expect("measured load sets the rate"),
            mean_jct,
        });
    }
    work
}

/// Chat and agentic sessions per stream, at full size.
const SESSIONS: usize = 15_000;
/// Session-root arrivals per second per stream. At this load the
/// autoscaled decode fleet runs memory-bound (a third to half of the
/// requests wait for decode memory) on every seed. How many wait still
/// follows the seed, and the host work with it (6–10% across ten seeds);
/// lighter (0.10) and heavier (0.20) loads swing twice as much.
const SESSION_RPS: f64 = 0.15;
/// Decode replicas the autoscaler may use: twice the paper fleet's, so it
/// has room to grow as well as shrink.
const DECODE_CAPACITY: usize = 8;

fn sessions_faults(ctx: &mut Ctx, seed: u64, size: f64) -> SimWork {
    let model = ModelKind::Llama31_70B;
    let max_context = model.spec().max_context;
    let sessions = scaled(SESSIONS, size);
    let spec = |tenant: u32, kind: SessionKind, stream: &str| SessionSpec {
        tenant: TenantId(tenant),
        kind,
        sessions,
        rps: SESSION_RPS,
        dataset: Dataset::Arxiv,
        max_context,
        seed: derive(seed, stream),
    };
    let trace = SessionTrace::new(vec![
        spec(
            0,
            SessionKind::Chat {
                turns: 4,
                think_mean_s: 30.0,
            },
            "sessions-faults/chat",
        ),
        spec(
            1,
            SessionKind::Agentic {
                tools: 3,
                tool_delay_s: 5.0,
            },
            "sessions-faults/agentic",
        ),
    ]);
    let mut cluster = ClusterConfig::paper_default(model, GpuKind::A10G);
    cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(2));
    cluster.set_decode_replicas(DECODE_CAPACITY);
    // Faults are drawn over the span of session-root arrivals: about 12
    // decode-replica and 2.5 prefill-replica outages, 6 ToR slowdowns and 2
    // spine outages, inside the plan's capacity of 32 (generation stops
    // there, dropping the kinds drawn last, the spines first).
    let horizon_s = sessions as f64 / SESSION_RPS;
    let availability = AvailabilityModel {
        decode_replica: Some(MtbfSpec::outage(horizon_s / 1.5, 600.0)),
        prefill_replica: Some(MtbfSpec::outage(2.0 * horizon_s, 600.0)),
        prefill_tor: Some(MtbfSpec::slowdown(horizon_s, 1800.0, 0.5)),
        decode_tor: Some(MtbfSpec::slowdown(horizon_s, 1800.0, 0.5)),
        spine: Some(MtbfSpec::outage(horizon_s, 900.0)),
        ..AvailabilityModel::default()
    };
    let fault_seed = derive(seed, "sessions-faults/faults");
    let sim_seed = derive(seed, "sessions-faults/sim");
    let run = simulate(ctx, "sessions-faults".into(), || {
        let requests = trace.generate();
        let config = SimulationConfig {
            cluster,
            trace: TraceConfig {
                dataset: Dataset::Arxiv,
                rps: 2.0 * SESSION_RPS,
                num_requests: requests.len(),
                max_context,
                seed: sim_seed,
            },
            profile: Method::hack().profile(),
            policy: PolicyConfig {
                tenants: TenantClasses::new(&[
                    TenantClass {
                        weight: 2.0,
                        slo_jct: 120.0,
                    },
                    TenantClass {
                        weight: 1.0,
                        slo_jct: 600.0,
                    },
                ]),
                dispatch: DispatchPolicyKind::SessionAffinity,
                admission: AdmissionPolicyKind::AdmitAll,
                scheduling: SchedulingPolicyKind::WeightedRoundRobin,
                retry: RetryPolicy::default(),
                scaling: ScalingPolicyKind::TargetUtilization {
                    setpoint: 0.7,
                    band: 0.15,
                },
            },
            faults: availability.generate_plan(&cluster.fleet_shape(), horizon_s, fault_seed),
            telemetry: TelemetryConfig::on(),
            cache: CacheConfig::on(),
        };
        (config, requests)
    });
    SimWork {
        runs: vec![run],
        grid: Vec::new(),
    }
}

/// Conservation, finite non-negative JCTs and session causality of one run.
fn check_run(checks: &mut Checks, run: &SimRun) {
    let r = &run.result;
    let offered = run.requests.len();
    let accounted = r.records.len() + r.rejected_requests + r.aborted_requests;
    checks.check(accounted == offered && r.abandoned_requests <= r.aborted_requests, || {
        format!(
            "{}: {} completed + {} rejected + {} aborted (of which {} abandoned) != {offered} offered",
            run.label,
            r.records.len(),
            r.rejected_requests,
            r.aborted_requests,
            r.abandoned_requests
        )
    });
    let bad_jct = r
        .records
        .iter()
        .find(|rec| !(rec.jct().is_finite() && rec.jct() >= 0.0));
    checks.check(bad_jct.is_none(), || {
        format!(
            "{}: request {} has JCT {}",
            run.label,
            bad_jct.map_or(0, |x| x.request.id),
            bad_jct.map_or(0.0, |x| x.jct())
        )
    });
    // A child starts (arrival + queueing) no earlier than its parent finishes.
    let mut finish = vec![f64::NAN; offered];
    for rec in &r.records {
        finish[rec.request.id as usize] = rec.finish_time;
    }
    let early = r.records.iter().find(|rec| {
        rec.request.parent.is_some_and(|p| {
            let parent_finish = finish[p as usize];
            let start = rec.request.arrival + rec.breakdown.queueing;
            // A parent that never completed (NaN) must not release a child.
            parent_finish.is_nan() || start < parent_finish - 1e-9 * parent_finish.abs().max(1.0)
        })
    });
    checks.check(early.is_none(), || {
        format!(
            "{}: session child {} started before its parent completed",
            run.label,
            early.map_or(0, |x| x.request.id)
        )
    });
}

impl SimWork {
    fn finish(mut self, rep: &mut Rep, run_s: f64, traced: bool) {
        let completed: usize = self.runs.iter().map(|r| r.result.records.len()).sum();
        let tokens: usize = self
            .runs
            .iter()
            .flat_map(|r| &r.result.records)
            .map(|rec| rec.request.output_len)
            .sum();
        rep.put("requests_per_s", completed as f64 / run_s, "req/s");
        rep.put("tokens_per_s", tokens as f64 / run_s, "tok/s");

        for run in &self.runs {
            check_run(&mut rep.checks, run);
        }
        for (i, row) in self.grid.iter().enumerate() {
            rep.checks.check(row.rps.is_finite() && row.rps > 0.0, || {
                format!(
                    "{}: measured load {} rps",
                    grid_label(&row.experiment),
                    row.rps
                )
            });
            rep.digest
                .push((format!("rows[{i}].rps"), row.rps.to_bits()));
        }
        let grid = !self.grid.is_empty();
        for run in &mut self.runs {
            if grid {
                // One digest per grid cell, named after its row and method.
                let mut cell = Fields::new();
                digest::result_fields("", &mut run.result, &mut cell);
                rep.digest
                    .push((run.label.clone(), digest::combined(&cell)));
            } else {
                digest::result_fields("", &mut run.result, &mut rep.digest);
            }
        }
        if traced {
            self.layers(rep);
        }
    }

    /// Per-layer metrics of a traced repetition.
    fn layers(&self, rep: &mut Rep) {
        let t = &rep.tracer;
        let (trace_gen, try_new, bisection, run, post) = (
            t.total_s("workload.trace_gen"),
            t.total_s("cluster.try_new"),
            t.total_s("core.bisection"),
            t.total_s("cluster.run"),
            t.total_s("metrics.post"),
        );
        let wall = rep.wall_s;
        rep.put("workload.trace_gen_s", trace_gen, "s");
        rep.put("cluster.try_new_s", try_new, "s");
        rep.put("core.bisection_s", bisection, "s");
        rep.put("cluster.run_s", run, "s");
        rep.put("cluster.run_share", run / wall, "fraction");
        rep.put("metrics.post_s", post, "s");

        let probes: u64 = self
            .grid
            .iter()
            .map(|row| bisection_probes(&row.experiment, row.rps))
            .sum();
        rep.put("core.bisection_probes", probes as f64, "count");

        // Engine events, from the structured log of a second, logged run.
        let mut delivered: BTreeMap<&'static str, u64> = PAYLOADS.iter().map(|p| (*p, 0)).collect();
        let mut events = 0u64;
        for r in &self.runs {
            let (_, log) = r.sim.run_traced(EngineMode::Slab);
            for rec in log.iter().filter(|rec| rec.kind == RecordKind::Delivered) {
                events += 1;
                let short = rec
                    .payload_type
                    .rsplit("::")
                    .next()
                    .unwrap_or(rec.payload_type);
                *delivered.entry(short).or_default() += 1;
            }
        }
        let requests: usize = self.runs.iter().map(|r| r.requests.len()).sum();
        rep.put("sim.events", events as f64, "count");
        rep.put(
            "sim.events_per_request",
            events as f64 / requests as f64,
            "event/req",
        );
        rep.put("sim.ns_per_event", 1e9 * run / events as f64, "ns");
        for payload in PAYLOADS {
            rep.put(
                format!("sim.delivered.{payload}"),
                delivered[payload] as f64,
                "count",
            );
        }

        // The cost tables each simulator builds lazily in its first run, and
        // a replay of the per-request decode lookups over its trace.
        let mut build_s = 0.0;
        let mut lookups = 0usize;
        let mut lookup_s = 0.0;
        for r in &self.runs {
            let config = r.sim.config();
            let (decode, prefill) = (
                config.cluster.decode_cost_model(0),
                config.cluster.prefill_cost_model(0),
            );
            let gbps = config
                .cluster
                .prefill_network_gbps()
                .min(config.cluster.decode_network_gbps());
            let max_kv = r
                .requests
                .iter()
                .map(Request::total_tokens)
                .max()
                .unwrap_or(1);
            let start = Instant::now();
            let table = DecodeCostTable::build(
                &decode,
                &config.profile,
                decode.params.decode_batch,
                max_kv.max(1024).next_power_of_two(),
            );
            black_box(PrefillCostTable::build(
                &prefill,
                &config.profile,
                gbps,
                r.requests.iter().map(|q| q.input_len),
            ));
            build_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            for q in r.requests.iter() {
                black_box(table.decode_durations(black_box(q.input_len), q.output_len));
            }
            lookup_s += start.elapsed().as_secs_f64();
            lookups += r.requests.len();
        }
        rep.put("model.cost_table_build_s", build_s, "s");
        rep.put(
            "model.decode_lookup_ns",
            1e9 * lookup_s / lookups as f64,
            "ns",
        );

        let (mut spans, mut samples) = (0usize, 0usize);
        for r in self
            .runs
            .iter()
            .filter(|r| r.sim.config().telemetry.is_on())
        {
            if let (_, Some(tel)) = r.sim.run_with_telemetry() {
                spans += tel.spans().len();
                samples += tel.series().iter().map(|s| s.points.len()).sum::<usize>();
            }
        }
        rep.put("telemetry.spans", spans as f64, "count");
        rep.put("telemetry.samples", samples as f64, "count");

        self.simulated(rep);
    }

    /// Simulated-time sensors, pooled over the workload's simulators.
    fn simulated(&self, rep: &mut Rep) {
        let results: Vec<&SimulationResult> = self.runs.iter().map(|r| &r.result).collect();
        let sum = |f: &dyn Fn(&SimulationResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>();
        let mean = |f: &dyn Fn(&SimulationResult) -> f64| sum(f) / results.len() as f64;
        let max =
            |f: &dyn Fn(&SimulationResult) -> f64| results.iter().map(|r| f(r)).fold(0.0, f64::max);

        let jcts: Vec<f64> = results
            .iter()
            .flat_map(|r| r.records.iter().map(|x| x.jct()))
            .collect();
        let mut stage = [0.0f64; 6];
        for rec in results.iter().flat_map(|r| &r.records) {
            let b = rec.breakdown;
            for (acc, v) in stage.iter_mut().zip([
                b.queueing,
                b.prefill,
                b.quantization,
                b.communication,
                b.dequant_or_approx,
                b.decode,
            ]) {
                *acc += v;
            }
        }
        let total: f64 = stage.iter().sum();
        for (name, v) in [
            "queueing",
            "prefill",
            "quantization",
            "communication",
            "dequant",
            "decode",
        ]
        .iter()
        .zip(stage)
        {
            rep.put(
                format!("stage.{name}_share"),
                if total > 0.0 { v / total } else { 0.0 },
                "fraction",
            );
        }
        let group_util = |groups: &[hack_cluster::GroupStats]| {
            groups.iter().map(|g| g.utilization).sum::<f64>() / groups.len().max(1) as f64
        };
        rep.put(
            "prefill.utilization",
            mean(&|r| group_util(&r.prefill_groups)),
            "fraction",
        );
        rep.put(
            "decode.utilization",
            mean(&|r| group_util(&r.decode_groups)),
            "fraction",
        );
        rep.put(
            "decode.peak_kv_fraction",
            max(&|r| r.peak_decode_memory_fraction),
            "fraction",
        );
        rep.put(
            "decode.swapped_requests",
            sum(&|r| r.swapped_requests as f64),
            "count",
        );
        rep.put(
            "fabric.transfer_retries",
            sum(&|r| r.transfer_retries as f64),
            "count",
        );
        rep.put(
            "fabric.rerouted_flows",
            sum(&|r| r.rerouted_flows as f64),
            "count",
        );
        rep.put(
            "fabric.degraded_link_s",
            sum(&|r| r.degraded_link_secs),
            "sim-s",
        );
        rep.put(
            "cluster.requeued",
            sum(&|r| r.requeued_requests as f64),
            "count",
        );
        rep.put(
            "cluster.aborted",
            sum(&|r| r.aborted_requests as f64),
            "count",
        );
        rep.put(
            "cluster.abandoned",
            sum(&|r| r.abandoned_requests as f64),
            "count",
        );
        rep.put(
            "kvcache.hit_ratio",
            mean(&|r| r.prefix_hit_rate),
            "fraction",
        );
        rep.put(
            "kvcache.evictions",
            sum(&|r| r.prefix_evictions as f64),
            "count",
        );
        rep.put("kvcache.bytes_saved", sum(&|r| r.prefix_bytes_saved), "B");
        rep.put(
            "kvcache.prefill_s_saved",
            sum(&|r| r.prefill_seconds_saved),
            "sim-s",
        );
        rep.put("scaling.scale_ups", sum(&|r| r.scale_ups as f64), "count");
        rep.put(
            "scaling.scale_downs",
            sum(&|r| r.scale_downs as f64),
            "count",
        );
        rep.put("scaling.gpu_dollars", sum(&|r| r.gpu_dollars), "USD");

        let mean_jct = jcts.iter().sum::<f64>() / jcts.len().max(1) as f64;
        rep.put("result.sim_mean_jct_s", mean_jct, "sim-s");
        rep.put(
            "result.sim_p99_jct_s",
            stats::nearest_rank(&jcts, 99.0).unwrap_or(0.0),
            "sim-s",
        );
        let reductions: Vec<f64> = self
            .grid
            .iter()
            .map(|row| 100.0 * (1.0 - row.mean_jct[3] / row.mean_jct[0]))
            .collect();
        let reduction = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
        rep.put("result.hack_jct_reduction_pct", reduction, "%");
    }
}

/// Every event payload of the cluster simulator.
const PAYLOADS: [&str; 15] = [
    "RequestArrived",
    "PrefillFinished",
    "TransferCompleted",
    "FlowCompleted",
    "TransferRetry",
    "DecodeFinished",
    "SampleTick",
    "ScaleTick",
    "ReplicaProvisioned",
    "ReplicaFailed",
    "ReplicaRecovered",
    "PrefillFailed",
    "PrefillRecovered",
    "FabricFault",
    "FabricRecovered",
];

/// Counts the simulator runs of [`JctExperiment::with_measured_load`]'s
/// capacity bisection by replaying the same accept/reject walk through the
/// public API (the library exposes no probe counter). Warns when the replay
/// no longer lands on the library's rate, i.e. when the count went stale.
fn bisection_probes(experiment: &JctExperiment, measured_rps: f64) -> u64 {
    let n = experiment.num_requests.clamp(20, 40);
    let probe = |rps: f64| JctExperiment {
        rps: Some(rps),
        num_requests: n,
        ..*experiment
    };
    let template = TraceTemplate::new(probe(1.0).simulation_config(Method::Baseline).trace);
    let mut probes = 0u64;
    let mut probe_jct = |rps: f64| {
        probes += 1;
        let config = probe(rps).simulation_config(Method::Baseline);
        Simulator::try_with_requests(config, Arc::new(template.instantiate(rps)))
            .expect("probe configuration is valid")
            .run()
            .average_jct()
    };
    let analytic = experiment.cluster_config().estimate_max_rps(
        &Method::Baseline.profile(),
        experiment.dataset.input_stats().avg,
        experiment.dataset.output_stats().avg,
    );
    let unloaded = probe_jct(analytic * 0.05);
    let mut stable = |rps: f64| probe_jct(rps) <= unloaded * JctExperiment::SATURATION_FACTOR;
    let mut lo = analytic * 0.05;
    let mut hi = analytic.max(lo * 2.0);
    let mut bracketed = !stable(hi);
    let mut growth = 0;
    while !bracketed && growth < 8 {
        lo = hi;
        hi *= 2.0;
        growth += 1;
        bracketed = !stable(hi);
    }
    if bracketed {
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if stable(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    if 0.9 * lo != measured_rps {
        eprintln!(
            "warning: core.bisection_probes is stale: the replayed bisection of {} lands on {} rps, the library on {measured_rps}",
            grid_label(experiment),
            0.9 * lo
        );
    }
    probes
}

// ------------------------------------------------------------------- kernels

/// Head dimension of the kernel workload.
const HEAD_DIM: usize = 128;
/// Sequences served, with prompt lengths evenly spaced over 512..=2048
/// tokens. The shapes are fixed; only the tensor contents follow the seed.
const SEQUENCES: usize = 8;
/// Decode steps per sequence.
const DECODE_STEPS: usize = 256;
/// Every this many decode steps, the output is checked against exact
/// attention.
const CHECK_EVERY: usize = 16;
/// Mean cosine similarity to exact attention a sequence must reach (the
/// bound of the repository's end-to-end kernel test).
const MIN_COSINE: f64 = 0.93;

fn prompt_len(j: usize, size: f64) -> usize {
    scaled(512 + (2048 - 512) * j / (SEQUENCES - 1), size)
}

/// Key/value/query rows with per-channel structure, as in the repository's
/// end-to-end kernel test.
fn structured(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = DetRng::new(seed);
    Matrix::from_fn(rows, cols, |t, c| {
        ((c % 8) as f32 - 3.5) * 0.3
            + 0.25 * rng.normal_f32(0.0, 1.0)
            + 0.05 * (t as f32 * 0.02).sin()
    })
}

/// One sequence: prompt and decode-step rows of Q, K and V.
struct SeqInput {
    prompt: [Matrix; 3],
    steps: [Matrix; 3],
}

struct SeqOutput {
    prefill: Matrix,
    state: HackKvState,
    outputs: Vec<Vec<f32>>,
    stats: Vec<hack_attention::DecodeStepStats>,
    /// Host microseconds per decode step (traced repetitions only).
    step_us: Vec<f64>,
}

struct KernelWork {
    cfg: HackConfig,
    seed: u64,
    inputs: Vec<SeqInput>,
    outputs: Vec<SeqOutput>,
    decode_s: f64,
}

fn kernel_decode(ctx: &mut Ctx, seed: u64, size: f64) -> KernelWork {
    let steps = scaled(DECODE_STEPS, size);
    let inputs: Vec<SeqInput> = ctx.setup("workload.trace_gen", || {
        (0..SEQUENCES)
            .map(|j| {
                let len = prompt_len(j, size);
                let [q, k, v] = [1u64, 2, 3].map(|m| {
                    structured(
                        len + steps,
                        HEAD_DIM,
                        derive(seed, &format!("kernel-decode/{j}/{m}")),
                    )
                });
                SeqInput {
                    prompt: [
                        q.row_block(0, len),
                        k.row_block(0, len),
                        v.row_block(0, len),
                    ],
                    steps: [
                        q.row_block(len, len + steps),
                        k.row_block(len, len + steps),
                        v.row_block(len, len + steps),
                    ],
                }
            })
            .collect()
    });
    let cfg = HackConfig::paper_default();
    let mut rng = DetRng::new(derive(seed, "kernel-decode/rounding"));
    let traced = ctx.tracer.enabled();
    let mut decode_s = 0.0;
    let mut outputs = Vec::with_capacity(SEQUENCES);
    for input in &inputs {
        let [q, k, v] = &input.prompt;
        let prefill = ctx.layer("attention.prefill", || {
            hack_prefill_attention(q, k, v, cfg, &mut rng)
        });
        let mut state = prefill.state;
        let mut decoded = Vec::with_capacity(steps);
        let mut stats = Vec::with_capacity(steps);
        let mut step_us = Vec::new();
        let [qs, ks, vs] = &input.steps;
        let start = Instant::now();
        let open = ctx.tracer.enter("attention.decode");
        for t in 0..steps {
            let (o, s) = if traced {
                // decode_step is exactly append_token then decode_attention;
                // split here so each gets its own span.
                let step = Instant::now();
                let append = ctx.layer("attention.append", || {
                    state.append_token(ks.row(t), vs.row(t), &mut rng)
                });
                let (o, mut s) = ctx.layer("attention.decode_attention", || {
                    state.decode_attention(qs.row(t), &mut rng)
                });
                s.requantized_elements = append.requantized_elements;
                step_us.push(step.elapsed().as_secs_f64() * 1e6);
                (o, s)
            } else {
                state.decode_step(qs.row(t), ks.row(t), vs.row(t), &mut rng)
            };
            decoded.push(o);
            stats.push(s);
        }
        ctx.tracer.exit(open);
        decode_s += start.elapsed().as_secs_f64();
        outputs.push(SeqOutput {
            prefill: prefill.output,
            state,
            outputs: decoded,
            stats,
            step_us,
        });
    }
    KernelWork {
        cfg,
        seed,
        inputs,
        outputs,
        decode_s,
    }
}

impl KernelWork {
    fn finish(self, rep: &mut Rep, run_s: f64, traced: bool) {
        let steps: usize = self.outputs.iter().map(|o| o.outputs.len()).sum();
        rep.put("requests_per_s", self.outputs.len() as f64 / run_s, "req/s");
        rep.put("tokens_per_s", steps as f64 / self.decode_s, "tok/s");

        let mut cosines = Vec::new();
        for (j, (input, out)) in self.inputs.iter().zip(&self.outputs).enumerate() {
            let len = input.prompt[0].rows();
            let k_all = input.prompt[1].vstack(&input.steps[1]);
            let v_all = input.prompt[2].vstack(&input.steps[2]);
            let mut cos_sum = 0.0;
            let mut checked = 0;
            for t in (0..out.outputs.len()).step_by(CHECK_EVERY) {
                let exact = baseline_attention(
                    &input.steps[0].row_block(t, t + 1),
                    &k_all.row_block(0, len + t + 1),
                    &v_all.row_block(0, len + t + 1),
                    AttentionMask::Causal,
                );
                cos_sum += f64::from(cosine_similarity(
                    &exact,
                    &Matrix::from_vec(1, HEAD_DIM, out.outputs[t].clone()),
                ));
                checked += 1;
            }
            let cosine = cos_sum / checked as f64;
            cosines.push(cosine);
            rep.checks.check(cosine >= MIN_COSINE, || {
                format!("sequence {j}: mean decode cosine {cosine:.4} < {MIN_COSINE}")
            });
            let requantized: usize = out.stats.iter().map(|s| s.requantized_elements).sum();
            rep.checks.check(requantized == 0, || {
                format!("sequence {j}: {requantized} elements requantized under RQE")
            });
            rep.checks
                .check(out.state.seq_len() == len + out.outputs.len(), || {
                    format!(
                        "sequence {j}: state holds {} tokens, expected {}",
                        out.state.seq_len(),
                        len + out.outputs.len()
                    )
                });

            let mut h = Fnv::default();
            h.f32s(out.prefill.as_slice());
            rep.digest
                .push((format!("seq[{j}].prefill_output"), h.finish()));
            let mut h = Fnv::default();
            out.outputs.iter().for_each(|o| h.f32s(o));
            rep.digest
                .push((format!("seq[{j}].decode_outputs"), h.finish()));
            rep.digest
                .push((format!("seq[{j}].kv_bytes"), out.state.kv_bytes() as u64));
        }
        if traced {
            rep.put(
                "result.attn_cosine",
                cosines.iter().sum::<f64>() / cosines.len() as f64,
                "cosine",
            );
            self.layers(rep);
        }
    }

    /// Per-layer metrics of a traced repetition.
    fn layers(&self, rep: &mut Rep) {
        let seqs = self.outputs.len() as f64;
        let steps: usize = self.outputs.iter().map(|o| o.outputs.len()).sum();
        let per_step = |total_s: f64| 1e6 * total_s / steps as f64;
        let t = &rep.tracer;
        let (input_gen, prefill, append, attention) = (
            t.total_s("workload.trace_gen"),
            t.total_s("attention.prefill"),
            t.total_s("attention.append"),
            t.total_s("attention.decode_attention"),
        );
        rep.put("workload.trace_gen_s", input_gen, "s");
        rep.put("attention.prefill_ms", 1e3 * prefill / seqs, "ms");
        rep.put("attention.append_us", per_step(append), "us");
        rep.put("attention.decode_attention_us", per_step(attention), "us");
        let step_us: Vec<f64> = self
            .outputs
            .iter()
            .flat_map(|o| o.step_us.iter().copied())
            .collect();
        rep.put(
            "attention.decode_step_us_p50",
            stats::nearest_rank(&step_us, 50.0).unwrap_or(0.0),
            "us",
        );
        rep.put(
            "attention.decode_step_us_p99",
            stats::nearest_rank(&step_us, 99.0).unwrap_or(0.0),
            "us",
        );

        let all_stats = self.outputs.iter().flat_map(|o| &o.stats);
        let (mut macs, mut approx, mut sums, mut requant) = (0usize, 0usize, 0usize, 0usize);
        for s in all_stats {
            macs += s.int_mac_ops;
            approx += s.approx_ops;
            sums += s.sum_recompute_ops;
            requant += s.requantized_elements;
        }
        rep.put("quant.int_mac_ops", macs as f64 / steps as f64, "ops/step");
        rep.put("quant.approx_ops", approx as f64 / steps as f64, "ops/step");
        rep.put(
            "quant.sum_recompute_ops",
            sums as f64 / steps as f64,
            "ops/step",
        );
        rep.put("attention.requantized_elements", requant as f64, "count");
        let kv: usize = self.outputs.iter().map(|o| o.state.kv_bytes()).sum();
        let fp16: usize = self.outputs.iter().map(|o| o.state.fp16_bytes()).sum();
        rep.put(
            "attention.kv_bytes_ratio",
            kv as f64 / fp16 as f64,
            "fraction",
        );

        // Comparators and sub-kernels, timed after the repetition at its
        // shapes: state construction and exact FP32 attention per prompt,
        // and decode attention's steps against each final state, once per
        // decode step the sequence ran.
        let mut rng = DetRng::new(derive(self.seed, "kernel-decode/sub-kernels"));
        let (mut from_prefill, mut fp32) = (0.0, 0.0);
        let mut sub = [0.0f64; 4]; // quantize, homomorphic matmul, softmax, tail matmul
        for (input, out) in self.inputs.iter().zip(&self.outputs) {
            let [q, k, v] = &input.prompt;
            let start = Instant::now();
            black_box(HackKvState::from_prefill(k, v, self.cfg, &mut rng));
            from_prefill += start.elapsed().as_secs_f64();
            let start = Instant::now();
            black_box(baseline_attention(q, k, v, AttentionMask::Causal));
            fp32 += start.elapsed().as_secs_f64();
            for t in 0..out.outputs.len() {
                self.decode_attention_parts(&out.state, input.steps[0].row(t), &mut rng, &mut sub);
            }
        }
        rep.put("attention.from_prefill_ms", 1e3 * from_prefill / seqs, "ms");
        rep.put("attention.fp32_prefill_ms", 1e3 * fp32 / seqs, "ms");
        rep.put("quant.quantize_us", per_step(sub[0]), "us");
        rep.put("quant.homomorphic_matmul_us", per_step(sub[1]), "us");
        rep.put("tensor.softmax_us", per_step(sub[2]), "us");
        rep.put("tensor.tail_matmul_us", per_step(sub[3]), "us");
    }

    /// The steps of [`HackKvState::decode_attention`], each timed into
    /// `acc` (quantize, homomorphic matmul, softmax, tail matmul).
    fn decode_attention_parts(
        &self,
        state: &HackKvState,
        q: &[f32],
        rng: &mut DetRng,
        acc: &mut [f64; 4],
    ) {
        let cfg = self.cfg;
        let pi = cfg.partition.get();
        let mut timed = |slot: usize, start: Instant| acc[slot] += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let q_q = QuantizedTensor::quantize_rows(
            &Matrix::from_vec(1, HEAD_DIM, q.to_vec()),
            cfg.q_bits,
            pi,
            cfg.rounding,
            rng,
        );
        timed(0, start);
        let start = Instant::now();
        let (scores, _) =
            homomorphic_matmul_counted(&q_q, state.k_quant(), cfg.summation_elimination);
        timed(1, start);
        let start = Instant::now();
        let scale = 1.0 / (HEAD_DIM as f32).sqrt();
        let mut p: Vec<f32> = scores.row(0).iter().map(|s| s * scale).collect();
        softmax_slice_inplace(&mut p);
        timed(2, start);
        let quantized = state.quantized_tokens();
        if quantized > 0 {
            let start = Instant::now();
            let p_q = QuantizedTensor::quantize_rows(
                &Matrix::from_vec(1, quantized, p[..quantized].to_vec()),
                cfg.p_bits,
                pi,
                cfg.rounding,
                rng,
            );
            timed(0, start);
            let start = Instant::now();
            black_box(homomorphic_matmul_counted(
                &p_q,
                state.v_quant(),
                cfg.summation_elimination,
            ));
            timed(1, start);
        }
        if state.tail_tokens() > 0 {
            let start = Instant::now();
            black_box(matmul(
                &Matrix::from_vec(1, state.tail_tokens(), p[quantized..].to_vec()),
                state.v_tail(),
            ));
            timed(3, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_derived_per_stream() {
        assert_eq!(derive(1, "a"), derive(1, "a"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        assert_ne!(derive(1, "a"), derive(1, "b"));
        assert_eq!(scaled(300_000, 0.01), 3000);
        assert_eq!(scaled(5, 0.01), 1);
    }

    #[test]
    fn the_grid_is_the_paper_matrix() {
        let rows = grid_rows();
        assert_eq!(rows.len(), 14);
        let falcon = rows
            .iter()
            .find(|e| e.model == ModelKind::Falcon180B)
            .unwrap();
        assert_eq!(falcon.dataset, Dataset::Arxiv);
        assert_eq!(
            (prompt_len(0, 1.0), prompt_len(SEQUENCES - 1, 1.0)),
            (512, 2048)
        );
    }
}
