//! Integration: exact drift anchors for the deterministic scenario grids and
//! the paper's figures.
//!
//! Four small scenario configurations — the fault storm (flat and link-graph
//! rows), the MTBF/MTTR availability sweep, the autoscale cost-vs-SLO sweep
//! and the session prefix-cache grid — are pure functions of their seeds, so
//! every value below is reproduced bit-for-bit on any host. The same holds
//! for the layer anchors further down (the paper default, each opt-in layer
//! alone on it, and every layer at once), for what the telemetry records of
//! the telemetry-on runs and of two fault runs, and for every figure and
//! table of the paper at 20 requests per row. A mismatch is a semantic
//! change to the simulator (a different controller decision, fault window,
//! cache lookup or dispatch), never noise: fix the cause, or update the
//! value in the same change that explains why it moved.

use hack_core::figures::FigureFn;
use hack_core::prelude::*;

/// The fault storm at 25 requests: the flat/no-fault row's average JCT.
#[test]
fn fault_storm_flat_row_is_pinned() {
    let storm = FaultStormExperiment {
        num_requests: 25,
        ..FaultStormExperiment::paper_storm()
    };
    let (label, flat) = &storm.cells(Method::hack())[0];
    assert_eq!(label, "flat/no-fault");
    assert_eq!(flat.run().average_jct(), 6.167930048929858);
}

/// The fault storm's link-graph rows, loaded until transfers share links: 60
/// requests at 8 rps with one transient fault from 3.75 s to 8.75 s. These
/// rows run the fabric's re-split on overlapping flows, so they pin the
/// completion order of contended `FlowCompleted` events. The spine row runs
/// on a 2-spine fabric, so its fault ECMP-reroutes a live flow instead of
/// aborting it.
#[test]
fn fault_storm_graph_rows_are_pinned() {
    let storm = FaultStormExperiment {
        num_requests: 60,
        rps: 8.0,
        fault_at: 3.75,
        recover_at: 8.75,
        ..FaultStormExperiment::paper_storm()
    };
    let rows = ["graph/no-fault", "graph/tor", "graph/spine"];
    let got: Vec<(String, f64, usize, usize)> = storm
        .cells(Method::hack())
        .into_iter()
        .filter(|(label, _)| rows.contains(&label.as_str()))
        .map(|(label, sim)| {
            let mut config = *sim.config();
            if label == "graph/spine" {
                config.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(2));
            }
            let result = Simulator::new(config).run();
            (
                label,
                result.average_jct(),
                result.transfer_retries,
                result.rerouted_flows,
            )
        })
        .collect();
    assert!(got[2].3 >= 1, "the spine fault reroutes a live flow");
    let want = [
        ("graph/no-fault", 27.21442300325993, 0, 0),
        ("graph/tor", 27.232214724652057, 1, 0),
        ("graph/spine", 27.21442300325993, 0, 1),
    ]
    .map(|(label, jct, retries, rerouted)| (label.to_string(), jct, retries, rerouted));
    assert_eq!(got, want);
}

/// The availability grid at 15 requests over two fault seeds: availability
/// and p99 JCT per MTBF.
#[test]
fn availability_grid_is_pinned() {
    let mut sweep = AvailabilityExperiment::paper_sweep();
    sweep.num_requests = 15;
    sweep.fault_seeds.truncate(2);
    let got: Vec<(f64, f64, f64)> = sweep
        .sweep(Method::hack())
        .iter()
        .map(|p| (p.mtbf_s, p.availability, p.p99_jct_s))
        .collect();
    assert_eq!(
        got,
        [
            (40.0, 1.0, 14.26521184212854),
            (120.0, 1.0, 13.118612673171716),
            (900.0, 1.0, 13.118612673171716),
        ]
    );
}

/// The autoscale sweep at 20 requests: GPU dollars and SLO attainment per
/// (trace shape, scaling policy) cell.
#[test]
fn autoscale_grid_is_pinned() {
    let sweep = AutoscaleExperiment {
        num_requests: 20,
        ..AutoscaleExperiment::paper_sweep()
    };
    let got: Vec<(String, f64, f64)> = run_cells(sweep.cells(Method::hack()))
        .map(|(cell, r)| (cell, r.gpu_dollars, sweep.slo_attainment(&r)))
        .collect();
    let want = [
        ("diurnal/off", 0.9739241567866886, 1.0),
        ("diurnal/threshold", 0.6911468325158445, 1.0),
        ("diurnal/target-util", 0.6911468325158445, 1.0),
        ("diurnal/predictive", 0.8793713248746855, 1.0),
        ("bursty/off", 0.7705119546116241, 1.0),
        ("bursty/threshold", 0.5774918455866702, 1.0),
        ("bursty/target-util", 0.5774918455866702, 1.0),
        ("bursty/predictive", 0.7705119546116241, 1.0),
    ]
    .map(|(cell, dollars, slo)| (cell.to_string(), dollars, slo));
    assert_eq!(got, want);
}

/// The session-cache grid at 3 sessions per mix: hit rate and mean JCT per
/// (mix, cache, dispatch) cell.
#[test]
fn session_cache_grid_is_pinned() {
    let sessions = SessionCacheExperiment {
        sessions: 3,
        ..SessionCacheExperiment::paper_default()
    };
    let got: Vec<(String, f64, f64)> = run_cells(sessions.cells(Method::hack()))
        .map(|(cell, r)| (cell, r.prefix_hit_rate, r.average_jct()))
        .collect();
    let want = [
        ("chat/off/least-loaded", 0.0, 23.6308262051791),
        ("chat/on/least-loaded", 1.0, 8.659223025151766),
        ("chat/on/session-affinity", 1.0, 8.659223025151766),
        ("agentic/off/least-loaded", 0.0, 25.858384636732627),
        ("agentic/on/least-loaded", 1.0, 11.557999602030815),
        ("agentic/on/session-affinity", 1.0, 11.557999602030815),
        ("mixed/off/least-loaded", 0.0, 25.568421646048883),
        ("mixed/on/least-loaded", 1.0, 10.269654456751242),
        ("mixed/on/session-affinity", 1.0, 10.269654456751242),
    ]
    .map(|(cell, hit_rate, jct)| (cell.to_string(), hit_rate, jct));
    assert_eq!(got, want);
}

/// What a layer anchor pins of one traced run: completed requests, mean JCT
/// and makespan (exact), emitted and delivered event counts, and FNV-1a
/// digests of the whole result (its `Debug` rendering, which prints every
/// float exactly) and of the whole event log (id, time bits, source,
/// destination, payload type and kind of every record).
#[derive(Debug, PartialEq)]
struct LayerAnchor {
    completed: usize,
    mean_jct: f64,
    makespan: f64,
    emitted: usize,
    delivered: usize,
    result_digest: u64,
    log_digest: u64,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut hash: u64) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn anchor(simulator: Simulator) -> LayerAnchor {
    traced(simulator).1
}

/// Runs `simulator` with the event log on; returns its result and anchor.
fn traced(simulator: Simulator) -> (SimulationResult, LayerAnchor) {
    use hack_sim::{EngineMode, RecordKind};
    let (result, log) = simulator.run_traced(EngineMode::Slab);
    let delivered = log
        .iter()
        .filter(|r| r.kind == RecordKind::Delivered)
        .count();
    let log_digest = log.iter().fold(FNV_OFFSET, |h, r| {
        let h = fnv1a(r.id.to_le_bytes(), h);
        let h = fnv1a(r.time.to_bits().to_le_bytes(), h);
        let h = fnv1a((r.src as u64).to_le_bytes(), h);
        let h = fnv1a((r.dst as u64).to_le_bytes(), h);
        let h = fnv1a(r.payload_type.bytes(), h);
        fnv1a([u8::from(r.kind == RecordKind::Delivered)], h)
    });
    let anchor = LayerAnchor {
        completed: result.records.len(),
        mean_jct: result.average_jct(),
        makespan: result.makespan,
        emitted: log.len() - delivered,
        delivered,
        result_digest: fnv1a(format!("{result:?}").bytes(), FNV_OFFSET),
        log_digest,
    };
    (result, anchor)
}

/// Requests per layer anchor: more root arrivals than one block of the
/// engine's streamed arrivals, so every anchor crosses block refills.
const LAYER_REQUESTS: usize = 600;

/// The paper-default configuration (Llama-3.1 70B on A10G prefill, IMDb at
/// 90% of the analytic capacity, HACK, every opt-in layer off), the base every layer anchor below
/// changes in one place.
fn paper_default() -> SimulationConfig {
    JctExperiment {
        num_requests: LAYER_REQUESTS,
        seed: 5,
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Imdb)
    }
    .simulation_config(Method::hack())
}

#[test]
fn paper_default_run_is_pinned() {
    assert_eq!(
        anchor(Simulator::new(paper_default())),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.513407604751307,
            makespan: 24.520654862361347,
            emitted: 2400,
            delivered: 2400,
            result_digest: 15932250528993969142,
            log_digest: 4118371821930231295,
        }
    );
}

/// Two tenants (weights 2:1) merged into one trace, served under weighted
/// round-robin scheduling.
#[test]
fn tenants_under_wrr_are_pinned() {
    let mut cfg = paper_default();
    let stream = |tenant: u32, seed: u64| TenantSpec {
        tenant: TenantId(tenant),
        trace: TraceConfig {
            rps: 1.0,
            num_requests: LAYER_REQUESTS / 2,
            seed,
            ..cfg.trace
        },
    };
    let requests = MultiTenantTrace::new(vec![stream(0, 21), stream(1, 22)]).generate();
    cfg.policy.tenants = TenantClasses::new(&[
        TenantClass {
            weight: 2.0,
            slo_jct: 120.0,
        },
        TenantClass {
            weight: 1.0,
            slo_jct: 600.0,
        },
    ]);
    cfg.policy.scheduling = SchedulingPolicyKind::WeightedRoundRobin;
    cfg.trace.num_requests = requests.len();
    assert_eq!(
        anchor(Simulator::with_requests(cfg, std::sync::Arc::new(requests))),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.42578954019829546,
            makespan: 342.36391215220266,
            emitted: 2400,
            delivered: 2400,
            result_digest: 4624367761429265474,
            log_digest: 14693846121938995055,
        }
    );
}

/// Telemetry on: the sampler's perpetual tick rides beside the arrivals.
/// Pins what the telemetry records too ([`telemetry_digest`]).
#[test]
fn telemetry_run_is_pinned() {
    let sim = telemetry_run();
    assert_eq!(
        telemetry_digest(&telemetry_of(&sim).1),
        TELEMETRY_RUN_DIGEST
    );
    assert_eq!(
        anchor(sim),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.513407604751307,
            makespan: 24.520654862361347,
            emitted: 2404,
            delivered: 2403,
            result_digest: 15932250528993969142,
            log_digest: 12579500285893547490,
        }
    );
}

fn telemetry_run() -> Simulator {
    let mut cfg = paper_default();
    cfg.telemetry = TelemetryConfig::on();
    Simulator::new(cfg)
}

#[test]
fn pipelined_run_is_pinned() {
    let mut cfg = paper_default();
    cfg.cluster.pipelining = true;
    assert_eq!(
        anchor(Simulator::new(cfg)),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.5096711254624187,
            makespan: 24.515720889028014,
            emitted: 2400,
            delivered: 2400,
            result_digest: 15748524079648470108,
            log_digest: 10073004864351890299,
        }
    );
}

/// The prefix cache on a chat-session trace: follow-up turns are released
/// by their parents' completions, so only session roots are seeded.
#[test]
fn prefix_cache_run_is_pinned() {
    let mut cfg = paper_default();
    let requests = SessionTrace::new(vec![SessionSpec {
        tenant: TenantId(0),
        kind: SessionKind::Chat {
            turns: 2,
            think_mean_s: 30.0,
        },
        sessions: LAYER_REQUESTS / 2,
        rps: 1.0,
        dataset: Dataset::Imdb,
        max_context: cfg.trace.max_context,
        seed: 23,
    }])
    .generate();
    cfg.cache = CacheConfig::on();
    cfg.trace.num_requests = requests.len();
    assert_eq!(
        anchor(Simulator::with_requests(cfg, std::sync::Arc::new(requests))),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.3461046002380818,
            makespan: 435.739924858821,
            emitted: 2400,
            delivered: 2400,
            result_digest: 3447478534065364951,
            log_digest: 10077721773699933029,
        }
    );
}

/// Target-utilization autoscaling over a decode fleet of capacity 8: the
/// controller's perpetual tick and its provisioning landings ride beside
/// the arrivals.
#[test]
fn autoscaled_run_is_pinned() {
    let mut cfg = paper_default();
    cfg.cluster.set_decode_replicas(8);
    cfg.policy.scaling = ScalingPolicyKind::TargetUtilization {
        setpoint: 0.7,
        band: 0.15,
    };
    assert_eq!(
        anchor(Simulator::new(cfg)),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.513407604751307,
            makespan: 24.520654862361347,
            emitted: 2404,
            delivered: 2403,
            result_digest: 2244766728605975933,
            log_digest: 4522126028845853138,
        }
    );
}

#[test]
fn link_graph_run_is_pinned() {
    let mut cfg = paper_default();
    cfg.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
    assert_eq!(
        anchor(Simulator::new(cfg)),
        LayerAnchor {
            completed: 600,
            mean_jct: 0.513410353282405,
            makespan: 24.520654862361347,
            emitted: 2439,
            delivered: 2400,
            result_digest: 2315441879304777254,
            log_digest: 6862507861204916885,
        }
    );
}

/// FNV-1a digest of what a grid computes: its columns, then every row's
/// label and value bits (title and unit are presentation, left out).
fn grid_digest(table: &ExperimentTable) -> u64 {
    let text = |s: &str, h| fnv1a(s.bytes().chain([0]), h);
    let h = table.columns.iter().fold(FNV_OFFSET, |h, c| text(c, h));
    table.rows.iter().fold(h, |h, row| {
        let h = text(&row.label, h);
        row.values
            .iter()
            .fold(h, |h, v| fnv1a(v.to_bits().to_le_bytes(), h))
    })
}

/// Every scenario grid at a small size: the digest of its columns, row
/// labels and values, so any change to what a sweep runs or reads shows.
#[test]
fn scenario_grids_are_pinned() {
    let storm = FaultStormExperiment {
        num_requests: 25,
        ..FaultStormExperiment::paper_storm()
    };
    let mut availability = AvailabilityExperiment::paper_sweep();
    availability.num_requests = 15;
    availability.fault_seeds.truncate(2);
    let autoscale = AutoscaleExperiment {
        num_requests: 20,
        ..AutoscaleExperiment::paper_sweep()
    };
    let fleet = HeteroFleetExperiment {
        num_requests: 30,
        ..HeteroFleetExperiment::paper_mixed()
    };
    let sessions = SessionCacheExperiment {
        sessions: 3,
        ..SessionCacheExperiment::paper_default()
    };
    let mut tenants = TenantMixExperiment::interactive_vs_batch();
    tenants.tenants[0].num_requests = 10;
    tenants.tenants[1].num_requests = 40;
    let method = Method::hack();
    let got = [
        storm.grid(method),
        availability.grid(method),
        autoscale.grid(method),
        fleet.grid(method),
        sessions.grid(method),
        tenants.grid(method),
    ]
    .map(|t| (t.id.clone(), grid_digest(&t)));
    let want = [
        ("fault_storm", 3696139578133899432),
        ("availability", 4197176968135027675),
        ("autoscale", 7109779962687480865),
        ("hetero_fleet", 12503088689725177395),
        ("session_cache", 14484053637215890723),
        ("tenant_mix", 14651316110282332173),
    ]
    .map(|(id, digest)| (id.to_string(), digest));
    assert_eq!(got, want);
}

/// The digest of every table the `figures` compute at `n` requests per row.
fn figure_digests(figures: &[FigureFn], n: usize) -> Vec<(String, u64)> {
    figures
        .iter()
        .flat_map(|figure| figure(n))
        .map(|t| (t.id.clone(), grid_digest(&t)))
        .collect()
}

/// The twelve simulated figures and tables at 20 requests per row: the
/// digest of each table's columns, row labels and values, so any change to
/// what a figure runs, measures or reads shows. The values were recorded
/// from the per-figure harness binaries these functions replaced.
#[test]
fn simulated_figures_are_pinned() {
    use hack_core::figures::*;
    let figures: [FigureFn; 12] = [
        fig1, fig2, fig3, fig4, fp_lowprec, fig9, fig10, fig11, fig12, fig13, fig14, table5,
    ];
    let want = [
        ("fig1a", 15075372796607091892),
        ("fig1b", 14136449371079939871),
        ("fig1c", 3231966088883255230),
        ("fig1d", 3726469639540041248),
        ("fig2_cachegen", 3318916530076197695),
        ("fig2_kvquant", 2502769551686031509),
        ("fig3_cachegen", 6208773922894824394),
        ("fig3_kvquant", 6669977778775771752),
        ("fig4_cachegen", 12440661859562056965),
        ("fig4_kvquant", 15446849288443126339),
        ("fp_lowprec_comm", 16889516757133475116),
        ("fp_lowprec_memory", 16984037598859735672),
        ("fig9", 18054058731760975981),
        ("fig9_reductions", 7206090336410732572),
        ("fig10_imdb", 1130099149313882018),
        ("fig10_arxiv", 15538768463981054038),
        ("fig10_cocktail", 14289982048843100597),
        ("fig10_humaneval", 1311931305093146950),
        ("fig11", 10921270718502875542),
        ("fig12", 12918805495937682247),
        ("fig12_reductions", 12663242191895669777),
        ("fig13", 16332528642773705372),
        ("fig13_overhead", 9027986802916804585),
        ("fig14", 767470619205946403),
        ("table5_simulated", 544513757287194851),
        ("table5", 8041711320704596717),
        ("table5_overheads", 8672348100678491833),
    ]
    .map(|(id, digest)| (id.to_string(), digest));
    assert_eq!(figure_digests(&figures, 20), want);
}

/// Tables 6–8, which measure numerical fidelity on the kernels and the
/// reference transformer (Table 8 also simulates, at 20 requests per row).
/// Pinned like the simulated figures. Unoptimised, the fidelity trials take
/// minutes, so this runs in release builds only (CI's drift-anchor step).
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimised; run with --release")]
fn fidelity_tables_are_pinned() {
    use hack_core::figures::*;
    let want = [
        ("table6_fidelity", 13307526244042401230),
        ("table6", 3352549912321912483),
        ("table7", 6548317413104160458),
        ("table8_accuracy", 15364608614734603657),
        ("table8_jct", 3437785127022810126),
    ]
    .map(|(id, digest)| (id.to_string(), digest));
    assert_eq!(figure_digests(&[table6, table7, table8], 20), want);
}

/// Every opt-in layer in one run, as the `sessions-faults` benchmark runs
/// them: chat and agentic sessions under the prefix cache and
/// session-affinity dispatch, two tenants under WRR scheduling,
/// target-utilization autoscaling over a decode fleet of capacity 8, a
/// 2-spine link graph with one spine outage and one decode-ToR degradation,
/// and telemetry.
fn all_layers_run() -> Simulator {
    let mut cfg = paper_default();
    let max_context = cfg.trace.max_context;
    let spec = |tenant: u32, kind: SessionKind, seed: u64| SessionSpec {
        tenant: TenantId(tenant),
        kind,
        sessions: LAYER_REQUESTS / 8,
        rps: 1.0,
        dataset: Dataset::Arxiv,
        max_context,
        seed,
    };
    let chat = SessionKind::Chat {
        turns: 4,
        think_mean_s: 30.0,
    };
    let agentic = SessionKind::Agentic {
        tools: 3,
        tool_delay_s: 5.0,
    };
    let requests = SessionTrace::new(vec![spec(0, chat, 31), spec(1, agentic, 32)]).generate();
    cfg.trace.num_requests = requests.len();
    cfg.policy.tenants = TenantClasses::new(&[
        TenantClass {
            weight: 2.0,
            slo_jct: 120.0,
        },
        TenantClass {
            weight: 1.0,
            slo_jct: 600.0,
        },
    ]);
    cfg.policy.scheduling = SchedulingPolicyKind::WeightedRoundRobin;
    cfg.policy.dispatch = DispatchPolicyKind::SessionAffinity;
    cfg.policy.scaling = ScalingPolicyKind::TargetUtilization {
        setpoint: 0.7,
        band: 0.15,
    };
    cfg.cluster.set_decode_replicas(8);
    cfg.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(2));
    cfg.faults = FaultPlan::new(&[
        FaultEvent::transient(FaultDomain::Spine(0), 34.25, 94.25),
        FaultEvent::degraded(FaultDomain::DecodeTor(0), 30.0, 150.0, 0.5),
    ]);
    cfg.telemetry = TelemetryConfig::on();
    cfg.cache = CacheConfig::on();
    Simulator::with_requests(cfg, std::sync::Arc::new(requests))
}

/// Each layer above is pinned alone; this pins how they meet, including
/// spine reroutes of live flows and the fabric's cancelled completions, and
/// what the telemetry records of it.
#[test]
fn all_layers_run_is_pinned() {
    let sim = all_layers_run();
    assert_eq!(telemetry_digest(&telemetry_of(&sim).1), ALL_LAYERS_DIGEST);
    let (result, got) = traced(sim);
    assert_eq!(
        result.rerouted_flows, 2,
        "the spine outage reroutes live flows"
    );
    assert!(
        got.emitted > got.delivered,
        "the fabric cancels completions"
    );
    assert_eq!(
        got,
        LayerAnchor {
            completed: 675,
            mean_jct: 78.77032371513198,
            makespan: 363.022499169336,
            emitted: 2888,
            delivered: 2782,
            result_digest: 17756975044852337078,
            log_digest: 13854811821671555058,
        }
    );
}

/// Every counter the cluster records into its telemetry.
const COUNTERS: [&str; 14] = [
    "completed",
    "rejected",
    "abandoned",
    "requeued",
    "aborted_decodes",
    "transfer_aborts",
    "transfer_retries",
    "flow_reroutes",
    "prefix_hit",
    "prefix_miss",
    "prefix_evicted",
    "scale_ups",
    "scale_downs",
    "sampler_ticks",
];

/// FNV-1a digest of what a run's telemetry records: its Chrome trace (every
/// track, span, instant and sample), its time-series CSV, every counter and
/// the JCT histogram.
fn telemetry_digest(tel: &Telemetry) -> u64 {
    let h = fnv1a(tel.chrome_trace_json().bytes(), FNV_OFFSET);
    let h = fnv1a(tel.timeseries_csv().bytes(), h);
    let h = COUNTERS
        .iter()
        .fold(h, |h, name| fnv1a(tel.counter(name).to_le_bytes(), h));
    fnv1a(format!("{:?}", tel.histogram("jct_seconds")).bytes(), h)
}

/// Runs `sim` with its telemetry.
fn telemetry_of(sim: &Simulator) -> (SimulationResult, Telemetry) {
    let (result, telemetry) = sim.run_with_telemetry();
    (result, telemetry.expect("the run has telemetry on"))
}

const TELEMETRY_RUN_DIGEST: u64 = 11162595295420381293;
const ALL_LAYERS_DIGEST: u64 = 6022444549610246856;

/// The request paths of the flat fabric: pipelined transfers under
/// token-bucket admission (which rejects), and one decode-replica and one
/// prefill-replica failure (aborted decodes, re-admissions, and transfers
/// that land on the failed replica and re-queue). An activation reserve of
/// 70% leaves no KV budget at all, so every request is admitted to an idle
/// decode replica and waits for memory while none is idle.
fn flat_fault_run() -> Simulator {
    let mut cfg = paper_default();
    cfg.cluster.pipelining = true;
    cfg.cluster.activation_reserve = 0.7;
    cfg.policy.admission = AdmissionPolicyKind::TokenBucket {
        rate_per_weight: 20.0,
        burst: 4.0,
    };
    cfg.faults = FaultPlan::new(&[
        FaultEvent::transient(FaultDomain::DecodeReplica(0), 6.0, 12.0),
        FaultEvent::transient(FaultDomain::PrefillReplica(0), 8.0, 14.0),
    ]);
    cfg.telemetry = TelemetryConfig::on();
    Simulator::new(cfg)
}

/// The request paths of the link graph: an Arxiv burst whose flows a
/// prefill-ToR cut aborts in flight, under a retry policy of one transfer
/// attempt and no re-admission, so a retry finds the path still dead and
/// its request is abandoned. With `pipelining`, flows race their prefills
/// and land early instead.
fn link_graph_fault_run(pipelining: bool) -> Simulator {
    let mut cfg = paper_default();
    cfg.trace = TraceConfig {
        dataset: Dataset::Arxiv,
        rps: 8.0,
        num_requests: 60,
        seed: 11,
        ..cfg.trace
    };
    cfg.cluster.pipelining = pipelining;
    cfg.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
    cfg.policy.retry = RetryPolicy {
        max_transfer_attempts: 1,
        max_readmissions: 0,
        ..RetryPolicy::default()
    };
    cfg.faults = FaultPlan::new(&[FaultEvent::transient(
        FaultDomain::PrefillTor(0),
        3.75,
        8.75,
    )]);
    cfg.telemetry = TelemetryConfig::on();
    Simulator::new(cfg)
}

#[test]
fn flat_fault_telemetry_is_pinned() {
    let (result, tel) = telemetry_of(&flat_fault_run());
    let got = (
        result.records.len(),
        result.rejected_requests,
        result.requeued_requests,
        result.swapped_requests,
        telemetry_digest(&tel),
    );
    assert_eq!(got, (457, 143, 6, 101, 3032868284818327737));
}

#[test]
fn link_graph_fault_telemetry_is_pinned() {
    let got = [false, true].map(|pipelining| {
        let (result, tel) = telemetry_of(&link_graph_fault_run(pipelining));
        (
            result.records.len(),
            result.abandoned_requests,
            result.transfer_retries,
            telemetry_digest(&tel),
        )
    });
    assert_eq!(
        got,
        [
            (59, 1, 1, 14599797976435729427),
            (60, 0, 1, 5998751636471316802)
        ]
    );
}

/// The flat and link-graph fault runs together draw every request span and
/// instant the cluster records, so their pins cover every path a request's
/// timeline is drawn from.
#[test]
fn fault_runs_emit_every_request_span_and_instant() {
    let mut names: Vec<&str> = Vec::new();
    for sim in [flat_fault_run(), link_graph_fault_run(false)] {
        let (_, tel) = telemetry_of(&sim);
        names.extend(tel.spans().iter().map(|s| s.name));
        names.extend(tel.instants().iter().map(|i| i.name));
    }
    let spans = [
        "queue_wait",
        "prefill_exec",
        "quantize",
        "nic_wait",
        "kv_transfer",
        "kv_flow",
        "kv_flow_aborted",
        "memory_wait",
        "decode_exec",
        "decode_aborted",
    ];
    let instants = [
        "arrived",
        "rejected",
        "transfer_retry",
        "requeued",
        "abandoned",
        "completed",
    ];
    for name in spans.iter().chain(&instants) {
        let count = names.iter().filter(|n| *n == name).count();
        assert!(count > 0, "no `{name}` in the fault runs");
    }
}

/// Every telemetry counter that a result also counts agrees with it, on
/// each telemetry run pinned above. An aborted decode re-queues its request
/// without a `requeued` instant, so the result's re-queues are the two
/// counters' sum.
#[test]
fn telemetry_counters_equal_the_result_counters() {
    let runs = [
        telemetry_run(),
        all_layers_run(),
        flat_fault_run(),
        link_graph_fault_run(false),
        link_graph_fault_run(true),
    ];
    for sim in runs {
        let (r, tel) = telemetry_of(&sim);
        let counter = |name| tel.counter(name) as usize;
        let got = [
            counter("completed"),
            counter("rejected"),
            counter("abandoned"),
            counter("requeued") + counter("aborted_decodes"),
            counter("transfer_retries"),
            counter("flow_reroutes"),
            counter("prefix_hit"),
            counter("prefix_miss"),
            counter("prefix_evicted"),
            counter("scale_ups"),
            counter("scale_downs"),
        ];
        let want = [
            r.records.len(),
            r.rejected_requests,
            r.abandoned_requests,
            r.requeued_requests,
            r.transfer_retries,
            r.rerouted_flows,
            r.prefix_hits,
            r.prefix_misses,
            r.prefix_evictions,
            r.scale_ups,
            r.scale_downs,
        ];
        assert_eq!(got, want, "telemetry counters vs the result's");
    }
}
