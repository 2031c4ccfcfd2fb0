//! The cluster simulator: components assembled on the [`hack_sim`] engine.
//!
//! Every run takes three steps:
//!
//! * **build** creates a [`hack_sim::Simulation`] with one context per
//!   component (driver, frontend, network fabric, prefill and decode
//!   replicas, then the telemetry sampler and the scaling controller when
//!   configured), seeds the request trace's arrivals and the expanded fault
//!   plan, and hands every handler the one cluster blackboard (the crate's
//!   `components` module) it reads and writes;
//! * **drive** steps the engine until every request is resolved, or only
//!   the control plane's own ticks are left, and returns the makespan; it
//!   tells control traffic from request traffic by each event's destination;
//! * **assemble** reads the [`SimulationResult`] off the blackboard.
//!
//! The fleet is a [`crate::fleet::FleetSpec`]: replicas are instantiated
//! group-major (group 0's replicas first), each carrying its group's cost
//! model and memory budget. [`Simulator::new`] materialises the run's *cost
//! layer* once: the trace itself, one decode-side prefix-sum table per decode
//! group ([`hack_model::cost_table::DecodeCostTable`], shared process-wide
//! across simulators with the same parameterisation) and one prefill-side
//! per-prompt-length memo per (prefill group × decode group) pair, so every
//! per-request cost during the event loop is O(1). The per-token summation
//! loops and direct formulas of [`hack_model::ReplicaCostModel`] those tables
//! reproduce are the test oracle (`cost_layer_*` below).
//!
//! Each run keeps two per-request tables on the cluster blackboard (see the
//! `components` module): 80 B of charges per request, which the records are
//! built from, and 80 B of lifecycle state per request — its pipeline phase
//! and in-flight bookkeeping — which only the handlers and the end-of-run
//! scans (group summaries, the retry histogram and the record order) read.
//! Result assembly runs those scans first and frees the lifecycle table
//! before it allocates the records. Arrivals are streamed into the engine (see
//! [`hack_sim::SimulationContext::emit_sorted`]), so set-up holds a 4-byte
//! index per root arrival rather than a whole queued event, and the run's
//! peak memory is set at assembly, by the charges table and the records.

use crate::components::decode::DecodeReplica;
use crate::components::frontend::Frontend;
use crate::components::network::NetworkFabric;
use crate::components::prefill::PrefillReplica;
use crate::components::scaling::ScalingController;
use crate::components::{
    Charges, ClusterState, DecodeReplicaState, FaultTally, Lifecycle, PrefillReplicaState,
    ReqPhase, SimCosts,
};
use crate::config::{ClusterConfig, SimulationConfig};
use crate::events::{
    FabricFault, FabricRecovered, PrefillFailed, PrefillRecovered, ReplicaFailed, ReplicaRecovered,
    RequestArrived, SampleTick, ScaleTick,
};
use crate::fleet::ReplicaGroup;
use crate::policy::{Admission, Dispatch, Scaling, Scheduling};
use crate::result::{FaultRecord, GroupStats, RequestRecord, SimulationResult};
use crate::telemetry::{TelemetrySampler, TelemetryState};
use crate::topology::{ConfigError, FaultDomain, FaultEvent};
use hack_metrics::jct::JctBreakdown;
use hack_metrics::telemetry::Telemetry;
use hack_model::cost::ReplicaCostModel;
use hack_model::cost_table::{DecodeCostTable, PrefillCostTable};
use hack_sim::{ComponentId, EngineMode, EventRecord, Simulation};
use hack_workload::trace::{Request, TraceGenerator};
use std::cell::{OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Discrete-event simulator of one configuration (cluster × trace × method).
pub struct Simulator {
    config: SimulationConfig,
    /// Cost model of each decode group.
    decode_models: Vec<ReplicaCostModel>,
    requests: Arc<Vec<Request>>,
    /// The cost layer, built on the first run and reused by every later one.
    /// Lazy, so constructing a simulator stays cheap.
    costs: OnceCell<SimCosts>,
}

impl Simulator {
    /// Creates a simulator from a configuration, generating its trace once
    /// (reused across `run*` calls, as are the lazily built cost tables).
    /// Panics on an invalid fault/topology configuration; use
    /// [`Simulator::try_new`] for a typed error.
    pub fn new(config: SimulationConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::new`], but an invalid fault plan or topology returns a
    /// typed [`ConfigError`] instead of panicking — every check runs here,
    /// before any event is scheduled.
    pub fn try_new(config: SimulationConfig) -> Result<Self, ConfigError> {
        let requests = Arc::new(TraceGenerator::new(config.trace).generate());
        Self::try_with_requests(config, requests)
    }

    /// Creates a simulator over an externally supplied trace (which must match
    /// `config.trace.num_requests`). This is how the capacity bisection in
    /// `hack-core` reuses one trace template across its probe runs instead of
    /// re-synthesising the trace per probe. Panics on an invalid
    /// configuration; use [`Simulator::try_with_requests`] for a typed error.
    pub fn with_requests(config: SimulationConfig, requests: Arc<Vec<Request>>) -> Self {
        Self::try_with_requests(config, requests).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::with_requests`] with construction-time validation.
    pub fn try_with_requests(
        config: SimulationConfig,
        requests: Arc<Vec<Request>>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if requests.len() != config.trace.num_requests {
            return Err(ConfigError::TraceLengthMismatch {
                expected: config.trace.num_requests,
                got: requests.len(),
            });
        }
        // Every arrival must be schedulable. Session DAG validation: a
        // child's parent must precede it in the trace and must not arrive
        // after it — gating releases children at `max(child arrival, parent
        // completion)`, which is only causal when parents nominally arrive
        // first.
        for (i, r) in requests.iter().enumerate() {
            if !r.arrival.is_finite() || r.arrival < 0.0 {
                return Err(ConfigError::InvalidArrival {
                    request: r.id,
                    arrival: r.arrival,
                });
            }
            if r.tenant.index() >= crate::policy::MAX_TENANTS {
                return Err(ConfigError::TenantOutOfRange {
                    request: r.id,
                    tenant: r.tenant.0,
                });
            }
            if let Some(p) = r.parent {
                if (p as usize) >= i || requests[p as usize].arrival > r.arrival {
                    return Err(ConfigError::InvalidSessionParent {
                        child: r.id,
                        parent: p,
                    });
                }
            }
        }
        let cluster = &config.cluster;
        let decode_models = (0..cluster.fleet.decode.len())
            .map(|g| cluster.decode_cost_model(g))
            .collect();
        Ok(Self {
            config,
            decode_models,
            requests,
            costs: OnceCell::new(),
        })
    }

    /// The memoized cost layer of this simulator: one decode prefix-sum table
    /// per decode group (shared process-wide across equal parameterisations)
    /// and one prefill per-prompt-length memo per (prefill × decode) group
    /// pair, built on first use.
    fn costs(&self) -> &SimCosts {
        self.costs.get_or_init(|| {
            let max_kv_len = self
                .requests
                .iter()
                .map(Request::total_tokens)
                .max()
                .unwrap_or(1);
            let cluster = &self.config.cluster;
            let fleet = cluster.fleet;
            let prefill_models: Vec<ReplicaCostModel> = (0..fleet.prefill.len())
                .map(|g| cluster.prefill_cost_model(g))
                .collect();
            let decode = self
                .decode_models
                .iter()
                .map(|model| {
                    DecodeCostTable::shared(
                        model,
                        &self.config.profile,
                        model.params.decode_batch,
                        max_kv_len,
                    )
                })
                .collect();
            // One full build per prefill group; further decode pairings only
            // re-evaluate the transfer column at their own min-NIC bandwidth
            // (prefill/quantization are bandwidth-independent), and pairings
            // with an equal bandwidth share one table.
            let prefill = prefill_models
                .iter()
                .enumerate()
                .map(|(pg, model)| {
                    let mut built: Vec<(f64, Arc<PrefillCostTable>)> = Vec::new();
                    (0..fleet.decode.len())
                        .map(|dg| {
                            let network_gbps = fleet.wire_gbps(pg, dg);
                            if let Some((_, table)) =
                                built.iter().find(|(gbps, _)| *gbps == network_gbps)
                            {
                                return table.clone();
                            }
                            let table = Arc::new(match built.first() {
                                None => PrefillCostTable::build(
                                    model,
                                    &self.config.profile,
                                    network_gbps,
                                    self.requests.iter().map(|r| r.input_len),
                                ),
                                Some((_, base)) => {
                                    base.with_network(model, &self.config.profile, network_gbps)
                                }
                            });
                            built.push((network_gbps, table.clone()));
                            table
                        })
                        .collect()
                })
                .collect();
            SimCosts {
                profile: self.config.profile,
                fleet,
                prefill_models,
                decode,
                prefill,
            }
        })
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs the simulation to completion and returns the aggregated result.
    pub fn run(&self) -> SimulationResult {
        self.run_impl(false).0
    }

    /// Runs and returns the recorded [`Telemetry`] alongside the result —
    /// `None` unless the configuration enables [`crate::TelemetryConfig`].
    /// The result itself is bit-identical to [`Simulator::run`]: telemetry
    /// records the simulation, it never perturbs it.
    pub fn run_with_telemetry(&self) -> (SimulationResult, Option<Telemetry>) {
        let (result, _, telemetry) = self.run_impl(false);
        (result, telemetry)
    }

    /// Runs with structured event logging enabled, returning the full engine
    /// event trace alongside the result (used by the trace-equivalence tests).
    ///
    /// The [`EngineMode`] argument selects nothing: the engine has one mode.
    /// It remains only because the benchmark of record calls
    /// `run_traced(EngineMode::Slab)` and its source is frozen outside its own
    /// maintenance changes.
    pub fn run_traced(&self, _mode: EngineMode) -> (SimulationResult, Vec<EventRecord>) {
        let (result, trace, _) = self.run_impl(true);
        (result, trace)
    }

    fn run_impl(
        &self,
        capture_log: bool,
    ) -> (SimulationResult, Vec<EventRecord>, Option<Telemetry>) {
        let (mut sim, cluster, control) = self.build(capture_log);
        let makespan = drive(&mut sim, &cluster, &control);
        let mut cs = cluster.borrow_mut();
        let result = assemble(&mut cs, makespan);
        let telemetry = cs.tel.take().map(|ts| ts.tel);
        drop(cs);
        (result, sim.take_log(), telemetry)
    }

    /// Builds one run: the engine with every component's context, the
    /// streamed arrivals and the expanded fault plan, the cluster blackboard
    /// and the handlers. Returns the engine, the blackboard and the ids of
    /// the control-plane components (the telemetry sampler and the scaling
    /// controller, each only when configured). The fault plan and topology
    /// were validated at construction time.
    fn build(
        &self,
        capture_log: bool,
    ) -> (Simulation, Rc<RefCell<ClusterState>>, Vec<ComponentId>) {
        let requests = self.requests.clone();
        let costs = self.costs().clone();
        let cluster_cfg = &self.config.cluster;
        let prefill_replicas = cluster_cfg.fleet.prefill.total_replicas();
        let decode_replicas = cluster_cfg.fleet.decode.total_replicas();

        let mut sim = Simulation::new(self.config.trace.seed);
        sim.set_log_enabled(capture_log);
        let driver = sim.create_context("driver");
        let frontend_id = sim.create_context("frontend").id();
        let fabric_ctx = sim.create_context("fabric");
        let prefill_ctxs: Vec<_> = (0..prefill_replicas)
            .map(|i| sim.create_context(format!("prefill-{i}")))
            .collect();
        let decode_ctxs: Vec<_> = (0..decode_replicas)
            .map(|i| sim.create_context(format!("decode-{i}")))
            .collect();
        // The control-plane contexts come after every regular component
        // (sampler first), so the regular components' ids do not depend on
        // which of them a run configures.
        let telemetry_settings = self.config.telemetry.settings();
        let sampler = telemetry_settings.map(|s| {
            (
                s.sample_interval_secs,
                sim.create_context("telemetry-sampler"),
            )
        });
        let scaler = Scaling::new(self.config.policy.scaling)
            .map(|scaling| (scaling, sim.create_context("scaling-controller")));

        // Seed the queue: one arrival event per independent request or
        // session root, plus fault injection. Session children are gated on
        // their parent's terminal state — `release_children` injects them at
        // `max(arrival, parent completion)`.
        //
        // The roots are streamed: the engine builds each arrival when its
        // queue reaches it, so until the last one is built the queue holds a
        // 4-byte root index per arrival, not a whole event. A stable sort by
        // arrival delivers ties in index order, and it keeps an
        // arrival-sorted trace's ids exactly those of one `emit_at` per root
        // in index order.
        let mut roots: Vec<u32> = requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.parent.is_none())
            .map(|(i, _)| u32::try_from(i).expect("trace indices fit in u32"))
            .collect();
        roots.sort_by(|&a, &b| {
            requests[a as usize]
                .arrival
                .total_cmp(&requests[b as usize].arrival)
        });
        let trace = Arc::clone(&requests);
        driver.emit_sorted(
            roots.into_iter().map(move |i| {
                let req = i as usize;
                (trace[req].arrival, RequestArrived { req })
            }),
            frontend_id,
        );
        // Expand the fault plan: for each fault, its fabric cut (link-cutting
        // domains only, delivered to the frontend) precedes the correlated
        // replica failures (ascending replica index), and recovery events
        // mirror that order. A degradation slows links without failing
        // anything behind them: it expands to the fabric events only.
        let targets: Vec<(Vec<usize>, Vec<usize>)> = self
            .config
            .faults
            .iter()
            .map(|f| match f.degrade {
                Some(_) => (Vec::new(), Vec::new()),
                None => fault_targets(f.domain, cluster_cfg),
            })
            .collect();
        for (k, (f, (pre, dec))) in self.config.faults.iter().zip(&targets).enumerate() {
            if f.domain.needs_link_graph() {
                driver.emit_at(FabricFault { fault: k }, frontend_id, f.at);
            }
            for &i in pre {
                driver.emit_at(PrefillFailed { fault: k }, prefill_ctxs[i].id(), f.at);
            }
            for &i in dec {
                driver.emit_at(ReplicaFailed { fault: k }, decode_ctxs[i].id(), f.at);
            }
            if let Some(recover) = f.recover_at {
                if f.domain.needs_link_graph() {
                    driver.emit_at(FabricRecovered { fault: k }, frontend_id, recover);
                }
                for &i in pre {
                    driver.emit_at(PrefillRecovered { fault: k }, prefill_ctxs[i].id(), recover);
                }
                for &i in dec {
                    driver.emit_at(ReplicaRecovered { fault: k }, decode_ctxs[i].id(), recover);
                }
            }
        }

        let policy = self.config.policy;
        let scheduling = Scheduling::new(policy.scheduling);

        // Replicas flatten group-major: group 0's replicas first, carrying
        // their group's memory budget; every prefill queue takes the shape
        // the scheduling policy pops.
        let prefill = cluster_cfg
            .fleet
            .prefill
            .flatten_groups()
            .into_iter()
            .map(|g| PrefillReplicaState::new(g, scheduling.queue()))
            .collect();
        let decode_group_of = cluster_cfg.fleet.decode.flatten_groups();
        let decode_budgets: Vec<f64> = (0..cluster_cfg.fleet.decode.len())
            .map(|g| cluster_cfg.decode_group_kv_budget_bytes(g))
            .collect();

        // Telemetry recording state: registered tracks/series for this cluster
        // shape. The span/instant stores are pre-sized from the number of
        // trace-sampled requests (~7 spans and ~2 instants per traced request
        // lifecycle) so the recording hot path never reallocates.
        let tel_state = telemetry_settings.map(|settings| {
            let tenants = requests
                .iter()
                .map(|r| r.tenant.index())
                .max()
                .map_or(1, |m| m + 1);
            let span_every = settings.resolved_span_every(requests.len());
            let mut ts = TelemetryState::new(
                prefill_replicas,
                decode_replicas,
                cluster_cfg.fleet.decode.len(),
                tenants,
                span_every,
            );
            let traced = requests.len() / span_every as usize + 1;
            ts.tel.reserve_recording(8 * traced + 64, 3 * traced + 64);
            ts
        });
        // Child index for session gating: left empty when the trace has no
        // sessions, so every release site is a single `is_empty` check on a
        // sessionless trace.
        let mut session_children: Vec<Vec<usize>> = Vec::new();
        if requests.iter().any(|r| r.parent.is_some()) {
            session_children = vec![Vec::new(); requests.len()];
            for (i, r) in requests.iter().enumerate() {
                if let Some(p) = r.parent {
                    session_children[p as usize].push(i);
                }
            }
        }
        // Prefix caches: one per decode replica, sized as a fraction of that
        // replica's KV budget. `CacheConfig::Off` allocates nothing.
        let cache = self.config.cache.settings().map(|settings| {
            let kv_capacities: Vec<f64> =
                decode_group_of.iter().map(|&g| decode_budgets[g]).collect();
            crate::cache::SessionCacheState::new(settings, &kv_capacities)
        });
        let state = ClusterState {
            config: self.config,
            decode_models: self.decode_models.clone(),
            costs,
            dispatch: Dispatch::new(policy.dispatch),
            admission: Admission::new(policy.admission, &policy.tenants),
            scheduling,
            charges: vec![Charges::default(); requests.len()],
            lifecycle: vec![Lifecycle::default(); requests.len()],
            requests,
            prefill,
            decode: decode_group_of
                .iter()
                .map(|&g| DecodeReplicaState::new(g, decode_budgets[g]))
                .collect(),
            waiting_for_memory: VecDeque::new(),
            waiting_for_prefill: VecDeque::new(),
            fabric: match cluster_cfg.topology.link_graph() {
                None => NetworkFabric::new(fabric_ctx, prefill_replicas),
                Some(spec) => {
                    // Per-replica NIC capacities, flattened group-major like
                    // the replicas themselves.
                    let nic_gbps = |groups: &crate::fleet::GroupSet| -> Vec<f64> {
                        groups
                            .iter()
                            .flat_map(|g| std::iter::repeat_n(g.network_gbps, g.replicas))
                            .collect()
                    };
                    NetworkFabric::with_link_graph(
                        fabric_ctx,
                        nic_gbps(&cluster_cfg.fleet.prefill),
                        nic_gbps(&cluster_cfg.fleet.decode),
                        spec.prefill_per_tor,
                        spec.decode_per_tor,
                        spec.tor_uplink_gbps,
                        spec.spine_gbps,
                        spec.spines,
                    )
                }
            },
            completed: 0,
            rejected: 0,
            rejected_per_tenant: [0; crate::policy::MAX_TENANTS],
            requeued: 0,
            injected_failures: 0,
            retries: 0,
            gave_up: 0,
            fault_tallies: targets
                .iter()
                .map(|(pre, dec)| FaultTally {
                    replicas_affected: pre.len() + dec.len(),
                    requests_aborted: 0,
                    recovery_drain: 0.0,
                })
                .collect(),
            pending_drain: Vec::new(),
            frontend_id,
            aborted_decode_by_group: vec![0.0; cluster_cfg.fleet.decode.len()],
            prefill_ctxs,
            decode_ctxs,
            tel: tel_state,
            // Every decode replica starts live: the configured count is the
            // fleet's *capacity*, and a scaling-off run bills all of it for
            // the whole makespan (the static fleet).
            decode_up_since: vec![Some(0.0); decode_replicas],
            decode_uptime: vec![0.0; decode_replicas],
            scale_ups: 0,
            scale_downs: 0,
            cache,
            session_children,
        };
        let cluster = Rc::new(RefCell::new(state));

        sim.add_handler(
            "frontend",
            Rc::new(RefCell::new(Frontend {
                cluster: cluster.clone(),
            })),
        );
        for i in 0..prefill_replicas {
            sim.add_handler(
                &format!("prefill-{i}"),
                Rc::new(RefCell::new(PrefillReplica {
                    index: i,
                    cluster: cluster.clone(),
                })),
            );
        }
        for i in 0..decode_replicas {
            sim.add_handler(
                &format!("decode-{i}"),
                Rc::new(RefCell::new(DecodeReplica {
                    index: i,
                    cluster: cluster.clone(),
                })),
            );
        }
        // Each control-plane component ticks first at t=0 (so every series
        // starts at the origin and the first scaling decision observes the
        // fleet's full configured capacity) and re-arms itself.
        let mut control = Vec::new();
        if let Some((interval, ctx)) = sampler {
            ctx.emit_at(SampleTick, ctx.id(), 0.0);
            control.push(ctx.id());
            sim.add_handler(
                "telemetry-sampler",
                Rc::new(RefCell::new(TelemetrySampler {
                    ctx,
                    cluster: cluster.clone(),
                    interval,
                })),
            );
        }
        if let Some((scaling, ctx)) = scaler {
            ctx.emit_at(ScaleTick, ctx.id(), 0.0);
            control.push(ctx.id());
            sim.add_handler(
                "scaling-controller",
                Rc::new(RefCell::new(ScalingController {
                    ctx,
                    cluster: cluster.clone(),
                    policy: scaling,
                    ordered: vec![false; decode_replicas],
                    arrivals_seen: 0,
                })),
            );
        }
        (sim, cluster, control)
    }
}

/// Drives the engine until every request is resolved — completed or rejected
/// by admission — or only the control plane's own ticks are left (as after a
/// permanent failure of the whole decode fleet), and returns the makespan.
///
/// Each `control` component keeps exactly one tick pending at all times, so
/// with any of them configured the queue never runs dry on its own. A step
/// that delivers to one of them (a tick or a provisioning landing) is left
/// out of the makespan, so the makespan stays a maximum over request-visible
/// events only: events come in time order, so it is bit-identical to a run
/// without them when nothing scales, even when the run ends with the queue
/// dry. Only such a step can leave nothing but the re-armed ticks queued
/// (`queue_len() <= control.len()`): between control events the queue holds
/// those ticks plus at least one live event. Without control components every
/// step counts, and the loop ends when `step` finds the queue empty.
fn drive(sim: &mut Simulation, cluster: &RefCell<ClusterState>, control: &[ComponentId]) -> f64 {
    let num_requests = cluster.borrow().requests.len();
    let mut makespan = 0.0f64;
    while {
        let cs = cluster.borrow();
        cs.completed + cs.rejected < num_requests
    } {
        let Some(dst) = sim.step() else { break };
        if !control.contains(&dst) {
            makespan = makespan.max(sim.time());
        } else if sim.queue_len() <= control.len() {
            break;
        }
    }
    makespan
}

/// Assembles the run's [`SimulationResult`] from the blackboard. Every scan
/// of the lifecycle table runs first; the table is then freed, before the
/// records are allocated, so the two never share the peak.
fn assemble(cs: &mut ClusterState, makespan: f64) -> SimulationResult {
    debug_assert_eq!(
        cs.fabric.active_flows(),
        0,
        "every link-graph flow must have landed or been aborted by run end"
    );
    let config = &cs.config;
    let fleet = &config.cluster.fleet;
    let params_bytes = config.cluster.model.spec().param_bytes_fp16();
    let peak_kv = cs.decode.iter().map(|d| d.peak_kv).fold(0.0, f64::max);

    // --- Per-group usage summaries. ---
    let group_stats = |g: usize, spec: &ReplicaGroup| GroupStats {
        group: g,
        gpu: spec.gpu,
        replicas: spec.replicas,
        completed: 0,
        busy_secs: 0.0,
        utilization: 0.0,
        mean_jct: 0.0,
        peak_kv_bytes: 0.0,
        peak_memory_fraction: 0.0,
        gpu_dollars: 0.0,
    };
    let mut prefill_groups: Vec<GroupStats> = fleet
        .prefill
        .iter()
        .enumerate()
        .map(|(g, spec)| group_stats(g, spec))
        .collect();
    let mut decode_groups: Vec<GroupStats> = fleet
        .decode
        .iter()
        .enumerate()
        .map(|(g, spec)| {
            let mem = config.cluster.decode_group_mem_bytes(g);
            let act_bytes = config.cluster.activation_reserve * mem;
            let group_peak = cs
                .decode
                .iter()
                .filter(|d| d.group == g)
                .map(|d| d.peak_kv)
                .fold(0.0, f64::max);
            GroupStats {
                peak_kv_bytes: group_peak,
                peak_memory_fraction: ((params_bytes + act_bytes + group_peak) / mem).min(1.0),
                ..group_stats(g, spec)
            }
        })
        .collect();
    // Accumulate from the per-request tables rather than the records, in
    // request order (the float sums depend on it): the record's decode
    // stage folds failure-aborted attempts into the completing replica's
    // column (it is a *request* decomposition), while group utilization
    // must charge wasted attempts to the group that actually spent them
    // (`aborted_decode_by_group`, below).
    for (i, c) in cs.charges.iter().enumerate() {
        if cs.lifecycle[i].phase != ReqPhase::Done {
            continue;
        }
        let pg = &mut prefill_groups[cs.prefill[c.prefill_replica as usize].group];
        pg.completed += 1;
        pg.busy_secs += c.prefill_time + c.quant_time;
        let jct = c.finish_time - cs.requests[i].arrival;
        pg.mean_jct += jct;
        let dg = &mut decode_groups[cs.decode[c.decode_replica as usize].group];
        dg.completed += 1;
        dg.busy_secs += c.dequant_time + c.decode_time;
        dg.mean_jct += jct;
    }
    for (g, aborted) in cs.aborted_decode_by_group.iter().enumerate() {
        decode_groups[g].busy_secs += aborted;
    }
    for g in prefill_groups.iter_mut().chain(decode_groups.iter_mut()) {
        if g.completed > 0 {
            g.mean_jct /= g.completed as f64;
        }
        if makespan > 0.0 {
            g.utilization = g.busy_secs / (g.replicas as f64 * makespan);
        }
    }
    // The headline memory figure is the worst group's.
    let peak_fraction = decode_groups
        .iter()
        .map(|g| g.peak_memory_fraction)
        .fold(0.0, f64::max);

    // --- Robustness sensors. All zero/empty without fault injection. ---
    // Requests neither completed nor rejected by admission when the run
    // ended: permanently aborted (exhausted retries + re-admissions) or
    // stranded by a permanent whole-fleet failure.
    let aborted_requests = cs.requests.len() - cs.completed - cs.rejected;
    // retry_histogram[k] = requests that made exactly k transfer attempts
    // (k >= 1; empty when no retries happened, so fault-free results stay
    // visibly clean).
    let retry_histogram = if cs.retries == 0 {
        Vec::new()
    } else {
        let max_attempts = cs
            .lifecycle
            .iter()
            .map(|s| s.transfer_attempts as usize)
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max_attempts + 1];
        for s in cs.lifecycle.iter().filter(|s| s.transfer_attempts > 0) {
            hist[s.transfer_attempts as usize] += 1;
        }
        hist
    };

    // Records are ordered by finish time, ties in request-index order:
    // the order a stable sort by finish time gives the index-ordered done
    // requests. Request indices are unique, so `(finish_time, index)` is
    // a total order and an unstable sort of these small keys yields that
    // same permutation without moving a record or allocating a merge
    // buffer; each record is then built once, in place.
    let mut order: Vec<(f64, usize)> = cs
        .lifecycle
        .iter()
        .enumerate()
        .filter(|(_, s)| s.phase == ReqPhase::Done)
        .map(|(i, _)| (cs.charges[i].finish_time, i))
        .collect();
    let swapped_requests = cs.lifecycle.iter().filter(|s| s.swapped).count();
    // That was the last read of the lifecycle table.
    drop(std::mem::take(&mut cs.lifecycle));
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let records: Vec<RequestRecord> = order
        .iter()
        .map(|&(_, i)| {
            let c = &cs.charges[i];
            RequestRecord {
                request: cs.requests[i],
                prefill_replica: c.prefill_replica as usize,
                decode_replica: c.decode_replica as usize,
                finish_time: c.finish_time,
                breakdown: JctBreakdown {
                    prefill: c.prefill_time,
                    quantization: c.quant_time,
                    // Waiting for decode memory keeps the KV transfer pending on
                    // the prefill side (Fig. 1(d), case ii), so it is charged to
                    // communication, as in the paper's measurements.
                    communication: c.comm_time + c.memory_wait,
                    dequant_or_approx: c.dequant_time,
                    // Decode attempts aborted by a replica failure are wasted
                    // decode-side time; charge them to the decode stage so the
                    // breakdown still sums to the JCT.
                    decode: c.decode_time + c.aborted_decode,
                    queueing: c.prefill_wait,
                },
            }
        })
        .collect();

    let faults: Vec<FaultRecord> = config
        .faults
        .iter()
        .zip(&cs.fault_tallies)
        .map(|(f, tally)| FaultRecord {
            domain: f.domain,
            at: f.at,
            recover_at: f.recover_at,
            replicas_affected: tally.replicas_affected,
            requests_aborted: tally.requests_aborted,
            downtime_secs: (f.recover_at.unwrap_or(makespan.max(f.at)) - f.at).max(0.0),
            recovery_drain_secs: tally.recovery_drain,
        })
        .collect();
    // A fault's window, clipped to the run.
    let window = |f: &FaultEvent| {
        (
            f.at.min(makespan),
            f.recover_at.unwrap_or(makespan).min(makespan),
        )
    };
    // Goodput while degraded: completions per second inside the union of
    // the fault windows.
    let mut windows: Vec<(f64, f64)> = config
        .faults
        .iter()
        .map(window)
        .filter(|(a, b)| b > a)
        .collect();
    windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for w in windows {
        match merged.last_mut() {
            Some(last) if w.0 <= last.1 => last.1 = last.1.max(w.1),
            _ => merged.push(w),
        }
    }
    let degraded_secs: f64 = merged.iter().map(|(a, b)| b - a).sum();
    let degraded_completions = records
        .iter()
        .filter(|r| {
            merged
                .iter()
                .any(|&(a, b)| r.finish_time >= a && r.finish_time <= b)
        })
        .count();
    let degraded_goodput = if degraded_secs > 0.0 {
        degraded_completions as f64 / degraded_secs
    } else {
        0.0
    };
    // Link-degradation sensors: link-seconds spent below nominal capacity
    // and the capacity removed from the fabric (Gbps-seconds), windows
    // clipped to the run. ECMP reroutes are counted by the fabric itself.
    let mut degraded_link_secs = 0.0;
    let mut throughput_loss_gbps_s = 0.0;
    for f in config.faults.iter() {
        let Some(factor) = f.degrade else { continue };
        let (start, end) = window(f);
        let mut span = (end - start).max(0.0);
        // A binary outage of the same domain cuts the very links the
        // degradation slows: dead link time is not *degraded* time, so
        // each overlapping outage window's intersection is subtracted
        // (outage windows on one domain are validated disjoint, so no
        // intersection is subtracted twice).
        for o in config.faults.iter() {
            if o.degrade.is_some() || o.domain != f.domain {
                continue;
            }
            let (o_start, o_end) = window(o);
            span -= (end.min(o_end) - start.max(o_start)).max(0.0);
        }
        let links = cs.fabric.links_for_domain(f.domain);
        degraded_link_secs += links.len() as f64 * span;
        throughput_loss_gbps_s += cs.fabric.nominal_capacity(&links) * (1.0 - factor) * span;
    }

    // --- $/GPU-hour cost sensors. Prefill groups are static and bill every
    // replica for the whole makespan. Decode replicas bill their racked
    // uptime: closed scale-down intervals accumulated in `decode_uptime`,
    // plus the still-open interval of every replica that is live (or
    // failed-but-racked) at run end. Without a scaling policy every interval
    // is `[0, makespan]`, so the cost collapses to
    // `replicas * makespan * rate` — the static fleet's bill. ---
    let mut gpu_dollars = 0.0;
    for (g, spec) in fleet.prefill.iter().enumerate() {
        let dollars = spec.replicas as f64 * makespan * spec.replica_dollars_per_s();
        prefill_groups[g].gpu_dollars = dollars;
        gpu_dollars += dollars;
    }
    let mut base = 0usize;
    for (g, spec) in fleet.decode.iter().enumerate() {
        let mut uptime = 0.0;
        for r in base..base + spec.replicas {
            uptime += cs.decode_uptime[r];
            if let Some(opened) = cs.decode_up_since[r] {
                uptime += (makespan - opened).max(0.0);
            }
        }
        base += spec.replicas;
        let dollars = uptime * spec.replica_dollars_per_s();
        decode_groups[g].gpu_dollars = dollars;
        gpu_dollars += dollars;
    }
    // Generated (output) tokens across completed requests: the serving
    // industry's unit cost denominator.
    let generated_tokens: usize = records.iter().map(|r| r.request.output_len).sum();
    let dollars_per_1k_tokens = if generated_tokens > 0 {
        gpu_dollars / (generated_tokens as f64 / 1000.0)
    } else {
        0.0
    };

    // --- Prefix-cache sensors. All zero/empty when the cache is off. ---
    let (
        prefix_hits,
        prefix_misses,
        prefix_evictions,
        prefix_hit_rate,
        prefix_bytes_saved,
        prefill_seconds_saved,
        prefix_cache_peak_fraction,
    ) = match &cs.cache {
        None => (0, 0, 0, 0.0, 0.0, 0.0, Vec::new()),
        Some(c) => (
            c.hits,
            c.misses,
            c.evictions,
            c.hit_rate(),
            c.bytes_saved,
            c.prefill_secs_saved,
            // Per decode group: the worst replica's peak cache occupancy
            // as a fraction of that replica's full KV budget.
            (0..fleet.decode.len())
                .map(|g| {
                    cs.decode
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.group == g)
                        .map(|(i, d)| {
                            c.caches[i].peak_bytes() / d.kv_capacity.max(f64::MIN_POSITIVE)
                        })
                        .fold(0.0, f64::max)
                })
                .collect(),
        ),
    };

    SimulationResult {
        method: config.profile.name.to_string(),
        records,
        peak_decode_memory_fraction: peak_fraction,
        peak_decode_kv_bytes: peak_kv,
        swapped_requests,
        rejected_requests: cs.rejected,
        rejected_by_tenant: {
            let counts = &cs.rejected_per_tenant;
            let live = counts.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
            counts[..live].to_vec()
        },
        requeued_requests: cs.requeued,
        injected_failures: cs.injected_failures,
        transfer_retries: cs.retries,
        retry_histogram,
        aborted_requests,
        abandoned_requests: cs.gave_up,
        faults,
        degraded_secs,
        degraded_goodput,
        degraded_link_secs,
        throughput_loss_gbps_s,
        rerouted_flows: cs.fabric.rerouted_flows(),
        scale_ups: cs.scale_ups,
        scale_downs: cs.scale_downs,
        gpu_dollars,
        dollars_per_1k_tokens,
        prefix_hits,
        prefix_misses,
        prefix_evictions,
        prefix_hit_rate,
        prefix_bytes_saved,
        prefill_seconds_saved,
        prefix_cache_peak_fraction,
        prefill_groups,
        decode_groups,
        makespan,
    }
}

/// The replica indices (prefill side, decode side) a fault domain takes down.
///
/// Replica and NIC domains fail one replica (a dead NIC isolates its replica:
/// it fails and its queue re-routes, on top of the link cut). ToR domains
/// atomically fail every replica behind the switch (group-major chunks of
/// `per_tor`, the last possibly partial). A spine fault cuts only links: no
/// replica fails, but no transfer can cross the fabric until recovery.
fn fault_targets(domain: FaultDomain, cluster: &ClusterConfig) -> (Vec<usize>, Vec<usize>) {
    let tor_chunk = |t: usize, per_tor: usize, n: usize| -> Vec<usize> {
        (t * per_tor..((t + 1) * per_tor).min(n)).collect()
    };
    match domain {
        FaultDomain::DecodeReplica(i) | FaultDomain::DecodeNic(i) => (Vec::new(), vec![i]),
        FaultDomain::PrefillReplica(i) | FaultDomain::PrefillNic(i) => (vec![i], Vec::new()),
        FaultDomain::PrefillTor(t) => {
            let spec = cluster.topology.link_graph().expect("validated");
            (
                tor_chunk(t, spec.prefill_per_tor, cluster.prefill_replicas()),
                Vec::new(),
            )
        }
        FaultDomain::DecodeTor(t) => {
            let spec = cluster.topology.link_graph().expect("validated");
            (
                Vec::new(),
                tor_chunk(t, spec.decode_per_tor, cluster.decode_replicas()),
            )
        }
        FaultDomain::Spine(_) => (Vec::new(), Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::config::ClusterConfig;
    use crate::fleet::{GroupSet, ReplicaGroup};
    use crate::policy::{DispatchPolicyKind, SchedulingPolicyKind, TenantClass, TenantClasses};
    use crate::telemetry::TelemetryConfig;
    use crate::topology::{FaultDomain, FaultEvent, FaultPlan};
    use hack_model::cost::KvMethodProfile;
    use hack_model::gpu::GpuKind;
    use hack_model::spec::ModelKind;
    use hack_workload::dataset::Dataset;
    use hack_workload::trace::TraceConfig;

    fn sim_config(
        profile: KvMethodProfile,
        dataset: Dataset,
        rps: f64,
        n: usize,
    ) -> SimulationConfig {
        let cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        SimulationConfig::new(
            cluster,
            TraceConfig {
                dataset,
                rps,
                num_requests: n,
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: 7,
            },
            profile,
        )
    }

    fn run(profile: KvMethodProfile, dataset: Dataset, rps: f64, n: usize) -> SimulationResult {
        Simulator::new(sim_config(profile, dataset, rps, n)).run()
    }

    #[test]
    fn all_requests_complete_and_breakdowns_are_consistent() {
        let result = run(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 40);
        assert_eq!(result.records.len(), 40);
        for r in &result.records {
            let jct = r.jct();
            assert!(jct > 0.0);
            let total = r.breakdown.total();
            assert!(
                (total - jct).abs() < 1e-6 * jct.max(1.0),
                "breakdown total {total} vs jct {jct}"
            );
        }
        assert!(result.makespan > 0.0);
        assert_eq!(result.requeued_requests, 0);
        assert_eq!(result.injected_failures, 0);
    }

    #[test]
    fn hack_reduces_average_jct_vs_baseline_and_quant_baselines() {
        let n = 60;
        let rps = 0.08;
        let base = run(KvMethodProfile::baseline(), Dataset::Cocktail, rps, n);
        let kvq = run(KvMethodProfile::kvquant(), Dataset::Cocktail, rps, n);
        let hack = run(KvMethodProfile::hack(), Dataset::Cocktail, rps, n);
        assert!(
            hack.average_jct() < kvq.average_jct(),
            "hack {} vs kvquant {}",
            hack.average_jct(),
            kvq.average_jct()
        );
        assert!(
            hack.average_jct() < base.average_jct(),
            "hack {} vs baseline {}",
            hack.average_jct(),
            base.average_jct()
        );
        assert!(kvq.average_jct() < base.average_jct());
    }

    #[test]
    fn stage_ratio_structure_matches_method_semantics() {
        let n = 50;
        let rps = 0.08;
        let base = run(KvMethodProfile::baseline(), Dataset::Cocktail, rps, n);
        let kvq = run(KvMethodProfile::kvquant(), Dataset::Cocktail, rps, n);
        let hack = run(KvMethodProfile::hack(), Dataset::Cocktail, rps, n);

        let rb = base.average_ratios();
        let rk = kvq.average_ratios();
        let rh = hack.average_ratios();

        // Baseline: no quantization, no dequantization; communication is significant on
        // a 40 Gbps NIC with long prompts.
        assert_eq!(rb.quantization, 0.0);
        assert_eq!(rb.dequant_or_approx, 0.0);
        assert!(
            rb.communication > 0.03,
            "baseline comm ratio {}",
            rb.communication
        );

        // KV quantization slashes communication but pays dequantization every decode
        // iteration.
        assert!(rk.communication < rb.communication);
        assert!(
            rk.dequant_or_approx > 0.08,
            "kvquant dequant ratio {}",
            rk.dequant_or_approx
        );

        // HACK: tiny approximation overhead instead of dequantization.
        assert!(
            rh.dequant_or_approx < 0.05,
            "hack approx ratio {}",
            rh.dequant_or_approx
        );
        assert!(rh.dequant_or_approx < rk.dequant_or_approx / 3.0);
        assert!(rh.communication < rb.communication);
    }

    #[test]
    fn quantized_methods_reduce_peak_decode_memory() {
        let n = 50;
        let rps = 0.08;
        let base = run(KvMethodProfile::baseline(), Dataset::Cocktail, rps, n);
        let hack = run(KvMethodProfile::hack(), Dataset::Cocktail, rps, n);
        let kvq = run(KvMethodProfile::kvquant(), Dataset::Cocktail, rps, n);
        assert!(
            hack.peak_decode_memory_fraction < base.peak_decode_memory_fraction,
            "hack {} vs baseline {}",
            hack.peak_decode_memory_fraction,
            base.peak_decode_memory_fraction
        );
        // HACK stores sums + FP16 tail, so it sits at or slightly above KVQuant.
        assert!(hack.peak_decode_memory_fraction >= kvq.peak_decode_memory_fraction - 1e-9);
        assert!(hack.peak_decode_memory_fraction - kvq.peak_decode_memory_fraction < 0.05);
    }

    #[test]
    fn higher_load_increases_jct() {
        let low = run(KvMethodProfile::baseline(), Dataset::Cocktail, 0.02, 40);
        let high = run(KvMethodProfile::baseline(), Dataset::Cocktail, 0.45, 40);
        assert!(
            high.average_jct() > low.average_jct(),
            "high-load JCT {} should exceed low-load JCT {}",
            high.average_jct(),
            low.average_jct()
        );
    }

    #[test]
    fn pipelining_hides_communication_at_low_load() {
        let mut cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.02, 30);
        let without = Simulator::new(cfg).run();
        cfg.cluster.pipelining = true;
        let with = Simulator::new(cfg).run();
        assert!(
            with.average_ratios().communication < without.average_ratios().communication,
            "pipelined comm {} vs plain {}",
            with.average_ratios().communication,
            without.average_ratios().communication
        );
        assert!(with.average_ratios().communication < 0.05);
    }

    #[test]
    fn short_datasets_have_smaller_comm_ratios_than_long_ones() {
        let imdb = run(KvMethodProfile::baseline(), Dataset::Imdb, 0.5, 60);
        let cocktail = run(KvMethodProfile::baseline(), Dataset::Cocktail, 0.08, 60);
        assert!(imdb.average_ratios().communication < cocktail.average_ratios().communication);
        assert!(imdb.average_jct() < cocktail.average_jct());
    }

    #[test]
    fn v100_low_bandwidth_inflates_comm_ratio() {
        let mk = |gpu: GpuKind| {
            let cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, gpu);
            let cfg = SimulationConfig::new(
                cluster,
                TraceConfig {
                    dataset: Dataset::Cocktail,
                    rps: 0.05,
                    num_requests: 40,
                    max_context: ModelKind::Llama31_70B.spec().max_context,
                    seed: 11,
                },
                KvMethodProfile::baseline(),
            );
            Simulator::new(cfg).run().average_ratios().communication
        };
        let v100 = mk(GpuKind::V100);
        let a100 = mk(GpuKind::A100);
        assert!(v100 > a100, "V100 comm ratio {v100} vs A100 {a100}");
        assert!(a100 < 0.1, "A100 (400 Gbps) comm ratio {a100}");
    }

    /// Runs `cfg` twice, each run on a fresh engine (the second reuses the
    /// cost layer the first built), and asserts that the runs agree on every
    /// emission and delivery, in order, and on the result (`PartialEq`
    /// compares every f64 exactly).
    fn assert_repeat_runs_agree(cfg: SimulationConfig, what: &str) {
        let sim = Simulator::new(cfg);
        let (first, first_trace) = sim.run_traced(EngineMode::Slab);
        let (again, again_trace) = sim.run_traced(EngineMode::Slab);
        assert!(!first_trace.is_empty(), "{what}: empty trace");
        assert_eq!(first_trace, again_trace, "{what}: event traces");
        assert_eq!(first, again, "{what}: results");
    }

    #[test]
    fn repeat_runs_reproduce_the_event_trace_and_result() {
        for profile in [KvMethodProfile::baseline(), KvMethodProfile::hack()] {
            let cfg = sim_config(profile, Dataset::Cocktail, 0.08, 40);
            assert_repeat_runs_agree(cfg, profile.name);
        }
    }

    #[test]
    fn repeat_runs_reproduce_the_event_trace_under_fault_injection() {
        let fault = FaultEvent::transient(FaultDomain::DecodeReplica(0), 50.0, 400.0);
        assert_repeat_runs_agree(failure_config(30, fault), "decode replica fault");
    }

    #[test]
    fn records_are_in_stable_finish_time_order() {
        // Pairs of identical requests arriving together on a two-replica
        // fleet finish at exactly the same time (six ties); later pairs are
        // shorter and overtake earlier ones, so finish order is not index
        // order either.
        let mut cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 12);
        cfg.cluster.fleet.prefill.get_mut(0).replicas = 2;
        cfg.cluster.fleet.decode.get_mut(0).replicas = 2;
        let mut requests = TraceGenerator::new(cfg.trace).generate();
        for (i, r) in requests.iter_mut().enumerate() {
            let pair = i / 2;
            r.arrival = pair as f64;
            r.input_len = 2048 - 256 * pair;
            r.output_len = 1024 >> pair;
        }
        let result = Simulator::with_requests(cfg, Arc::new(requests)).run();
        assert_eq!(result.records.len(), 12);

        let mut expected = result.records.clone();
        expected.sort_by_key(|r| r.request.id);
        expected.sort_by(|a, b| a.finish_time.total_cmp(&b.finish_time));
        assert_eq!(result.records, expected);
        let ties = result
            .records
            .windows(2)
            .filter(|w| w[0].finish_time.to_bits() == w[1].finish_time.to_bits())
            .count();
        assert!(ties > 0, "the trace must produce exact finish-time ties");
        let ids: Vec<u64> = result.records.iter().map(|r| r.request.id).collect();
        assert!(
            ids.windows(2).any(|w| w[0] > w[1]),
            "finish order must differ from index order: {ids:?}"
        );
    }

    /// Root arrivals out of index order, with exact ties, on one prefill
    /// replica that serves them first come, first served: delivery must
    /// follow arrival time, ties in index order. Every value was recorded
    /// before arrivals were streamed, when each root was seeded in index
    /// order.
    #[test]
    fn unsorted_roots_with_arrival_ties_keep_their_delivery_order() {
        let mut cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 10);
        cfg.cluster.set_prefill_replicas(1);
        let mut requests = TraceGenerator::new(cfg.trace).generate();
        let arrivals = [4.0, 1.0, 2.5, 1.0, 0.0, 2.5, 1.0, 6.0, 0.0, 3.0];
        for (i, (r, arrival)) in requests.iter_mut().zip(arrivals).enumerate() {
            r.arrival = arrival;
            r.input_len = 1024 + 512 * (i % 4);
            r.output_len = 64 << (i % 3);
        }
        let (result, log) =
            Simulator::with_requests(cfg, Arc::new(requests)).run_traced(EngineMode::Slab);
        let finished: Vec<(u64, f64)> = result
            .records
            .iter()
            .map(|r| (r.request.id, r.finish_time))
            .collect();
        assert_eq!(
            finished,
            [
                (4, 1.6196128594319137),
                (1, 3.162564513302033),
                (8, 3.177981799580072),
                (3, 4.267770158968105),
                (6, 5.383104298444773),
                (2, 8.188927858682423),
                (9, 8.248735223934531),
                (0, 8.762044169389519),
                (5, 8.92022166818122),
                (7, 11.008890577163768),
            ]
        );
        let delivered = log
            .iter()
            .filter(|r| r.kind == hack_sim::RecordKind::Delivered)
            .count();
        assert_eq!((log.len(), delivered), (80, 40));
    }

    /// Telemetry on and more root arrivals than one streamed block: the run
    /// stops once only the sampler's tick is left (`drive`'s `queue_len() <=
    /// control.len()`), which must not fire while arrivals are still
    /// unbuilt. (The queue refills its run whenever a pop empties it, so the
    /// run holds at least one arrival while any remain; `hack_sim`'s queue
    /// tests check that `len` counts the unbuilt ones.)
    #[test]
    fn a_telemetry_run_longer_than_one_arrival_block_completes() {
        let mut cfg = sim_config(KvMethodProfile::hack(), Dataset::Imdb, 20.0, 1_000);
        cfg.telemetry = TelemetryConfig::on();
        let result = Simulator::new(cfg).run();
        assert_eq!(result.records.len(), 1_000);
    }

    #[test]
    fn deterministic_given_identical_configuration() {
        let a = run(KvMethodProfile::hack(), Dataset::Arxiv, 0.1, 30);
        let b = run(KvMethodProfile::hack(), Dataset::Arxiv, 0.1, 30);
        assert_eq!(a.records.len(), b.records.len());
        assert!((a.average_jct() - b.average_jct()).abs() < 1e-12);
        assert_eq!(a.swapped_requests, b.swapped_requests);
    }

    #[test]
    fn overload_triggers_memory_swapping_for_baseline() {
        // Drive the baseline hard with long prompts on a single decode replica whose
        // KV budget has been squeezed (a large activation reserve), so memory runs out;
        // the swap path must engage and still complete all requests.
        let mut cluster = ClusterConfig::scalability(6);
        cluster.cost_params.decode_batch = 8.0;
        cluster.activation_reserve = 0.55;
        let cfg = SimulationConfig::new(
            cluster,
            TraceConfig {
                dataset: Dataset::Cocktail,
                rps: 0.5,
                num_requests: 80,
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: 13,
            },
            KvMethodProfile::baseline(),
        );
        let result = Simulator::new(cfg).run();
        assert_eq!(result.records.len(), 80);
        assert!(
            result.swapped_requests > 0,
            "expected memory pressure to trigger CPU swap"
        );
        assert!(result.peak_decode_memory_fraction > 0.6);
    }

    // --- Heterogeneous fleets: the scenarios the flat config could not express. ---

    /// A mixed A10G + L4 prefill fleet over the paper's decode side.
    fn mixed_config(profile: KvMethodProfile, n: usize) -> SimulationConfig {
        let mut cfg = sim_config(profile, Dataset::Cocktail, 0.08, n);
        let a10g = ReplicaGroup {
            replicas: 3,
            ..ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::A10G, 6)
        };
        let l4 = ReplicaGroup {
            replicas: 2,
            ..ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::L4, 4)
        };
        cfg.cluster.fleet.prefill = GroupSet::new(&[a10g, l4]);
        cfg
    }

    #[test]
    fn mixed_fleet_serves_from_both_groups_and_reports_group_stats() {
        let result = Simulator::new(mixed_config(KvMethodProfile::baseline(), 40)).run();
        assert_eq!(result.records.len(), 40);
        assert_eq!(result.prefill_groups.len(), 2);
        assert_eq!(result.decode_groups.len(), 1);
        let total: usize = result.prefill_groups.iter().map(|g| g.completed).sum();
        assert_eq!(total, 40, "every request is attributed to one group");
        for g in &result.prefill_groups {
            assert!(g.completed > 0, "group {} starved", g.group);
            assert!(g.utilization > 0.0 && g.utilization <= 1.0 + 1e-9);
            assert!(g.mean_jct > 0.0);
        }
        assert_eq!(result.prefill_groups[0].gpu, GpuKind::A10G);
        assert_eq!(result.prefill_groups[1].gpu, GpuKind::L4);
        // The decode group's memory figures reproduce the headline scalars.
        let d = &result.decode_groups[0];
        assert_eq!(d.peak_kv_bytes, result.peak_decode_kv_bytes);
        assert_eq!(d.peak_memory_fraction, result.peak_decode_memory_fraction);
    }

    #[test]
    fn repeat_runs_reproduce_a_mixed_fleet_trace() {
        assert_repeat_runs_agree(mixed_config(KvMethodProfile::hack(), 35), "mixed fleet");
    }

    #[test]
    fn cost_layer_lookups_match_the_cost_model_formulas() {
        // Two prefill groups over two decode groups with different GPUs and
        // NICs: the decode groups have different cost models, and the wire
        // bandwidths of the four (prefill, decode) pairs differ (40 and 25
        // Gbps from prefill group 0, 20 from the 20 Gbps prefill group 1).
        let (prefill_gbps, decode_gbps) = ([50.0_f64, 20.0], [40.0, 25.0]);
        let group = |gpu: GpuKind, network_gbps: f64| ReplicaGroup {
            replicas: 2,
            network_gbps,
            ..ReplicaGroup::paper_sized(ModelKind::Llama31_70B, gpu, 4)
        };
        let mut cfg = sim_config(KvMethodProfile::hack(), Dataset::Cocktail, 0.08, 40);
        cfg.cluster.fleet.prefill = GroupSet::new(&[
            group(GpuKind::A10G, prefill_gbps[0]),
            group(GpuKind::L4, prefill_gbps[1]),
        ]);
        cfg.cluster.fleet.decode = GroupSet::new(&[
            group(GpuKind::A10G, decode_gbps[0]),
            group(GpuKind::L4, decode_gbps[1]),
        ]);
        let sim = Simulator::new(cfg);
        let costs = sim.costs();
        let cluster = &cfg.cluster;
        let profile = cfg.profile;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(f64::MIN_POSITIVE);

        let mut prompts: Vec<usize> = sim.requests.iter().map(|r| r.input_len).collect();
        // A prompt length outside the trace: the prefix-cache suffix path.
        let suffix = (1..).find(|len| !prompts.contains(len)).unwrap();
        prompts.push(suffix);
        for (pg, pg_gbps) in prefill_gbps.into_iter().enumerate() {
            let model = cluster.prefill_cost_model(pg);
            for &prompt in &prompts {
                let (prefill, quant) = costs.prefill_service_times(pg, prompt);
                let at = format!("prefill group {pg}, prompt {prompt}");
                assert!(close(prefill, model.prefill_time(prompt, &profile)), "{at}");
                assert!(
                    close(quant, model.quantization_time(prompt, &profile)),
                    "{at}"
                );
                for (dg, dg_gbps) in decode_gbps.into_iter().enumerate() {
                    let gbps = pg_gbps.min(dg_gbps);
                    let wire = model.transfer_time(prompt, &profile, gbps);
                    assert!(
                        close(costs.transfer_duration_len(pg, dg, prompt), wire),
                        "pair ({pg}, {dg}), prompt {prompt}"
                    );
                }
            }
        }
        for dg in 0..2 {
            let model = cluster.decode_cost_model(dg);
            for r in sim.requests.iter() {
                let (decode, dequant) = costs.decode_durations(dg, r);
                let (ref_decode, ref_dequant) = model.decode_durations_reference(
                    &profile,
                    model.params.decode_batch,
                    r.input_len,
                    r.output_len,
                );
                assert!(close(decode, ref_decode), "group {dg}, request {}", r.id);
                assert!(close(dequant, ref_dequant), "group {dg}, request {}", r.id);
            }
        }
    }

    #[test]
    fn per_group_cost_params_override_the_fleet_default() {
        // Give the L4 prefill group its own, much worse elementwise
        // efficiency: quantization must get slower only for requests
        // prefilled by the overridden group.
        let base = mixed_config(KvMethodProfile::hack(), 30);
        let mut slow = base;
        let mut params = slow.cluster.cost_params;
        params.elementwise_efficiency *= 0.25;
        slow.cluster.fleet.prefill.get_mut(1).cost_params = Some(params);
        let base_run = Simulator::new(base).run();
        let slow_run = Simulator::new(slow).run();
        let quant_of = |result: &SimulationResult, group: usize| {
            result
                .records
                .iter()
                .filter(|r| {
                    // Group-major: replicas 0..3 are A10G, 3..5 are L4.
                    let g = usize::from(r.prefill_replica >= 3);
                    g == group
                })
                .map(|r| r.breakdown.quantization)
                .sum::<f64>()
        };
        // The overridden group got slower; the other group's service times are
        // untouched for any request served by the same replica in both runs.
        assert!(quant_of(&slow_run, 1) > quant_of(&base_run, 1) * 2.0);
        assert!(base_run.prefill_groups[1].busy_secs < slow_run.prefill_groups[1].busy_secs);
    }

    #[test]
    fn dispatch_policies_route_and_complete_on_mixed_fleets() {
        for dispatch in DispatchPolicyKind::all() {
            let mut cfg = mixed_config(KvMethodProfile::baseline(), 40);
            cfg.policy.dispatch = dispatch;
            let a = Simulator::new(cfg).run();
            let b = Simulator::new(cfg).run();
            assert_eq!(a.records.len(), 40, "{}", dispatch.name());
            assert_eq!(a, b, "{}: dispatch must be deterministic", dispatch.name());
        }
    }

    // --- Fault injection: scenarios the monolithic simulator could not express. ---

    /// A failure window covering the middle of the run on the default config.
    fn failure_config(n: usize, failure: FaultEvent) -> SimulationConfig {
        SimulationConfig {
            faults: FaultPlan::new(&[failure]),
            ..sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.08, n)
        }
    }

    /// A decode-replica fault guaranteed to abort at least one in-flight
    /// decode: from a healthy run, pick a completed request and fail its decode
    /// replica just before it finishes (decoding is the last stage, so it is in
    /// flight then).
    fn mid_decode_failure(n: usize) -> FaultEvent {
        let healthy = Simulator::new(sim_config(
            KvMethodProfile::baseline(),
            Dataset::Cocktail,
            0.08,
            n,
        ))
        .run();
        let victim = healthy
            .records
            .iter()
            .find(|r| r.breakdown.decode > 1.0)
            .expect("some request decodes for more than a second");
        FaultEvent::transient(
            FaultDomain::DecodeReplica(victim.decode_replica),
            victim.finish_time - 0.5,
            healthy.makespan + 100.0,
        )
    }

    #[test]
    fn transient_decode_failure_requeues_and_still_completes_everything() {
        let result = Simulator::new(failure_config(40, mid_decode_failure(40))).run();
        assert_eq!(
            result.records.len(),
            40,
            "all requests must complete despite the failure"
        );
        assert_eq!(result.injected_failures, 1);
        assert!(
            result.requeued_requests > 0,
            "a mid-run failure must abort and re-queue in-flight requests"
        );
        for r in &result.records {
            let jct = r.jct();
            let total = r.breakdown.total();
            assert!(
                (total - jct).abs() < 1e-6 * jct.max(1.0),
                "breakdown must still sum to JCT under failures: {total} vs {jct}"
            );
        }
    }

    #[test]
    fn failure_increases_average_jct() {
        let base = run(KvMethodProfile::baseline(), Dataset::Cocktail, 0.08, 40);
        let failed = Simulator::new(failure_config(40, mid_decode_failure(40))).run();
        assert_eq!(failed.records.len(), 40);
        assert!(
            failed.average_jct() > base.average_jct(),
            "losing a decode replica mid-run must hurt JCT: {} vs {}",
            failed.average_jct(),
            base.average_jct()
        );
    }

    #[test]
    fn permanent_failure_leaves_survivors_serving() {
        let fault = FaultEvent::permanent(FaultDomain::DecodeReplica(0), 100.0);
        let result = Simulator::new(failure_config(40, fault)).run();
        // The paper-default fleet has 4 decode replicas; the other three finish the work.
        assert_eq!(result.records.len(), 40);
        assert!(result
            .records
            .iter()
            .all(|r| r.decode_replica != 0 || r.finish_time < 100.0));
    }

    #[test]
    fn failure_runs_are_deterministic_too() {
        let spec = mid_decode_failure(35);
        let a = Simulator::new(failure_config(35, spec)).run();
        let b = Simulator::new(failure_config(35, spec)).run();
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.requeued_requests, b.requeued_requests);
        assert!((a.average_jct() - b.average_jct()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "failure targets decode replica")]
    fn failure_on_nonexistent_replica_is_rejected() {
        let fault = FaultEvent::permanent(FaultDomain::DecodeReplica(99), 1.0);
        let _ = Simulator::new(failure_config(10, fault)).run();
    }

    // --- Topology-aware fabric and fault plans. ---

    fn link_graph_config(n: usize, rps: f64) -> SimulationConfig {
        let mut config = sim_config(KvMethodProfile::baseline(), Dataset::Imdb, rps, n);
        config.cluster.topology = crate::topology::TopologySpec::LinkGraph(
            crate::topology::LinkGraphSpec::paper_default(),
        );
        config
    }

    #[test]
    fn link_graph_without_faults_is_deterministic_and_conserves_requests() {
        let a = Simulator::new(link_graph_config(40, 0.6)).run();
        let b = Simulator::new(link_graph_config(40, 0.6)).run();
        assert_eq!(a, b, "link-graph runs must be bit-identical for one seed");
        assert_eq!(a.records.len(), 40);
        assert_eq!(a.aborted_requests, 0);
        assert_eq!(a.abandoned_requests, 0);
        assert_eq!(a.transfer_retries, 0, "no faults, no retries");
        assert!(a.faults.is_empty());
    }

    #[test]
    fn link_graph_matches_flat_when_transfers_never_overlap() {
        // A single request can never contend: its flow gets the full NIC rate
        // (the bottleneck link of the paper-default oversubscribed fabric), so
        // the fair-shared transfer takes the same time as the FIFO NIC's.
        let flat = Simulator::new(sim_config(
            KvMethodProfile::baseline(),
            Dataset::Imdb,
            0.1,
            1,
        ))
        .run();
        let graph = Simulator::new(link_graph_config(1, 0.1)).run();
        assert_eq!(flat.records.len(), 1);
        assert_eq!(graph.records.len(), 1);
        let (f, g) = (
            flat.records[0].breakdown.communication,
            graph.records[0].breakdown.communication,
        );
        assert!(
            (f - g).abs() < 1e-9 * f.max(1e-9),
            "uncontended comm time must agree between fabrics: {f} vs {g}"
        );
    }

    #[test]
    fn repeat_runs_reproduce_a_link_graph_fault_storm() {
        let mut cfg = link_graph_config(30, 0.6);
        let mut plan = crate::topology::FaultPlan::none();
        plan.push(crate::topology::FaultEvent::transient(
            crate::topology::FaultDomain::DecodeTor(0),
            40.0,
            120.0,
        ));
        plan.push(crate::topology::FaultEvent::transient(
            crate::topology::FaultDomain::Spine(0),
            150.0,
            165.0,
        ));
        cfg.faults = plan;
        assert_repeat_runs_agree(cfg, "link-graph fault storm");
    }

    /// All four decode replicas of a link-graph fleet fail for good at 30 s
    /// with telemetry on, so most requests can never resolve. The run must
    /// stop once only the sampler's tick is left queued (`queue_len() <=
    /// control.len()`), and so must its rerun with an inert autoscaler
    /// beside the sampler. While cancelled fabric events lingered in the
    /// queue it never did: the sampler ticked on, growing the address space
    /// by about 1 GB per second of recorded samples, until memory ran out.
    /// Its body, `unresolvable_link_graph_run_outcome`, therefore runs in a
    /// child process of this test binary under a 2 GiB address-space limit
    /// and a 20 s deadline, so that a regression fails this test instead of
    /// hanging it or exhausting the machine's memory.
    #[cfg(unix)]
    #[test]
    fn unresolvable_link_graph_run_with_telemetry_ends() {
        use std::process::{Command, Stdio};
        use std::time::{Duration, Instant};
        let mut child = Command::new("sh")
            .args(["-c", "ulimit -v 2097152 && exec \"$0\" \"$@\""])
            .arg(std::env::current_exe().expect("the test binary's path"))
            .args([
                "--exact",
                "sim::tests::unresolvable_link_graph_run_outcome",
                "--ignored",
                "--test-threads=1",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the test binary");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll the child").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("a run whose requests cannot all resolve did not end within 20 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let output = child
            .wait_with_output()
            .expect("collect the child's output");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success() && stdout.contains("test result: ok. 1 passed"),
            "the run failed ({}):\n{stdout}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }

    /// Body of `unresolvable_link_graph_run_with_telemetry_ends`, which runs
    /// it in a memory-capped child process.
    #[test]
    #[ignore = "run in a child process by unresolvable_link_graph_run_with_telemetry_ends"]
    fn unresolvable_link_graph_run_outcome() {
        let mut cfg = link_graph_config(40, 0.38);
        cfg.telemetry = TelemetryConfig::on();
        let faults: Vec<FaultEvent> = (0..4)
            .map(|i| FaultEvent::permanent(FaultDomain::DecodeReplica(i), 30.0))
            .collect();
        cfg.faults = FaultPlan::new(&faults);
        let result = Simulator::new(cfg).run();
        assert_eq!(
            (result.records.len(), result.aborted_requests),
            (11, 29),
            "(completed, aborted)"
        );
        // Both control-plane components armed: an inert autoscaler beside
        // the sampler ends the run at the same point, with the same result.
        cfg.policy.scaling = crate::policy::ScalingPolicyKind::Threshold {
            high: f64::MAX,
            low: 0.0,
        };
        assert_eq!(Simulator::new(cfg).run(), result);
    }

    #[test]
    fn tor_fault_blast_radius_is_exactly_the_replicas_behind_it() {
        // Paper-default fleet: 4 decode replicas at 2 per ToR -> DecodeTor(0)
        // shields replicas {0, 1}.
        let mut cfg = link_graph_config(40, 0.6);
        let mut plan = crate::topology::FaultPlan::none();
        plan.push(crate::topology::FaultEvent::transient(
            crate::topology::FaultDomain::DecodeTor(0),
            30.0,
            90.0,
        ));
        cfg.faults = plan;
        let result = Simulator::new(cfg).run();
        assert_eq!(result.faults.len(), 1);
        let fault = &result.faults[0];
        assert_eq!(
            fault.replicas_affected, 2,
            "a ToR fault must fail every replica behind the switch"
        );
        assert!((fault.downtime_secs - 60.0).abs() < 1e-9);
        // One FabricFault plus one ReplicaFailed per shielded replica.
        assert_eq!(result.injected_failures, 3);
        // Conservation: every request either completed, was rejected, or is
        // accounted as aborted.
        assert_eq!(
            result.records.len() + result.rejected_requests + result.aborted_requests,
            40
        );
        // Nothing decodes on a dead replica during the outage.
        for r in &result.records {
            if r.decode_replica < 2 {
                let decode_start = r.finish_time - r.breakdown.decode;
                assert!(
                    r.finish_time <= 30.0 + 1e-9 || decode_start >= 90.0 - 1e-9,
                    "request {} decoded on replica {} across the outage",
                    r.request.id,
                    r.decode_replica
                );
            }
        }
    }

    #[test]
    fn spine_fault_aborts_inflight_transfers_and_retries_complete_after_recovery() {
        let mut cfg = link_graph_config(40, 0.6);
        let mut plan = crate::topology::FaultPlan::none();
        plan.push(crate::topology::FaultEvent::transient(
            crate::topology::FaultDomain::Spine(0),
            20.0,
            35.0,
        ));
        cfg.faults = plan;
        let result = Simulator::new(cfg).run();
        // The spine fails no replicas -- it only severs every transfer path.
        assert_eq!(result.faults[0].replicas_affected, 0);
        assert!(
            result.transfer_retries > 0,
            "transfers attempted during the outage must retry"
        );
        assert!(
            !result.retry_histogram.is_empty(),
            "retrying requests must populate the attempt histogram"
        );
        assert_eq!(
            result.records.len() + result.rejected_requests + result.aborted_requests,
            40
        );
        assert!(
            result.records.len() > 30,
            "a 15s spine outage must not sink most of the run: {} completed",
            result.records.len()
        );
        assert!(result.degraded_secs > 0.0);
    }

    #[test]
    fn prefill_replica_fault_requeues_and_everything_completes_after_recovery() {
        // Prefill faults work on the Flat fabric too -- no link graph needed.
        let mut cfg = sim_config(KvMethodProfile::baseline(), Dataset::Imdb, 0.6, 40);
        let mut plan = crate::topology::FaultPlan::none();
        plan.push(crate::topology::FaultEvent::transient(
            crate::topology::FaultDomain::PrefillReplica(0),
            20.0,
            60.0,
        ));
        cfg.faults = plan;
        let result = Simulator::new(cfg).run();
        assert_eq!(
            result.records.len(),
            40,
            "everything completes after recovery"
        );
        assert_eq!(result.injected_failures, 1);
        assert_eq!(result.faults[0].replicas_affected, 1);
        for r in &result.records {
            let jct = r.jct();
            let total = r.breakdown.total();
            assert!(
                (total - jct).abs() < 1e-6 * jct.max(1.0),
                "breakdown must sum to JCT under prefill faults: {total} vs {jct}"
            );
        }
    }

    #[test]
    fn every_policy_kind_survives_a_prefill_replica_fault() {
        // Under load, a transient fault on prefill replica 0 re-routes its
        // queue (`drain_all` on a FIFO or on per-tenant sub-queues) and
        // leaves a dead, empty replica that the load-view dispatchers pick
        // and must fall back from.
        let n = 60;
        let mut cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 1.0, n);
        cfg.faults.push(FaultEvent::transient(
            FaultDomain::PrefillReplica(0),
            20.0,
            60.0,
        ));
        cfg.policy.tenants = TenantClasses::new(&[
            TenantClass {
                weight: 3.0,
                slo_jct: 30.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 300.0,
            },
        ]);
        let mut requests = TraceGenerator::new(cfg.trace).generate();
        for r in requests.iter_mut().skip(1).step_by(2) {
            r.tenant = hack_workload::trace::TenantId(1);
        }
        let requests = Arc::new(requests);
        for dispatch in DispatchPolicyKind::all() {
            for scheduling in SchedulingPolicyKind::all() {
                cfg.policy.dispatch = dispatch;
                cfg.policy.scheduling = scheduling;
                let label = format!("{} x {}", dispatch.name(), scheduling.name());
                let sim = Simulator::with_requests(cfg, requests.clone());
                let result = sim.run();
                assert_eq!(result.injected_failures, 1, "{label}");
                assert_eq!(
                    result.records.len() + result.rejected_requests + result.aborted_requests,
                    n,
                    "{label}: request conservation"
                );
                assert_eq!(sim.run(), result, "{label}: repeat run");
            }
        }
    }

    #[test]
    fn nic_fault_fails_its_replica_and_counts_one_domain() {
        let mut cfg = link_graph_config(40, 0.6);
        let mut plan = crate::topology::FaultPlan::none();
        plan.push(crate::topology::FaultEvent::transient(
            crate::topology::FaultDomain::DecodeNic(1),
            25.0,
            70.0,
        ));
        cfg.faults = plan;
        let result = Simulator::new(cfg).run();
        assert_eq!(result.faults[0].replicas_affected, 1);
        // FabricFault (link cut) + ReplicaFailed.
        assert_eq!(result.injected_failures, 2);
        assert_eq!(
            result.records.len() + result.rejected_requests + result.aborted_requests,
            40
        );
    }

    #[test]
    fn single_decode_replica_fault_fails_exactly_one_replica() {
        // A one-event plan over the decode-replica domain seeds one
        // ReplicaFailed + one ReplicaRecovered and touches no other replica.
        let fault = FaultEvent::transient(FaultDomain::DecodeReplica(1), 50.0, 400.0);
        let result = Simulator::new(failure_config(30, fault)).run();
        assert_eq!(result.injected_failures, 1);
        assert_eq!(result.faults.len(), 1);
        assert_eq!(result.faults[0].replicas_affected, 1);
    }

    #[test]
    fn invalid_fault_configs_yield_typed_errors() {
        let base = sim_config(KvMethodProfile::baseline(), Dataset::Imdb, 0.3, 5);

        // Recovery at or before the fault instant.
        let mut cfg = base;
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            10.0,
            10.0,
        ));
        cfg.faults = plan;
        assert!(matches!(
            Simulator::try_new(cfg),
            Err(ConfigError::RecoveryBeforeFault { .. })
        ));

        // Overlapping windows on the same domain.
        let mut cfg = base;
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            10.0,
            50.0,
        ));
        plan.push(FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            30.0,
            60.0,
        ));
        cfg.faults = plan;
        assert!(matches!(
            Simulator::try_new(cfg),
            Err(ConfigError::OverlappingFaults { .. })
        ));

        // Switch faults need a link-graph topology.
        let mut cfg = base;
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent::transient(FaultDomain::DecodeTor(0), 10.0, 50.0));
        cfg.faults = plan;
        assert!(matches!(
            Simulator::try_new(cfg),
            Err(ConfigError::TopologyRequired { .. })
        ));

        // Out-of-range ToR index under a link graph.
        let mut cfg = base;
        cfg.cluster.topology = crate::topology::TopologySpec::LinkGraph(
            crate::topology::LinkGraphSpec::paper_default(),
        );
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent::transient(FaultDomain::DecodeTor(9), 10.0, 50.0));
        cfg.faults = plan;
        assert!(matches!(
            Simulator::try_new(cfg),
            Err(ConfigError::ReplicaOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_tenant_tags_are_rejected() {
        use hack_workload::trace::TenantId;
        let cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 5);
        let mut requests = TraceGenerator::new(cfg.trace).generate();
        requests[3].tenant = TenantId(crate::policy::MAX_TENANTS as u32);
        assert!(matches!(
            Simulator::try_with_requests(cfg, Arc::new(requests)),
            Err(ConfigError::TenantOutOfRange {
                request: 3,
                tenant,
            }) if tenant as usize == crate::policy::MAX_TENANTS
        ));
    }

    #[test]
    fn trace_length_mismatch_is_a_typed_error() {
        let cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 5);
        let mut requests = TraceGenerator::new(cfg.trace).generate();
        requests.pop();
        assert_eq!(
            Simulator::try_with_requests(cfg, Arc::new(requests)).err(),
            Some(ConfigError::TraceLengthMismatch {
                expected: cfg.trace.num_requests,
                got: cfg.trace.num_requests - 1,
            })
        );
    }

    #[test]
    fn unrunnable_arrivals_and_empty_fleet_sides_are_typed_errors() {
        let cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 5);
        for arrival in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut requests = TraceGenerator::new(cfg.trace).generate();
            requests[2].arrival = arrival;
            let err = Simulator::try_with_requests(cfg, Arc::new(requests)).err();
            assert!(
                matches!(
                    err,
                    Some(ConfigError::InvalidArrival { request: 2, arrival: a })
                        if a.to_bits() == arrival.to_bits()
                ),
                "arrival {arrival}: {err:?}"
            );
        }

        // A sampling interval that is not a positive, finite number of
        // seconds could never re-arm the sampler; only construct, never run.
        for interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad = cfg;
            bad.telemetry = TelemetryConfig::with_interval(interval);
            let err = Simulator::try_new(bad).err();
            assert!(
                matches!(
                    err,
                    Some(ConfigError::InvalidTelemetryInterval { interval: i })
                        if i.to_bits() == interval.to_bits()
                ),
                "interval {interval}: {err:?}"
            );
        }

        let requests = Arc::new(TraceGenerator::new(cfg.trace).generate());
        let mut no_prefill = cfg;
        no_prefill.cluster.fleet.prefill.get_mut(0).replicas = 0;
        let mut no_decode = cfg;
        no_decode.cluster.fleet.decode.get_mut(0).replicas = 0;
        for (config, side) in [(no_prefill, "prefill"), (no_decode, "decode")] {
            assert_eq!(
                Simulator::try_with_requests(config, requests.clone()).err(),
                Some(ConfigError::EmptyFleetSide { side })
            );
        }
    }

    // --- Session-structured traces and the prefix cache. ---

    #[test]
    fn invalid_session_parents_yield_typed_errors() {
        let cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 5);
        let gen = || TraceGenerator::new(cfg.trace).generate();

        // Parent index beyond the trace.
        let mut requests = gen();
        requests[2].session = 1;
        requests[2].parent = Some(99);
        assert!(matches!(
            Simulator::try_with_requests(cfg, Arc::new(requests)),
            Err(ConfigError::InvalidSessionParent {
                child: 2,
                parent: 99
            })
        ));

        // Self-parent (equivalently: a parent that does not precede the child
        // in the trace).
        let mut requests = gen();
        requests[2].session = 1;
        requests[2].parent = Some(2);
        assert!(matches!(
            Simulator::try_with_requests(cfg, Arc::new(requests)),
            Err(ConfigError::InvalidSessionParent {
                child: 2,
                parent: 2
            })
        ));

        // Parent nominally arriving after its child.
        let mut requests = gen();
        requests[1].session = 1;
        requests[3].session = 1;
        requests[3].parent = Some(1);
        requests[1].arrival = requests[3].arrival + 10.0;
        assert!(matches!(
            Simulator::try_with_requests(cfg, Arc::new(requests)),
            Err(ConfigError::InvalidSessionParent {
                child: 3,
                parent: 1
            })
        ));

        // A well-formed link constructs fine.
        let mut requests = gen();
        requests[1].session = 1;
        requests[3].session = 1;
        requests[3].parent = Some(1);
        requests[3].shared_prefix_tokens = requests[1].input_len.min(16);
        assert!(Simulator::try_with_requests(cfg, Arc::new(requests)).is_ok());
    }

    #[test]
    fn session_children_wait_for_their_parent() {
        let cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 0.05, 6);
        let mut requests = TraceGenerator::new(cfg.trace).generate();
        // Request 3 follows up on request 0 in session 1, nominally arriving
        // at its original (pre-gating) instant.
        requests[0].session = 1;
        requests[3].session = 1;
        requests[3].parent = Some(0);
        requests[3].shared_prefix_tokens = requests[0].input_len;
        let result = Simulator::with_requests(cfg, Arc::new(requests)).run();
        assert_eq!(result.records.len(), 6);
        let record_of = |id: u64| {
            result
                .records
                .iter()
                .find(|r| r.request.id == id)
                .expect("completed")
        };
        let parent_finish = record_of(0).finish_time;
        let child = record_of(3);
        // The child's prefill starts at arrival + queueing; gating must push
        // that past the parent's completion.
        assert!(
            child.request.arrival + child.breakdown.queueing >= parent_finish - 1e-9,
            "child prefill started before its parent finished"
        );
    }

    /// Sessions with the prefix cache and autoscaling on a faulted
    /// two-spine link graph: decode replicas, a decode ToR and a spine fail
    /// and recover while requests are in every phase. Pipelining is off
    /// until a caller sets it.
    fn faulted_session_run() -> (SimulationConfig, Arc<Vec<Request>>) {
        use crate::policy::ScalingPolicyKind;
        use crate::topology::{AvailabilityModel, LinkGraphSpec, MtbfSpec, TopologySpec};
        use hack_workload::trace::TenantId;
        use hack_workload::{SessionKind, SessionSpec, SessionTrace};
        let spec = |tenant: u32, kind: SessionKind, seed: u64| SessionSpec {
            tenant: TenantId(tenant),
            kind,
            sessions: 60,
            rps: 1.0,
            dataset: Dataset::Arxiv,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed,
        };
        let requests = Arc::new(
            SessionTrace::new(vec![
                spec(
                    0,
                    SessionKind::Chat {
                        turns: 6,
                        think_mean_s: 5.0,
                    },
                    3,
                ),
                spec(
                    1,
                    SessionKind::Agentic {
                        tools: 3,
                        tool_delay_s: 5.0,
                    },
                    4,
                ),
            ])
            .generate(),
        );
        let mut cfg = sim_config(
            KvMethodProfile::baseline(),
            Dataset::Arxiv,
            0.6,
            requests.len(),
        );
        cfg.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(2));
        cfg.cluster.set_decode_replicas(8);
        cfg.cluster.pipelining = false;
        cfg.cache = CacheConfig::on();
        cfg.policy.dispatch = DispatchPolicyKind::SessionAffinity;
        cfg.policy.scaling = ScalingPolicyKind::TargetUtilization {
            setpoint: 0.7,
            band: 0.15,
        };
        let horizon_s = 60.0 / 1.0;
        let availability = AvailabilityModel {
            decode_replica: Some(MtbfSpec::outage(horizon_s / 3.0, 30.0)),
            decode_tor: Some(MtbfSpec::outage(horizon_s / 2.0, 20.0)),
            spine: Some(MtbfSpec::outage(horizon_s, 20.0)),
            ..AvailabilityModel::default()
        };
        cfg.faults = availability.generate_plan(&cfg.cluster.fleet_shape(), horizon_s, 11);
        (cfg, requests)
    }

    /// Every decode-replica failure of a test build checks its indexed
    /// failure sets (blast-radius count, aborted decodes in order, cleared
    /// reservations, released prefix hits) against the whole-trace scans
    /// they replaced (`components::decode::oracle`). These runs drive that
    /// check through each case: [`faulted_session_run`] with pipelining on
    /// and off, so replicas fail mid-decode, mid-transfer, under pipelined
    /// reservations whose prefill is still running, behind a ToR whose cut
    /// already aborted their transfers, and while prefix hits are pinned.
    #[test]
    fn indexed_failure_sets_match_the_whole_trace_scans() {
        use crate::components::decode::oracle;
        let (mut cfg, requests) = faulted_session_run();
        oracle::take_checked();
        for pipelining in [true, false] {
            cfg.cluster.pipelining = pipelining;
            let result = Simulator::with_requests(cfg, requests.clone()).run();
            assert_eq!(
                result.records.len() + result.rejected_requests + result.aborted_requests,
                requests.len()
            );
        }
        let checked = oracle::take_checked();
        let total = |f: fn(&oracle::Coverage) -> usize| checked.iter().map(f).sum::<usize>();
        let covered = [
            checked.len(),
            total(|c| c.mid_decode),
            total(|c| c.mid_transfer),
            total(|c| c.pipelined),
            total(|c| c.fabric_cut),
            total(|c| c.hits),
        ];
        assert!(
            covered[0] >= 8 && covered.iter().all(|&n| n > 0),
            "failures, mid-decode, mid-transfer, pipelined, fabric-cut, hits: {covered:?}"
        );
    }

    /// Runs `cfg` over `requests` and checks each record's timestamps:
    /// arrival ≤ prefill end ≤ decode admission ≤ finish. The prefill end
    /// and the finish come from the record, the (last) decode admission
    /// from the phase log. Returns how many records were admitted to decode
    /// before their prefill ended; every other order must hold.
    fn records_admitted_before_prefill_end(
        cfg: SimulationConfig,
        requests: &Arc<Vec<Request>>,
    ) -> usize {
        use crate::components::{phase_log, ReqPhase};
        phase_log::start();
        let result = Simulator::with_requests(cfg, requests.clone()).run();
        let log = phase_log::take();
        let mut admitted = vec![f64::NAN; requests.len()];
        let mut done = vec![f64::NAN; requests.len()];
        for (req, to, now) in log {
            match to {
                ReqPhase::Decoding { .. } => admitted[req] = now,
                ReqPhase::Done => done[req] = now,
                _ => {}
            }
        }
        assert!(!result.records.is_empty());
        let mut early = 0;
        for r in &result.records {
            let req = r.request.id as usize;
            assert_eq!(requests[req].id, r.request.id);
            let tol = 1e-9 * r.finish_time.max(1.0);
            let prefill_end = prefill_end(r);
            assert!(r.request.arrival <= prefill_end + tol, "request {req}");
            assert!(admitted[req] <= r.finish_time, "request {req}");
            assert_eq!(done[req], r.finish_time, "request {req}");
            if admitted[req] < prefill_end - tol {
                early += 1;
            }
        }
        early
    }

    /// Records admitted to decode before their prefill ended in
    /// [`faulted_session_run`] with pipelining: the requests that took the
    /// known violation (`ReqPhase::redispatches_under_prefill`) and whose
    /// new transfer landed before their `PrefillFinished`. ROADMAP item
    /// 11(b) deletes the transition and takes this to zero.
    const KNOWN_EARLY_ADMISSIONS: usize = 1;

    #[test]
    fn record_timestamps_follow_the_pipeline_order() {
        use hack_workload::trace::TenantId;
        use hack_workload::{SessionKind, SessionSpec, SessionTrace};
        let paper_default = sim_config(KvMethodProfile::hack(), Dataset::Arxiv, 0.6, 200);
        let requests = Arc::new(TraceGenerator::new(paper_default.trace).generate());
        assert_eq!(
            records_admitted_before_prefill_end(paper_default, &requests),
            0
        );

        let (mut faulted, requests) = faulted_session_run();
        faulted.cluster.pipelining = true;
        assert_eq!(
            records_admitted_before_prefill_end(faulted, &requests),
            KNOWN_EARLY_ADMISSIONS
        );

        let chat = SessionSpec {
            tenant: TenantId(0),
            kind: SessionKind::Chat {
                turns: 4,
                think_mean_s: 25.0,
            },
            sessions: 8,
            rps: 0.04,
            dataset: Dataset::Cocktail,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: 17,
        };
        let requests = Arc::new(SessionTrace::new(vec![chat]).generate());
        let mut sessions = sim_config(KvMethodProfile::hack(), Dataset::Cocktail, 0.04, 0);
        sessions.trace.num_requests = requests.len();
        sessions.cache = CacheConfig::on();
        assert_eq!(records_admitted_before_prefill_end(sessions, &requests), 0);
    }

    /// Two identical requests on one prefill replica and a decode replica
    /// whose KV budget fits only one of them, so the second waits for
    /// memory from its prefill end until memory frees. Returns the
    /// configuration, the trace, and the uncontended transfer time of one
    /// request.
    fn one_fit_pair(decode_replicas: usize) -> (SimulationConfig, Arc<Vec<Request>>, f64) {
        let mut cfg = sim_config(KvMethodProfile::baseline(), Dataset::Cocktail, 1.0, 2);
        cfg.cluster.set_prefill_replicas(1);
        cfg.cluster.set_decode_replicas(decode_replicas);
        let model = cfg.cluster.decode_cost_model(0);
        let budget = cfg.cluster.decode_group_kv_budget_bytes(0);
        let per_token = model.kv_fp16_bytes(1) * cfg.profile.kv_size_factor;
        // A sequence filling 70% of the budget: one fits, two do not.
        let tokens = (0.7 * budget / per_token) as usize;
        let input_len = 512;
        let request = |id: u64, arrival: f64| Request {
            id,
            tenant: hack_workload::trace::TenantId(0),
            arrival,
            input_len,
            output_len: tokens - input_len,
            session: 0,
            parent: None,
            shared_prefix_tokens: 0,
        };
        let requests = Arc::new(vec![request(0, 0.5), request(1, 0.6)]);
        cfg.trace.num_requests = requests.len();
        let sim = Simulator::with_requests(cfg, requests.clone());
        let transfer = sim.costs().prefill_models[0].transfer_time(
            input_len,
            &cfg.profile,
            cfg.cluster.fleet.wire_gbps(0, 0),
        );
        (cfg, requests, transfer)
    }

    /// When request 1's prefill ended (the start of its memory wait).
    fn prefill_end(r: &RequestRecord) -> f64 {
        let b = &r.breakdown;
        r.request.arrival + b.queueing + b.prefill + b.quantization
    }

    fn assert_close(got: f64, want: f64) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "got {got}, want {want}"
        );
    }

    /// The wait start rides in the request's memory-wait phase: the second
    /// request's wait runs from its own prefill end to the instant the first
    /// request's completion frees the replica, so its communication charge
    /// is its transfer time plus exactly that wait.
    #[test]
    fn memory_wait_ends_when_the_blocking_request_finishes() {
        let (cfg, requests, transfer) = one_fit_pair(1);
        let result = Simulator::with_requests(cfg, requests).run();
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.swapped_requests, 1);
        let (first, second) = (&result.records[0], &result.records[1]);
        assert_eq!((first.request.id, second.request.id), (0, 1));
        assert_close(first.breakdown.communication, transfer);
        let waited = first.finish_time - prefill_end(second);
        assert!(waited > 0.0, "request 1 must wait for memory");
        assert_close(second.breakdown.communication, transfer + waited);
    }

    /// The same wait, spanning a replica join: the first scale tick (t = 0)
    /// drains the idle second replica, the next one (t = 10 s) sees the
    /// waiting request and orders the replica back, and its join after the
    /// provisioning delay — before the first request finishes — ends the
    /// wait.
    #[test]
    fn memory_wait_ends_at_the_replica_join_that_admits_it() {
        use crate::components::scaling::SCALE_TICK_SECS;
        use crate::policy::ScalingPolicyKind;
        let (mut cfg, requests, transfer) = one_fit_pair(2);
        cfg.policy.scaling = ScalingPolicyKind::Threshold {
            high: 0.5,
            low: 0.1,
        };
        let join = SCALE_TICK_SECS + cfg.cluster.fleet.decode.get(0).provision_delay_s;
        let result = Simulator::with_requests(cfg, requests).run();
        assert_eq!(result.records.len(), 2);
        assert_eq!((result.scale_ups, result.swapped_requests), (1, 1));
        let first = &result.records[0];
        let second = result
            .records
            .iter()
            .find(|r| r.request.id == 1)
            .expect("completed");
        assert!(prefill_end(second) < SCALE_TICK_SECS && join < first.finish_time);
        assert_eq!((first.decode_replica, second.decode_replica), (0, 1));
        assert_close(
            second.breakdown.communication,
            transfer + (join - prefill_end(second)),
        );
    }

    #[test]
    fn chat_sessions_hit_the_cache_and_cache_off_stays_identical() {
        use hack_workload::trace::TenantId;
        use hack_workload::{SessionKind, SessionSpec, SessionTrace};
        let spec = SessionSpec {
            tenant: TenantId(0),
            kind: SessionKind::Chat {
                turns: 4,
                think_mean_s: 25.0,
            },
            sessions: 8,
            rps: 0.04,
            dataset: Dataset::Cocktail,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: 17,
        };
        let requests = Arc::new(SessionTrace::new(vec![spec]).generate());
        let mut cfg = sim_config(KvMethodProfile::hack(), Dataset::Cocktail, 0.04, 0);
        cfg.trace.num_requests = requests.len();

        let off = Simulator::with_requests(cfg, requests.clone()).run();
        let off_again = Simulator::with_requests(cfg, requests.clone()).run();
        assert_eq!(off, off_again, "cache-off runs must be bit-identical");
        assert_eq!(off.prefix_hits, 0);
        assert_eq!(off.prefix_misses, 0);
        assert!(off.prefix_cache_peak_fraction.is_empty());

        cfg.cache = CacheConfig::on();
        let on = Simulator::with_requests(cfg, requests.clone()).run();
        assert_eq!(on.records.len(), off.records.len());
        assert!(on.prefix_hits > 0, "chat follow-ups must hit");
        assert!(
            on.prefix_hit_rate >= 0.5,
            "hit rate {} below 0.5",
            on.prefix_hit_rate
        );
        assert!(on.prefill_seconds_saved > 0.0);
        assert!(on.prefix_bytes_saved > 0.0);
        assert!(!on.prefix_cache_peak_fraction.is_empty());
        assert!(
            on.average_jct() < off.average_jct(),
            "cache-on JCT {} must beat cache-off {}",
            on.average_jct(),
            off.average_jct()
        );
    }
}
