//! The cluster simulator: components assembled on the [`hack_sim`] engine.
//!
//! [`Simulator::run`] builds a [`hack_sim::Simulation`], registers the
//! component fleet (frontend, prefill replicas, network fabric, decode
//! replicas — see [`crate::components`]), seeds it with the request trace's
//! arrival events (plus any fault-injection events), and drives the engine
//! until every request completes.
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

use crate::components::decode::DecodeReplica;
use crate::components::frontend::Frontend;
use crate::components::network::NetworkFabric;
use crate::components::prefill::PrefillReplica;
use crate::components::scaling::ScalingController;
use crate::components::{
    ClusterState, DecodeReplicaState, FaultTally, PrefillReplicaState, ReqState, SimCosts,
};
use crate::config::{ClusterConfig, SimulationConfig};
use crate::events::{
    FabricFault, FabricRecovered, PrefillFailed, PrefillRecovered, ReplicaFailed, ReplicaRecovered,
    RequestArrived, SampleTick, ScaleTick,
};
use crate::policy::{Admission, Dispatch, Scaling, Scheduling};
use crate::result::{FaultRecord, GroupStats, RequestRecord, SimulationResult};
use crate::telemetry::{TelemetrySampler, TelemetryState};
use crate::topology::{ConfigError, FaultDomain};
use hack_metrics::jct::JctBreakdown;
use hack_metrics::telemetry::Telemetry;
use hack_model::cost::{KvMethodProfile, ReplicaCostModel};
use hack_model::cost_table::{DecodeCostTable, PrefillCostTable};
use hack_sim::{EngineMode, EventRecord, Simulation};
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
        // Session DAG validation: a child's parent must precede it in the
        // trace and must not arrive after it — gating releases children at
        // `max(child arrival, parent completion)`, which is only causal when
        // parents nominally arrive first.
        for (i, r) in requests.iter().enumerate() {
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

    fn profile(&self) -> &KvMethodProfile {
        &self.config.profile
    }

    /// Runs the simulation to completion and returns the aggregated result.
    pub fn run(&self) -> SimulationResult {
        self.run_with_mode(EngineMode::Slab)
    }

    /// Runs on an explicit engine representation ([`EngineMode::Boxed`] is the
    /// pre-slab engine, kept for equivalence testing; results are
    /// bit-identical across modes).
    pub fn run_with_mode(&self, mode: EngineMode) -> SimulationResult {
        self.run_impl(mode, false).0
    }

    /// Runs and returns the recorded [`Telemetry`] alongside the result —
    /// `None` unless the configuration enables [`crate::TelemetryConfig`].
    /// The result itself is bit-identical to [`Simulator::run`]: telemetry
    /// records the simulation, it never perturbs it.
    pub fn run_with_telemetry(&self) -> (SimulationResult, Option<Telemetry>) {
        self.run_with_telemetry_mode(EngineMode::Slab)
    }

    /// [`Simulator::run_with_telemetry`] on an explicit engine mode (used by
    /// the telemetry determinism tests).
    pub fn run_with_telemetry_mode(
        &self,
        mode: EngineMode,
    ) -> (SimulationResult, Option<Telemetry>) {
        let (result, _, telemetry) = self.run_impl(mode, false);
        (result, telemetry)
    }

    /// Runs with structured event logging enabled, returning the full engine
    /// event trace alongside the result (used by the trace-equivalence tests).
    pub fn run_traced(&self, mode: EngineMode) -> (SimulationResult, Vec<EventRecord>) {
        let (result, trace, _) = self.run_impl(mode, true);
        (result, trace)
    }

    fn run_impl(
        &self,
        mode: EngineMode,
        capture_log: bool,
    ) -> (SimulationResult, Vec<EventRecord>, Option<Telemetry>) {
        let requests = self.requests.clone();
        let costs = self.costs().clone();
        let profile = *self.profile();
        let cluster_cfg = &self.config.cluster;
        let prefill_replicas = cluster_cfg.fleet.prefill.total_replicas();
        let decode_replicas = cluster_cfg.fleet.decode.total_replicas();

        // --- Assemble the engine and the component fleet. (The fault plan and
        // topology were validated at construction time.) ---
        let mut sim = Simulation::with_mode(self.config.trace.seed, mode);
        sim.set_log_enabled(capture_log);
        let driver = sim.create_context("driver");
        let frontend_ctx = sim.create_context("frontend");
        let fabric_ctx = sim.create_context("fabric");
        let prefill_ctxs: Vec<_> = (0..prefill_replicas)
            .map(|i| sim.create_context(format!("prefill-{i}")))
            .collect();
        let decode_ctxs: Vec<_> = (0..decode_replicas)
            .map(|i| sim.create_context(format!("decode-{i}")))
            .collect();
        // The sampler and controller contexts are created *after* every
        // regular component (sampler first), so runs without them assign
        // exactly the component ids they always did.
        let telemetry_settings = self.config.telemetry.settings();
        let sampler_ctx = telemetry_settings
            .as_ref()
            .map(|_| sim.create_context("telemetry-sampler"));
        let scaler = Scaling::new(self.config.policy.scaling)
            .map(|scaling| (scaling, sim.create_context("scaling-controller")));
        // Perpetual tickers: auxiliary components that always keep one
        // self-addressed event pending (the telemetry sampler's SampleTick,
        // the scaling controller's ScaleTick).
        let tickers = usize::from(telemetry_settings.is_some()) + usize::from(scaler.is_some());

        let frontend_id = frontend_ctx.id();
        let prefill_ids: Vec<_> = prefill_ctxs.iter().map(|c| c.id()).collect();
        let decode_ids: Vec<_> = decode_ctxs.iter().map(|c| c.id()).collect();

        // Seed the queue: one arrival event per independent request or
        // session root, plus fault injection. Session children are gated on
        // their parent's terminal state — `release_children` injects them at
        // `max(arrival, parent completion)`. `parent.is_none()` is always
        // true for legacy traces, so this is the exact pre-session seeding
        // for them.
        for (i, r) in requests.iter().enumerate() {
            if r.parent.is_none() {
                driver.emit_at(RequestArrived { req: i }, frontend_id, r.arrival);
            }
        }
        // Expand the fault plan: for each fault, its fabric cut (link-cutting
        // domains only, delivered to the frontend) precedes the correlated
        // replica failures (ascending replica index), and recovery events
        // mirror that order. A legacy single-decode-replica plan expands to
        // exactly the two events the pre-plan simulator seeded.
        // A degradation slows links without failing anything behind them: it
        // expands to the fabric events only.
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
                driver.emit_at(PrefillFailed { fault: k }, prefill_ids[i], f.at);
            }
            for &i in dec {
                driver.emit_at(ReplicaFailed { fault: k }, decode_ids[i], f.at);
            }
            if let Some(recover) = f.recover_at {
                if f.domain.needs_link_graph() {
                    driver.emit_at(FabricRecovered { fault: k }, frontend_id, recover);
                }
                for &i in pre {
                    driver.emit_at(PrefillRecovered { fault: k }, prefill_ids[i], recover);
                }
                for &i in dec {
                    driver.emit_at(ReplicaRecovered { fault: k }, decode_ids[i], recover);
                }
            }
        }

        let num_requests = requests.len();
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
        // sessions, so every release site is a single `is_empty` check on the
        // legacy path.
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
            states: vec![ReqState::default(); requests.len()],
            requests,
            prefill,
            decode: decode_group_of
                .iter()
                .map(|&g| DecodeReplicaState {
                    group: g,
                    kv_capacity: decode_budgets[g],
                    kv_used: 0.0,
                    peak_kv: 0.0,
                    active: 0,
                    resident_tokens: 0,
                    failed: false,
                    reservations: 0,
                    scaled_out: false,
                    draining: false,
                })
                .collect(),
            waiting_for_memory: VecDeque::new(),
            waiting_for_prefill: VecDeque::new(),
            fabric: match cluster_cfg.topology.link_graph() {
                // The flat fabric is constructed exactly as before the
                // topology API existed (bit- and cost-identical default).
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
            swapped: 0,
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
            frontend_id: Some(frontend_id),
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
        if tickers > 0 {
            // The blackboard doubles as the engine probe: auxiliary components
            // (the sampler and the scaling controller) observe the simulation
            // through `SimulationContext::probe` instead of being wired in.
            sim.install_probe(cluster.clone());
        }

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
        let sampler_ticks = Rc::new(std::cell::Cell::new(0u64));
        if let (Some(ctx), Some(settings)) = (sampler_ctx, telemetry_settings) {
            // Seed the first tick at t=0 so every series starts at the origin;
            // the sampler re-arms itself each tick.
            ctx.emit_at(SampleTick, ctx.id(), 0.0);
            sim.add_handler(
                "telemetry-sampler",
                Rc::new(RefCell::new(TelemetrySampler {
                    ctx,
                    interval: settings.sample_interval_secs.max(f64::MIN_POSITIVE),
                    ticks: sampler_ticks.clone(),
                })),
            );
        }
        let scale_ticks = Rc::new(std::cell::Cell::new(0u64));
        if let Some((scaling, ctx)) = scaler {
            // The first control decision fires at t=0 (observing the fleet's
            // configured full capacity); the controller re-arms itself.
            ctx.emit_at(ScaleTick, ctx.id(), 0.0);
            sim.add_handler(
                "scaling-controller",
                Rc::new(RefCell::new(ScalingController {
                    ctx,
                    policy: scaling,
                    ordered: vec![false; decode_replicas],
                    arrivals_seen: 0,
                    ticks: scale_ticks.clone(),
                })),
            );
        }

        // --- Drive the engine until every request is resolved — completed or
        // rejected by admission — (or the queue runs dry, e.g. under a
        // permanent failure of the whole decode fleet). ---
        let mut makespan = 0.0f64;
        // Each ticker keeps exactly one tick pending at all times, so the
        // queue never runs dry on its own: when a delivered control event
        // leaves nothing but the tickers' own re-arms behind
        // (`queue_len() <= tickers`) the simulation proper is over — a
        // ticker-free run would have seen `step()` return false. That check
        // only needs to run on control-delivering steps (between control
        // events the queue always holds the pending ticks plus at least one
        // live event); without tickers the counters never move, so every
        // step takes the makespan branch. Steps that deliver control-plane
        // traffic (sampler ticks, scale ticks, provisioning landings) are
        // excluded from the makespan so it stays a maximum over
        // request-visible events only — bit-identical to a ticker-free run
        // when nothing scales, even when the run ends with the queue dry
        // (e.g. a permanent whole-fleet failure): events are delivered in
        // time order, so the surviving maximum is over exactly the same
        // event set.
        while {
            let cs = cluster.borrow();
            cs.completed + cs.rejected < num_requests
        } {
            let ticks_before = sampler_ticks.get() + scale_ticks.get();
            if !sim.step() {
                break;
            }
            if sampler_ticks.get() + scale_ticks.get() == ticks_before {
                makespan = makespan.max(sim.time());
            } else if sim.queue_len() <= tickers {
                break;
            }
        }

        // --- Assemble records. ---
        let cs = cluster.borrow();
        debug_assert_eq!(
            cs.fabric.active_flows(),
            0,
            "every link-graph flow must have landed or been aborted by run end"
        );
        let params_bytes = cluster_cfg.model.spec().param_bytes_fp16();
        let peak_kv = cs.decode.iter().map(|d| d.peak_kv).fold(0.0, f64::max);

        let mut records: Vec<RequestRecord> = cs
            .requests
            .iter()
            .enumerate()
            .filter(|(i, _)| cs.states[*i].done)
            .map(|(i, r)| {
                let s = &cs.states[i];
                RequestRecord {
                    request: *r,
                    prefill_replica: s.prefill_replica,
                    decode_replica: s.decode_replica,
                    finish_time: s.finish_time,
                    breakdown: JctBreakdown {
                        prefill: s.prefill_time,
                        quantization: s.quant_time,
                        // Waiting for decode memory keeps the KV transfer pending on
                        // the prefill side (Fig. 1(d), case ii), so it is charged to
                        // communication, as in the paper's measurements.
                        communication: s.comm_time + s.memory_wait,
                        dequant_or_approx: s.dequant_time,
                        // Decode attempts aborted by a replica failure are wasted
                        // decode-side time; charge them to the decode stage so the
                        // breakdown still sums to the JCT.
                        decode: s.decode_time + s.aborted_decode,
                        queueing: s.prefill_wait,
                    },
                }
            })
            .collect();
        records.sort_by(|a, b| a.finish_time.total_cmp(&b.finish_time));

        // --- Per-group usage summaries. ---
        let mut prefill_groups: Vec<GroupStats> = cluster_cfg
            .fleet
            .prefill
            .iter()
            .enumerate()
            .map(|(g, spec)| GroupStats {
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
            })
            .collect();
        let mut decode_groups: Vec<GroupStats> = cluster_cfg
            .fleet
            .decode
            .iter()
            .enumerate()
            .map(|(g, spec)| {
                let mem = cluster_cfg.decode_group_mem_bytes(g);
                let act_bytes = cluster_cfg.activation_reserve * mem;
                let group_peak = cs
                    .decode
                    .iter()
                    .filter(|d| d.group == g)
                    .map(|d| d.peak_kv)
                    .fold(0.0, f64::max);
                GroupStats {
                    group: g,
                    gpu: spec.gpu,
                    replicas: spec.replicas,
                    completed: 0,
                    busy_secs: 0.0,
                    utilization: 0.0,
                    mean_jct: 0.0,
                    peak_kv_bytes: group_peak,
                    peak_memory_fraction: ((params_bytes + act_bytes + group_peak) / mem).min(1.0),
                    gpu_dollars: 0.0,
                }
            })
            .collect();
        // Accumulate from the per-request states rather than the records: the
        // record's decode stage folds failure-aborted attempts into the
        // completing replica's column (it is a *request* decomposition),
        // while group utilization must charge wasted attempts to the group
        // that actually spent them (`aborted_decode_by_group`, below).
        for (i, s) in cs.states.iter().enumerate().filter(|(_, s)| s.done) {
            let pg = &mut prefill_groups[cs.prefill[s.prefill_replica].group];
            pg.completed += 1;
            pg.busy_secs += s.prefill_time + s.quant_time;
            let jct = s.finish_time - cs.requests[i].arrival;
            pg.mean_jct += jct;
            let dg = &mut decode_groups[cs.decode[s.decode_replica].group];
            dg.completed += 1;
            dg.busy_secs += s.dequant_time + s.decode_time;
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
        // The headline memory figure is the worst group's (for single-group
        // fleets this is exactly the pre-fleet scalar).
        let peak_fraction = decode_groups
            .iter()
            .map(|g| g.peak_memory_fraction)
            .fold(0.0, f64::max);

        // --- Robustness sensors. All zero/empty without fault injection. ---
        // Requests neither completed nor rejected by admission when the run
        // ended: permanently aborted (exhausted retries + re-admissions) or
        // stranded by a permanent whole-fleet failure.
        let aborted_requests = cs.states.iter().filter(|s| !s.done && !s.rejected).count();
        // retry_histogram[k] = requests that made exactly k transfer attempts
        // (k >= 1; empty when no retries happened, so fault-free results stay
        // visibly clean).
        let retry_histogram = if cs.retries == 0 {
            Vec::new()
        } else {
            let max_attempts = cs
                .states
                .iter()
                .map(|s| s.transfer_attempts as usize)
                .max()
                .unwrap_or(0);
            let mut hist = vec![0usize; max_attempts + 1];
            for s in cs.states.iter().filter(|s| s.transfer_attempts > 0) {
                hist[s.transfer_attempts as usize] += 1;
            }
            hist
        };
        let faults: Vec<FaultRecord> = self
            .config
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
        // Goodput while degraded: completions per second inside the union of
        // the fault windows (clipped to the run).
        let mut windows: Vec<(f64, f64)> = faults
            .iter()
            .map(|f| {
                (
                    f.at.min(makespan),
                    f.recover_at.unwrap_or(makespan).min(makespan),
                )
            })
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
        for f in self.config.faults.iter() {
            let Some(factor) = f.degrade else { continue };
            let start = f.at.min(makespan);
            let end = f.recover_at.unwrap_or(makespan).min(makespan);
            let mut window = (end - start).max(0.0);
            // A binary outage of the same domain cuts the very links the
            // degradation slows: dead link time is not *degraded* time, so
            // each overlapping outage window's intersection is subtracted
            // (outage windows on one domain are validated disjoint, so no
            // intersection is subtracted twice).
            for o in self.config.faults.iter() {
                if o.degrade.is_some() || o.domain != f.domain {
                    continue;
                }
                let o_start = o.at.min(makespan);
                let o_end = o.recover_at.unwrap_or(makespan).min(makespan);
                window -= (end.min(o_end) - start.max(o_start)).max(0.0);
            }
            let links = cs.fabric.links_for_domain(f.domain);
            degraded_link_secs += links.len() as f64 * window;
            throughput_loss_gbps_s += cs.fabric.nominal_capacity(&links) * (1.0 - factor) * window;
        }
        let rerouted_flows = cs.fabric.rerouted_flows();

        // --- $/GPU-hour cost sensors. Prefill groups are static this PR and
        // bill every replica for the whole makespan. Decode replicas bill
        // their racked uptime: closed scale-down intervals accumulated in
        // `decode_uptime`, plus the still-open interval of every replica that
        // is live (or failed-but-racked) at run end. Without a scaling policy
        // every interval is `[0, makespan]`, so the cost collapses to
        // `replicas * makespan * rate` — the static fleet's bill. ---
        let mut gpu_dollars = 0.0;
        for (g, spec) in cluster_cfg.fleet.prefill.iter().enumerate() {
            let dollars = spec.replicas as f64 * makespan * spec.replica_dollars_per_s();
            prefill_groups[g].gpu_dollars = dollars;
            gpu_dollars += dollars;
        }
        let mut base = 0usize;
        for (g, spec) in cluster_cfg.fleet.decode.iter().enumerate() {
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
        let (prefix_hits, prefix_misses, prefix_evictions) = match &cs.cache {
            Some(c) => (c.hits, c.misses, c.evictions),
            None => (0, 0, 0),
        };
        let (prefix_hit_rate, prefix_bytes_saved, prefill_seconds_saved) = match &cs.cache {
            Some(c) => (c.hit_rate(), c.bytes_saved, c.prefill_secs_saved),
            None => (0.0, 0.0, 0.0),
        };
        // Per decode group: the worst replica's peak cache occupancy as a
        // fraction of that replica's full KV budget.
        let prefix_cache_peak_fraction: Vec<f64> = match &cs.cache {
            None => Vec::new(),
            Some(c) => (0..cluster_cfg.fleet.decode.len())
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
        };

        let result = SimulationResult {
            method: profile.name.to_string(),
            records,
            peak_decode_memory_fraction: peak_fraction,
            peak_decode_kv_bytes: peak_kv,
            swapped_requests: cs.swapped,
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
            rerouted_flows,
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
        };
        drop(cs);
        let telemetry = cluster.borrow_mut().tel.take().map(|ts| ts.tel);
        (result, sim.take_log(), telemetry)
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
    use crate::policy::{
        DispatchPolicyKind, PolicyConfig, SchedulingPolicyKind, TenantClass, TenantClasses,
    };
    use crate::telemetry::TelemetryConfig;
    use crate::topology::{FaultDomain, FaultEvent, FaultPlan};
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
        SimulationConfig {
            cluster,
            trace: TraceConfig {
                dataset,
                rps,
                num_requests: n,
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: 7,
            },
            profile,
            policy: PolicyConfig::default(),
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        }
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
            let cfg = SimulationConfig {
                cluster,
                trace: TraceConfig {
                    dataset: Dataset::Cocktail,
                    rps: 0.05,
                    num_requests: 40,
                    max_context: ModelKind::Llama31_70B.spec().max_context,
                    seed: 11,
                },
                profile: KvMethodProfile::baseline(),
                policy: PolicyConfig::default(),
                faults: FaultPlan::none(),
                telemetry: TelemetryConfig::Off,
                cache: CacheConfig::Off,
            };
            Simulator::new(cfg).run().average_ratios().communication
        };
        let v100 = mk(GpuKind::V100);
        let a100 = mk(GpuKind::A100);
        assert!(v100 > a100, "V100 comm ratio {v100} vs A100 {a100}");
        assert!(a100 < 0.1, "A100 (400 Gbps) comm ratio {a100}");
    }

    #[test]
    fn slab_engine_reproduces_boxed_engine_trace_and_result() {
        // The slab/inline-payload engine must reproduce the pre-change boxed
        // engine on a seeded cluster run: identical event trace (every emission
        // and delivery, in order) and identical SimulationResult (PartialEq on
        // the result compares every f64 exactly).
        for profile in [KvMethodProfile::baseline(), KvMethodProfile::hack()] {
            let cfg = sim_config(profile, Dataset::Cocktail, 0.08, 40);
            let (slab_result, slab_trace) = Simulator::new(cfg).run_traced(EngineMode::Slab);
            let (boxed_result, boxed_trace) = Simulator::new(cfg).run_traced(EngineMode::Boxed);
            assert!(!slab_trace.is_empty());
            assert_eq!(slab_trace, boxed_trace, "{}: event traces", profile.name);
            assert_eq!(slab_result, boxed_result, "{}: results", profile.name);
        }
    }

    #[test]
    fn slab_engine_matches_boxed_under_fault_injection() {
        let fault = FaultEvent::transient(FaultDomain::DecodeReplica(0), 50.0, 400.0);
        let cfg = failure_config(30, fault);
        let (slab_result, slab_trace) = Simulator::new(cfg).run_traced(EngineMode::Slab);
        let (boxed_result, boxed_trace) = Simulator::new(cfg).run_traced(EngineMode::Boxed);
        assert_eq!(slab_trace, boxed_trace);
        assert_eq!(slab_result, boxed_result);
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
        let cfg = SimulationConfig {
            cluster,
            trace: TraceConfig {
                dataset: Dataset::Cocktail,
                rps: 0.5,
                num_requests: 80,
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: 13,
            },
            profile: KvMethodProfile::baseline(),
            policy: PolicyConfig::default(),
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        };
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
    fn mixed_fleet_runs_are_deterministic_across_engines() {
        let cfg = mixed_config(KvMethodProfile::hack(), 35);
        let sim = Simulator::new(cfg);
        let (slab, slab_trace) = sim.run_traced(EngineMode::Slab);
        let (boxed, boxed_trace) = sim.run_traced(EngineMode::Boxed);
        assert_eq!(slab_trace, boxed_trace, "mixed fleet: engine traces");
        assert_eq!(slab, boxed, "mixed fleet: engine results");
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
    fn link_graph_engines_agree_under_a_fault_storm() {
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
        let (slab_result, slab_trace) = Simulator::new(cfg).run_traced(EngineMode::Slab);
        let (boxed_result, boxed_trace) = Simulator::new(cfg).run_traced(EngineMode::Boxed);
        assert_eq!(slab_trace, boxed_trace);
        assert_eq!(slab_result, boxed_result);
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
