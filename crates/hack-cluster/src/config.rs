//! Cluster and simulation configuration (§7.1).
//!
//! Since the fleet-topology redesign, the cluster's replica layout is a
//! [`FleetSpec`] — heterogeneous replica groups with per-group GPU kinds, NIC
//! bandwidths and cost parameterisations (see [`crate::fleet`]). The paper's
//! homogeneous deployments are single-group fleets; [`ClusterConfig`] keeps
//! flat accessors (`prefill_replicas()`, `decode_network_gbps()`, …) for that
//! shape.

use crate::cache::CacheConfig;
use crate::fleet::{FleetSpec, ReplicaGroup};
use crate::policy::{AdmissionPolicyKind, PolicyConfig, ScalingPolicyKind};
use crate::telemetry::TelemetryConfig;
use crate::topology::{
    ConfigError, FaultDomain, FaultEvent, FaultPlan, LinkGraphSpec, TopologySpec,
};
use hack_model::cost::{CostParams, KvMethodProfile, ReplicaCostModel};
use hack_model::gpu::GpuKind;
use hack_model::parallelism::Parallelism;
use hack_model::spec::ModelKind;
use hack_workload::trace::TraceConfig;
use serde::Serialize;

/// Static description of a disaggregated cluster: model, fleet topology and
/// the fleet-wide cost/memory constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterConfig {
    /// Model being served.
    pub model: ModelKind,
    /// The replica groups of both fleet sides.
    pub fleet: FleetSpec,
    /// Whether KV transfer is overlapped with prefill computation (Fig. 1(d)).
    pub pipelining: bool,
    /// Fleet-wide cost-model efficiency constants (groups may override them
    /// via [`ReplicaGroup::cost_params`]).
    pub cost_params: CostParams,
    /// Fraction of each decode replica's GPU memory reserved for activations and
    /// runtime overheads (the rest, minus parameters, is KV cache budget).
    pub activation_reserve: f64,
    /// The KV-transfer fabric model. [`TopologySpec::Flat`] (the default) is
    /// the original per-NIC FIFO fabric, bit- and cost-identical to the
    /// pre-topology simulator; [`TopologySpec::LinkGraph`] shares link
    /// capacity fairly among concurrent transfers (see [`crate::topology`]).
    pub topology: TopologySpec,
}

impl ClusterConfig {
    /// A homogeneous cluster: one prefill group, one decode group (the
    /// pre-fleet configuration shape).
    pub fn homogeneous(model: ModelKind, prefill: ReplicaGroup, decode: ReplicaGroup) -> Self {
        Self {
            model,
            fleet: FleetSpec::homogeneous(prefill, decode),
            pipelining: false,
            cost_params: CostParams::default(),
            activation_reserve: 0.10,
            topology: TopologySpec::Flat,
        }
    }

    /// The paper's default fleet for a given model and prefill GPU (§7.1):
    /// ten g5 / sixteen p3 / sixteen g4dn / ten g6 / two p4de instances for prefill,
    /// two p4de.24xlarge instances for decode, so that the two sides have roughly
    /// similar capacity. Lowers to a single-group [`FleetSpec`] per side.
    pub fn paper_default(model: ModelKind, prefill_gpu: GpuKind) -> Self {
        let prefill_instances = match prefill_gpu {
            GpuKind::A10G => 10,
            GpuKind::V100 => 16,
            GpuKind::T4 => 16,
            GpuKind::L4 => 10,
            GpuKind::A100 => 2,
        };
        Self::homogeneous(
            model,
            ReplicaGroup::paper_sized(model, prefill_gpu, prefill_instances),
            ReplicaGroup::paper_sized(model, GpuKind::A100, 2),
        )
    }

    /// The scalability configuration of §7.6: `p` prefill replicas (A10G, TP=4, PP=2,
    /// two instances each) against **one** decode replica on half an A100 instance
    /// (4 GPUs, 200 Gbps).
    pub fn scalability(p: usize) -> Self {
        let mut base = Self::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        base.fleet.prefill.get_mut(0).replicas = p;
        let decode = base.fleet.decode.get_mut(0);
        decode.replicas = 1;
        decode.network_gbps = 200.0;
        base
    }

    // --- Flat accessors for the homogeneous (single-group) shape. Multi-group
    // --- fleets are addressed through `fleet` directly; these read the
    // --- *primary* (first) group, which is the whole side for every legacy
    // --- configuration.

    /// Total prefill replicas across all groups.
    pub fn prefill_replicas(&self) -> usize {
        self.fleet.prefill.total_replicas()
    }

    /// Total decode replicas across all groups.
    pub fn decode_replicas(&self) -> usize {
        self.fleet.decode.total_replicas()
    }

    /// GPU family of the primary prefill group.
    pub fn prefill_gpu(&self) -> GpuKind {
        self.fleet.prefill.get(0).gpu
    }

    /// GPU family of the primary decode group.
    pub fn decode_gpu(&self) -> GpuKind {
        self.fleet.decode.get(0).gpu
    }

    /// NIC bandwidth of the primary prefill group (Gbps).
    pub fn prefill_network_gbps(&self) -> f64 {
        self.fleet.prefill.get(0).network_gbps
    }

    /// NIC bandwidth of the primary decode group (Gbps).
    pub fn decode_network_gbps(&self) -> f64 {
        self.fleet.decode.get(0).network_gbps
    }

    /// TP/PP configuration of the primary prefill group's replicas.
    pub fn prefill_parallelism(&self) -> Parallelism {
        self.fleet.prefill.get(0).parallel
    }

    /// TP/PP configuration of the primary decode group's replicas.
    pub fn decode_parallelism(&self) -> Parallelism {
        self.fleet.decode.get(0).parallel
    }

    /// Overrides the prefill replica count (single-group fleets only — the
    /// legacy experiment knobs; shape multi-group fleets through `fleet`).
    pub fn set_prefill_replicas(&mut self, replicas: usize) {
        assert_eq!(
            self.fleet.prefill.len(),
            1,
            "set_prefill_replicas addresses a single-group fleet"
        );
        self.fleet.prefill.get_mut(0).replicas = replicas;
    }

    /// Overrides the decode replica count (single-group fleets only).
    pub fn set_decode_replicas(&mut self, replicas: usize) {
        assert_eq!(
            self.fleet.decode.len(),
            1,
            "set_decode_replicas addresses a single-group fleet"
        );
        self.fleet.decode.get_mut(0).replicas = replicas;
    }

    /// The cost model of prefill group `group`.
    pub fn prefill_cost_model(&self, group: usize) -> ReplicaCostModel {
        self.fleet
            .prefill
            .get(group)
            .cost_model(self.model, self.cost_params)
    }

    /// The cost model of decode group `group`.
    pub fn decode_cost_model(&self, group: usize) -> ReplicaCostModel {
        self.fleet
            .decode
            .get(group)
            .cost_model(self.model, self.cost_params)
    }

    /// GPU memory (bytes) available to one replica of decode group `group`.
    pub fn decode_group_mem_bytes(&self, group: usize) -> f64 {
        self.fleet.decode.get(group).replica_mem_bytes()
    }

    /// KV-cache byte budget of one replica of decode group `group` (memory
    /// minus parameters minus the activation reserve).
    pub fn decode_group_kv_budget_bytes(&self, group: usize) -> f64 {
        let mem = self.decode_group_mem_bytes(group);
        let params = self.model.spec().param_bytes_fp16();
        (mem - params - self.activation_reserve * mem).max(0.0)
    }

    /// GPU memory (bytes) available to one primary-group decode replica.
    pub fn decode_replica_mem_bytes(&self) -> f64 {
        self.decode_group_mem_bytes(0)
    }

    /// KV-cache byte budget of one primary-group decode replica.
    pub fn decode_kv_budget_bytes(&self) -> f64 {
        self.decode_group_kv_budget_bytes(0)
    }

    /// Rough estimate of the cluster's maximum sustainable request rate for a given
    /// workload and method, used to set "RPS = maximum processing capacity" (§7.1).
    /// Each side's throughput is the sum of its groups' throughputs under the
    /// groups' own cost models and NICs.
    pub fn estimate_max_rps(
        &self,
        profile: &KvMethodProfile,
        avg_input: usize,
        avg_output: usize,
    ) -> f64 {
        // Prefill- and network-side throughput, per group.
        let mut prefill_rps = 0.0;
        let mut network_rps = 0.0;
        for group in self.fleet.prefill.iter() {
            let model = group.cost_model(self.model, self.cost_params);
            let service = model.prefill_time(avg_input, profile)
                + model.quantization_time(avg_input, profile);
            prefill_rps += group.replicas as f64 / service.max(1e-9);
            let transfer = model.transfer_time(avg_input, profile, group.network_gbps);
            network_rps += group.replicas as f64 / transfer.max(1e-9);
        }
        // Decode-side throughput: each replica decodes its group's
        // `decode_batch` sequences concurrently.
        let kv_len = avg_input + avg_output / 2;
        let mut decode_rps = 0.0;
        for group in self.fleet.decode.iter() {
            let model = group.cost_model(self.model, self.cost_params);
            let batch = model.params.decode_batch;
            let iter = model.decode_iter_time(kv_len, profile, batch)
                + model.dequant_or_approx_iter_time(kv_len, profile);
            let decode_seconds_per_request = iter * avg_output as f64;
            decode_rps += group.replicas as f64 * batch / decode_seconds_per_request.max(1e-9);
        }
        prefill_rps.min(network_rps).min(decode_rps)
    }

    /// Number of prefill-side ToRs under the link-graph topology (0 under
    /// [`TopologySpec::Flat`]).
    pub fn prefill_tors(&self) -> usize {
        match self.topology.link_graph() {
            Some(spec) => LinkGraphSpec::tors_for(self.prefill_replicas(), spec.prefill_per_tor),
            None => 0,
        }
    }

    /// Number of decode-side ToRs under the link-graph topology.
    pub fn decode_tors(&self) -> usize {
        match self.topology.link_graph() {
            Some(spec) => LinkGraphSpec::tors_for(self.decode_replicas(), spec.decode_per_tor),
            None => 0,
        }
    }

    /// The fleet dimensions an
    /// [`AvailabilityModel`](crate::topology::AvailabilityModel) draws fault
    /// targets from. Flat-fabric clusters report zero switches, so generated
    /// plans never target links the topology does not have.
    pub fn fleet_shape(&self) -> crate::topology::FleetShape {
        crate::topology::FleetShape {
            prefill_replicas: self.prefill_replicas(),
            decode_replicas: self.decode_replicas(),
            prefill_tors: self.prefill_tors(),
            decode_tors: self.decode_tors(),
            spines: self.topology.link_graph().map_or(0, |spec| spec.spines),
        }
    }
}

/// A full simulation: cluster + workload + evaluated method + frontend policy
/// (+ optional fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimulationConfig {
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Workload trace configuration.
    pub trace: TraceConfig,
    /// KV-handling method being evaluated.
    pub profile: KvMethodProfile,
    /// Frontend policy: tenant classes plus dispatch/admission/scheduling
    /// policies. [`PolicyConfig::default`] reproduces the pre-policy simulator
    /// bit-for-bit (least-loaded dispatch, admit all, FCFS).
    pub policy: PolicyConfig,
    /// Scheduled fault injection over typed fault domains (replicas, NICs,
    /// ToRs, the spine). The empty plan (the default) injects nothing.
    pub faults: FaultPlan,
    /// Telemetry switch. [`TelemetryConfig::Off`] (the default) allocates no
    /// recording state and is bit- and cost-identical to the pre-telemetry
    /// simulator; `On` records lifecycle spans and periodic time-series
    /// samples without perturbing the simulation.
    pub telemetry: TelemetryConfig,
    /// Session prefix-cache switch. [`CacheConfig::Off`] (the default)
    /// allocates no cache state and is bit- and cost-identical to the
    /// pre-cache simulator; `On` keeps finished sessions' KV prefixes
    /// resident on decode replicas so follow-up turns skip the shared
    /// prefix's prefill and transfer.
    pub cache: CacheConfig,
}

impl SimulationConfig {
    /// `profile` served on `cluster` over `trace` with every opt-in layer off:
    /// the default policy, no faults, telemetry off and the cache off. Other
    /// settings layer on with struct update (`..SimulationConfig::new(..)`).
    pub fn new(cluster: ClusterConfig, trace: TraceConfig, profile: KvMethodProfile) -> Self {
        Self {
            cluster,
            trace,
            profile,
            policy: PolicyConfig::default(),
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        }
    }

    /// Validates the fleet (each side needs a replica), the topology, the
    /// telemetry interval, the policies and the fault plan, returning a typed
    /// [`ConfigError`] instead of misbehaving mid-run. Called by
    /// [`Simulator::try_new`](crate::Simulator::try_new) before any event is
    /// scheduled.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cluster.prefill_replicas() == 0 {
            return Err(ConfigError::EmptyFleetSide { side: "prefill" });
        }
        if self.cluster.decode_replicas() == 0 {
            return Err(ConfigError::EmptyFleetSide { side: "decode" });
        }
        if let Some(spec) = self.cluster.topology.link_graph() {
            let positive = |x: f64| x.is_finite() && x > 0.0;
            if !positive(spec.tor_uplink_gbps) {
                return Err(ConfigError::InvalidTopology {
                    what: "tor_uplink_gbps",
                });
            }
            if !positive(spec.spine_gbps) {
                return Err(ConfigError::InvalidTopology { what: "spine_gbps" });
            }
            if spec.prefill_per_tor == 0 {
                return Err(ConfigError::InvalidTopology {
                    what: "prefill_per_tor",
                });
            }
            if spec.decode_per_tor == 0 {
                return Err(ConfigError::InvalidTopology {
                    what: "decode_per_tor",
                });
            }
            if spec.spines == 0 {
                return Err(ConfigError::InvalidTopology { what: "spines" });
            }
        }
        if let Some(settings) = self.telemetry.settings() {
            let interval = settings.sample_interval_secs;
            if !(interval.is_finite() && interval > 0.0) {
                return Err(ConfigError::InvalidTelemetryInterval { interval });
            }
        }
        self.policy.retry.validate()?;
        self.validate_policy_ranges()?;
        let prefill = self.cluster.prefill_replicas();
        let decode = self.cluster.decode_replicas();
        for event in self.faults.iter() {
            let domain = event.domain;
            if !event.at.is_finite() || event.at < 0.0 {
                return Err(ConfigError::InvalidFaultTime {
                    domain,
                    at: event.at,
                });
            }
            if let Some(recover) = event.recover_at {
                if !recover.is_finite() {
                    return Err(ConfigError::InvalidFaultTime {
                        domain,
                        at: recover,
                    });
                }
                if recover <= event.at {
                    return Err(ConfigError::RecoveryBeforeFault {
                        domain,
                        at: event.at,
                        recover_at: recover,
                    });
                }
            }
            if domain.needs_link_graph() && self.cluster.topology.link_graph().is_none() {
                return Err(ConfigError::TopologyRequired { domain });
            }
            if let Some(factor) = event.degrade {
                // Only links can run slow; replicas fail binarily.
                let in_range = factor.is_finite() && factor > 0.0 && factor < 1.0;
                if !in_range || !domain.needs_link_graph() {
                    return Err(ConfigError::InvalidDegradeFactor { domain });
                }
            }
            // No link graph means no spine blocks at all: a `Spine(s)` event
            // must never validate against a phantom block.
            let spines = self
                .cluster
                .topology
                .link_graph()
                .map_or(0, |spec| spec.spines);
            let (index, limit) = match domain {
                FaultDomain::DecodeReplica(i) | FaultDomain::DecodeNic(i) => (i, decode),
                FaultDomain::PrefillReplica(i) | FaultDomain::PrefillNic(i) => (i, prefill),
                FaultDomain::PrefillTor(t) => (t, self.cluster.prefill_tors()),
                FaultDomain::DecodeTor(t) => (t, self.cluster.decode_tors()),
                FaultDomain::Spine(s) => (s, spines),
            };
            if index >= limit {
                return Err(ConfigError::ReplicaOutOfRange { domain, limit });
            }
        }
        // Two faults of the same *kind* on one domain must not overlap in
        // time: the fault machinery tracks a single down-window (and a single
        // degrade factor) per domain. A degradation overlapping a binary
        // outage on the same domain is legal — link liveness and link
        // capacity are independent fabric fields — and the degraded-exposure
        // sensors subtract the dead intersection.
        let window_end = |e: &FaultEvent| e.recover_at.unwrap_or(f64::INFINITY);
        let events: Vec<_> = self.faults.iter().copied().collect();
        for (i, a) in events.iter().enumerate() {
            for b in events.iter().skip(i + 1) {
                if a.domain == b.domain
                    && a.degrade.is_some() == b.degrade.is_some()
                    && a.at < window_end(b)
                    && b.at < window_end(a)
                {
                    return Err(ConfigError::OverlappingFaults { domain: a.domain });
                }
            }
        }
        Ok(())
    }

    /// The parameter ranges the admission and scaling policies assume. Each
    /// check states the accepted range and rejects whatever fails it, NaN
    /// included.
    fn validate_policy_ranges(&self) -> Result<(), ConfigError> {
        let require = |ok: bool, what: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::InvalidPolicy { what })
            }
        };
        if let AdmissionPolicyKind::TokenBucket {
            rate_per_weight,
            burst,
        } = self.policy.admission
        {
            require(
                rate_per_weight > 0.0,
                "token-bucket rate_per_weight (must be > 0)",
            )?;
            require(burst >= 1.0, "token-bucket burst (must be >= 1)")?;
        }
        match self.policy.scaling {
            ScalingPolicyKind::Off => {}
            ScalingPolicyKind::Threshold { high, low } => {
                require(low < high, "threshold low (must sit below high)")?;
            }
            ScalingPolicyKind::TargetUtilization { setpoint, band } => {
                require(
                    setpoint > 0.0 && setpoint < 1.0,
                    "target-utilization setpoint (must be in (0, 1))",
                )?;
                require(
                    band >= 0.0 && band < setpoint,
                    "target-utilization band (must be in [0, setpoint))",
                )?;
            }
            ScalingPolicyKind::Predictive {
                alpha,
                per_replica_rps,
                headroom,
            } => {
                require(
                    alpha > 0.0 && alpha <= 1.0,
                    "predictive alpha (must be in (0, 1])",
                )?;
                require(
                    per_replica_rps > 0.0,
                    "predictive per_replica_rps (must be > 0)",
                )?;
                require(headroom >= 1.0, "predictive headroom (must be >= 1)")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::GroupSet;
    use hack_workload::dataset::Dataset;

    #[test]
    fn paper_default_llama_a10g_fleet() {
        let c = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        // 10 g5 instances x 4 GPUs / (TP4*PP2 = 8 GPUs) = 5 prefill replicas.
        assert_eq!(c.prefill_replicas(), 5);
        // 2 p4de x 8 GPUs / (TP4 = 4 GPUs) = 4 decode replicas.
        assert_eq!(c.decode_replicas(), 4);
        assert_eq!(c.decode_gpu(), GpuKind::A100);
        assert!(c.prefill_network_gbps() <= 40.0 + 1e-9);
        assert!(!c.pipelining);
        // Legacy constructors lower to single-group fleets.
        assert_eq!(c.fleet.prefill.len(), 1);
        assert_eq!(c.fleet.decode.len(), 1);
    }

    #[test]
    fn decode_memory_budget_is_positive_and_below_total() {
        for model in ModelKind::all() {
            let c = ClusterConfig::paper_default(model, GpuKind::A10G);
            let budget = c.decode_kv_budget_bytes();
            assert!(budget > 0.0, "{model:?}");
            assert!(budget < c.decode_replica_mem_bytes());
        }
    }

    #[test]
    fn scalability_config_uses_half_an_a100_instance() {
        let c = ClusterConfig::scalability(4);
        assert_eq!(c.prefill_replicas(), 4);
        assert_eq!(c.decode_replicas(), 1);
        assert_eq!(c.decode_network_gbps(), 200.0);
    }

    #[test]
    fn estimated_max_rps_is_higher_for_compressed_methods_and_short_prompts() {
        let c = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        let cocktail_in = Dataset::Cocktail.input_stats().avg;
        let cocktail_out = Dataset::Cocktail.output_stats().avg;
        let imdb_in = Dataset::Imdb.input_stats().avg;
        let imdb_out = Dataset::Imdb.output_stats().avg;
        let base = c.estimate_max_rps(&KvMethodProfile::baseline(), cocktail_in, cocktail_out);
        let hack = c.estimate_max_rps(&KvMethodProfile::hack(), cocktail_in, cocktail_out);
        let short = c.estimate_max_rps(&KvMethodProfile::baseline(), imdb_in, imdb_out);
        assert!(base > 0.0);
        assert!(hack >= base, "hack rps {hack} vs baseline {base}");
        assert!(
            short > base,
            "short-prompt rps {short} vs long-prompt {base}"
        );
        // The paper drives the cluster at fractions of an RPS for Cocktail.
        assert!(base < 5.0, "baseline max rps {base}");
    }

    #[test]
    fn mixed_fleet_estimate_adds_group_throughputs() {
        let uniform = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        let mut mixed = uniform;
        let l4 = ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::L4, 10);
        mixed.fleet.prefill = GroupSet::new(&[*uniform.fleet.prefill.get(0), l4]);
        let avg_in = Dataset::Cocktail.input_stats().avg;
        let avg_out = Dataset::Cocktail.output_stats().avg;
        let profile = KvMethodProfile::baseline();
        // Adding a second prefill group can only raise (or leave, if decode-
        // bound) the estimate.
        assert!(
            mixed.estimate_max_rps(&profile, avg_in, avg_out)
                >= uniform.estimate_max_rps(&profile, avg_in, avg_out)
        );
    }

    #[test]
    fn v100_fleet_has_lowest_bandwidth() {
        let v100 = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::V100);
        let a10g = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        assert!(v100.prefill_network_gbps() < a10g.prefill_network_gbps());
    }

    #[test]
    fn cluster_config_serde_round_trips() {
        let original = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        let json = serde_json::to_string(&original).unwrap();
        assert_eq!(serde_json::from_str(&json), Ok(original.serialize_value()));
    }

    fn sim_config(cluster: ClusterConfig, faults: FaultPlan) -> SimulationConfig {
        SimulationConfig {
            faults,
            ..SimulationConfig::new(
                cluster,
                hack_workload::trace::TraceConfig {
                    dataset: Dataset::Cocktail,
                    rps: 0.1,
                    num_requests: 10,
                    max_context: ModelKind::Llama31_70B.spec().max_context,
                    seed: 1,
                },
                KvMethodProfile::baseline(),
            )
        }
    }

    #[test]
    fn validate_accepts_sane_plans_and_rejects_malformed_ones() {
        let flat = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        let mut graph = flat;
        graph.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());

        // The empty plan and a single-replica transient failure are fine.
        assert_eq!(sim_config(flat, FaultPlan::none()).validate(), Ok(()));
        let transient = FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            10.0,
            20.0,
        )]);
        assert_eq!(sim_config(flat, transient).validate(), Ok(()));

        // Out-of-range decode replica: the old should-panic case, now typed.
        let oob = FaultPlan::new(&[FaultEvent::permanent(FaultDomain::DecodeReplica(99), 1.0)]);
        assert!(matches!(
            sim_config(flat, oob).validate(),
            Err(ConfigError::ReplicaOutOfRange { limit: 4, .. })
        ));

        // Recovery at or before the failure instant.
        let backwards = FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            50.0,
            50.0,
        )]);
        assert!(matches!(
            sim_config(flat, backwards).validate(),
            Err(ConfigError::RecoveryBeforeFault { .. })
        ));

        // Non-finite and negative fault times.
        for at in [f64::NAN, f64::INFINITY, -1.0] {
            let plan = FaultPlan::new(&[FaultEvent::permanent(FaultDomain::DecodeReplica(0), at)]);
            assert!(
                matches!(
                    sim_config(flat, plan).validate(),
                    Err(ConfigError::InvalidFaultTime { .. })
                ),
                "at = {at}"
            );
        }

        // Overlapping windows on one domain are rejected; disjoint ones pass.
        let overlapping = FaultPlan::new(&[
            FaultEvent::transient(FaultDomain::DecodeReplica(1), 10.0, 100.0),
            FaultEvent::transient(FaultDomain::DecodeReplica(1), 50.0, 60.0),
        ]);
        assert!(matches!(
            sim_config(flat, overlapping).validate(),
            Err(ConfigError::OverlappingFaults { .. })
        ));
        let disjoint = FaultPlan::new(&[
            FaultEvent::transient(FaultDomain::DecodeReplica(1), 10.0, 20.0),
            FaultEvent::transient(FaultDomain::DecodeReplica(1), 50.0, 60.0),
        ]);
        assert_eq!(sim_config(flat, disjoint).validate(), Ok(()));

        // Link-cutting faults require the link-graph topology.
        let tor = FaultPlan::new(&[FaultEvent::permanent(FaultDomain::DecodeTor(0), 10.0)]);
        assert!(matches!(
            sim_config(flat, tor).validate(),
            Err(ConfigError::TopologyRequired { .. })
        ));
        assert_eq!(sim_config(graph, tor).validate(), Ok(()));

        // ToR indices are checked against the derived switch count.
        let tor_oob = FaultPlan::new(&[FaultEvent::permanent(FaultDomain::DecodeTor(9), 10.0)]);
        assert!(matches!(
            sim_config(graph, tor_oob).validate(),
            Err(ConfigError::ReplicaOutOfRange { .. })
        ));

        // Spine indices are checked against the spine-block count: the
        // paper-default fabric has exactly one spine, so `Spine(0)` is legal
        // and `Spine(1)` — which an availability-generated plan could
        // produce — is typed out-of-range.
        let spine_ok = FaultPlan::new(&[FaultEvent::transient(FaultDomain::Spine(0), 10.0, 20.0)]);
        assert_eq!(sim_config(graph, spine_ok).validate(), Ok(()));
        let spine_oob = FaultPlan::new(&[FaultEvent::transient(FaultDomain::Spine(1), 10.0, 20.0)]);
        assert!(matches!(
            sim_config(graph, spine_oob).validate(),
            Err(ConfigError::ReplicaOutOfRange { limit: 1, .. })
        ));

        // A degradation overlapping a *binary* outage on the same domain is
        // legal (independent fabric fields; the sensors subtract the dead
        // intersection) — but two binary windows, or two degrade windows, on
        // one domain still collide.
        let degrade_over_outage = FaultPlan::new(&[
            FaultEvent::degraded(FaultDomain::DecodeTor(0), 10.0, 80.0, 0.5),
            FaultEvent::transient(FaultDomain::DecodeTor(0), 30.0, 50.0),
        ]);
        assert_eq!(sim_config(graph, degrade_over_outage).validate(), Ok(()));
        let degrade_over_degrade = FaultPlan::new(&[
            FaultEvent::degraded(FaultDomain::DecodeTor(0), 10.0, 80.0, 0.5),
            FaultEvent::degraded(FaultDomain::DecodeTor(0), 30.0, 50.0, 0.25),
        ]);
        assert!(matches!(
            sim_config(graph, degrade_over_degrade).validate(),
            Err(ConfigError::OverlappingFaults { .. })
        ));

        // Degenerate link-graph capacities are typed errors too.
        let mut bad = graph;
        bad.topology = TopologySpec::LinkGraph(LinkGraphSpec {
            spine_gbps: 0.0,
            ..LinkGraphSpec::paper_default()
        });
        assert!(matches!(
            sim_config(bad, FaultPlan::none()).validate(),
            Err(ConfigError::InvalidTopology { what: "spine_gbps" })
        ));
    }

    #[test]
    fn policy_parameters_outside_their_ranges_fail_at_construction() {
        use AdmissionPolicyKind::TokenBucket;
        use ScalingPolicyKind::{Predictive, TargetUtilization, Threshold};
        let bucket = |rate_per_weight, burst| PolicyConfig {
            admission: TokenBucket {
                rate_per_weight,
                burst,
            },
            ..PolicyConfig::default()
        };
        let threshold = |high, low| PolicyConfig::autoscaled(Threshold { high, low });
        let target =
            |setpoint, band| PolicyConfig::autoscaled(TargetUtilization { setpoint, band });
        let predictive = |alpha, per_replica_rps, headroom| {
            PolicyConfig::autoscaled(Predictive {
                alpha,
                per_replica_rps,
                headroom,
            })
        };
        let nan = f64::NAN;
        // (parameter, rejected, accepted): the accepted cases include the
        // values the experiments, benchmark and property tests run with.
        let cases = [
            ("rate_per_weight", bucket(0.0, 2.0), bucket(0.05, 2.0)),
            ("rate_per_weight NaN", bucket(nan, 2.0), bucket(1e6, 1e6)),
            ("burst", bucket(1.0, 0.5), bucket(0.6, 10.0)),
            ("burst NaN", bucket(1.0, nan), bucket(1.0, 1.0)),
            ("threshold", threshold(1.0, 4.0), threshold(4.0, 1.0)),
            ("threshold NaN", threshold(nan, 1.0), threshold(1e18, -1.0)),
            ("threshold equal", threshold(2.0, 2.0), threshold(1.0, 0.9)),
            ("setpoint", target(1.5, 0.15), target(0.7, 0.15)),
            ("setpoint NaN", target(nan, 0.1), target(0.4, 0.2)),
            ("band", target(0.7, 0.7), target(0.9, 0.05)),
            ("band NaN", target(0.7, nan), target(0.7, 0.0)),
            (
                "alpha",
                predictive(1.5, 1.0, 1.2),
                predictive(1.0, 1.0, 1.2),
            ),
            (
                "alpha NaN",
                predictive(nan, 1.0, 1.2),
                predictive(0.1, 1.0, 1.2),
            ),
            (
                "per_replica_rps",
                predictive(0.3, 0.0, 1.2),
                predictive(0.3, 0.1, 1.2),
            ),
            (
                "headroom",
                predictive(0.3, 1.0, 0.9),
                predictive(0.3, 1.0, 1.0),
            ),
            (
                "headroom NaN",
                predictive(0.3, 1.0, nan),
                predictive(0.9, 1.0, 1.5),
            ),
        ];
        let flat = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        let base = sim_config(flat, FaultPlan::none());
        let build = |policy| crate::Simulator::try_new(SimulationConfig { policy, ..base }).err();
        for (what, rejected, accepted) in cases {
            assert!(
                matches!(build(rejected), Some(ConfigError::InvalidPolicy { .. })),
                "{what}: {rejected:?} must be rejected"
            );
            assert_eq!(build(accepted), None, "{what}: {accepted:?}");
        }
    }

    #[test]
    fn topology_aware_cluster_config_round_trips() {
        let mut c = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
        c.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str(&json), Ok(c.serialize_value()));
        // 5 prefill replicas at 4 per ToR -> 2 switches; 4 decode at 2 -> 2.
        assert_eq!(c.prefill_tors(), 2);
        assert_eq!(c.decode_tors(), 2);
    }
}
