//! Backward-compatibility contract of the fleet-topology API.
//!
//! A single-group [`FleetSpec`] **is** the legacy flat configuration: every
//! test here pins that a hand-built single-group fleet reproduces the legacy
//! constructors bit-for-bit (`PartialEq` on [`SimulationResult`] compares
//! every f64 exactly), under the default policies and every frontend policy.

use hack_cluster::{
    AdmissionPolicyKind, CacheConfig, ClusterConfig, DispatchPolicyKind, FaultPlan, FleetSpec,
    GroupSet, PolicyConfig, ReplicaGroup, RetryPolicy, SchedulingPolicyKind, SimulationConfig,
    SimulationResult, Simulator, TelemetryConfig, TenantClass, TenantClasses, TopologySpec,
};
use hack_model::cost::{CostParams, KvMethodProfile};
use hack_model::gpu::GpuKind;
use hack_model::parallelism::Parallelism;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::tenant::{MultiTenantTrace, TenantSpec};
use hack_workload::trace::{TenantId, TraceConfig};
use serde::Serialize;
use std::sync::Arc;

/// The paper-default cluster rebuilt by hand as an explicit single-group
/// fleet, bypassing every legacy constructor.
fn hand_built_default() -> ClusterConfig {
    let model = ModelKind::Llama31_70B;
    ClusterConfig {
        model,
        fleet: FleetSpec {
            prefill: GroupSet::single(ReplicaGroup {
                gpu: GpuKind::A10G,
                replicas: 5,
                parallel: Parallelism::table3(model, GpuKind::A10G),
                network_gbps: 40.0,
                cost_params: None,
                dollars_per_gpu_hour: ReplicaGroup::default_dollars_per_gpu_hour(GpuKind::A10G),
                provision_delay_s: ReplicaGroup::default_provision_delay_s(GpuKind::A10G),
            }),
            decode: GroupSet::single(ReplicaGroup {
                gpu: GpuKind::A100,
                replicas: 4,
                parallel: Parallelism::table3(model, GpuKind::A100),
                network_gbps: 200.0,
                cost_params: None,
                dollars_per_gpu_hour: ReplicaGroup::default_dollars_per_gpu_hour(GpuKind::A100),
                provision_delay_s: ReplicaGroup::default_provision_delay_s(GpuKind::A100),
            }),
        },
        pipelining: false,
        cost_params: CostParams::default(),
        activation_reserve: 0.10,
        topology: TopologySpec::Flat,
    }
}

fn sim_config(cluster: ClusterConfig, seed: u64, n: usize) -> SimulationConfig {
    SimulationConfig {
        cluster,
        trace: TraceConfig {
            dataset: Dataset::Cocktail,
            rps: 0.08,
            num_requests: n,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed,
        },
        profile: KvMethodProfile::hack(),
        policy: PolicyConfig::default(),
        faults: FaultPlan::none(),
        telemetry: TelemetryConfig::Off,
        cache: CacheConfig::Off,
    }
}

#[test]
fn hand_built_single_group_fleet_equals_the_legacy_constructor() {
    assert_eq!(
        hand_built_default(),
        ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G),
        "the hand-built fleet must equal the lowered legacy constructor"
    );
}

#[test]
fn single_group_results_are_bit_identical_to_the_legacy_constructor() {
    let legacy = Simulator::new(sim_config(
        ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G),
        7,
        45,
    ));
    let fleet = Simulator::new(sim_config(hand_built_default(), 7, 45));
    assert_eq!(
        fleet.run(),
        legacy.run(),
        "single-group fleet diverged from legacy"
    );
}

#[test]
fn single_group_results_are_bit_identical_under_every_policy() {
    // A two-tenant trace so WRR/EDF actually reorder; the same merged trace
    // feeds both simulators.
    let specs: Vec<TenantSpec> = [(Dataset::Imdb, 0.4, 12u64), (Dataset::Cocktail, 1.2, 13)]
        .iter()
        .enumerate()
        .map(|(i, &(dataset, rps, seed))| TenantSpec {
            tenant: TenantId(i as u32),
            trace: TraceConfig {
                dataset,
                rps,
                num_requests: 30,
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed,
            },
        })
        .collect();
    let requests = Arc::new(MultiTenantTrace::new(specs).generate());
    let classes = [
        TenantClass {
            weight: 2.0,
            slo_jct: 90.0,
        },
        TenantClass {
            weight: 1.0,
            slo_jct: 2_000.0,
        },
    ];

    let mut outcomes: Vec<SimulationResult> = Vec::new();
    for scheduling in SchedulingPolicyKind::all() {
        for dispatch in DispatchPolicyKind::all() {
            let run = |cluster: ClusterConfig| {
                let mut config = sim_config(cluster, 5, requests.len());
                config.policy = PolicyConfig {
                    tenants: TenantClasses::new(&classes),
                    dispatch,
                    admission: AdmissionPolicyKind::TokenBucket {
                        rate_per_weight: 0.6,
                        burst: 10.0,
                    },
                    scheduling,
                    retry: RetryPolicy::default(),
                    scaling: hack_cluster::ScalingPolicyKind::Off,
                };
                Simulator::with_requests(config, requests.clone()).run()
            };
            let legacy = run(ClusterConfig::paper_default(
                ModelKind::Llama31_70B,
                GpuKind::A10G,
            ));
            let fleet = run(hand_built_default());
            assert_eq!(
                fleet,
                legacy,
                "{}/{}: single-group fleet diverged from legacy",
                scheduling.name(),
                dispatch.name()
            );
            outcomes.push(fleet);
        }
    }
    // Sanity: the sweep actually exercised distinct behaviours (WRR/EDF
    // reorder service relative to FCFS on this contended two-tenant trace).
    let fcfs = &outcomes[0];
    assert!(
        outcomes.iter().any(|o| o != fcfs),
        "the policy sweep must produce at least one distinct outcome"
    );
}

#[test]
fn group_affinity_on_a_single_group_coincides_with_least_loaded() {
    // With one prefill group, every tenant's preferred group is group 0 and
    // affinity degrades to least-loaded exactly.
    let base = sim_config(hand_built_default(), 11, 40);
    let mut affinity = base;
    affinity.policy.dispatch = DispatchPolicyKind::GroupAffinity;
    assert_eq!(
        Simulator::new(affinity).run(),
        Simulator::new(base).run(),
        "group-affinity must coincide with least-loaded on one group"
    );
}

#[test]
fn fleet_format_config_round_trips_through_serde() {
    // A genuinely heterogeneous config: two prefill groups, one with its own
    // cost params, serializes to JSON that parses back to the same tree.
    let mut config = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
    let mut l4 = ReplicaGroup::paper_sized(ModelKind::Llama31_70B, GpuKind::L4, 4);
    l4.cost_params = Some(CostParams {
        decode_batch: 4.0,
        ..CostParams::default()
    });
    config.fleet.prefill = GroupSet::new(&[*config.fleet.prefill.get(0), l4]);
    let json = serde_json::to_string(&config).unwrap();
    assert_eq!(serde_json::from_str(&json), Ok(config.serialize_value()));
}

#[test]
fn paper_nic_sharing_is_unchanged_by_the_integer_fix() {
    // The integer replica-per-instance assignment reproduces the old
    // fractional arithmetic on every paper deployment (each divides evenly or
    // grants whole NICs).
    for model in ModelKind::all() {
        for gpu in GpuKind::all() {
            let c = ClusterConfig::paper_default(model, gpu);
            let prefill = c.fleet.prefill.get(0);
            let decode = c.fleet.decode.get(0);
            let old = |replicas: usize, instances: usize, line_rate: f64| {
                line_rate / (replicas as f64 / instances as f64).max(1.0)
            };
            let prefill_instances = match gpu {
                GpuKind::A10G | GpuKind::L4 => 10,
                GpuKind::V100 | GpuKind::T4 => 16,
                GpuKind::A100 => 2,
            };
            assert_eq!(
                prefill.network_gbps,
                old(
                    prefill.replicas,
                    prefill_instances,
                    gpu.instance().network_gbps
                ),
                "{model:?}/{gpu:?}: prefill NIC sharing changed"
            );
            assert_eq!(
                decode.network_gbps,
                old(decode.replicas, 2, GpuKind::A100.instance().network_gbps),
                "{model:?}/{gpu:?}: decode NIC sharing changed"
            );
        }
    }
}
