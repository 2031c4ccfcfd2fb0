//! Heterogeneous-fleet scenario suite: mixed replica groups with per-group
//! cost models, replica-aware dispatch and per-group result stats, plus the
//! backward-compatibility contract at the experiment level.

use hack_core::prelude::*;
use hack_workload::tenant::{MultiTenantTrace, TenantSpec};
use std::sync::Arc;

fn experiment() -> HeteroFleetExperiment {
    HeteroFleetExperiment {
        num_requests: 50,
        ..HeteroFleetExperiment::paper_mixed()
    }
}

fn run(
    e: &HeteroFleetExperiment,
    cluster: ClusterConfig,
    dispatch: DispatchPolicyKind,
) -> SimulationResult {
    Simulator::new(e.simulation_config(cluster, Method::hack(), dispatch)).run()
}

#[test]
fn mixed_fleet_runs_deterministically_with_per_group_stats() {
    let e = experiment();
    for dispatch in DispatchPolicyKind::all() {
        let a = run(&e, e.mixed_cluster(), dispatch);
        let b = run(&e, e.mixed_cluster(), dispatch);
        assert_eq!(
            a,
            b,
            "{}: mixed-fleet runs must be bit-identical",
            dispatch.name()
        );
        assert_eq!(a.records.len(), e.num_requests, "{}", dispatch.name());
        assert_eq!(a.prefill_groups.len(), 2);
        assert_eq!(a.decode_groups.len(), 1);
        let served: usize = a.prefill_groups.iter().map(|g| g.completed).sum();
        assert_eq!(
            served,
            e.num_requests,
            "{}: group attribution",
            dispatch.name()
        );
        for g in &a.prefill_groups {
            assert!(
                g.utilization >= 0.0 && g.utilization <= 1.0 + 1e-9,
                "{}: group {} utilization {}",
                dispatch.name(),
                g.group,
                g.utilization
            );
        }
    }
}

#[test]
fn mixed_beats_uniform_and_group_aware_dispatch_beats_load_only() {
    // The scenario the fleet API exists for: an L4 half-fleet accelerates
    // prefill, and only a group-aware dispatch policy fully exploits it.
    let e = experiment();
    let uniform = run(&e, e.uniform_cluster(), DispatchPolicyKind::LeastLoaded);
    let least = run(&e, e.mixed_cluster(), DispatchPolicyKind::LeastLoaded);
    let fastest = run(&e, e.mixed_cluster(), DispatchPolicyKind::FastestEligible);
    assert!(
        least.average_jct() < uniform.average_jct(),
        "mixed {} vs uniform {}",
        least.average_jct(),
        uniform.average_jct()
    );
    assert!(
        fastest.average_jct() < least.average_jct(),
        "fastest-eligible {} vs least-loaded {}",
        fastest.average_jct(),
        least.average_jct()
    );
    // The policy shifts completions toward the faster L4 group.
    assert!(fastest.prefill_groups[1].completed > least.prefill_groups[1].completed);
    // And the L4 group's mean JCT reflects its faster service.
    assert!(fastest.prefill_groups[1].utilization > least.prefill_groups[1].utilization);
}

#[test]
fn group_affinity_partitions_tenants_onto_groups() {
    // Two tenants on a two-group fleet under group-affinity dispatch: every
    // request must be prefilled by a replica of its tenant's pinned group.
    let e = experiment();
    let mixed = e.mixed_cluster();
    let specs: Vec<TenantSpec> = (0..2u32)
        .map(|t| TenantSpec {
            tenant: TenantId(t),
            trace: TraceConfig {
                dataset: if t == 0 {
                    Dataset::Imdb
                } else {
                    Dataset::Cocktail
                },
                rps: 0.2,
                num_requests: 15,
                max_context: e.model.spec().max_context,
                seed: 21 + u64::from(t),
            },
        })
        .collect();
    let requests = Arc::new(MultiTenantTrace::new(specs).generate());
    let mut config = e.simulation_config(mixed, Method::hack(), DispatchPolicyKind::GroupAffinity);
    config.trace.num_requests = requests.len();
    let result = Simulator::with_requests(config, requests).run();
    assert_eq!(result.records.len(), 30);
    let group0_replicas = mixed.fleet.prefill.get(0).replicas;
    for r in &result.records {
        let group = usize::from(r.prefill_replica >= group0_replicas);
        assert_eq!(
            group,
            r.request.tenant.index() % 2,
            "request {} (tenant {}) prefilled by group {group}",
            r.request.id,
            r.request.tenant
        );
    }
    // Both groups actually served their tenant.
    assert!(result.prefill_groups.iter().all(|g| g.completed > 0));
}

#[test]
fn uniform_fleet_reproduces_legacy_jct_experiment_results() {
    // A JctExperiment drives the same single-group topology through the
    // legacy constructors; an explicitly fleet-built uniform cluster with the
    // identical shape must reproduce it bit-for-bit.
    let e = experiment();
    let uniform = e.uniform_cluster();
    let legacy_config = SimulationConfig::new(
        uniform,
        TraceConfig {
            dataset: e.dataset,
            rps: e.rps,
            num_requests: e.num_requests,
            max_context: e.model.spec().max_context,
            seed: e.seed,
        },
        Method::hack().profile(),
    );
    let direct = Simulator::new(legacy_config).run();
    let via_experiment = run(&e, uniform, DispatchPolicyKind::LeastLoaded);
    assert_eq!(direct, via_experiment);
}

#[test]
fn per_group_decode_budgets_follow_the_group_spec() {
    // A decode side with two groups of different memory (A100 80 GiB vs L4
    // 24 GiB per GPU): the smaller group must report a smaller peak budget,
    // and the simulation still completes with per-group memory accounting.
    let e = experiment();
    let mut cluster = e.mixed_cluster();
    let a100 = *cluster.fleet.decode.get(0);
    let l4_decode = ReplicaGroup {
        replicas: 2,
        parallel: hack_model::parallelism::Parallelism::new(4, 1),
        ..ReplicaGroup::paper_sized(e.model, GpuKind::L4, 4)
    };
    cluster.fleet.decode = GroupSet::new(&[a100, l4_decode]);
    // Four L4s (96 GiB) cannot even hold the FP16 weights of a 70B model —
    // the group's KV budget clamps to zero and every request must land on
    // the A100 group.
    assert_eq!(cluster.decode_group_kv_budget_bytes(1), 0.0);
    assert!(cluster.decode_group_kv_budget_bytes(0) > 0.0);
    let config = e.simulation_config(cluster, Method::hack(), DispatchPolicyKind::LeastLoaded);
    let result = Simulator::new(config).run();
    assert_eq!(result.records.len(), e.num_requests);
    let a100_replicas = cluster.fleet.decode.get(0).replicas;
    assert!(
        result
            .records
            .iter()
            .all(|r| r.decode_replica < a100_replicas),
        "no request may decode on the zero-budget L4 group"
    );
    assert_eq!(result.decode_groups.len(), 2);
    assert_eq!(result.decode_groups[1].completed, 0);
}

#[test]
fn aborted_decode_time_is_charged_to_the_failing_group() {
    // Split the paper's 4 decode replicas into two groups of 2 and fail a
    // group-0 replica mid-decode: the wasted attempt seconds must stay on
    // group 0's utilization account even though the aborted requests complete
    // on other replicas (the per-request breakdown still charges the request).
    let e = experiment();
    let mut cluster = e.mixed_cluster();
    let a100 = *cluster.fleet.decode.get(0);
    let half = ReplicaGroup {
        replicas: 2,
        ..a100
    };
    cluster.fleet.decode = GroupSet::new(&[half, half]);
    let base = e.simulation_config(cluster, Method::Baseline, DispatchPolicyKind::LeastLoaded);

    // Pick a victim that decodes on group 0 (replicas 0..2) for over a second.
    let healthy = Simulator::new(base).run();
    let victim = healthy
        .records
        .iter()
        .find(|r| r.decode_replica < 2 && r.breakdown.decode > 1.0)
        .expect("some request decodes on group 0 for more than a second");
    let mut config = base;
    config.faults = FaultPlan::new(&[FaultEvent::permanent(
        FaultDomain::DecodeReplica(victim.decode_replica),
        victim.finish_time - 0.5,
    )]);
    let result = Simulator::new(config).run();
    assert_eq!(result.records.len(), e.num_requests);
    assert!(result.requeued_requests > 0, "the failure must abort work");

    // Conservation: the groups' decode busy-seconds (successful attempts plus
    // aborted ones, charged where they ran) sum to the records' decode +
    // dequant columns (which fold the aborted time into the completing
    // request).
    let group_busy: f64 = result.decode_groups.iter().map(|g| g.busy_secs).sum();
    let record_busy: f64 = result
        .records
        .iter()
        .map(|r| r.breakdown.decode + r.breakdown.dequant_or_approx)
        .sum();
    assert!(
        (group_busy - record_busy).abs() <= 1e-9 * record_busy.max(1.0),
        "group accounting must conserve decode seconds: {group_busy} vs {record_busy}"
    );
    for g in &result.decode_groups {
        assert!(
            g.utilization <= 1.0 + 1e-9,
            "group {} utilization {} exceeds its capacity",
            g.group,
            g.utilization
        );
    }
    // The failed group keeps a non-zero busy account (its pre-failure and
    // aborted work), and both groups completed requests.
    assert!(result.decode_groups[0].busy_secs > 0.0);
    assert!(result.decode_groups.iter().all(|g| g.completed > 0));
}

#[test]
fn hetero_grid_is_deterministic() {
    let e = experiment();
    let a = e.grid(Method::Baseline);
    let b = e.grid(Method::Baseline);
    // Cell-wise bit equality (NaN marks absent groups, so PartialEq on the
    // whole table would reject identical grids).
    assert_eq!(a.columns, b.columns);
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.label, rb.label);
        for (va, vb) in ra.values.iter().zip(&rb.values) {
            assert!(va.to_bits() == vb.to_bits(), "{}: {va} vs {vb}", ra.label);
        }
    }
}
