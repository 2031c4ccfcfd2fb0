//! Multi-tenant scenario suite: deterministic two-tenant contention on one
//! disaggregated cluster, pinning the policy layer's semantics.
//!
//! The scenario is the `tenant_mix` default — an interactive tenant (IMDb,
//! short prompts, tight SLO) sharing the paper-default cluster with a batch
//! tenant (Cocktail, long prompts) driven past single-tenant capacity — and
//! the assertions are the reasons the policy layer exists:
//!
//! * same seed ⇒ bit-identical per-tenant results across runs;
//! * FCFS starves the interactive tenant behind the batch backlog, weighted
//!   round-robin bounds its wait, SLO-EDF prioritises its deadlines — and
//!   both measurably improve the Jain fairness index over FCFS.

use hack_core::prelude::*;
use hack_metrics::jct::JctStats;
use hack_workload::Request;
use std::sync::Arc;

/// The pinned contention scenario (shrunk from the `tenant_mix` default for
/// test runtime; the overload ratio is preserved).
fn contention_mix() -> TenantMixExperiment {
    let mut mix = TenantMixExperiment::interactive_vs_batch();
    mix.tenants[0].num_requests = 15;
    mix.tenants[1].num_requests = 70;
    mix
}

fn mix_config(mix: &TenantMixExperiment, scheduling: SchedulingPolicyKind) -> SimulationConfig {
    mix.simulation_config(Method::hack(), scheduling)
}

fn mix_requests(mix: &TenantMixExperiment) -> Arc<Vec<Request>> {
    Arc::new(mix.trace().generate())
}

fn run(mix: &TenantMixExperiment, scheduling: SchedulingPolicyKind) -> SimulationResult {
    Simulator::with_requests(mix_config(mix, scheduling), mix_requests(mix)).run()
}

/// The JCT statistics of one tenant of a run that completed its requests.
fn tenant_stats(result: &SimulationResult, tenant: TenantId) -> JctStats {
    let stats = result
        .per_tenant_stats()
        .into_iter()
        .find(|(t, _)| *t == tenant);
    stats.expect("the tenant completes requests").1
}

#[test]
fn two_tenant_runs_are_bit_identical_across_runs() {
    let mix = contention_mix();
    for scheduling in SchedulingPolicyKind::all() {
        let config = mix_config(&mix, scheduling);
        let run = || Simulator::with_requests(config, mix_requests(&mix)).run();
        let a = run();
        let b = run();
        // PartialEq on SimulationResult compares every f64 exactly; equality
        // of the full results implies bit-identical per-tenant JctStats.
        assert_eq!(a, b, "{}: repeat run", scheduling.name());
        assert_eq!(
            a.per_tenant_stats(),
            b.per_tenant_stats(),
            "{}: per-tenant stats",
            scheduling.name()
        );
        assert_eq!(a.records.len(), 85, "{}: all complete", scheduling.name());
    }
}

#[test]
fn fcfs_starves_the_interactive_tenant_and_wrr_bounds_its_wait() {
    let mix = contention_mix();
    let interactive = TenantId(0);
    let fcfs = tenant_stats(&run(&mix, SchedulingPolicyKind::Fcfs), interactive);
    let wrr = tenant_stats(
        &run(&mix, SchedulingPolicyKind::WeightedRoundRobin),
        interactive,
    );

    // Starvation under FCFS: the interactive tenant spends the bulk of its
    // JCT queueing behind the batch backlog (its own service is seconds).
    let fcfs_queue = fcfs.mean_breakdown.queueing;
    let fcfs_service = fcfs.mean - fcfs_queue;
    assert!(
        fcfs_queue > 5.0 * fcfs_service,
        "FCFS must starve the interactive tenant: queueing {fcfs_queue:.1}s vs \
         service {fcfs_service:.1}s"
    );

    // Bounded wait under weighted round-robin: the interactive tenant's worst
    // queueing drops to a fraction of the FCFS backlog wait.
    let wrr_queue = wrr.mean_breakdown.queueing;
    assert!(
        wrr_queue < 0.6 * fcfs_queue,
        "WRR must bound the interactive tenant's wait: {wrr_queue:.1}s vs \
         FCFS {fcfs_queue:.1}s"
    );
    let (fcfs_p95, wrr_p95) = (fcfs.p95, wrr.p95);
    assert!(
        wrr_p95 < fcfs_p95,
        "tail JCT must improve too: {wrr_p95:.1}s vs {fcfs_p95:.1}s"
    );
}

#[test]
fn round_robin_and_edf_improve_jain_fairness_over_fcfs_under_overload() {
    let mix = contention_mix();
    let fcfs = run(&mix, SchedulingPolicyKind::Fcfs);
    let wrr = run(&mix, SchedulingPolicyKind::WeightedRoundRobin);
    let edf = run(&mix, SchedulingPolicyKind::SloEdf);

    assert!(
        wrr.jain_fairness() > fcfs.jain_fairness() + 0.01,
        "WRR must measurably out-fair FCFS: {} vs {}",
        wrr.jain_fairness(),
        fcfs.jain_fairness()
    );
    assert!(
        edf.jain_fairness() > fcfs.jain_fairness() + 0.01,
        "SLO-EDF must measurably out-fair FCFS: {} vs {}",
        edf.jain_fairness(),
        fcfs.jain_fairness()
    );

    // The fairness gain may not tank overall throughput: the batch tenant's
    // mean JCT stays within a few percent of its FCFS value.
    let batch = TenantId(1);
    let fcfs_batch = tenant_stats(&fcfs, batch).mean;
    let wrr_batch = tenant_stats(&wrr, batch).mean;
    assert!(
        wrr_batch < 1.15 * fcfs_batch,
        "WRR must not collapse the batch tenant: {wrr_batch:.1}s vs {fcfs_batch:.1}s"
    );

    // SLO-EDF earns its name: interactive SLO attainment is at least FCFS's.
    let classes = mix.classes();
    let slo_of = |r: &SimulationResult, t: TenantId| {
        r.slo_summary(&classes)
            .iter()
            .find(|s| s.tenant == t)
            .map(|s| s.attainment())
            .unwrap()
    };
    assert!(slo_of(&edf, TenantId(0)) >= slo_of(&fcfs, TenantId(0)));
}

#[test]
fn per_tenant_record_sets_are_conserved_and_leak_free() {
    let mix = contention_mix();
    let trace = mix_requests(&mix);
    for scheduling in SchedulingPolicyKind::all() {
        let result = Simulator::with_requests(mix_config(&mix, scheduling), trace.clone()).run();
        assert_eq!(result.rejected_requests, 0);
        // Every generated request completes exactly once, under the tenant it
        // was generated with (no cross-tenant leakage through the policy
        // indirection).
        let mut seen = vec![false; trace.len()];
        for r in &result.records {
            let id = r.request.id as usize;
            assert!(
                !seen[id],
                "{}: request {id} completed twice",
                scheduling.name()
            );
            seen[id] = true;
            assert_eq!(
                r.request.tenant,
                trace[id].tenant,
                "{}: tenant leaked on request {id}",
                scheduling.name()
            );
            assert_eq!(
                r.request,
                trace[id],
                "{}: request mutated",
                scheduling.name()
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "{}: conservation",
            scheduling.name()
        );
        // Per-tenant counts match the trace's.
        for (tenant, stats) in result.per_tenant_stats() {
            let generated = trace.iter().filter(|r| r.tenant == tenant).count();
            assert_eq!(stats.count, generated, "{}: {tenant}", scheduling.name());
        }
    }
}

#[test]
fn single_tenant_traces_make_all_policies_coincide_with_fcfs() {
    // On a single-tenant trace WRR has one participant and EDF sees one
    // deadline offset, so both degrade to FCFS — bit-identically.
    let experiment = JctExperiment {
        num_requests: 40,
        rps: Some(0.3), // overloaded enough that queues form
        ..JctExperiment::paper_default()
    };
    let fcfs = Simulator::new(experiment.simulation_config(Method::hack())).run();
    for scheduling in [
        SchedulingPolicyKind::WeightedRoundRobin,
        SchedulingPolicyKind::SloEdf,
    ] {
        let mut config = experiment.simulation_config(Method::hack());
        config.policy.scheduling = scheduling;
        let run = Simulator::new(config).run();
        assert_eq!(run, fcfs, "{} on a single tenant", scheduling.name());
    }
}
