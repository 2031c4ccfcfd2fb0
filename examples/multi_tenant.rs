//! Multi-tenant serving: two workload classes share one disaggregated
//! cluster, and the frontend's scheduling policy decides who absorbs the
//! overload.
//!
//! An interactive tenant (IMDb: short prompts, 120 s SLO) shares the
//! paper-default cluster with a batch tenant (Cocktail: long prompts, loose
//! SLO) driven past the cluster's single-tenant capacity. Under FCFS the
//! interactive tenant queues behind the batch backlog; weighted round-robin
//! bounds its wait to one scheduling turn, and SLO-EDF prioritises its tight
//! deadlines outright. The run prints per-tenant JCT statistics, the Jain
//! fairness index and SLO attainment for each policy.
//!
//! Run with: `cargo run --release --example multi_tenant`

use hack_core::prelude::*;

fn main() {
    let mix = TenantMixExperiment::interactive_vs_batch();
    let trace = mix.trace();
    println!("== Multi-tenant contention on the paper-default cluster (HACK) ==\n");
    println!(
        "merged trace: {} requests from {} tenants",
        trace.num_requests(),
        mix.tenants.len()
    );
    for (i, t) in mix.tenants.iter().enumerate() {
        println!(
            "  tenant-{i}: {:<9} rps {:<5} n {:<4} weight {:<3} SLO {:>6.0}s",
            t.dataset.name(),
            t.rps,
            t.num_requests,
            t.weight,
            t.slo_jct
        );
    }
    println!();

    let classes = mix.classes();
    let mut runs = Vec::new();
    for (scheduling, result) in run_cells(mix.cells(Method::hack())) {
        println!(
            "-- {scheduling} --  jain fairness {:.3}, global avg JCT {:>7.1}s",
            result.jain_fairness(),
            result.average_jct()
        );
        let slo = result.slo_summary(&classes);
        for (tenant, stats) in result.per_tenant_stats() {
            let slo = slo
                .iter()
                .find(|s| s.tenant == tenant)
                .expect("every tenant has an SLO row");
            println!(
                "   {}: mean {:>8.1}s  p95 {:>8.1}s  queueing {:>8.1}s  SLO {:>5.1}%",
                tenant,
                stats.mean,
                stats.p95,
                stats.mean_breakdown.queueing,
                100.0 * slo.attainment()
            );
        }
        println!();
        runs.push(result);
    }

    let (fcfs, wrr, edf) = (&runs[0], &runs[1], &runs[2]);
    let interactive_queueing = |r: &SimulationResult| {
        let (_, stats) = r
            .per_tenant_stats()
            .into_iter()
            .find(|(t, _)| *t == TenantId(0))
            .expect("the interactive tenant completes requests");
        stats.mean_breakdown.queueing
    };
    let fcfs_wait = interactive_queueing(fcfs);
    let wrr_wait = interactive_queueing(wrr);
    println!(
        "takeaway: WRR cuts the interactive tenant's mean queueing from {fcfs_wait:.0}s \
         to {wrr_wait:.0}s ({}x) and lifts Jain fairness {:.3} -> {:.3}; \
         SLO-EDF reaches {:.3}.",
        (fcfs_wait / wrr_wait.max(1e-9)).round(),
        fcfs.jain_fairness(),
        wrr.jain_fairness(),
        edf.jain_fairness()
    );
    assert!(
        wrr.jain_fairness() > fcfs.jain_fairness(),
        "round-robin must out-fair FCFS under overload"
    );
}
