//! Heterogeneous prefill fleets: a mixed A10G + L4 deployment vs a uniform
//! A10G one of equal instance count, under replica-aware dispatch.
//!
//! The fleet-topology API makes the ROADMAP's "Heterogeneous GPUs" scenario a
//! first-class configuration: each `ReplicaGroup` carries its own GPU kind,
//! parallelism, NIC bandwidth and cost model. The L4 groups prefill faster
//! (121 vs 70 FP16 TFLOPS, double the INT8 rate) on the same 40 Gbps NIC, so
//! a mixed fleet beats the uniform one — *if* the frontend's dispatch policy
//! is group-aware. Least-loaded splits tokens evenly; fastest-eligible routes
//! by estimated completion time and shifts load onto the L4s; group-affinity
//! pins tenants to groups (and on this single-tenant trace degenerates to
//! using half the fleet — a deliberately bad fit, shown for contrast).
//!
//! Run with: `cargo run --release --example heterogeneous`

use hack_core::prelude::*;

fn main() {
    let e = HeteroFleetExperiment::paper_mixed();
    let uniform = e.uniform_cluster();
    let mixed = e.mixed_cluster();
    println!("== Mixed A10G+L4 vs uniform A10G prefill fleet (HACK) ==\n");
    println!(
        "workload: {} x {} requests at {} rps\n",
        e.dataset.name(),
        e.num_requests,
        e.rps
    );
    for (name, cluster) in [("uniform", &uniform), ("mixed", &mixed)] {
        println!(
            "{name} fleet ({} prefill groups):",
            cluster.fleet.prefill.len()
        );
        for (i, g) in cluster.fleet.prefill.iter().enumerate() {
            println!(
                "  group {i}: {} x {:?} (TP{} PP{}, {} Gbps NIC)",
                g.replicas, g.gpu, g.parallel.tp, g.parallel.pp, g.network_gbps
            );
        }
    }
    println!();

    // The first cell is the uniform fleet under least-loaded dispatch, the
    // rest the mixed fleet under every dispatch policy.
    let runs: Vec<(String, SimulationResult)> = run_cells(e.cells(Method::hack())).collect();
    let baseline = &runs[0].1;
    // JCT reduction of `a` versus `b`.
    let reduction =
        |a: &SimulationResult, b: &SimulationResult| 1.0 - a.average_jct() / b.average_jct();
    for (i, (label, result)) in runs.iter().enumerate() {
        let utils: Vec<String> = result
            .prefill_groups
            .iter()
            .map(|g| format!("{:.2}", g.utilization))
            .collect();
        let versus = if i == 0 {
            String::new()
        } else {
            format!(
                "  ({:+.1}% vs uniform)",
                -100.0 * reduction(result, baseline)
            )
        };
        println!(
            "{label:<25} avg JCT {:>7.2}s  p95 {:>7.2}s  util [{}]{versus}",
            result.average_jct(),
            result.jct_stats().p95,
            utils.join(", ")
        );
    }

    let least = &runs[1].1;
    let fastest = &runs[2].1;
    println!(
        "\ntakeaway: swapping half the A10G instances for L4s cuts the average JCT \
         {:.1}s -> {:.1}s under plain least-loaded dispatch, and the group-aware \
         fastest-eligible policy takes another {:.0}% by pushing {} of {} requests \
         onto the faster L4 group (vs {} under least-loaded).",
        baseline.average_jct(),
        least.average_jct(),
        100.0 * reduction(fastest, least),
        fastest.prefill_groups[1].completed,
        fastest.records.len(),
        least.prefill_groups[1].completed,
    );
    assert!(
        least.average_jct() < baseline.average_jct(),
        "the mixed fleet must beat the uniform one"
    );
    assert!(
        fastest.average_jct() < least.average_jct(),
        "group-aware dispatch must beat load-only dispatch on a mixed fleet"
    );
}
