//! Integration: availability modeling end to end.
//!
//! Link degradation must fail *softer* than an equivalent binary outage
//! (graceful degradation: more completions, fewer permanent aborts, zero
//! replicas in the blast radius), redundant spines must turn spine outages
//! from transfer-killing events into ECMP reroutes of the surviving flows,
//! MTBF/MTTR-generated availability sweeps must be bit-identically
//! reproducible across runs, and the degraded-window
//! sensors must recount exactly from the raw fault plan even when windows of
//! different domains overlap in time.

use hack_core::prelude::*;

fn graph_config(n: usize, rps: f64, spines: usize) -> SimulationConfig {
    let mut cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
    cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(spines));
    SimulationConfig::new(
        cluster,
        TraceConfig {
            dataset: Dataset::Arxiv,
            rps,
            num_requests: n,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: 11,
        },
        Method::Baseline.profile(),
    )
}

fn assert_conserved(result: &SimulationResult, total: usize, label: &str) {
    assert_eq!(
        result.records.len() + result.rejected_requests + result.aborted_requests,
        total,
        "{label}: completed {} + rejected {} + aborted {} != total {total}",
        result.records.len(),
        result.rejected_requests,
        result.aborted_requests
    );
}

#[test]
fn link_degradation_fails_softer_than_the_equivalent_binary_outage() {
    // The same permanent fault of *both* decode-side ToRs (a single dead ToR
    // is routed around), once as a binary cut and once as a slowdown to 35%
    // of nominal capacity. The cut strands every transfer into the decode
    // fleet (bounded retries, then permanent aborts); the slowdown merely
    // stretches them, so the degraded run must complete strictly more
    // requests and abort strictly fewer.
    let n = 60;
    let mut binary = graph_config(n, 0.4, 1);
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::permanent(FaultDomain::DecodeTor(0), 30.0));
    plan.push(FaultEvent::permanent(FaultDomain::DecodeTor(1), 30.0));
    binary.faults = plan;

    let mut degraded = graph_config(n, 0.4, 1);
    let mut plan = FaultPlan::none();
    for tor in 0..2 {
        plan.push(FaultEvent {
            domain: FaultDomain::DecodeTor(tor),
            at: 30.0,
            recover_at: None,
            degrade: Some(0.35),
        });
    }
    degraded.faults = plan;

    let hard = Simulator::new(binary).run();
    let soft = Simulator::new(degraded).run();
    assert_conserved(&hard, n, "binary");
    assert_conserved(&soft, n, "degraded");

    // Graceful degradation, strictly.
    assert!(
        hard.aborted_requests > 0,
        "the binary outage must actually strand requests"
    );
    assert_eq!(soft.aborted_requests, 0, "a slow link loses nothing");
    assert_eq!(soft.abandoned_requests, 0);
    assert!(soft.records.len() > hard.records.len());

    // A degradation cuts no replicas and triggers no replica failovers: the
    // blast radius is empty and the only injected events are the fabric ones.
    assert_eq!(soft.faults.len(), 2);
    for f in &soft.faults {
        assert_eq!(f.replicas_affected, 0);
        assert_eq!(f.requests_aborted, 0);
    }
    assert_eq!(soft.injected_failures, 2);

    // The exposure sensors see the (makespan-clamped) degraded window.
    assert!(soft.degraded_link_secs > 0.0);
    assert!(soft.throughput_loss_gbps_s > 0.0);
    assert_eq!(hard.degraded_link_secs, 0.0);
    assert_eq!(hard.throughput_loss_gbps_s, 0.0);
}

#[test]
fn redundant_spines_reroute_flows_a_single_spine_fabric_must_retry() {
    // The same transient spine-block outage against one spine and against
    // two. With a single spine the fabric is partitioned: every in-flight
    // transfer dies and retries under backoff. With two spines the flows
    // ECMP-pinned to the dead block re-split onto the survivor and keep
    // going — no new retries, strictly fewer than the partitioned fabric.
    let n = 80;
    let mut single = graph_config(n, 0.6, 1);
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::transient(FaultDomain::Spine(0), 15.0, 60.0));
    single.faults = plan;
    let mut dual = graph_config(n, 0.6, 2);
    dual.faults = plan;

    let partitioned = Simulator::new(single).run();
    let rerouted = Simulator::new(dual).run();
    assert_conserved(&partitioned, n, "single spine");
    assert_conserved(&rerouted, n, "dual spine");

    // The single-spine fabric suffers: transfers crossing the outage abort
    // and retry. A spine fault never takes replicas down in either fabric.
    assert!(partitioned.transfer_retries > 0);
    assert_eq!(partitioned.faults[0].replicas_affected, 0);
    assert_eq!(rerouted.faults[0].replicas_affected, 0);

    // The dual-spine fabric reroutes the in-flight flows of the dead block
    // instead of aborting them.
    assert!(rerouted.rerouted_flows > 0, "ECMP must reroute live flows");
    assert!(rerouted.transfer_retries < partitioned.transfer_retries);
    assert!(rerouted.records.len() >= partitioned.records.len());

    // ECMP with every spine alive spreads flows without changing totals:
    // the no-fault dual-spine run completes everything the single-spine
    // no-fault run does.
    let calm_single = Simulator::new(graph_config(n, 0.6, 1)).run();
    let calm_dual = Simulator::new(graph_config(n, 0.6, 2)).run();
    assert_eq!(calm_single.transfer_retries, 0);
    assert_eq!(calm_single.records.len(), n);
    assert_eq!(calm_dual.records.len(), n);
    assert_eq!(calm_dual.rerouted_flows, 0);
}

#[test]
fn availability_sweeps_are_reproducible() {
    let experiment = AvailabilityExperiment {
        num_requests: 25,
        mtbf_grid_s: vec![60.0, 600.0],
        fault_seeds: vec![101, 102],
        ..AvailabilityExperiment::paper_sweep()
    };

    // Same seeds, bit-identical sweep — the Monte-Carlo grid is a pure
    // function of the experiment.
    let first = experiment.sweep(Method::Baseline);
    let second = experiment.sweep(Method::Baseline);
    assert_eq!(first, second);

    // Each generated cell validates and conserves requests.
    for &mtbf in &experiment.mtbf_grid_s {
        for &seed in &experiment.fault_seeds {
            let config = experiment.simulation_config(mtbf, seed, Method::Baseline);
            config.validate().expect("generated plans always validate");
            let result = Simulator::new(config).run();
            assert_conserved(&result, experiment.num_requests, "generated plan");
        }
    }

    // The aggressive grid point actually exercises the fault machinery.
    assert!(first[0].generated_faults > 0);
    assert!(first[0].availability > 0.0);
}

#[test]
fn degraded_window_sensors_recount_from_the_raw_plan_under_overlapping_windows() {
    // Three degradations whose windows overlap *in time* (the validator only
    // rejects overlap on one domain): exposure is per-link, so the sensor
    // must count each domain's window independently — overlapping windows on
    // different links accumulate, they do not merge.
    let n = 60;
    let mut config = graph_config(n, 0.4, 1);
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::degraded(
        FaultDomain::DecodeTor(0),
        20.0,
        60.0,
        0.5,
    ));
    plan.push(FaultEvent::degraded(
        FaultDomain::DecodeTor(1),
        30.0,
        50.0,
        0.25,
    ));
    plan.push(FaultEvent::degraded(
        FaultDomain::PrefillTor(0),
        45.0,
        75.0,
        0.8,
    ));
    config.faults = plan;
    config.validate().expect("overlap across domains is legal");

    let result = Simulator::new(config).run();
    assert_conserved(&result, n, "overlapping degradations");
    assert!(result.makespan > 75.0, "windows must close before makespan");

    // Recount from the raw plan: each ToR domain maps to exactly one fabric
    // link (its spine uplink), so degraded link-seconds are the summed
    // window lengths and the throughput loss is each window's capacity
    // shortfall on that 100 Gbps uplink.
    let expected_secs = (60.0 - 20.0) + (50.0 - 30.0) + (75.0 - 45.0);
    let uplink = LinkGraphSpec::paper_default().tor_uplink_gbps;
    let expected_loss =
        uplink * (1.0 - 0.5) * 40.0 + uplink * (1.0 - 0.25) * 20.0 + uplink * (1.0 - 0.8) * 30.0;
    assert!((result.degraded_link_secs - expected_secs).abs() < 1e-9);
    assert!((result.throughput_loss_gbps_s - expected_loss).abs() < 1e-6);

    // Every degradation is recorded as a zero-blast-radius fault.
    assert_eq!(result.faults.len(), 3);
    for f in &result.faults {
        assert_eq!(f.replicas_affected, 0);
        assert_eq!(f.requests_aborted, 0);
    }

    // The *merged*-window sensors, by contrast, take the union over domains:
    // the three overlapping windows fuse into [20, 75], so degraded seconds
    // are 55 — not the 90 summed link-seconds — and degraded goodput divides
    // the completions landing inside the union by exactly that.
    assert!((result.degraded_secs - 55.0).abs() < 1e-9);
    let inside = result
        .records
        .iter()
        .filter(|r| r.finish_time >= 20.0 && r.finish_time <= 75.0)
        .count();
    assert!(inside > 0, "the squeeze must overlap some completions");
    assert!((result.degraded_goodput - inside as f64 / 55.0).abs() < 1e-9);

    // A binary outage overlapping a degrade window *on the same domain* cuts
    // the very link the degradation slows: dead time is not degraded time, so
    // the sensors count the union and subtract the outage. DecodeTor(0)'s
    // degraded window [20, 60] loses its intersection with the outage
    // [30, 50] — 20 degraded link-seconds survive — while DecodeTor(1)'s
    // outage-free window still counts in full.
    let mut overlaid = graph_config(n, 0.4, 1);
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::degraded(
        FaultDomain::DecodeTor(0),
        20.0,
        60.0,
        0.5,
    ));
    plan.push(FaultEvent::transient(FaultDomain::DecodeTor(0), 30.0, 50.0));
    plan.push(FaultEvent::degraded(
        FaultDomain::DecodeTor(1),
        30.0,
        50.0,
        0.25,
    ));
    overlaid.faults = plan;
    overlaid
        .validate()
        .expect("a degrade over a binary outage on one domain is legal");
    let overlaid = Simulator::new(overlaid).run();
    assert_conserved(&overlaid, n, "degrade over outage");
    assert!(
        overlaid.makespan > 60.0,
        "windows must close before makespan"
    );
    let expected_secs = ((60.0 - 20.0) - (50.0 - 30.0)) + (50.0 - 30.0);
    let expected_loss = uplink * (1.0 - 0.5) * 20.0 + uplink * (1.0 - 0.25) * 20.0;
    assert!((overlaid.degraded_link_secs - expected_secs).abs() < 1e-9);
    assert!((overlaid.throughput_loss_gbps_s - expected_loss).abs() < 1e-6);
    // The outage itself is a real fault with a real blast radius (the two
    // replicas behind the ToR), recorded alongside the two degradations.
    assert_eq!(overlaid.faults.len(), 3);
    assert!(overlaid.faults.iter().any(|f| f.replicas_affected == 2));
}
