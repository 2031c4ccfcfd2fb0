//! Integration: topology-aware fault storms end to end.
//!
//! A ToR switch fault must fail *exactly* the replicas cabled behind it
//! (correlated failure), sever every in-flight transfer crossing its uplink
//! (partial progress preserved, deterministic seeded retries), and — once the
//! switch recovers — the memory-wait queue that built up during the outage
//! must drain, which the per-fault `recovery_drain_secs` sensor reports.
//! Throughout, request conservation holds: every generated request completes
//! exactly once, is rejected, or is accounted as aborted.

use hack_core::prelude::*;

fn storm_config(n: usize, rps: f64) -> SimulationConfig {
    let mut cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
    cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
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

fn assert_conserved(result: &SimulationResult, total: usize) {
    let mut seen = vec![0usize; total];
    for r in &result.records {
        seen[r.request.id as usize] += 1;
    }
    assert!(seen.iter().all(|&n| n <= 1), "a request completed twice");
    let missing = seen.iter().filter(|&&n| n == 0).count();
    assert_eq!(
        missing,
        result.rejected_requests + result.aborted_requests,
        "conservation: completed {} + rejected {} + aborted {} != total {total}",
        result.records.len(),
        result.rejected_requests,
        result.aborted_requests
    );
}

#[test]
fn tor_fault_is_correlated_and_recovery_drains_the_memory_wait_queue() {
    // A decode side of two replicas, both cabled behind ToR 0, with the KV
    // budget squeezed so admission is memory-bound: the switch outage takes
    // the whole decode fleet down, arrivals park in the memory-wait queue
    // (the paper's CPU-swap path), and the backlog at recovery exceeds what
    // the two empty replicas can admit at once — the queue drains gradually
    // as decodes finish, which `recovery_drain_secs` measures.
    let mut config = storm_config(60, 0.4);
    config.cluster.fleet.decode.get_mut(0).replicas = 2;
    config.cluster.activation_reserve = 0.55;
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::transient(FaultDomain::DecodeTor(0), 30.0, 80.0));
    config.faults = plan;

    let result = Simulator::new(config).run();

    // Exactly the replicas behind the switch — both of them — plus the
    // fabric event itself.
    assert_eq!(result.faults.len(), 1);
    let fault = result.faults[0];
    assert_eq!(fault.replicas_affected, 2);
    assert_eq!(
        result.injected_failures, 3,
        "one fabric fault + one replica failure per shielded replica"
    );
    assert!((fault.downtime_secs - 50.0).abs() < 1e-9);

    // Nothing decodes during the outage (the whole decode side is dead), so
    // the degraded-window goodput is zero.
    assert_eq!(result.degraded_secs, 50.0);
    assert_eq!(
        result.degraded_goodput, 0.0,
        "nothing can complete while the whole decode side is down"
    );

    // The outage parked requests in the memory-wait queue, and recovery
    // found more backlog than fits at once: the drain sensor is positive.
    assert!(
        result.swapped_requests > 0,
        "the outage must overflow arrivals into the memory-wait queue"
    );
    assert!(
        fault.recovery_drain_secs > 0.0,
        "recovery must measure the memory-wait backlog draining: {fault:?}"
    );
    // The drain cannot outlast the rest of the run.
    assert!(fault.recovery_drain_secs < result.makespan - 80.0);

    // Work resumes after recovery and everything is accounted for.
    assert!(result.records.iter().any(|r| r.finish_time > 80.0));
    assert_conserved(&result, 60);
}

#[test]
fn aborted_transfers_resume_with_partial_progress_and_bounded_retries() {
    // A mid-run spine outage severs every prefill->decode path: in-flight
    // flows abort keeping their partial progress, and the seeded backoff
    // retries them until the fabric heals.
    let mut config = storm_config(60, 0.4);
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::transient(FaultDomain::Spine(0), 20.0, 40.0));
    config.faults = plan;

    let result = Simulator::new(config).run();

    let fault = result.faults[0];
    assert_eq!(fault.replicas_affected, 0, "spine fails no replicas");
    assert!(
        fault.requests_aborted > 0,
        "a 20s outage under load must catch transfers in flight"
    );
    assert!(
        result.transfer_retries > 0,
        "transfers attempted during the outage must retry"
    );
    // The histogram indexes by retry attempts used; its tail is bounded by
    // the per-transfer cap and its population is the requests that retried.
    let retried: usize = result.retry_histogram.iter().sum();
    assert!(retried > 0);
    assert!(retried <= 60);

    // Every request still completes (the outage heals before the retry
    // budget runs out), with a consistent JCT decomposition: aborted partial
    // progress and backoff gaps are charged to communication.
    assert_eq!(result.records.len(), 60);
    assert_eq!(result.aborted_requests, 0);
    for r in &result.records {
        let jct = r.jct();
        let total = r.breakdown.total();
        assert!(
            (total - jct).abs() < 1e-6 * jct.max(1.0),
            "request {}: breakdown {total} vs jct {jct}",
            r.request.id
        );
    }
    assert_conserved(&result, 60);

    // Deterministic: a repeat run is bit-identical.
    let again = Simulator::new(config).run();
    assert_eq!(result, again);
}

#[test]
fn degraded_window_sensors_match_a_recount_from_the_records() {
    let healthy = Simulator::new(storm_config(60, 1.0)).run();

    let mut config = storm_config(60, 1.0);
    let mut plan = FaultPlan::none();
    plan.push(FaultEvent::transient(FaultDomain::DecodeTor(0), 30.0, 90.0));
    config.faults = plan;
    let degraded = Simulator::new(config).run();

    assert_conserved(&degraded, 60);

    // The degraded window is the fault window clipped to the makespan.
    let window_end = degraded.makespan.min(90.0);
    assert!((degraded.degraded_secs - (window_end - 30.0)).abs() < 1e-9);

    // The goodput sensor equals completions-inside-the-window over the
    // window length, recounted from the records.
    let in_window = degraded
        .records
        .iter()
        .filter(|r| r.finish_time >= 30.0 && r.finish_time <= window_end)
        .count();
    assert!(
        (degraded.degraded_goodput - in_window as f64 / degraded.degraded_secs).abs() < 1e-9,
        "goodput sensor {} vs recount {in_window}/{}",
        degraded.degraded_goodput,
        degraded.degraded_secs
    );

    // Aborting work mid-decode and re-running it cannot speed the run up.
    assert!(degraded.requeued_requests > 0);
    assert!(degraded.average_jct() > healthy.average_jct());
    assert!(degraded.makespan >= healthy.makespan - 1e-9);
}
