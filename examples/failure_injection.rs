//! Fault injection: a decode replica dies mid-run and the cluster rides it out,
//! then a whole ToR switch takes its rack down at once.
//!
//! Part 1 is the single-replica scenario, impossible to express in the
//! original monolithic simulator — it needs event cancellation (aborting
//! in-flight decodes) and dynamic membership of the decode fleet, both of
//! which come from the `hack-sim` engine underneath the refactored
//! `hack-cluster`. A decode replica fails in the middle of the run, its
//! in-flight requests are aborted and re-queued onto the surviving replicas
//! (re-transferring their KV data from the prefill side's CPU copy), and the
//! replica later rejoins the fleet empty.
//!
//! Part 2 switches the fabric to the topology-aware link graph and fails a
//! ToR switch: every decode replica cabled behind it dies *atomically*, every
//! in-flight KV transfer crossing the dead uplink aborts with its partial
//! progress kept, and the seeded backoff retries carry the work to the
//! survivors. The run self-validates the blast radius against the topology
//! and exports a Perfetto trace (`artifacts/fault_storm_trace.json`) with the fault and
//! recovery instants on it.
//!
//! Run with: `cargo run --release --example failure_injection`
//! CI smoke mode (fewer requests): `FAILURE_SMOKE=1 cargo run --example failure_injection`

use hack_core::prelude::*;

fn breakdown_line(result: &hack_cluster::SimulationResult) -> String {
    let r = result.average_ratios();
    format!(
        "prefill {:>4.1}% | comm {:>4.1}% | decode {:>4.1}% | queue {:>4.1}%",
        100.0 * r.prefill,
        100.0 * r.communication,
        100.0 * r.decode,
        100.0 * r.queueing
    )
}

fn main() {
    let smoke = std::env::var("FAILURE_SMOKE").is_ok();
    let num_requests = if smoke { 30 } else { 60 };
    let experiment = JctExperiment {
        num_requests,
        rps: Some(0.08),
        ..JctExperiment::paper_default()
    };
    let base_config = SimulationConfig::new(
        experiment.cluster_config(),
        TraceConfig {
            dataset: Dataset::Cocktail,
            rps: 0.08,
            num_requests,
            max_context: ModelKind::Llama31_70B.spec().max_context,
            seed: 7,
        },
        Method::hack().profile(),
    );

    println!("== Fault injection on the paper-default cluster (HACK, Cocktail) ==\n");

    // Healthy reference run.
    let healthy = Simulator::new(base_config).run();
    println!(
        "healthy : {} requests, avg JCT {:>7.2}s, makespan {:>7.1}s",
        healthy.records.len(),
        healthy.average_jct(),
        healthy.makespan
    );
    println!("          {}", breakdown_line(&healthy));

    // Pick the busiest decode replica and kill it mid-run, recovering later.
    let mut served = vec![0usize; base_config.cluster.decode_replicas()];
    for r in &healthy.records {
        served[r.decode_replica] += 1;
    }
    let victim = served
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| **n)
        .map(|(i, _)| i)
        .unwrap();
    let fail_at = 0.25 * healthy.makespan;
    let recover_at = 0.75 * healthy.makespan;
    println!(
        "\ninjecting: decode replica {victim} (serving {}/{} requests) fails at t={fail_at:.0}s, recovers at t={recover_at:.0}s\n",
        served[victim],
        healthy.records.len()
    );

    let failed = Simulator::new(SimulationConfig {
        faults: FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(victim),
            fail_at,
            recover_at,
        )]),
        ..base_config
    })
    .run();
    println!(
        "failure : {} requests, avg JCT {:>7.2}s, makespan {:>7.1}s",
        failed.records.len(),
        failed.average_jct(),
        failed.makespan
    );
    println!("          {}", breakdown_line(&failed));
    println!(
        "          {} re-queues caused by the outage; {} requests waited for memory",
        failed.requeued_requests, failed.swapped_requests
    );

    let mut served_failed = vec![0usize; base_config.cluster.decode_replicas()];
    for r in &failed.records {
        served_failed[r.decode_replica] += 1;
    }
    println!("\nrequests served per decode replica:");
    for (i, (h, f)) in served.iter().zip(served_failed.iter()).enumerate() {
        let marker = if i == victim {
            "  <- failed replica"
        } else {
            ""
        };
        println!("  decode-{i}: healthy {h:>3}  vs  with outage {f:>3}{marker}");
    }

    let slowdown = failed.average_jct() / healthy.average_jct();
    println!(
        "\nimpact: {:.1}% average-JCT inflation from losing 1/{} of the decode fleet for half the run",
        100.0 * (slowdown - 1.0),
        base_config.cluster.decode_replicas()
    );
    assert_eq!(
        failed.records.len(),
        healthy.records.len(),
        "every request must still complete despite the outage"
    );
    println!(
        "all {} requests completed despite the outage.",
        failed.records.len()
    );

    correlated_tor_storm(smoke);
}

/// Part 2: a ToR switch fault on the topology-aware fabric — correlated
/// replica loss, transfer retries with partial progress, blast-radius
/// self-validation, and a Perfetto trace export.
fn correlated_tor_storm(smoke: bool) {
    println!("\n== Correlated failure: one ToR switch takes its rack down ==\n");

    let num_requests = if smoke { 30 } else { 60 };
    let spec = LinkGraphSpec::paper_default();
    let mut cluster = ClusterConfig::paper_default(ModelKind::Llama31_70B, GpuKind::A10G);
    cluster.topology = TopologySpec::LinkGraph(spec);
    let decode_replicas = cluster.decode_replicas();

    // ToR 0 shields decode replicas [0, decode_per_tor).
    let shielded: Vec<usize> = (0..spec.decode_per_tor.min(decode_replicas)).collect();
    // The smoke trace is half as long, so the fault window shrinks with it to
    // keep the recovery inside the run.
    let (fail_at, recover_at) = if smoke { (15.0, 45.0) } else { (30.0, 90.0) };
    let mut faults = FaultPlan::none();
    faults.push(FaultEvent::transient(
        FaultDomain::DecodeTor(0),
        fail_at,
        recover_at,
    ));

    let config = SimulationConfig {
        faults,
        telemetry: TelemetryConfig::with_interval(1.0),
        ..SimulationConfig::new(
            cluster,
            TraceConfig {
                dataset: Dataset::Arxiv,
                rps: 0.4,
                num_requests,
                max_context: ModelKind::Llama31_70B.spec().max_context,
                seed: 11,
            },
            Method::hack().profile(),
        )
    };
    let (result, telemetry) = Simulator::new(config).run_with_telemetry();
    let tel = telemetry.expect("telemetry is on");

    println!(
        "storm   : {} completed, {} aborted, avg JCT {:>6.2}s, makespan {:>6.1}s",
        result.records.len(),
        result.aborted_requests,
        result.average_jct(),
        result.makespan
    );
    let fault = result.faults[0];
    println!(
        "fault   : decode ToR 0 down over [{fail_at:.0}s, {recover_at:.0}s] — blast radius {} replicas, {} in-flight requests aborted",
        fault.replicas_affected, fault.requests_aborted
    );
    println!(
        "retries : {} transfer retries; goodput while degraded {:.2} req/s over {:.0}s",
        result.transfer_retries, result.degraded_goodput, result.degraded_secs
    );

    // --- Self-validation: the blast radius is exactly the topology's rack. ---
    assert_eq!(
        fault.replicas_affected,
        shielded.len(),
        "a ToR fault must fail exactly the replicas behind the switch"
    );
    assert_eq!(
        result.injected_failures,
        1 + shielded.len(),
        "one fabric fault + one correlated replica failure per rack member"
    );
    // Request conservation under the storm.
    assert_eq!(
        result.records.len() + result.rejected_requests + result.aborted_requests,
        num_requests,
        "every request must complete, be rejected, or be accounted aborted"
    );

    // --- Perfetto trace export with the fault instants on it. ---
    let trace_json = tel.chrome_trace_json();
    std::fs::create_dir_all("artifacts").expect("create artifacts/");
    std::fs::write("artifacts/fault_storm_trace.json", &trace_json)
        .expect("write artifacts/fault_storm_trace.json");
    let parsed = serde_json::from_str(&trace_json).expect("exported trace must be valid JSON");
    assert!(
        matches!(
            parsed.get_key("traceEvents"),
            Some(serde_json::Value::Array(a)) if !a.is_empty()
        ),
        "trace carries events"
    );
    let instant = |name: &str| tel.instants().iter().any(|i| i.name == name);
    assert!(
        instant("fabric_fault"),
        "the ToR fault must be on the trace"
    );
    assert!(
        instant("fabric_recovered"),
        "the recovery must be on the trace"
    );
    assert!(
        instant("replica_failed"),
        "the correlated replica failures must be on the trace"
    );
    println!(
        "\nwrote artifacts/fault_storm_trace.json ({} bytes) — open at https://ui.perfetto.dev",
        trace_json.len()
    );
    println!("blast radius, conservation and trace contents validated.");
}
