//! Telemetry: export a Perfetto-loadable trace of a failure-injection run.
//!
//! Runs the fault-injection scenario of `examples/failure_injection.rs` with
//! telemetry enabled, then exports
//!
//! * `artifacts/telemetry_trace.json` — Chrome trace-event JSON: one track per replica
//!   (prefill, NIC, decode) carrying the request-lifecycle spans (queue wait,
//!   prefill, quantize, NIC wait, KV transfer, memory wait, decode) plus the
//!   sampled counter tracks. Open it at <https://ui.perfetto.dev> (or
//!   `chrome://tracing`) — the injected outage is visible as the span gap on
//!   the failed decode replica's track.
//! * `artifacts/telemetry_timeseries.csv` — the periodic samples (queue depths, KV
//!   occupancy, in-flight transfers, tenant backlog) as `series,time_s,value`.
//!
//! The run also self-validates: the exported JSON must parse, carry at least
//! one complete span per component kind, and the telemetry-on result must be
//! bit-identical to the telemetry-off result of the same seed.
//!
//! Run with: `cargo run --release --example telemetry`
//! CI smoke mode (fewer requests): `TELEMETRY_SMOKE=1 cargo run --example telemetry`

use hack_core::prelude::*;

fn main() {
    let smoke = std::env::var("TELEMETRY_SMOKE").is_ok();
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

    println!("== Telemetry export of a failure-injection run (HACK, Cocktail) ==\n");

    // Healthy reference run (telemetry off): picks the failure window and the
    // victim, and pins the bit-identity claim below.
    let healthy = Simulator::new(base_config).run();
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

    // The instrumented run: same failure scenario, telemetry on. Sample every
    // ~1/200th of the expected makespan so counter tracks have useful shape.
    let interval = (healthy.makespan / 200.0).max(1.0);
    let config = SimulationConfig {
        faults: FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(victim),
            fail_at,
            recover_at,
        )]),
        telemetry: TelemetryConfig::with_interval(interval),
        ..base_config
    };
    let (result, telemetry) = Simulator::new(config).run_with_telemetry();
    let tel = telemetry.expect("telemetry is on");

    // Telemetry observes, it does not perturb: the off run of the same
    // configuration is bit-identical.
    let off = Simulator::new(SimulationConfig {
        telemetry: TelemetryConfig::Off,
        ..config
    })
    .run();
    assert_eq!(result, off, "telemetry must not perturb the simulation");

    println!(
        "run     : {} requests, avg JCT {:.2}s, makespan {:.1}s; decode-{victim} down over [{fail_at:.0}s, {recover_at:.0}s]",
        result.records.len(),
        result.average_jct(),
        result.makespan
    );
    println!("captured: {}", tel.summary_line());
    let stats = result.jct_stats();
    println!(
        "jct     : p50 {:.2}s  p95 {:.2}s  p99 {:.2}s  max {:.2}s",
        stats.p50, stats.p95, stats.p99, stats.max
    );
    for (group, s) in result.per_decode_group_stats() {
        println!(
            "decode group {group}: {} completed, p50 {:.2}s p99 {:.2}s",
            s.count, s.p50, s.p99
        );
    }

    // --- Export. ---
    let trace_json = tel.chrome_trace_json();
    let csv = tel.timeseries_csv();
    std::fs::create_dir_all("artifacts").expect("create artifacts/");
    std::fs::write("artifacts/telemetry_trace.json", &trace_json)
        .expect("write artifacts/telemetry_trace.json");
    std::fs::write("artifacts/telemetry_timeseries.csv", &csv)
        .expect("write artifacts/telemetry_timeseries.csv");
    println!(
        "\nwrote artifacts/telemetry_trace.json ({} bytes) — open at https://ui.perfetto.dev",
        trace_json.len()
    );
    println!(
        "wrote artifacts/telemetry_timeseries.csv ({} bytes)",
        csv.len()
    );

    // --- Self-validation (CI smoke gate). ---
    let parsed = serde_json::from_str(&trace_json).expect("exported trace must be valid JSON");
    let events = parsed
        .get_key("traceEvents")
        .expect("traceEvents key present");
    assert!(
        matches!(events, serde_json::Value::Array(a) if !a.is_empty()),
        "trace carries events"
    );
    for cat in ["frontend", "prefill", "fabric", "decode"] {
        assert!(
            tel.span_count_in(cat) > 0,
            "expected at least one complete span in category {cat}"
        );
    }
    assert!(
        tel.instants().iter().any(|i| i.name == "replica_failed"),
        "the injected failure must be visible in the trace"
    );
    assert_eq!(
        tel.counter("completed") as usize,
        result.records.len(),
        "one completion event per completed request"
    );
    println!("\ntrace validated: JSON parses, all component kinds present, failure visible.");
}
