//! Sessions: session-structured workloads over the KV prefix cache.
//!
//! Generates a multi-turn chat stream and an agentic fan-out stream (tool
//! calls joined back into the conversation), merges them into one arrival
//! process, and runs the same trace three ways:
//!
//! 1. cache off, least-loaded dispatch — the pre-cache baseline,
//! 2. cache on, least-loaded dispatch — hits only when the dispatcher lands
//!    a follow-up on its prefix replica by chance,
//! 3. cache on, session-affinity dispatch — follow-ups routed to the replica
//!    holding their session's prefix (with a load-spill escape hatch).
//!
//! A telemetry-instrumented run of configuration 3 exports
//! `artifacts/sessions_trace.json` (Chrome trace-event JSON, open at
//! <https://ui.perfetto.dev>): the `prefix_hit` instants line up with the
//! shortened prefill spans of the follow-up turns.
//!
//! The run also self-validates: no child request starts before its parent
//! completes, every request completes exactly once, the chat-heavy stream
//! hits the cache on most follow-ups, and the cached run beats the cache-off
//! baseline on mean JCT.
//!
//! Run with: `cargo run --release --example sessions`
//! CI smoke mode (fewer sessions): `SESSION_SMOKE=1 cargo run --example sessions`

use hack_core::prelude::*;
use std::sync::Arc;

fn main() {
    let smoke = std::env::var("SESSION_SMOKE").is_ok();
    let model = ModelKind::Llama31_70B;
    let sessions = if smoke { 6 } else { 12 };

    // --- The workload: chat sessions (linear follow-ups after think time)
    // merged with agentic sessions (parallel tool calls + a join request). ---
    let chat = SessionSpec {
        tenant: TenantId(0),
        kind: SessionKind::Chat {
            turns: 4,
            think_mean_s: 25.0,
        },
        sessions,
        rps: 0.04,
        dataset: Dataset::Cocktail,
        max_context: model.spec().max_context,
        seed: 17,
    };
    let agentic = SessionSpec {
        tenant: TenantId(1),
        kind: SessionKind::Agentic {
            tools: 3,
            tool_delay_s: 5.0,
        },
        sessions: sessions / 2,
        rps: 0.02,
        dataset: Dataset::Cocktail,
        max_context: model.spec().max_context,
        seed: 18,
    };
    let requests = Arc::new(SessionTrace::new(vec![chat, agentic]).generate());
    let follow_ups = requests.iter().filter(|r| r.parent.is_some()).count();
    println!("== Session-structured serving with a KV prefix cache ==\n");
    println!(
        "trace   : {} requests in {} sessions ({} follow-ups carrying shared prefixes)",
        requests.len(),
        sessions + sessions / 2,
        follow_ups
    );

    let config = |cache: CacheConfig, dispatch: DispatchPolicyKind| SimulationConfig {
        policy: PolicyConfig {
            dispatch,
            ..PolicyConfig::default()
        },
        cache,
        ..SimulationConfig::new(
            ClusterConfig::paper_default(model, GpuKind::A10G),
            TraceConfig {
                dataset: Dataset::Cocktail,
                rps: 0.06,
                num_requests: requests.len(),
                max_context: model.spec().max_context,
                seed: 17,
            },
            Method::hack().profile(),
        )
    };

    // --- The three runs. ---
    let runs = [
        (
            "cache off / least-loaded",
            CacheConfig::Off,
            DispatchPolicyKind::LeastLoaded,
        ),
        (
            "cache on  / least-loaded",
            CacheConfig::on(),
            DispatchPolicyKind::LeastLoaded,
        ),
        (
            "cache on  / session-affinity",
            CacheConfig::on(),
            DispatchPolicyKind::SessionAffinity,
        ),
    ];
    let mut results = Vec::new();
    println!(
        "\n{:<30} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "configuration", "mean JCT", "p99 JCT", "hit rate", "prefill -s", "KV -MB"
    );
    for (label, cache, dispatch) in runs {
        let result = Simulator::with_requests(config(cache, dispatch), requests.clone()).run();
        let stats = result.jct_stats();
        println!(
            "{label:<30} {:>9.2}s {:>9.2}s {:>9.2} {:>11.1}s {:>12.1}",
            result.average_jct(),
            stats.p99,
            result.prefix_hit_rate,
            result.prefill_seconds_saved,
            result.prefix_bytes_saved / 1e6,
        );
        results.push(result);
    }
    let (off, affinity) = (&results[0], &results[2]);

    // --- Telemetry export: the affinity run, instrumented. ---
    let mut instrumented = config(CacheConfig::on(), DispatchPolicyKind::SessionAffinity);
    instrumented.telemetry = TelemetryConfig::with_interval((off.makespan / 200.0).max(1.0));
    let (tel_result, telemetry) =
        Simulator::with_requests(instrumented, requests.clone()).run_with_telemetry();
    let tel = telemetry.expect("telemetry is on");
    assert_eq!(
        &tel_result, affinity,
        "telemetry must not perturb the simulation"
    );
    let trace_json = tel.chrome_trace_json();
    std::fs::create_dir_all("artifacts").expect("create artifacts/");
    std::fs::write("artifacts/sessions_trace.json", &trace_json)
        .expect("write artifacts/sessions_trace.json");
    println!(
        "\nwrote artifacts/sessions_trace.json ({} bytes) — open at https://ui.perfetto.dev",
        trace_json.len()
    );

    // --- Self-validation (CI smoke gate). ---
    // Conservation: every generated request completes exactly once.
    for result in &results {
        let mut seen = vec![0usize; requests.len()];
        for r in &result.records {
            seen[r.request.id as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "every request must complete exactly once"
        );
    }
    // Causal ordering: no child starts before its parent finishes.
    for result in &results {
        let mut finish = vec![0.0f64; requests.len()];
        for r in &result.records {
            finish[r.request.id as usize] = r.finish_time;
        }
        for r in &result.records {
            if let Some(parent) = r.request.parent {
                assert!(
                    r.request.arrival + r.breakdown.queueing >= finish[parent as usize] - 1e-9,
                    "request {} started before its parent {parent} finished",
                    r.request.id
                );
            }
        }
    }
    // The cache works: majority hit rate and a mean-JCT win over cache-off.
    assert_eq!(off.prefix_hits + off.prefix_misses, 0, "cache off is off");
    assert!(
        affinity.prefix_hit_rate >= 0.5,
        "chat-heavy mix must hit on most follow-ups (got {})",
        affinity.prefix_hit_rate
    );
    assert!(
        affinity.average_jct() < off.average_jct(),
        "the cache must beat the cache-off baseline on mean JCT"
    );
    // The trace carries the cache vocabulary.
    let parsed: serde_json::Value =
        serde_json::from_str(&trace_json).expect("exported trace must be valid JSON");
    assert!(
        matches!(parsed.get_key("traceEvents"), Some(serde_json::Value::Array(a)) if !a.is_empty()),
        "trace carries events"
    );
    assert!(
        tel.instants().iter().any(|i| i.name == "prefix_hit"),
        "prefix hits must be on the trace"
    );
    assert!(tel.counter("prefix_hit") > 0, "hit counter recorded");
    println!("conservation, causal ordering, hit rate and JCT win validated.");
}
