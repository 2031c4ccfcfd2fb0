//! Integration: session-structured workloads over the KV prefix cache.
//!
//! The session subsystem must keep the simulator's core promises — every
//! generated request completes exactly once, no child starts before its
//! parent finishes — in every (mix, cache, dispatch) cell, while the cache
//! itself honours its byte budget (evicting under pressure rather than
//! growing past `capacity_fraction`) and cache-aware dispatch converts
//! session locality into hits. Cache state lives outside the event queue's
//! tie-order, so every cell must land bit-identically across repeat runs.

use hack_cluster::SimulationResult;
use hack_core::prelude::*;
use std::sync::Arc;

fn experiment() -> SessionCacheExperiment {
    SessionCacheExperiment {
        sessions: 6,
        ..SessionCacheExperiment::paper_default()
    }
}

fn assert_conserved(result: &SimulationResult, total: usize, label: &str) {
    assert_eq!(
        result.records.len(),
        total,
        "{label}: a faultless session run completes everything"
    );
    let mut seen = vec![0usize; total];
    for r in &result.records {
        seen[r.request.id as usize] += 1;
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "{label}: every request completes exactly once"
    );
}

fn assert_causal(result: &SimulationResult, total: usize, label: &str) {
    let mut finish = vec![0.0f64; total];
    for r in &result.records {
        finish[r.request.id as usize] = r.finish_time;
    }
    for r in &result.records {
        if let Some(parent) = r.request.parent {
            let started = r.request.arrival + r.breakdown.queueing;
            assert!(
                started >= finish[parent as usize] - 1e-9,
                "{label}: request {} started at {started} before parent {parent} \
                 finished at {}",
                r.request.id,
                finish[parent as usize]
            );
        }
    }
}

#[test]
fn every_cell_conserves_requests_and_respects_the_dag() {
    // Conservation and causal ordering are unconditional: they hold with the
    // cache off, with the cache armed, and under both dispatchers, on linear
    // chat chains and agentic fan-out alike.
    let e = experiment();
    for mix in SessionMix::all() {
        let requests = Arc::new(e.trace(mix).generate());
        for (cache, dispatch) in e.cells() {
            let config = e.simulation_config(Method::hack(), mix, cache, dispatch, requests.len());
            let result = Simulator::with_requests(config, requests.clone()).run();
            let label = format!("{}/{}", mix.name(), dispatch.name());
            assert_conserved(&result, requests.len(), &label);
            assert_causal(&result, requests.len(), &label);
        }
    }
}

#[test]
fn affinity_dispatch_converts_session_locality_into_hits() {
    // The acceptance scenario: on the chat-heavy mix the armed cache under
    // session-affinity dispatch hits on most follow-ups, saves real prefill
    // seconds, and beats the cache-off baseline on mean JCT. Affinity must
    // also hit at least as often as chance placement (least-loaded).
    let e = experiment();
    for mix in [SessionMix::Chat, SessionMix::Mixed] {
        let [(off_cache, off_dispatch), (on_cache, ll), (_, affinity)] = e.cells();
        let off = e.run(Method::hack(), mix, off_cache, off_dispatch);
        let chance = e.run(Method::hack(), mix, on_cache, ll);
        let routed = e.run(Method::hack(), mix, on_cache, affinity);
        assert!(
            routed.hit_rate >= chance.hit_rate,
            "{}: affinity hit rate {} under chance placement's {}",
            mix.name(),
            routed.hit_rate,
            chance.hit_rate
        );
        assert!(
            routed.hit_rate >= 0.5,
            "{}: hit rate {}",
            mix.name(),
            routed.hit_rate
        );
        assert!(routed.prefill_seconds_saved > 0.0);
        assert!(routed.bytes_saved > 0.0);
        assert!(
            routed.mean_jct < off.mean_jct,
            "{}: cache on {} must beat off {}",
            mix.name(),
            routed.mean_jct,
            off.mean_jct
        );
    }
}

#[test]
fn a_starved_cache_evicts_and_honours_its_byte_budget() {
    // Shrink the cache until the session population no longer fits: the LRU
    // must evict (never grow past the budget), and the run must still keep
    // every correctness promise — a cache under pressure degrades hit rate,
    // not the simulation.
    let roomy = experiment();
    let starved = SessionCacheExperiment {
        capacity_fraction: 0.01,
        sessions: 10,
        ..roomy
    };
    let requests = Arc::new(starved.trace(SessionMix::Chat).generate());
    let config = starved.simulation_config(
        Method::hack(),
        SessionMix::Chat,
        CacheConfig::with_capacity_fraction(starved.capacity_fraction),
        DispatchPolicyKind::SessionAffinity,
        requests.len(),
    );
    let result = Simulator::with_requests(config, requests.clone()).run();
    assert_conserved(&result, requests.len(), "starved");
    assert_causal(&result, requests.len(), "starved");
    assert!(
        result.prefix_evictions > 0,
        "a 1% budget must force evictions (got {})",
        result.prefix_evictions
    );
    for (group, &peak) in result.prefix_cache_peak_fraction.iter().enumerate() {
        assert!(
            peak <= starved.capacity_fraction + 1e-9,
            "group {group}: peak occupancy {peak} exceeds the {} budget",
            starved.capacity_fraction
        );
    }
    // The roomy default on the same workload evicts nothing and hits more.
    let roomy_run = SessionCacheExperiment {
        sessions: 10,
        ..roomy
    }
    .run(
        Method::hack(),
        SessionMix::Chat,
        CacheConfig::with_capacity_fraction(roomy.capacity_fraction),
        DispatchPolicyKind::SessionAffinity,
    );
    let starved_run = SessionCacheOutcome::from_result(
        SessionMix::Chat,
        true,
        DispatchPolicyKind::SessionAffinity,
        result,
    );
    assert!(
        roomy_run.hit_rate >= starved_run.hit_rate,
        "starving the cache must not raise the hit rate ({} vs {})",
        starved_run.hit_rate,
        roomy_run.hit_rate
    );
}

#[test]
fn cache_cells_are_reproducible() {
    // Cache bookkeeping (LRU clocks, pins, byte accounting) draws no
    // randomness and never races the event queue, so every cell — hits,
    // evictions, every JCT — must be bit-identical across repeat runs.
    let e = experiment();
    for mix in SessionMix::all() {
        let requests = Arc::new(e.trace(mix).generate());
        for (cache, dispatch) in e.cells() {
            let config = e.simulation_config(Method::hack(), mix, cache, dispatch, requests.len());
            let run = || Simulator::with_requests(config, requests.clone()).run();
            assert_eq!(
                run(),
                run(),
                "{}/{}: repeat runs diverged",
                mix.name(),
                dispatch.name()
            );
        }
    }
}

#[test]
fn the_grid_matches_its_individually_run_cells() {
    // The table is an aggregation, not a second code path: every value in
    // the grid must equal the outcome of running that cell on its own.
    let e = experiment();
    let table = e.grid(Method::hack());
    assert_eq!(table.rows.len(), SessionMix::all().len() * e.cells().len());
    for mix in SessionMix::all() {
        for (cache, dispatch) in e.cells() {
            let outcome = e.run(Method::hack(), mix, cache, dispatch);
            let label = outcome.label();
            assert_eq!(
                table.value(&label, "mean_jct_s"),
                Some(outcome.mean_jct),
                "{label}: mean JCT drifted between grid and cell"
            );
            assert_eq!(
                table.value(&label, "hit_rate"),
                Some(outcome.hit_rate),
                "{label}: hit rate drifted between grid and cell"
            );
        }
    }
}
