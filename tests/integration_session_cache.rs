//! Integration: session-structured workloads over the KV prefix cache.
//!
//! The session subsystem must keep the simulator's core promises — every
//! generated request completes exactly once, no child starts before its
//! parent finishes — in every (mix, cache, dispatch) cell, while the cache
//! itself honours its byte budget (evicting under pressure rather than
//! growing past `capacity_fraction`) and cache-aware dispatch converts
//! session locality into hits. Cache state lives outside the event queue's
//! tie-order, so every cell must land bit-identically across repeat runs.

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
    for (label, sim) in experiment().cells(Method::hack()) {
        let total = sim.config().trace.num_requests;
        let result = sim.run();
        assert_conserved(&result, total, &label);
        assert_causal(&result, total, &label);
    }
}

#[test]
fn affinity_dispatch_converts_session_locality_into_hits() {
    // The acceptance scenario: on the chat-heavy mix the armed cache under
    // session-affinity dispatch hits on most follow-ups, saves real prefill
    // seconds, and beats the cache-off baseline on mean JCT. Affinity must
    // also hit at least as often as chance placement (least-loaded).
    let runs: Vec<(String, SimulationResult)> = run_cells(experiment().cells(Method::hack()))
        .filter(|(label, _)| !label.starts_with("agentic/"))
        .collect();
    let run = |label: String| &runs.iter().find(|(l, _)| *l == label).unwrap().1;
    for mix in ["chat", "mixed"] {
        let off = run(format!("{mix}/off/least-loaded"));
        let chance = run(format!("{mix}/on/least-loaded"));
        let routed = run(format!("{mix}/on/session-affinity"));
        assert!(
            routed.prefix_hit_rate >= chance.prefix_hit_rate,
            "{mix}: affinity hit rate {} under chance placement's {}",
            routed.prefix_hit_rate,
            chance.prefix_hit_rate
        );
        assert!(
            routed.prefix_hit_rate >= 0.5,
            "{mix}: hit rate {}",
            routed.prefix_hit_rate
        );
        assert!(routed.prefill_seconds_saved > 0.0);
        assert!(routed.prefix_bytes_saved > 0.0);
        assert!(
            routed.average_jct() < off.average_jct(),
            "{mix}: cache on {} must beat off {}",
            routed.average_jct(),
            off.average_jct()
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
    let armed_chat = |e: &SessionCacheExperiment| {
        let cache = CacheConfig::with_capacity_fraction(e.capacity_fraction);
        let dispatch = DispatchPolicyKind::SessionAffinity;
        let config = e.simulation_config(
            Method::hack(),
            SessionMix::Chat,
            cache,
            dispatch,
            requests.len(),
        );
        Simulator::with_requests(config, requests.clone()).run()
    };
    let result = armed_chat(&starved);
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
    let roomy_run = armed_chat(&SessionCacheExperiment {
        sessions: 10,
        ..roomy
    });
    assert!(
        roomy_run.prefix_hit_rate >= result.prefix_hit_rate,
        "starving the cache must not raise the hit rate ({} vs {})",
        result.prefix_hit_rate,
        roomy_run.prefix_hit_rate
    );
}

#[test]
fn cache_cells_are_reproducible() {
    // Cache bookkeeping (LRU clocks, pins, byte accounting) draws no
    // randomness and never races the event queue, so every cell — hits,
    // evictions, every JCT — must be bit-identical across repeat runs.
    for (label, sim) in experiment().cells(Method::hack()) {
        assert_eq!(sim.run(), sim.run(), "{label}: repeat runs diverged");
    }
}

/// Reads one column's value off the runs of one row (one run per row, or
/// every fault seed of an availability row).
type Read<'a> = &'a dyn Fn(&[SimulationResult]) -> f64;

/// Checks `table` against `cells` run one at a time: the sweep unit, one row
/// per run of equal labels in cell order, and every `(column, read)` value
/// bit-equal to `read` over that row's runs.
fn assert_grid_matches_cells(table: &ExperimentTable, cells: Vec<Cell>, columns: &[(&str, Read)]) {
    assert_eq!(table.unit, "mixed", "{}: unit", table.id);
    let mut rows: Vec<(String, Vec<SimulationResult>)> = Vec::new();
    for (label, sim) in cells {
        let result = sim.run();
        match rows.last_mut() {
            Some((last, runs)) if *last == label => runs.push(result),
            _ => rows.push((label, vec![result])),
        }
    }
    let labels: Vec<&String> = table.rows.iter().map(|r| &r.label).collect();
    let cell_labels: Vec<&String> = rows.iter().map(|(label, _)| label).collect();
    assert_eq!(labels, cell_labels, "{}: rows", table.id);
    for (label, runs) in &rows {
        for (column, read) in columns {
            let (got, want) = (table.value(label, column).unwrap(), read(runs));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} {label}/{column}: grid {got} vs cell {want}",
                table.id
            );
        }
    }
}

#[test]
fn the_grid_matches_its_individually_run_cells() {
    // Each table is an aggregation, not a second code path: every value in
    // every scenario grid must equal what running its cells on their own
    // gives.
    let m = Method::hack();
    let e = experiment();
    assert_grid_matches_cells(
        &e.grid(m),
        e.cells(m),
        &[
            ("mean_jct_s", &|r| r[0].average_jct()),
            ("hit_rate", &|r| r[0].prefix_hit_rate),
        ],
    );
    let storm = FaultStormExperiment {
        num_requests: 20,
        ..FaultStormExperiment::paper_storm()
    };
    assert_grid_matches_cells(
        &storm.grid(m),
        storm.cells(m),
        &[
            ("avg_jct_s", &|r| r[0].average_jct()),
            ("retries", &|r| r[0].transfer_retries as f64),
        ],
    );
    let fleet = HeteroFleetExperiment {
        num_requests: 20,
        ..HeteroFleetExperiment::paper_mixed()
    };
    assert_grid_matches_cells(
        &fleet.grid(m),
        fleet.cells(m),
        &[
            ("avg_jct_s", &|r| r[0].average_jct()),
            ("g0_utilization", &|r| r[0].prefill_groups[0].utilization),
        ],
    );
    let mut tenants = TenantMixExperiment::interactive_vs_batch();
    tenants.tenants[0].num_requests = 8;
    tenants.tenants[1].num_requests = 30;
    assert_grid_matches_cells(
        &tenants.grid(m),
        tenants.cells(m),
        &[("jain_fairness", &|r| r[0].jain_fairness())],
    );
    let autoscale = AutoscaleExperiment {
        num_requests: 20,
        ..AutoscaleExperiment::paper_sweep()
    };
    assert_grid_matches_cells(
        &autoscale.grid(m),
        autoscale.cells(m),
        &[
            ("gpu_dollars", &|r| r[0].gpu_dollars),
            ("slo_attainment", &|r| autoscale.slo_attainment(&r[0])),
        ],
    );
    let mut availability = AvailabilityExperiment::paper_sweep();
    availability.num_requests = 15;
    availability.fault_seeds.truncate(2);
    let offered = (availability.num_requests * availability.fault_seeds.len()) as f64;
    assert_grid_matches_cells(
        &availability.grid(m),
        availability.cells(m),
        &[
            ("availability", &|r| {
                r.iter().map(|r| r.records.len()).sum::<usize>() as f64 / offered
            }),
            ("downtime_s", &|r| {
                let faults = r.iter().flat_map(|r| &r.faults);
                faults.map(|f| f.downtime_secs).sum()
            }),
        ],
    );
}
