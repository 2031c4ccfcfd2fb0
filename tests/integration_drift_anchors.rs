//! Integration: exact drift anchors for the deterministic scenario grids.
//!
//! Four small scenario configurations — the fault storm (flat and link-graph
//! rows), the MTBF/MTTR availability sweep, the autoscale cost-vs-SLO sweep
//! and the session prefix-cache grid — are pure functions of their seeds, so
//! every value below is reproduced bit-for-bit on any host. A mismatch is a
//! semantic change to the simulator (a different controller decision, fault
//! window, cache lookup or dispatch), never noise: fix the cause, or update
//! the value in the same change that explains why it moved.

use hack_core::prelude::*;

/// The fault storm at 25 requests: the flat/no-fault row's average JCT.
#[test]
fn fault_storm_flat_row_is_pinned() {
    let storm = FaultStormExperiment {
        num_requests: 25,
        ..FaultStormExperiment::paper_storm()
    };
    let flat = &storm.scenarios()[0];
    assert_eq!(flat.label, "flat/no-fault");
    assert_eq!(
        storm.run(flat, Method::hack()).average_jct,
        6.167930048929858
    );
}

/// The fault storm's link-graph rows, loaded until transfers share links: 60
/// requests at 8 rps with one transient fault from 3.75 s to 8.75 s. These
/// rows run the fabric's re-split on overlapping flows, so they pin the
/// completion order of contended `FlowCompleted` events. The spine row runs
/// on a 2-spine fabric, so its fault ECMP-reroutes a live flow instead of
/// aborting it.
#[test]
fn fault_storm_graph_rows_are_pinned() {
    let storm = FaultStormExperiment {
        num_requests: 60,
        rps: 8.0,
        fault_at: 3.75,
        recover_at: 8.75,
        ..FaultStormExperiment::paper_storm()
    };
    let rows = ["graph/no-fault", "graph/tor", "graph/spine"];
    let got: Vec<(&str, f64, usize, usize)> = storm
        .scenarios()
        .into_iter()
        .filter(|s| rows.contains(&s.label))
        .map(|mut scenario| {
            if scenario.label == "graph/spine" {
                scenario.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(2));
            }
            let result = Simulator::new(storm.simulation_config(&scenario, Method::hack())).run();
            (
                scenario.label,
                result.average_jct(),
                result.transfer_retries,
                result.rerouted_flows,
            )
        })
        .collect();
    assert!(got[2].3 >= 1, "the spine fault reroutes a live flow");
    assert_eq!(
        got,
        [
            ("graph/no-fault", 27.21442300325993, 0, 0),
            ("graph/tor", 27.232214724652057, 1, 0),
            ("graph/spine", 27.21442300325993, 0, 1),
        ]
    );
}

/// The availability grid at 15 requests over two fault seeds: availability
/// and p99 JCT per MTBF.
#[test]
fn availability_grid_is_pinned() {
    let mut sweep = AvailabilityExperiment::paper_sweep();
    sweep.num_requests = 15;
    sweep.fault_seeds.truncate(2);
    let got: Vec<(f64, f64, f64)> = sweep
        .sweep(Method::hack())
        .iter()
        .map(|p| (p.mtbf_s, p.availability, p.p99_jct_s))
        .collect();
    assert_eq!(
        got,
        [
            (40.0, 1.0, 14.26521184212854),
            (120.0, 1.0, 13.118612673171716),
            (900.0, 1.0, 13.118612673171716),
        ]
    );
}

/// The autoscale sweep at 20 requests: GPU dollars and SLO attainment per
/// (trace shape, scaling policy) cell.
#[test]
fn autoscale_grid_is_pinned() {
    let sweep = AutoscaleExperiment {
        num_requests: 20,
        ..AutoscaleExperiment::paper_sweep()
    };
    let got: Vec<(String, f64, f64)> = sweep
        .sweep(Method::hack())
        .iter()
        .map(|o| {
            let cell = format!("{}/{}", o.shape.name(), o.policy.name());
            (cell, o.gpu_dollars, o.slo_attainment)
        })
        .collect();
    let want = [
        ("diurnal/off", 0.9739241567866886, 1.0),
        ("diurnal/threshold", 0.6911468325158445, 1.0),
        ("diurnal/target-util", 0.6911468325158445, 1.0),
        ("diurnal/predictive", 0.8793713248746855, 1.0),
        ("bursty/off", 0.7705119546116241, 1.0),
        ("bursty/threshold", 0.5774918455866702, 1.0),
        ("bursty/target-util", 0.5774918455866702, 1.0),
        ("bursty/predictive", 0.7705119546116241, 1.0),
    ]
    .map(|(cell, dollars, slo)| (cell.to_string(), dollars, slo));
    assert_eq!(got, want);
}

/// The session-cache grid at 3 sessions per mix: hit rate and mean JCT per
/// (mix, cache, dispatch) cell.
#[test]
fn session_cache_grid_is_pinned() {
    let sessions = SessionCacheExperiment {
        sessions: 3,
        ..SessionCacheExperiment::paper_default()
    };
    let mut got = Vec::new();
    for mix in SessionMix::all() {
        for (cache, dispatch) in sessions.cells() {
            let outcome = sessions.run(Method::hack(), mix, cache, dispatch);
            got.push((outcome.label(), outcome.hit_rate, outcome.mean_jct));
        }
    }
    let want = [
        ("chat/off/least-loaded", 0.0, 23.6308262051791),
        ("chat/on/least-loaded", 1.0, 8.659223025151766),
        ("chat/on/session-affinity", 1.0, 8.659223025151766),
        ("agentic/off/least-loaded", 0.0, 25.858384636732627),
        ("agentic/on/least-loaded", 1.0, 11.557999602030815),
        ("agentic/on/session-affinity", 1.0, 11.557999602030815),
        ("mixed/off/least-loaded", 0.0, 25.568421646048883),
        ("mixed/on/least-loaded", 1.0, 10.269654456751242),
        ("mixed/on/session-affinity", 1.0, 10.269654456751242),
    ]
    .map(|(cell, hit_rate, jct)| (cell.to_string(), hit_rate, jct));
    assert_eq!(got, want);
}
