//! Integration: elastic decode fleets end to end.
//!
//! Scale-downs must drain — a replica ordered away finishes its in-flight
//! decodes and honours its KV reservations before leaving, so shrinking the
//! fleet never loses a request. `ScalingPolicyKind::Off` must reproduce the
//! scaling-free simulator bit-for-bit (the retained-reference contract), an
//! armed-but-inert controller must match it too, and every scaling decision —
//! being pure clock-and-state logic — must land bit-identically across repeat
//! runs.

use hack_core::prelude::*;
use std::sync::Arc;

fn experiment() -> AutoscaleExperiment {
    AutoscaleExperiment {
        num_requests: 40,
        ..AutoscaleExperiment::paper_sweep()
    }
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
fn scale_downs_drain_without_losing_requests() {
    // Every (shape, policy) cell of the sweep must conserve requests: with no
    // faults injected, nothing is rejected or aborted, so draining replicas
    // out of the fleet mid-run loses nothing — their in-flight decodes and
    // reserved transfers finish before the replica leaves.
    let e = experiment();
    let mut shrunk = false;
    for (label, result) in run_cells(e.cells(Method::hack())) {
        assert_conserved(&result, e.num_requests, &label);
        assert_eq!(
            result.records.len(),
            e.num_requests,
            "{label}: a faultless run completes everything"
        );
        shrunk |= result.scale_downs > 0;
    }
    // The sweep actually shrinks the fleet somewhere: the troughs of both
    // shapes leave the decode fleet idle enough to drain replicas.
    assert!(shrunk, "the sweep must exercise the drain path");
}

#[test]
fn off_is_bit_identical_to_the_scaling_free_simulator() {
    // The retained-reference contract: `ScalingPolicyKind::Off` skips the
    // controller entirely, so its run — cost sensors included — equals the
    // pre-scaling simulator (`PolicyConfig::default()`) bit for bit.
    let e = experiment();
    let requests = Arc::new(e.trace(TraceShape::Diurnal));
    let off = e.simulation_config(ScalingPolicyKind::Off, Method::hack());
    let mut plain = off;
    plain.policy = PolicyConfig::default();
    assert_eq!(
        Simulator::with_requests(off, requests.clone()).run(),
        Simulator::with_requests(plain, requests.clone()).run(),
        "Off must not perturb the scaling-free run"
    );

    // An armed controller whose watermarks can never fire must also match:
    // ticking and probing without ordering changes nothing observable.
    let inert = e.simulation_config(
        ScalingPolicyKind::Threshold {
            high: 1e18,
            low: -1.0,
        },
        Method::hack(),
    );
    let inert_run = Simulator::with_requests(inert, requests.clone()).run();
    assert_eq!(
        Simulator::with_requests(off, requests).run(),
        inert_run,
        "an inert controller must be bit-identical to Off"
    );
    assert_eq!((inert_run.scale_ups, inert_run.scale_downs), (0, 0));
}

#[test]
fn scaling_decisions_are_reproducible() {
    // Scaling decisions are pure clock-and-state logic on the scale tick, so
    // the full result — scale events, billed dollars, every JCT — must be
    // bit-identical across repeat runs.
    for (label, sim) in experiment().cells(Method::hack()) {
        assert_eq!(sim.run(), sim.run(), "{label}: repeat runs diverged");
    }
}

#[test]
fn draining_stops_the_meter() {
    // Dollars are racked uptime × price: a drained replica's meter stops at
    // the drain instant, so — at equal makespan, which this over-provisioned
    // fleet keeps across policies — a run that only scaled down bills
    // strictly less than the static fleet.
    let runs: Vec<(String, SimulationResult)> =
        run_cells(experiment().cells(Method::hack())).collect();
    for shape in TraceShape::all() {
        let of_shape: Vec<&(String, SimulationResult)> = runs
            .iter()
            .filter(|(label, _)| label.starts_with(&format!("{}/", shape.name())))
            .collect();
        let off = &of_shape[0].1;
        assert_eq!(of_shape[0].0, format!("{}/off", shape.name()));
        let drained_only = |r: &SimulationResult| {
            r.scale_downs > 0 && r.scale_ups == 0 && r.makespan == off.makespan
        };
        for (label, r) in of_shape.iter().copied().filter(|(_, r)| drained_only(r)) {
            assert!(
                r.gpu_dollars < off.gpu_dollars,
                "{label}: draining must stop the meter (${} vs static ${})",
                r.gpu_dollars,
                off.gpu_dollars
            );
        }
        // The claim is not vacuous: some policy actually drains on each shape
        // without paying it back with a longer run.
        assert!(
            of_shape
                .iter()
                .any(|(_, r)| drained_only(r) && r.gpu_dollars < off.gpu_dollars),
            "{}: no drain-only run undercut the static fleet",
            shape.name()
        );
    }
}
