//! Telemetry determinism pins (ROADMAP: observability).
//!
//! Two guarantees, each pinned here:
//!
//! 1. **Off is off**: the default [`TelemetryConfig::Off`] returns no
//!    telemetry, and a telemetry-on run's [`SimulationResult`] is
//!    **bit-identical** to the off run of the same seed — recording observes
//!    the simulation, it never perturbs it (no extra RNG draws, no time
//!    perturbation, makespan included).
//! 2. **Reproducibility**: repeat runs of one seed produce *identical*
//!    span/instant/series streams.

use hack_cluster::{
    CacheConfig, ClusterConfig, FaultDomain, FaultEvent, FaultPlan, PolicyConfig, SimulationConfig,
    Simulator, TelemetryConfig,
};
use hack_metrics::telemetry::Telemetry;
use hack_model::cost::KvMethodProfile;
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::TraceConfig;

fn base_config(n: usize, rps: f64) -> SimulationConfig {
    let model = ModelKind::Llama31_70B;
    SimulationConfig {
        cluster: ClusterConfig::paper_default(model, GpuKind::A10G),
        trace: TraceConfig {
            dataset: Dataset::Cocktail,
            rps,
            num_requests: n,
            max_context: model.spec().max_context,
            seed: 77,
        },
        profile: KvMethodProfile::hack(),
        policy: PolicyConfig::default(),
        faults: FaultPlan::none(),
        telemetry: TelemetryConfig::Off,
        cache: CacheConfig::Off,
    }
}

fn with_telemetry(mut config: SimulationConfig, interval: f64) -> SimulationConfig {
    config.telemetry = TelemetryConfig::with_interval(interval);
    config
}

fn failure_config(n: usize) -> SimulationConfig {
    SimulationConfig {
        faults: FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            40.0,
            400.0,
        )]),
        ..base_config(n, 0.08)
    }
}

#[test]
fn telemetry_off_returns_none_and_matches_the_plain_run() {
    let sim = Simulator::new(base_config(40, 0.08));
    let (result, telemetry) = sim.run_with_telemetry();
    assert!(telemetry.is_none(), "Off must not allocate telemetry");
    assert_eq!(result, sim.run(), "run_with_telemetry is the same run");
}

#[test]
fn telemetry_on_leaves_the_result_bit_identical() {
    for (label, config) in [
        ("plain", base_config(50, 0.08)),
        ("overloaded", base_config(50, 3.0)),
        ("failure-injected", failure_config(60)),
    ] {
        let off = Simulator::new(config).run();
        // Deliberately awkward intervals: ticks that collide with event times
        // and ticks that fire thousands of times must both be invisible.
        for interval in [0.5, 10.0, 1000.0] {
            let (on, telemetry) =
                Simulator::new(with_telemetry(config, interval)).run_with_telemetry();
            let telemetry = telemetry.expect("On returns telemetry");
            assert_eq!(
                off, on,
                "{label}: telemetry (interval {interval}) must not perturb the result"
            );
            assert!(!telemetry.is_empty(), "{label}: something was recorded");
        }
    }
}

/// Structural + exact-timestamp equality of two telemetry captures.
fn assert_streams_identical(a: &Telemetry, b: &Telemetry, label: &str) {
    assert_eq!(a.tracks(), b.tracks(), "{label}: track registry");
    assert_eq!(a.spans(), b.spans(), "{label}: span stream");
    assert_eq!(a.instants(), b.instants(), "{label}: instant stream");
    assert_eq!(a.series(), b.series(), "{label}: time series");
    assert_eq!(
        a.counter("completed"),
        b.counter("completed"),
        "{label}: completion counter"
    );
    assert_eq!(
        a.counter("sampler_ticks"),
        b.counter("sampler_ticks"),
        "{label}: tick counter"
    );
}

#[test]
fn span_streams_are_identical_across_repeat_runs() {
    for config in [with_telemetry(base_config(50, 0.08), 5.0), {
        with_telemetry(failure_config(50), 5.0)
    }] {
        let (first_result, first) = Simulator::new(config).run_with_telemetry();
        let (again_result, again) = Simulator::new(config).run_with_telemetry();
        assert_eq!(first_result, again_result);
        assert_streams_identical(
            &first.expect("first run's telemetry"),
            &again.expect("repeat run's telemetry"),
            "first vs repeat run",
        );
    }
}

#[test]
fn captured_streams_are_sane() {
    let config = with_telemetry(failure_config(60), 5.0);
    let (result, telemetry) = Simulator::new(config).run_with_telemetry();
    let tel = telemetry.unwrap();

    // Every component kind produced at least one complete span.
    for cat in ["frontend", "prefill", "fabric", "decode"] {
        assert!(tel.span_count_in(cat) > 0, "no spans in category {cat}");
    }
    // One completion event and histogram entry per completed request.
    assert_eq!(tel.counter("completed") as usize, result.records.len());
    let jct = tel.histogram("jct_seconds").expect("JCT histogram");
    assert_eq!(jct.count() as usize, result.records.len());
    // The failure was observed.
    assert!(tel
        .instants()
        .iter()
        .any(|i| i.name == "replica_failed" && i.time == 40.0));
    // Spans are well-formed and inside the run.
    for s in tel.spans() {
        assert!(s.end >= s.start && s.start >= 0.0, "malformed span {s:?}");
        assert!(s.end <= result.makespan + 1e-9, "span outruns the makespan");
    }
    // Sampled series: every sampler tick sampled every series, occupancy is a
    // fraction, and every series starts at t=0.
    let ticks = tel.counter("sampler_ticks");
    assert!(ticks > 0, "sampler never ticked");
    for series in tel.series() {
        assert_eq!(series.points.len() as u64, ticks, "{}", series.name);
        assert_eq!(series.points[0].0, 0.0, "{} misses the origin", series.name);
        if series.name.contains("kv_occupancy") {
            assert!(series.points.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
        }
    }
}
