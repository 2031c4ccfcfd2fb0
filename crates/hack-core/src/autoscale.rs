//! Autoscaling experiments: cost-vs-SLO Pareto grids over scaling policies.
//!
//! An [`AutoscaleExperiment`] fixes the fleet (the paper cluster, whose
//! configured decode count is the *capacity* the autoscaler works inside) and
//! a non-stationary workload — a diurnal sine or an on/off bursty square wave,
//! produced by deterministically time-warping one Poisson trace — then sweeps
//! every [`ScalingPolicyKind`] over it. Each run yields the two axes the
//! elastic-fleet trade-off is judged on: GPU dollars billed (racked uptime ×
//! the per-group `$`/GPU-hour price) and SLO attainment (fraction of offered
//! requests finishing within the JCT target). The sweep marks the Pareto
//! frontier per trace shape; a scaling policy earns its keep when it dominates
//! the static fleet (`Off`) — spending less without giving up attainment.

use crate::availability::percentile;
use crate::experiment::{ExperimentTable, Row};
use crate::method::Method;
use hack_cluster::{
    CacheConfig, ClusterConfig, FaultPlan, PolicyConfig, ScalingPolicyKind, SimulationConfig,
    SimulationResult, Simulator, TelemetryConfig,
};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::{Request, TraceConfig, TraceGenerator};
use serde::Serialize;
use std::sync::Arc;

/// The non-stationary arrival shapes the sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceShape {
    /// Sinusoidal rate: one period of peak-then-trough around the base rate.
    Diurnal,
    /// Square wave: short bursts above the base rate, quiet in between.
    Bursty,
}

impl TraceShape {
    /// Stable lowercase name (row labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            TraceShape::Diurnal => "diurnal",
            TraceShape::Bursty => "bursty",
        }
    }

    /// Both shapes, sweep order.
    pub fn all() -> [TraceShape; 2] {
        [TraceShape::Diurnal, TraceShape::Bursty]
    }
}

/// One autoscaling experiment: the paper fleet under a time-warped trace,
/// swept over every scaling policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AutoscaleExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Dataset providing the length distributions.
    pub dataset: Dataset,
    /// Number of requests per trace.
    pub num_requests: usize,
    /// Base request rate the shapes modulate around (requests/second).
    pub base_rps: f64,
    /// Trace seed (one Poisson draw feeds every shape and policy).
    pub trace_seed: u64,
    /// Modulation depth in `(0, 1)`: the diurnal rate swings between
    /// `base * (1 - amplitude)` and `base * (1 + amplitude)`; bursts run at
    /// `base * (1 + amplitude)` against a quiet floor.
    pub amplitude: f64,
    /// Diurnal period / bursty cycle length (seconds).
    pub period_s: f64,
    /// Fraction of each bursty cycle spent bursting.
    pub burst_duty: f64,
    /// JCT target the attainment axis is measured against (seconds).
    pub slo_jct_s: f64,
    /// Sustainable per-decode-replica request rate handed to the predictive
    /// policy (its capacity-planning constant).
    pub per_replica_rps: f64,
}

impl AutoscaleExperiment {
    /// The default sweep: the paper fleet on arXiv prompts, one diurnal
    /// period deep enough that a static fleet idles through the trough.
    pub fn paper_sweep() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            dataset: Dataset::Arxiv,
            num_requests: 60,
            base_rps: 0.5,
            trace_seed: 11,
            amplitude: 0.8,
            period_s: 240.0,
            burst_duty: 0.25,
            slo_jct_s: 120.0,
            per_replica_rps: 0.25,
        }
    }

    /// Instantaneous rate multiplier of `shape` at simulated time `t`.
    fn rate_multiplier(&self, shape: TraceShape, t: f64) -> f64 {
        match shape {
            TraceShape::Diurnal => {
                1.0 + self.amplitude * (2.0 * std::f64::consts::PI * t / self.period_s).sin()
            }
            TraceShape::Bursty => {
                let phase = (t / self.period_s).fract();
                if phase < self.burst_duty {
                    1.0 + self.amplitude
                } else {
                    // The quiet floor matches the diurnal trough, so both
                    // shapes expose the same scale-down opportunity.
                    1.0 - self.amplitude
                }
            }
        }
    }

    /// The shaped trace: one base Poisson draw (identical across shapes and
    /// policies), its inter-arrival gaps stretched by the reciprocal of the
    /// shape's instantaneous rate multiplier. Deterministic in the seed.
    pub fn trace(&self, shape: TraceShape) -> Vec<Request> {
        assert!(
            self.amplitude > 0.0 && self.amplitude < 1.0,
            "amplitude must stay in (0, 1) so the rate never hits zero"
        );
        let base = TraceGenerator::new(self.trace_config()).generate();
        let mut now = 0.0f64;
        let mut prev = 0.0f64;
        base.into_iter()
            .map(|mut r| {
                let gap = r.arrival - prev;
                prev = r.arrival;
                now += gap / self.rate_multiplier(shape, now);
                r.arrival = now;
                r
            })
            .collect()
    }

    fn trace_config(&self) -> TraceConfig {
        TraceConfig {
            dataset: self.dataset,
            rps: self.base_rps,
            num_requests: self.num_requests,
            max_context: self.model.spec().max_context,
            seed: self.trace_seed,
        }
    }

    /// The simulation configuration of one `(shape, policy)` cell. The trace
    /// itself is injected via [`Simulator::with_requests`]; the embedded
    /// [`TraceConfig`] is the descriptive base-rate view.
    pub fn simulation_config(
        &self,
        scaling: ScalingPolicyKind,
        method: Method,
    ) -> SimulationConfig {
        SimulationConfig {
            cluster: ClusterConfig::paper_default(self.model, GpuKind::A10G),
            trace: self.trace_config(),
            profile: method.profile(),
            policy: PolicyConfig::autoscaled(scaling),
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        }
    }

    /// Runs one cell of the grid.
    pub fn run_cell(
        &self,
        shape: TraceShape,
        scaling: ScalingPolicyKind,
        method: Method,
    ) -> SimulationResult {
        let requests = Arc::new(self.trace(shape));
        Simulator::with_requests(self.simulation_config(scaling, method), requests).run()
    }

    /// Runs the full sweep: every policy on every shape, Pareto-marked per
    /// shape. Deterministic in the experiment.
    pub fn sweep(&self, method: Method) -> Vec<AutoscaleOutcome> {
        let mut outcomes: Vec<AutoscaleOutcome> = Vec::new();
        for shape in TraceShape::all() {
            let requests = Arc::new(self.trace(shape));
            let mut cell: Vec<AutoscaleOutcome> = ScalingPolicyKind::all(self.per_replica_rps)
                .into_iter()
                .map(|scaling| {
                    let result = Simulator::with_requests(
                        self.simulation_config(scaling, method),
                        requests.clone(),
                    )
                    .run();
                    AutoscaleOutcome::from_result(shape, scaling, self, &result)
                })
                .collect();
            mark_pareto(&mut cell);
            outcomes.extend(cell);
        }
        outcomes
    }

    /// The `autoscale` grid: one row per `(shape, policy)` cell, labelled
    /// `<shape>/<policy>`, with the cost/SLO axes and the Pareto flag.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            "autoscale",
            format!(
                "Autoscaling cost-vs-SLO Pareto grid ({}, {} requests, slo {:.0} s)",
                method.name(),
                self.num_requests,
                self.slo_jct_s
            ),
            vec![
                "slo_attainment".to_string(),
                "mean_jct_s".to_string(),
                "p99_jct_s".to_string(),
                "gpu_dollars".to_string(),
                "dollars_per_1k_tok".to_string(),
                "scale_ups".to_string(),
                "scale_downs".to_string(),
                "pareto".to_string(),
            ],
            "per (shape, policy) run",
        );
        for o in self.sweep(method) {
            table.push_row(Row::new(
                format!("{}/{}", o.shape.name(), o.policy.name()),
                vec![
                    o.slo_attainment,
                    o.mean_jct_s,
                    o.p99_jct_s,
                    o.gpu_dollars,
                    o.dollars_per_1k_tokens,
                    o.scale_ups as f64,
                    o.scale_downs as f64,
                    if o.pareto { 1.0 } else { 0.0 },
                ],
            ));
        }
        table
    }
}

/// One `(shape, policy)` cell of the autoscaling grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscaleOutcome {
    /// Trace shape of the cell.
    pub shape: TraceShape,
    /// Scaling policy of the cell.
    pub policy: ScalingPolicyKind,
    /// Requests completed (of the offered trace).
    pub completed: usize,
    /// Fraction of *offered* requests finishing within the JCT target —
    /// incomplete requests count against it.
    pub slo_attainment: f64,
    /// Mean JCT of the completed requests (seconds).
    pub mean_jct_s: f64,
    /// p99 JCT of the completed requests (seconds, nearest-rank).
    pub p99_jct_s: f64,
    /// Total GPU dollars the run billed (both fleet sides).
    pub gpu_dollars: f64,
    /// GPU dollars per thousand generated tokens.
    pub dollars_per_1k_tokens: f64,
    /// Scale-up orders placed.
    pub scale_ups: usize,
    /// Scale-downs completed.
    pub scale_downs: usize,
    /// Makespan of the run (seconds).
    pub makespan_s: f64,
    /// On the shape's cost-vs-attainment Pareto frontier (no other policy of
    /// the same shape is at least as good on both axes and better on one).
    pub pareto: bool,
}

impl AutoscaleOutcome {
    /// Builds the cell summary from one run (`pareto` starts `true` until the
    /// sweep's per-shape dominance pass says otherwise).
    pub fn from_result(
        shape: TraceShape,
        policy: ScalingPolicyKind,
        experiment: &AutoscaleExperiment,
        result: &SimulationResult,
    ) -> Self {
        let offered = experiment.num_requests.max(1);
        let attained = result
            .records
            .iter()
            .filter(|r| r.jct() <= experiment.slo_jct_s)
            .count();
        let mut jcts: Vec<f64> = result.records.iter().map(|r| r.jct()).collect();
        jcts.sort_by(f64::total_cmp);
        Self {
            shape,
            policy,
            completed: result.records.len(),
            slo_attainment: attained as f64 / offered as f64,
            mean_jct_s: result.average_jct(),
            p99_jct_s: percentile(&jcts, 0.99),
            gpu_dollars: result.gpu_dollars,
            dollars_per_1k_tokens: result.dollars_per_1k_tokens,
            scale_ups: result.scale_ups,
            scale_downs: result.scale_downs,
            makespan_s: result.makespan,
            pareto: true,
        }
    }
}

/// Marks the Pareto frontier of one shape's cells: a cell is dominated when
/// another spends no more and attains no less, strictly better on at least
/// one axis.
fn mark_pareto(cell: &mut [AutoscaleOutcome]) {
    for i in 0..cell.len() {
        let dominated = cell.iter().enumerate().any(|(j, other)| {
            j != i
                && other.gpu_dollars <= cell[i].gpu_dollars
                && other.slo_attainment >= cell[i].slo_attainment
                && (other.gpu_dollars < cell[i].gpu_dollars
                    || other.slo_attainment > cell[i].slo_attainment)
        });
        cell[i].pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AutoscaleExperiment {
        AutoscaleExperiment {
            num_requests: 40,
            ..AutoscaleExperiment::paper_sweep()
        }
    }

    #[test]
    fn shaped_traces_are_deterministic_ordered_and_share_lengths() {
        let e = small();
        for shape in TraceShape::all() {
            let a = e.trace(shape);
            let b = e.trace(shape);
            assert_eq!(a, b, "{}: same seed, same trace", shape.name());
            assert_eq!(a.len(), e.num_requests);
            for w in a.windows(2) {
                assert!(w[1].arrival > w[0].arrival, "arrivals stay ordered");
            }
        }
        // The warp only moves arrival times: both shapes carry the identical
        // length draws of the one base trace.
        let diurnal = e.trace(TraceShape::Diurnal);
        let bursty = e.trace(TraceShape::Bursty);
        for (d, b) in diurnal.iter().zip(&bursty) {
            assert_eq!((d.input_len, d.output_len), (b.input_len, b.output_len));
        }
    }

    #[test]
    fn sweep_covers_every_cell_and_completes_the_trace() {
        let e = small();
        let outcomes = e.sweep(Method::hack());
        assert_eq!(outcomes.len(), 2 * ScalingPolicyKind::all(1.0).len());
        for o in &outcomes {
            assert_eq!(
                o.completed,
                e.num_requests,
                "{}/{}: every request completes without faults",
                o.shape.name(),
                o.policy.name()
            );
            assert!(o.gpu_dollars > 0.0, "every run bills something");
            assert!(o.slo_attainment >= 0.0 && o.slo_attainment <= 1.0);
        }
        // The static fleet never scales; some elastic policy does.
        let off = outcomes.iter().find(|o| o.policy.name() == "off").unwrap();
        assert_eq!((off.scale_ups, off.scale_downs), (0, 0));
        assert!(
            outcomes.iter().any(|o| o.scale_downs > 0),
            "the diurnal trough must trigger at least one scale-down"
        );
    }

    #[test]
    fn target_utilization_dominates_the_static_fleet_on_the_diurnal_trace() {
        let e = AutoscaleExperiment::paper_sweep();
        let outcomes = e.sweep(Method::hack());
        let diurnal = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.shape == TraceShape::Diurnal && o.policy.name() == name)
                .copied()
                .unwrap()
        };
        let off = diurnal("off");
        let target = diurnal("target-util");
        assert!(
            target.gpu_dollars < off.gpu_dollars,
            "target-util must bill less than the static fleet: {} vs {}",
            target.gpu_dollars,
            off.gpu_dollars
        );
        assert!(
            target.slo_attainment >= off.slo_attainment,
            "without giving up SLO attainment: {} vs {}",
            target.slo_attainment,
            off.slo_attainment
        );
        assert!(target.pareto, "dominating policies sit on the frontier");
        assert!(!off.pareto, "the dominated static fleet does not");
    }

    #[test]
    fn grid_reports_one_row_per_cell_with_pareto_flags() {
        let e = small();
        let table = e.grid(Method::hack());
        assert_eq!(table.rows.len(), 2 * ScalingPolicyKind::all(1.0).len());
        assert!(table.value("diurnal/off", "gpu_dollars").unwrap() > 0.0);
        let pareto: Vec<f64> = table
            .rows
            .iter()
            .map(|r| table.value(&r.label, "pareto").unwrap())
            .collect();
        assert!(pareto.contains(&1.0), "every shape has a frontier");
    }
}
