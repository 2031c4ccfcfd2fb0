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

use crate::experiment::{percentile, run_cells, sorted_jcts, Cell, ExperimentTable};
use crate::method::Method;
use hack_cluster::{
    ClusterConfig, PolicyConfig, ScalingPolicyKind, SimulationConfig, SimulationResult, Simulator,
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
        let cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        SimulationConfig {
            policy: PolicyConfig::autoscaled(scaling),
            ..SimulationConfig::new(cluster, self.trace_config(), method.profile())
        }
    }

    /// The sweep's cells, labelled `<shape>/<policy>`: every scaling policy
    /// on each shape's trace, shape by shape.
    pub fn cells(&self, method: Method) -> Vec<Cell> {
        let mut cells = Vec::new();
        for shape in TraceShape::all() {
            let requests = Arc::new(self.trace(shape));
            for scaling in ScalingPolicyKind::all(self.per_replica_rps) {
                let config = self.simulation_config(scaling, method);
                let label = format!("{}/{}", shape.name(), scaling.name());
                cells.push((label, Simulator::with_requests(config, requests.clone())));
            }
        }
        cells
    }

    /// Fraction of *offered* requests finishing within the JCT target
    /// (`finish - arrival` at most [`Self::slo_jct_s`]); incomplete requests
    /// count against it.
    pub fn slo_attainment(&self, result: &SimulationResult) -> f64 {
        let attained = result
            .records
            .iter()
            .filter(|r| r.jct() <= self.slo_jct_s)
            .count();
        attained as f64 / self.num_requests.max(1) as f64
    }

    /// Whether `result` is on the cost-vs-attainment Pareto frontier of its
    /// shape's runs `shape`: no run there spends no more and attains no less
    /// while strictly better on one axis.
    pub fn on_frontier(
        &self,
        result: &SimulationResult,
        shape: &[(String, SimulationResult)],
    ) -> bool {
        let attainment = self.slo_attainment(result);
        !shape.iter().any(|(_, other)| {
            let other_attainment = self.slo_attainment(other);
            other.gpu_dollars <= result.gpu_dollars
                && other_attainment >= attainment
                && (other.gpu_dollars < result.gpu_dollars || other_attainment > attainment)
        })
    }

    /// The `autoscale` grid: one row per cell with the cost/SLO axes and the
    /// per-shape Pareto flag.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let runs: Vec<(String, SimulationResult)> = run_cells(self.cells(method)).collect();
        let policies = ScalingPolicyKind::all(self.per_replica_rps).len();
        let rows = runs.chunks(policies).flat_map(|shape| {
            shape
                .iter()
                .map(|(label, r)| (label.clone(), (r, self.on_frontier(r, shape))))
        });
        ExperimentTable::sweep(
            "autoscale",
            format!(
                "Autoscaling cost-vs-SLO Pareto grid ({}, {} requests, slo {:.0} s)",
                method.name(),
                self.num_requests,
                self.slo_jct_s
            ),
            [
                "slo_attainment",
                "mean_jct_s",
                "p99_jct_s",
                "gpu_dollars",
                "dollars_per_1k_tok",
                "scale_ups",
                "scale_downs",
                "pareto",
            ],
            rows,
            |&(r, pareto)| {
                vec![
                    self.slo_attainment(r),
                    r.average_jct(),
                    percentile(&sorted_jcts([r]), 0.99),
                    r.gpu_dollars,
                    r.dollars_per_1k_tokens,
                    r.scale_ups as f64,
                    r.scale_downs as f64,
                    if pareto { 1.0 } else { 0.0 },
                ]
            },
        )
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
        let runs: Vec<_> = run_cells(e.cells(Method::hack())).collect();
        assert_eq!(runs.len(), 2 * ScalingPolicyKind::all(1.0).len());
        for (label, r) in &runs {
            assert_eq!(
                r.records.len(),
                e.num_requests,
                "{label}: every request completes without faults"
            );
            assert!(r.gpu_dollars > 0.0, "every run bills something");
            let attainment = e.slo_attainment(r);
            assert!((0.0..=1.0).contains(&attainment));
        }
        // The static fleet never scales; some elastic policy does.
        let (_, off) = runs
            .iter()
            .find(|(label, _)| label.ends_with("/off"))
            .unwrap();
        assert_eq!((off.scale_ups, off.scale_downs), (0, 0));
        assert!(
            runs.iter().any(|(_, r)| r.scale_downs > 0),
            "the diurnal trough must trigger at least one scale-down"
        );
    }

    #[test]
    fn target_utilization_dominates_the_static_fleet_on_the_diurnal_trace() {
        let e = AutoscaleExperiment::paper_sweep();
        let runs: Vec<_> = run_cells(e.cells(Method::hack()))
            .filter(|(label, _)| label.starts_with("diurnal/"))
            .collect();
        let diurnal = |name: &str| {
            let label = format!("diurnal/{name}");
            &runs.iter().find(|(l, _)| *l == label).unwrap().1
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
            e.slo_attainment(target) >= e.slo_attainment(off),
            "without giving up SLO attainment: {} vs {}",
            e.slo_attainment(target),
            e.slo_attainment(off)
        );
        assert!(
            e.on_frontier(target, &runs),
            "dominating policies sit on the frontier"
        );
        assert!(
            !e.on_frontier(off, &runs),
            "the dominated static fleet does not"
        );
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
