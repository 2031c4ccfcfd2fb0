//! Availability experiments: Monte-Carlo sweeps over seeds × MTBF grids.
//!
//! An [`AvailabilityExperiment`] fixes the workload and the redundant-spine
//! fabric, then sweeps a grid of per-domain MTBF values; each grid point runs
//! the same trace under several independently seeded fault plans generated by
//! an [`AvailabilityModel`] (spine outages plus decode-ToR link degradations).
//! The pooled outcomes become availability SLO curves: nines of goodput,
//! p99/p999 JCT versus failure rate, downtime and abandonment totals, and the
//! ECMP reroute count. Everything is deterministic in the seed list, so
//! `tests/integration_drift_anchors.rs` pins the grid exactly.

use crate::experiment::{percentile, run_cells, sorted_jcts, Cell, ExperimentTable};
use crate::method::Method;
use hack_cluster::{
    AvailabilityModel, ClusterConfig, LinkGraphSpec, MtbfSpec, SimulationConfig, SimulationResult,
    Simulator, TopologySpec,
};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::TraceConfig;
use serde::Serialize;

/// One availability experiment: a fixed workload on the redundant-spine paper
/// fleet, swept over an MTBF grid × fault seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AvailabilityExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Dataset.
    pub dataset: Dataset,
    /// Number of requests simulated per run.
    pub num_requests: usize,
    /// Request rate (fixed, so every run sees the identical trace).
    pub rps: f64,
    /// Trace seed (shared by every run: only the fault plans vary).
    pub trace_seed: u64,
    /// Redundant spine blocks of the fabric (ECMP rerouting needs >= 2).
    pub spines: usize,
    /// The MTBF grid swept (seconds): each value drives both the spine-outage
    /// and ToR-degradation processes of that grid point.
    pub mtbf_grid_s: Vec<f64>,
    /// Mean time to repair of every generated fault (seconds).
    pub mttr_s: f64,
    /// Capacity factor of the generated decode-ToR degradations.
    pub tor_degrade: f64,
    /// Fault-plan seeds: one Monte-Carlo run per (MTBF, seed) pair.
    pub fault_seeds: Vec<u64>,
    /// Fault-generation horizon (seconds) — sized to cover the run.
    pub horizon_s: f64,
}

impl AvailabilityExperiment {
    /// The default sweep: the paper fleet with two spine blocks on arXiv
    /// prompts, three failure rates × three fault realizations.
    pub fn paper_sweep() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            dataset: Dataset::Arxiv,
            num_requests: 40,
            rps: 1.0,
            trace_seed: 11,
            spines: 2,
            mtbf_grid_s: vec![40.0, 120.0, 900.0],
            mttr_s: 45.0,
            tor_degrade: 0.35,
            fault_seeds: vec![101, 102, 103],
            horizon_s: 160.0,
        }
    }

    /// The availability model of one grid point: decode replicas crash (the
    /// abandonment path — repeated readmissions eventually give a request
    /// up), spine blocks fail binarily (exercising ECMP rerouting), and
    /// decode-ToR uplinks degrade to [`Self::tor_degrade`] of nominal
    /// capacity instead of cutting.
    pub fn model_at(&self, mtbf_s: f64) -> AvailabilityModel {
        AvailabilityModel {
            decode_replica: Some(MtbfSpec::outage(mtbf_s, self.mttr_s)),
            spine: Some(MtbfSpec::outage(mtbf_s, self.mttr_s)),
            decode_tor: Some(MtbfSpec::slowdown(mtbf_s, self.mttr_s, self.tor_degrade)),
            ..AvailabilityModel::default()
        }
    }

    /// The simulation configuration of one `(MTBF, fault seed)` cell.
    pub fn simulation_config(
        &self,
        mtbf_s: f64,
        fault_seed: u64,
        method: Method,
    ) -> SimulationConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(self.spines));
        let faults =
            self.model_at(mtbf_s)
                .generate_plan(&cluster.fleet_shape(), self.horizon_s, fault_seed);
        let trace = TraceConfig {
            dataset: self.dataset,
            rps: self.rps,
            num_requests: self.num_requests,
            max_context: self.model.spec().max_context,
            seed: self.trace_seed,
        };
        SimulationConfig {
            faults,
            ..SimulationConfig::new(cluster, trace, method.profile())
        }
    }

    /// The sweep's cells, one per `(MTBF, fault seed)` pair, MTBF-major and
    /// labelled `mtbf-<seconds>`.
    pub fn cells(&self, method: Method) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &mtbf in &self.mtbf_grid_s {
            for &seed in &self.fault_seeds {
                let config = self.simulation_config(mtbf, seed, method);
                cells.push((format!("mtbf-{mtbf:.0}"), Simulator::new(config)));
            }
        }
        cells
    }

    /// Runs the full sweep: one pooled [`AvailabilityPoint`] per MTBF value,
    /// each aggregating every fault seed. Deterministic in the experiment.
    pub fn sweep(&self, method: Method) -> Vec<AvailabilityPoint> {
        let mut runs = run_cells(self.cells(method)).map(|(_, result)| result);
        self.mtbf_grid_s
            .iter()
            .map(|&mtbf| {
                let results: Vec<SimulationResult> =
                    runs.by_ref().take(self.fault_seeds.len()).collect();
                AvailabilityPoint::pool(mtbf, self.num_requests, &results)
            })
            .collect()
    }

    /// The `availability` grid: one row per MTBF value with the SLO-curve
    /// sensors. Row labels are `mtbf-<seconds>`.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        ExperimentTable::sweep(
            "availability",
            format!(
                "Availability SLO curve ({}, {} spines, {} requests x {} fault seeds)",
                method.name(),
                self.spines,
                self.num_requests,
                self.fault_seeds.len()
            ),
            [
                "availability",
                "nines",
                "p99_jct_s",
                "p999_jct_s",
                "downtime_s",
                "abandoned",
                "retries",
                "rerouted",
            ],
            self.sweep(method)
                .into_iter()
                .map(|p| (format!("mtbf-{:.0}", p.mtbf_s), p)),
            |p| {
                vec![
                    p.availability,
                    p.nines,
                    p.p99_jct_s,
                    p.p999_jct_s,
                    p.downtime_s,
                    p.abandoned as f64,
                    p.transfer_retries as f64,
                    p.rerouted_flows as f64,
                ]
            },
        )
    }
}

/// One point of the availability SLO curve: every fault seed of one MTBF
/// value, pooled.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AvailabilityPoint {
    /// The MTBF of this grid point (seconds).
    pub mtbf_s: f64,
    /// Runs pooled (one per fault seed).
    pub runs: usize,
    /// Fault events generated across the pooled runs.
    pub generated_faults: usize,
    /// Completed / offered requests across the pooled runs.
    pub availability: f64,
    /// Nines of availability (`-log10(1 - availability)`, capped at 9 for a
    /// loss-free sample).
    pub nines: f64,
    /// Pooled p99 JCT (seconds; nearest-rank over every completed request).
    pub p99_jct_s: f64,
    /// Pooled p999 JCT (seconds).
    pub p999_jct_s: f64,
    /// Summed fault downtime across the pooled runs (domain-seconds).
    pub downtime_s: f64,
    /// Summed link-degradation exposure (link-seconds below nominal).
    pub degraded_link_secs: f64,
    /// Requests permanently abandoned across the pooled runs.
    pub abandoned: usize,
    /// Requests aborted without completing (includes abandoned ones).
    pub aborted: usize,
    /// Transfer retries across the pooled runs.
    pub transfer_retries: usize,
    /// Flows ECMP-rerouted across surviving spines.
    pub rerouted_flows: usize,
}

impl AvailabilityPoint {
    /// Pools the per-seed results of one MTBF grid point.
    pub fn pool(mtbf_s: f64, offered_per_run: usize, results: &[SimulationResult]) -> Self {
        let offered = offered_per_run * results.len();
        let completed: usize = results.iter().map(|r| r.records.len()).sum();
        let availability = if offered > 0 {
            completed as f64 / offered as f64
        } else {
            1.0
        };
        let jcts = sorted_jcts(results);
        Self {
            mtbf_s,
            runs: results.len(),
            generated_faults: results.iter().map(|r| r.faults.len()).sum(),
            availability,
            nines: nines_of(availability),
            p99_jct_s: percentile(&jcts, 0.99),
            p999_jct_s: percentile(&jcts, 0.999),
            downtime_s: results
                .iter()
                .flat_map(|r| r.faults.iter().map(|f| f.downtime_secs))
                .sum(),
            degraded_link_secs: results.iter().map(|r| r.degraded_link_secs).sum(),
            abandoned: results.iter().map(|r| r.abandoned_requests).sum(),
            aborted: results.iter().map(|r| r.aborted_requests).sum(),
            transfer_retries: results.iter().map(|r| r.transfer_retries).sum(),
            rerouted_flows: results.iter().map(|r| r.rerouted_flows).sum(),
        }
    }
}

/// Nines of availability: `-log10(1 - a)`, capped at 9.0 (a loss-free sample
/// has no finite nines).
pub fn nines_of(availability: f64) -> f64 {
    if availability >= 1.0 {
        9.0
    } else {
        (-(1.0 - availability).log10()).clamp(0.0, 9.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AvailabilityExperiment {
        AvailabilityExperiment {
            num_requests: 25,
            mtbf_grid_s: vec![60.0, 600.0],
            fault_seeds: vec![101, 102],
            ..AvailabilityExperiment::paper_sweep()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_covers_the_grid() {
        let e = small();
        let a = e.sweep(Method::Baseline);
        let b = e.sweep(Method::Baseline);
        assert_eq!(a, b, "same experiment, bit-identical sweep");
        assert_eq!(a.len(), e.mtbf_grid_s.len());
        for p in &a {
            assert!(p.availability >= 0.0 && p.availability <= 1.0);
            assert!(p.nines >= 0.0 && p.nines <= 9.0);
            assert_eq!(p.runs, e.fault_seeds.len());
        }
        // The aggressive-failure grid point must actually generate faults.
        assert!(a[0].generated_faults > 0, "60 s MTBF generates faults");
        assert!(
            a[0].generated_faults >= a[1].generated_faults,
            "shorter MTBF, at least as many faults"
        );
    }

    #[test]
    fn generated_plans_validate_and_conserve_requests() {
        let e = small();
        for (label, sim) in e.cells(Method::Baseline) {
            sim.config()
                .validate()
                .expect("generated plans always validate");
            let r = sim.run();
            assert!(
                r.records.len() + r.rejected_requests + r.aborted_requests == e.num_requests,
                "conservation at {label}"
            );
        }
    }

    #[test]
    fn nines_and_percentiles() {
        assert_eq!(nines_of(1.0), 9.0);
        assert!((nines_of(0.999) - 3.0).abs() < 1e-9);
        assert!((nines_of(0.99) - 2.0).abs() < 1e-9);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn grid_reports_one_row_per_mtbf() {
        let e = small();
        let table = e.grid(Method::Baseline);
        assert_eq!(table.rows.len(), e.mtbf_grid_s.len());
        assert_eq!(table.rows[0].label, "mtbf-60");
        assert!(table.value("mtbf-60", "availability").unwrap() > 0.0);
    }
}
