//! Fault-storm experiments: fault plans × fabric topologies on one workload.
//!
//! A [`FaultStormExperiment`] fixes the workload (model × dataset × load) and
//! sweeps a scenario grid over the robustness axes of the cluster simulator:
//! the flat fabric versus the topology-aware link graph, and — on the link
//! graph — one representative fault per domain kind (decode replica, prefill
//! replica, NIC, ToR switch, spine). Every scenario reports the resilience
//! sensors of its [`SimulationResult`](hack_cluster::SimulationResult): blast
//! radius, retries, goodput while degraded, and recovery-drain time. The
//! `flat/no-fault` row doubles as the equivalence anchor: it runs the exact
//! pre-topology configuration, and `tests/integration_drift_anchors.rs` pins
//! its average JCT exactly, along with the `graph/no-fault`, `graph/tor` and
//! `graph/spine` rows of a loaded storm whose flows contend for links.

use crate::experiment::{run_cells, Cell, ExperimentTable};
use crate::method::Method;
use hack_cluster::{
    ClusterConfig, FaultDomain, FaultEvent, FaultPlan, LinkGraphSpec, SimulationConfig, Simulator,
    TopologySpec,
};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::TraceConfig;
use serde::Serialize;

/// One fault-storm experiment: the workload shared by every scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultStormExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Dataset.
    pub dataset: Dataset,
    /// Number of requests simulated.
    pub num_requests: usize,
    /// Request rate (fixed, so every scenario sees the identical trace).
    pub rps: f64,
    /// Fault instant shared by the single-fault scenarios (seconds).
    pub fault_at: f64,
    /// Recovery instant shared by the single-fault scenarios (seconds).
    pub recover_at: f64,
    /// Trace seed.
    pub seed: u64,
}

impl FaultStormExperiment {
    /// The default storm: the paper fleet on arXiv prompts, driven long
    /// enough that a fault at `fault_at = 30 s` lands mid-run and heals with
    /// work left to do.
    pub fn paper_storm() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            dataset: Dataset::Arxiv,
            num_requests: 60,
            rps: 0.4,
            fault_at: 30.0,
            recover_at: 90.0,
            seed: 11,
        }
    }

    /// The simulation configuration of one scenario: `faults` injected into
    /// the paper fleet wired as `topology`.
    fn simulation_config(
        &self,
        topology: TopologySpec,
        faults: FaultPlan,
        method: Method,
    ) -> SimulationConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.topology = topology;
        let trace = TraceConfig {
            dataset: self.dataset,
            rps: self.rps,
            num_requests: self.num_requests,
            max_context: self.model.spec().max_context,
            seed: self.seed,
        };
        SimulationConfig {
            faults,
            ..SimulationConfig::new(cluster, trace, method.profile())
        }
    }

    /// The scenario grid, labelled `fabric/fault`: the flat fabric and the
    /// link graph fault-free (the interleaved A/B pair pinning fabric
    /// overhead), then one transient fault per domain kind on the link graph.
    pub fn cells(&self, method: Method) -> Vec<Cell> {
        let graph = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
        let single = |domain| {
            FaultPlan::new(&[FaultEvent::transient(
                domain,
                self.fault_at,
                self.recover_at,
            )])
        };
        [
            ("flat/no-fault", TopologySpec::Flat, FaultPlan::none()),
            ("graph/no-fault", graph, FaultPlan::none()),
            (
                "graph/decode-replica",
                graph,
                single(FaultDomain::DecodeReplica(0)),
            ),
            (
                "graph/prefill-replica",
                graph,
                single(FaultDomain::PrefillReplica(0)),
            ),
            ("graph/nic", graph, single(FaultDomain::DecodeNic(0))),
            ("graph/tor", graph, single(FaultDomain::DecodeTor(0))),
            ("graph/spine", graph, single(FaultDomain::Spine(0))),
        ]
        .into_iter()
        .map(|(label, topology, faults)| {
            let config = self.simulation_config(topology, faults, method);
            (label.to_string(), Simulator::new(config))
        })
        .collect()
    }

    /// The `fault_storm` grid: one row per scenario with the resilience
    /// sensors. `flat/no-fault` is the baseline row; the blast radius and
    /// the recovery drain are the largest over the run's faults.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        ExperimentTable::sweep(
            "fault_storm",
            format!(
                "Fault plans x fabric topologies ({}, {} requests)",
                method.name(),
                self.num_requests
            ),
            [
                "avg_jct_s",
                "completed",
                "aborted",
                "retries",
                "blast_radius",
                "degraded_goodput",
                "recovery_drain_s",
            ],
            run_cells(self.cells(method)),
            |r| {
                let blast_radius = r.faults.iter().map(|f| f.replicas_affected).max();
                vec![
                    r.average_jct(),
                    r.records.len() as f64,
                    r.aborted_requests as f64,
                    r.transfer_retries as f64,
                    blast_radius.unwrap_or(0) as f64,
                    r.degraded_goodput,
                    r.faults
                        .iter()
                        .map(|f| f.recovery_drain_secs)
                        .fold(0.0, f64::max),
                ]
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FaultStormExperiment {
        FaultStormExperiment {
            num_requests: 30,
            ..FaultStormExperiment::paper_storm()
        }
    }

    #[test]
    fn grid_reports_every_scenario_with_conserved_requests() {
        let e = small();
        let table = e.grid(Method::Baseline);
        assert_eq!(table.rows.len(), e.cells(Method::Baseline).len());
        assert_eq!(table.rows[0].label, "flat/no-fault");
        for row in &table.rows {
            let completed = table.value(&row.label, "completed").unwrap();
            let aborted = table.value(&row.label, "aborted").unwrap();
            assert!(
                completed + aborted <= e.num_requests as f64 + 1e-9,
                "{}: {completed} + {aborted}",
                row.label
            );
            assert!(completed > 0.0, "{}", row.label);
        }
    }

    #[test]
    fn flat_no_fault_row_is_the_pre_topology_simulation() {
        // The anchor row must run the exact legacy configuration: default
        // topology, empty fault plan — bit-identical to a plain run.
        let e = small();
        let (label, flat) = &e.cells(Method::Baseline)[0];
        assert_eq!(label, "flat/no-fault");
        assert_eq!(flat.config().cluster.topology, TopologySpec::Flat);
        assert!(flat.config().faults.is_empty());
        let legacy = SimulationConfig::new(
            ClusterConfig::paper_default(e.model, GpuKind::A10G),
            flat.config().trace,
            Method::Baseline.profile(),
        );
        assert_eq!(flat.run(), Simulator::new(legacy).run());
    }

    #[test]
    fn tor_scenario_has_the_widest_blast_radius() {
        let e = small();
        let table = e.grid(Method::Baseline);
        let blast = |label: &str| table.value(label, "blast_radius").unwrap();
        assert_eq!(blast("graph/tor"), 2.0, "2 decode replicas per ToR");
        assert_eq!(blast("graph/decode-replica"), 1.0);
        assert_eq!(blast("graph/nic"), 1.0);
        assert_eq!(blast("graph/spine"), 0.0, "the spine fails links only");
        assert!(blast("graph/tor") > blast("graph/decode-replica"));
    }
}
