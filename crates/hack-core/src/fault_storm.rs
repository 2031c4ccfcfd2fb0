//! Fault-storm experiments: fault plans × fabric topologies on one workload.
//!
//! A [`FaultStormExperiment`] fixes the workload (model × dataset × load) and
//! sweeps a scenario grid over the robustness axes of the cluster simulator:
//! the flat fabric versus the topology-aware link graph, and — on the link
//! graph — one representative fault per domain kind (decode replica, prefill
//! replica, NIC, ToR switch, spine). Every scenario reports the resilience
//! sensors of [`SimulationResult`]: blast radius, retries, goodput while
//! degraded, and recovery-drain time. The `flat/no-fault` row doubles as the
//! equivalence anchor: it runs the exact pre-topology configuration, and
//! `tests/integration_drift_anchors.rs` pins its average JCT exactly, along
//! with the `graph/no-fault`, `graph/tor` and `graph/spine` rows of a loaded
//! storm whose flows contend for links.

use crate::experiment::{ExperimentTable, Row};
use crate::method::Method;
use hack_cluster::{
    CacheConfig, ClusterConfig, FaultDomain, FaultEvent, FaultPlan, LinkGraphSpec, PolicyConfig,
    SimulationConfig, SimulationResult, Simulator, TelemetryConfig, TopologySpec,
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

/// One entry of the scenario grid: a label, the fabric topology, and the
/// fault plan to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Row label, `fabric/fault` shaped (e.g. `graph/tor`).
    pub label: &'static str,
    /// Fabric topology the scenario runs under.
    pub topology: TopologySpec,
    /// Faults injected into the run.
    pub faults: FaultPlan,
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

    /// The scenario grid: the flat fabric and the link graph fault-free
    /// (the interleaved A/B pair pinning fabric overhead), then one
    /// transient fault per domain kind on the link graph.
    pub fn scenarios(&self) -> Vec<FaultScenario> {
        let graph = TopologySpec::LinkGraph(LinkGraphSpec::paper_default());
        let single = |domain| {
            let mut plan = FaultPlan::none();
            plan.push(FaultEvent::transient(
                domain,
                self.fault_at,
                self.recover_at,
            ));
            plan
        };
        vec![
            FaultScenario {
                label: "flat/no-fault",
                topology: TopologySpec::Flat,
                faults: FaultPlan::none(),
            },
            FaultScenario {
                label: "graph/no-fault",
                topology: graph,
                faults: FaultPlan::none(),
            },
            FaultScenario {
                label: "graph/decode-replica",
                topology: graph,
                faults: single(FaultDomain::DecodeReplica(0)),
            },
            FaultScenario {
                label: "graph/prefill-replica",
                topology: graph,
                faults: single(FaultDomain::PrefillReplica(0)),
            },
            FaultScenario {
                label: "graph/nic",
                topology: graph,
                faults: single(FaultDomain::DecodeNic(0)),
            },
            FaultScenario {
                label: "graph/tor",
                topology: graph,
                faults: single(FaultDomain::DecodeTor(0)),
            },
            FaultScenario {
                label: "graph/spine",
                topology: graph,
                faults: single(FaultDomain::Spine(0)),
            },
        ]
    }

    /// The simulation configuration of one (scenario, method) pair.
    pub fn simulation_config(&self, scenario: &FaultScenario, method: Method) -> SimulationConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.topology = scenario.topology;
        SimulationConfig {
            cluster,
            trace: TraceConfig {
                dataset: self.dataset,
                rps: self.rps,
                num_requests: self.num_requests,
                max_context: self.model.spec().max_context,
                seed: self.seed,
            },
            profile: method.profile(),
            policy: PolicyConfig::default(),
            faults: scenario.faults,
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        }
    }

    /// Runs one scenario.
    pub fn run(&self, scenario: &FaultScenario, method: Method) -> FaultStormOutcome {
        let result = Simulator::new(self.simulation_config(scenario, method)).run();
        FaultStormOutcome::from_result(scenario.label, result)
    }

    /// The `fault_storm` grid: one row per scenario with the resilience
    /// sensors. `flat/no-fault` is the baseline row.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            "fault_storm",
            format!(
                "Fault plans x fabric topologies ({}, {} requests)",
                method.name(),
                self.num_requests
            ),
            vec![
                "avg_jct_s".to_string(),
                "completed".to_string(),
                "aborted".to_string(),
                "retries".to_string(),
                "blast_radius".to_string(),
                "degraded_goodput".to_string(),
                "recovery_drain_s".to_string(),
            ],
            "flat/no-fault",
        );
        for scenario in self.scenarios() {
            let o = self.run(&scenario, method);
            table.push_row(Row::new(
                scenario.label.to_string(),
                vec![
                    o.average_jct,
                    o.completed as f64,
                    o.aborted as f64,
                    o.transfer_retries as f64,
                    o.blast_radius as f64,
                    o.degraded_goodput,
                    o.recovery_drain_secs,
                ],
            ));
        }
        table
    }
}

/// Aggregate outcome of one fault-storm scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultStormOutcome {
    /// Scenario label (`fabric/fault`).
    pub label: String,
    /// Average JCT across completed requests (seconds).
    pub average_jct: f64,
    /// Requests that completed.
    pub completed: usize,
    /// Requests aborted without completing (includes abandoned ones).
    pub aborted: usize,
    /// Requests that exhausted every retry and re-admission.
    pub abandoned: usize,
    /// Transfer retry attempts across the run.
    pub transfer_retries: usize,
    /// Largest per-fault count of replicas failed by one fault event.
    pub blast_radius: usize,
    /// Completions per second inside the merged fault windows.
    pub degraded_goodput: f64,
    /// Seconds the run spent inside fault windows.
    pub degraded_secs: f64,
    /// Largest per-fault memory-wait drain time after recovery (seconds).
    pub recovery_drain_secs: f64,
}

impl FaultStormOutcome {
    /// Aggregates a finished simulation result.
    pub fn from_result(label: &str, result: SimulationResult) -> Self {
        Self {
            label: label.to_string(),
            average_jct: result.average_jct(),
            completed: result.records.len(),
            aborted: result.aborted_requests,
            abandoned: result.abandoned_requests,
            transfer_retries: result.transfer_retries,
            blast_radius: result
                .faults
                .iter()
                .map(|f| f.replicas_affected)
                .max()
                .unwrap_or(0),
            degraded_goodput: result.degraded_goodput,
            degraded_secs: result.degraded_secs,
            recovery_drain_secs: result
                .faults
                .iter()
                .map(|f| f.recovery_drain_secs)
                .fold(0.0, f64::max),
        }
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
        assert_eq!(table.rows.len(), e.scenarios().len());
        assert_eq!(table.rows[0].label, "flat/no-fault");
        for scenario in e.scenarios() {
            let completed = table.value(scenario.label, "completed").unwrap();
            let aborted = table.value(scenario.label, "aborted").unwrap();
            assert!(
                completed + aborted <= e.num_requests as f64 + 1e-9,
                "{}: {completed} + {aborted}",
                scenario.label
            );
            assert!(completed > 0.0, "{}", scenario.label);
        }
    }

    #[test]
    fn flat_no_fault_row_is_the_pre_topology_simulation() {
        // The anchor row must run the exact legacy configuration: default
        // topology, empty fault plan — bit-identical to a plain run.
        let e = small();
        let flat = &e.scenarios()[0];
        assert_eq!(flat.topology, TopologySpec::Flat);
        assert!(flat.faults.is_empty());
        let via_grid = Simulator::new(e.simulation_config(flat, Method::Baseline)).run();
        let mut legacy = e.simulation_config(flat, Method::Baseline);
        legacy.cluster = ClusterConfig::paper_default(e.model, GpuKind::A10G);
        let plain = Simulator::new(legacy).run();
        assert_eq!(via_grid, plain);
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
