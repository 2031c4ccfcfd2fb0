//! Heterogeneous-fleet JCT experiments: mixed-GPU prefill fleets vs uniform
//! ones under replica-aware dispatch policies.
//!
//! A [`HeteroFleetExperiment`] fixes the workload (model × dataset × load) and
//! compares two prefill fleets of equal instance count over the paper's
//! decode side: a *uniform* A10G fleet and a *mixed* fleet that swaps half the
//! instances for L4s (faster prefill compute, same 40 Gbps NIC — the ROADMAP's
//! "Heterogeneous GPUs" scenario). [`HeteroFleetExperiment::grid`] sweeps
//! every shipped [`DispatchPolicyKind`] on the mixed fleet and reports average
//! JCT plus per-group utilization — the `hetero_fleet` experiment grid.

use crate::experiment::{run_cells, Cell, ExperimentTable};
use crate::method::Method;
use hack_cluster::{
    ClusterConfig, DispatchPolicyKind, GroupSet, PolicyConfig, ReplicaGroup, SimulationConfig,
    Simulator,
};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::TraceConfig;
use serde::Serialize;

/// One heterogeneous-fleet experiment: the workload shared by every fleet and
/// dispatch policy under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HeteroFleetExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Dataset.
    pub dataset: Dataset,
    /// Number of requests simulated.
    pub num_requests: usize,
    /// Request rate (fixed, so every fleet/policy sees the identical trace).
    pub rps: f64,
    /// Instances per prefill sub-fleet: the uniform fleet has `2 * instances`
    /// A10G instances, the mixed fleet `instances` A10G + `instances` L4.
    pub instances_per_side: usize,
    /// Trace seed.
    pub seed: u64,
}

impl HeteroFleetExperiment {
    /// The default comparison: Llama-3.1 70B on Cocktail, eight prefill
    /// instances (uniform: 8 × A10G = 4 replicas; mixed: 4 × A10G + 4 × L4 =
    /// 2 + 2 replicas), driven near the uniform fleet's capacity so dispatch
    /// decisions matter.
    pub fn paper_mixed() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            dataset: Dataset::Cocktail,
            num_requests: 80,
            rps: 0.25,
            instances_per_side: 4,
            seed: 42,
        }
    }

    /// The uniform fleet: `2 * instances_per_side` A10G instances, one group.
    pub fn uniform_cluster(&self) -> ClusterConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.fleet.prefill = GroupSet::single(ReplicaGroup::paper_sized(
            self.model,
            GpuKind::A10G,
            2 * self.instances_per_side,
        ));
        cluster
    }

    /// The mixed fleet: `instances_per_side` A10G instances plus the same
    /// number of L4 instances, two groups over the same decode side.
    pub fn mixed_cluster(&self) -> ClusterConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.fleet.prefill = GroupSet::new(&[
            ReplicaGroup::paper_sized(self.model, GpuKind::A10G, self.instances_per_side),
            ReplicaGroup::paper_sized(self.model, GpuKind::L4, self.instances_per_side),
        ]);
        cluster
    }

    /// The simulation configuration of one (cluster, method, dispatch) triple.
    pub fn simulation_config(
        &self,
        cluster: ClusterConfig,
        method: Method,
        dispatch: DispatchPolicyKind,
    ) -> SimulationConfig {
        let trace = TraceConfig {
            dataset: self.dataset,
            rps: self.rps,
            num_requests: self.num_requests,
            max_context: self.model.spec().max_context,
            seed: self.seed,
        };
        SimulationConfig {
            policy: PolicyConfig::dispatched(dispatch),
            ..SimulationConfig::new(cluster, trace, method.profile())
        }
    }

    /// The grid's cells, labelled `fleet/dispatch`: the uniform fleet under
    /// least-loaded dispatch, then the mixed fleet under every shipped
    /// dispatch policy.
    pub fn cells(&self, method: Method) -> Vec<Cell> {
        let cell = |fleet: &str, cluster, dispatch: DispatchPolicyKind| {
            let config = self.simulation_config(cluster, method, dispatch);
            (
                format!("{fleet}/{}", dispatch.name()),
                Simulator::new(config),
            )
        };
        let mut cells = vec![cell(
            "uniform",
            self.uniform_cluster(),
            DispatchPolicyKind::LeastLoaded,
        )];
        for dispatch in DispatchPolicyKind::all() {
            cells.push(cell("mixed", self.mixed_cluster(), dispatch));
        }
        cells
    }

    /// The `hetero_fleet` grid: one row per cell with average/p95 JCT and
    /// per-prefill-group utilization (`NaN` where the fleet has no second
    /// group).
    pub fn grid(&self, method: Method) -> ExperimentTable {
        ExperimentTable::sweep(
            "hetero_fleet",
            format!(
                "Mixed A10G+L4 vs uniform A10G prefill fleet ({}, {} requests)",
                method.name(),
                self.num_requests
            ),
            ["avg_jct_s", "p95_jct_s", "g0_utilization", "g1_utilization"],
            run_cells(self.cells(method)),
            |r| {
                let util = |g: usize| r.prefill_groups.get(g).map_or(f64::NAN, |s| s.utilization);
                vec![r.average_jct(), r.jct_stats().p95, util(0), util(1)]
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HeteroFleetExperiment {
        HeteroFleetExperiment {
            num_requests: 40,
            ..HeteroFleetExperiment::paper_mixed()
        }
    }

    #[test]
    fn fleets_have_equal_instance_counts_and_expected_groups() {
        let e = small();
        let uniform = e.uniform_cluster();
        let mixed = e.mixed_cluster();
        assert_eq!(uniform.fleet.prefill.len(), 1);
        assert_eq!(mixed.fleet.prefill.len(), 2);
        // 8 A10G instances = 4 replicas; 4 + 4 instances = 2 + 2 replicas.
        assert_eq!(uniform.prefill_replicas(), 4);
        assert_eq!(mixed.prefill_replicas(), 4);
        assert_eq!(mixed.fleet.prefill.get(0).gpu, GpuKind::A10G);
        assert_eq!(mixed.fleet.prefill.get(1).gpu, GpuKind::L4);
        // Both share the paper's decode side.
        assert_eq!(uniform.fleet.decode, mixed.fleet.decode);
    }

    #[test]
    fn grid_reports_every_fleet_policy_row() {
        let table = small().grid(Method::hack());
        assert_eq!(table.rows.len(), 1 + DispatchPolicyKind::all().len());
        assert_eq!(table.rows[0].label, "uniform/least-loaded");
        let uniform_g1 = table
            .value("uniform/least-loaded", "g1_utilization")
            .unwrap();
        assert!(uniform_g1.is_nan(), "the uniform fleet has no second group");
        for dispatch in DispatchPolicyKind::all() {
            let label = format!("mixed/{}", dispatch.name());
            let jct = table.value(&label, "avg_jct_s").unwrap();
            assert!(jct > 0.0, "{label}");
            let g0 = table.value(&label, "g0_utilization").unwrap();
            let g1 = table.value(&label, "g1_utilization").unwrap();
            assert!(g0 > 0.0 && g0 <= 1.0, "{label}: g0 {g0}");
            if dispatch == DispatchPolicyKind::GroupAffinity {
                // A single-tenant trace pins everything to its preferred
                // group (tenant 0 -> group 0); the L4 group idles.
                assert_eq!(g1, 0.0, "{label}: g1 {g1}");
            } else {
                assert!(g1 > 0.0 && g1 <= 1.0, "{label}: g1 {g1}");
            }
        }
    }

    #[test]
    fn fastest_eligible_exploits_the_fast_group() {
        let e = small();
        let run = |dispatch| {
            let config = e.simulation_config(e.mixed_cluster(), Method::hack(), dispatch);
            Simulator::new(config).run()
        };
        let least = run(DispatchPolicyKind::LeastLoaded);
        let fastest = run(DispatchPolicyKind::FastestEligible);
        assert_eq!(least.records.len(), e.num_requests);
        assert_eq!(fastest.records.len(), e.num_requests);
        // Fastest-eligible shifts load toward the faster L4 group (group 1).
        assert!(
            fastest.prefill_groups[1].completed >= least.prefill_groups[1].completed,
            "fastest-eligible must not shift load away from the fast group: {} vs {}",
            fastest.prefill_groups[1].completed,
            least.prefill_groups[1].completed
        );
        // And must not be worse end-to-end on this contended mixed fleet.
        assert!(
            fastest.average_jct() <= least.average_jct() * 1.0 + 1e-9,
            "fastest-eligible {} vs least-loaded {}",
            fastest.average_jct(),
            least.average_jct()
        );
    }
}
