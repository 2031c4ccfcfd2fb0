//! Multi-tenant JCT experiments: several workload classes sharing one
//! disaggregated cluster under a pluggable frontend policy.
//!
//! A [`TenantMixExperiment`] describes the shared cluster plus one
//! [`TenantWorkload`] per tenant (dataset, rate, SLO target, scheduling
//! weight, seed). Its cells run every shipped scheduling policy on the merged
//! trace; [`TenantMixExperiment::grid`] reads the Jain fairness index,
//! per-tenant mean JCT and SLO attainment off each run into one result table
//! — the `tenant_mix` experiment grid.

use crate::experiment::{run_cells, Cell, ExperimentTable};
use crate::method::Method;
use hack_cluster::{
    AdmissionPolicyKind, ClusterConfig, PolicyConfig, SchedulingPolicyKind, SimulationConfig,
    Simulator, TenantClass, TenantClasses,
};
use hack_metrics::tenant::TenantSlo;
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::tenant::{MultiTenantTrace, TenantSpec};
use hack_workload::trace::{TenantId, TraceConfig};
use serde::Serialize;
use std::sync::Arc;

/// One tenant's workload and service class in a mix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantWorkload {
    /// Dataset the tenant draws request lengths from.
    pub dataset: Dataset,
    /// The tenant's arrival rate (requests per second).
    pub rps: f64,
    /// Requests the tenant contributes to the trace.
    pub num_requests: usize,
    /// Scheduling weight (weighted-round-robin share, token-bucket rate).
    pub weight: f64,
    /// Target JCT in seconds (EDF deadline offset and SLO threshold).
    pub slo_jct: f64,
    /// Seed of the tenant's trace stream.
    pub seed: u64,
}

/// A multi-tenant experiment: the shared cluster and the tenant mix. Tenant
/// `i` in the list is [`TenantId`]`(i)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantMixExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Prefill GPU family.
    pub prefill_gpu: GpuKind,
    /// The tenants sharing the cluster, in tenant-id order.
    pub tenants: Vec<TenantWorkload>,
    /// Admission policy evaluated alongside the scheduling sweep.
    pub admission: AdmissionPolicyKind,
}

impl TenantMixExperiment {
    /// The default contention scenario: an *interactive* tenant (IMDb: short
    /// prompts, tight SLO) sharing the paper-default cluster with a *batch*
    /// tenant (Cocktail: long prompts, loose SLO) driven past the cluster's
    /// single-tenant capacity (~0.39 rps), so the scheduling policy decides
    /// who absorbs the overload queueing.
    pub fn interactive_vs_batch() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            prefill_gpu: GpuKind::A10G,
            tenants: vec![
                TenantWorkload {
                    dataset: Dataset::Imdb,
                    rps: 0.1,
                    num_requests: 25,
                    weight: 1.0,
                    slo_jct: 120.0,
                    seed: 11,
                },
                TenantWorkload {
                    dataset: Dataset::Cocktail,
                    rps: 0.8,
                    num_requests: 120,
                    weight: 1.0,
                    slo_jct: 3_000.0,
                    seed: 12,
                },
            ],
            admission: AdmissionPolicyKind::AdmitAll,
        }
    }

    /// The per-tenant service classes of this mix.
    pub fn classes(&self) -> TenantClasses {
        let classes: Vec<TenantClass> = self
            .tenants
            .iter()
            .map(|t| TenantClass {
                weight: t.weight,
                slo_jct: t.slo_jct,
            })
            .collect();
        TenantClasses::new(&classes)
    }

    /// The merged multi-tenant trace builder.
    pub fn trace(&self) -> MultiTenantTrace {
        let specs: Vec<TenantSpec> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSpec {
                tenant: TenantId(i as u32),
                trace: TraceConfig {
                    dataset: t.dataset,
                    rps: t.rps,
                    num_requests: t.num_requests,
                    max_context: self.model.spec().max_context,
                    seed: t.seed,
                },
            })
            .collect();
        MultiTenantTrace::new(specs)
    }

    /// The simulation configuration of one (method, scheduling) pair. The
    /// aggregate trace parameters describe the *merged* stream; the requests
    /// themselves come from [`Self::trace`] via [`Simulator::with_requests`].
    pub fn simulation_config(
        &self,
        method: Method,
        scheduling: SchedulingPolicyKind,
    ) -> SimulationConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, self.prefill_gpu);
        cluster.pipelining = false;
        let trace = TraceConfig {
            // Descriptive aggregate view of the merged stream (the rate is
            // the sum of the tenants'); the engine seed combines the
            // per-tenant stream seeds.
            dataset: self.tenants[0].dataset,
            rps: self.tenants.iter().map(|t| t.rps).sum(),
            num_requests: self.tenants.iter().map(|t| t.num_requests).sum(),
            max_context: self.model.spec().max_context,
            seed: self
                .tenants
                .iter()
                .fold(0u64, |acc, t| acc.wrapping_mul(31).wrapping_add(t.seed)),
        };
        SimulationConfig {
            policy: PolicyConfig {
                tenants: self.classes(),
                admission: self.admission,
                scheduling,
                ..PolicyConfig::default()
            },
            ..SimulationConfig::new(cluster, trace, method.profile())
        }
    }

    /// The sweep's cells, one per shipped scheduling policy (labelled by its
    /// name), all on the one merged trace.
    pub fn cells(&self, method: Method) -> Vec<Cell> {
        let requests = Arc::new(self.trace().generate());
        SchedulingPolicyKind::all()
            .into_iter()
            .map(|scheduling| {
                let config = self.simulation_config(method, scheduling);
                let sim = Simulator::with_requests(config, requests.clone());
                (scheduling.name().to_string(), sim)
            })
            .collect()
    }

    /// The `tenant_mix` grid: one row per scheduling policy with the fairness
    /// index, per-tenant mean JCTs and SLO attainment (`NaN` for a tenant
    /// that completed nothing).
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let n = self.tenants.len();
        let tenants = || (0..n).map(|i| TenantId(i as u32));
        let columns = std::iter::once("jain_fairness".to_string())
            .chain((0..n).map(|i| format!("t{i}_mean_jct_s")))
            .chain((0..n).map(|i| format!("t{i}_slo_attainment")));
        let classes = self.classes();
        ExperimentTable::sweep(
            "tenant_mix",
            format!(
                "Multi-tenant scheduling sweep ({n} tenants, {})",
                method.name()
            ),
            columns,
            run_cells(self.cells(method)),
            |r| {
                let stats = r.per_tenant_stats();
                let slo = r.slo_summary(&classes);
                let mean = |t| stats.iter().find(|(id, _)| *id == t).map(|(_, s)| s.mean);
                let attainment = |t| {
                    slo.iter()
                        .find(|s| s.tenant == t)
                        .map(TenantSlo::attainment)
                };
                std::iter::once(r.jain_fairness())
                    .chain(tenants().map(|t| mean(t).unwrap_or(f64::NAN)))
                    .chain(tenants().map(|t| attainment(t).unwrap_or(f64::NAN)))
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mix() -> TenantMixExperiment {
        let mut mix = TenantMixExperiment::interactive_vs_batch();
        mix.tenants[0].num_requests = 10;
        mix.tenants[1].num_requests = 40;
        mix
    }

    #[test]
    fn mix_runs_every_policy_and_completes_all_requests() {
        let mix = small_mix();
        for (label, result) in run_cells(mix.cells(Method::hack())) {
            assert_eq!(result.records.len(), 50, "{label}");
            assert_eq!(result.rejected_requests, 0);
            let tenants: Vec<TenantId> = result.per_tenant_stats().iter().map(|s| s.0).collect();
            assert_eq!(tenants, [TenantId(0), TenantId(1)]);
            let jain = result.jain_fairness();
            assert!(jain > 0.0 && jain <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn grid_has_one_row_per_policy() {
        let table = small_mix().grid(Method::Baseline);
        assert_eq!(table.rows.len(), SchedulingPolicyKind::all().len());
        assert_eq!(table.columns.len(), 1 + 2 * 2);
        let fcfs_jain = table.value("fcfs", "jain_fairness").unwrap();
        let wrr_jain = table.value("wrr", "jain_fairness").unwrap();
        assert!(fcfs_jain > 0.0 && wrr_jain > 0.0);
    }

    #[test]
    fn token_bucket_admission_rejects_overload_deterministically() {
        let mut mix = small_mix();
        mix.admission = AdmissionPolicyKind::TokenBucket {
            rate_per_weight: 0.05,
            burst: 2.0,
        };
        let (_, fcfs) = &mix.cells(Method::Baseline)[0];
        let (a, b) = (fcfs.run(), fcfs.run());
        assert!(a.rejected_requests > 0, "overload must trip the bucket");
        assert_eq!(a.rejected_requests + a.records.len(), 50);
        assert_eq!(
            a.rejected_by_tenant.iter().sum::<usize>(),
            a.rejected_requests,
            "per-tenant rejections must account for every rejection"
        );
        assert!(
            a.rejected_by_tenant.len() <= mix.tenants.len(),
            "trailing rejection-free tenants are trimmed"
        );
        assert_eq!(a, b, "admission must be deterministic");
    }
}
