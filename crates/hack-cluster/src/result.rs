//! Simulation outputs: per-request records and aggregate results, including
//! the per-tenant groupings multi-tenant scenarios are judged on.

use crate::policy::TenantClasses;
use crate::topology::FaultDomain;
use hack_metrics::jct::{average_ratios, JctBreakdown, JctStats, StageRatios};
use hack_metrics::tenant::{self, TenantSlo};
use hack_model::gpu::GpuKind;
use hack_workload::trace::{Request, TenantId};
use serde::Serialize;

/// Outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RequestRecord {
    /// The request as generated by the workload (carries the tenant tag).
    pub request: Request,
    /// Index of the prefill replica that served it.
    pub prefill_replica: usize,
    /// Index of the decode replica that served it.
    pub decode_replica: usize,
    /// Completion time (seconds since trace start).
    pub finish_time: f64,
    /// JCT decomposition.
    pub breakdown: JctBreakdown,
}

impl RequestRecord {
    /// Job completion time (arrival to last token).
    pub fn jct(&self) -> f64 {
        self.finish_time - self.request.arrival
    }

    /// The tenant the request belongs to.
    pub fn tenant(&self) -> TenantId {
        self.request.tenant
    }

    /// Queueing-free service time: every stage the request actively occupied
    /// a resource (JCT minus prefill-queue wait).
    pub fn service_time(&self) -> f64 {
        self.breakdown.total() - self.breakdown.queueing
    }

    /// Slowdown relative to an uncontended prefill queue:
    /// `JCT / service_time` (≥ 1; the per-tenant fairness basis).
    pub fn slowdown(&self) -> f64 {
        let service = self.service_time();
        if service <= 0.0 {
            return 1.0;
        }
        self.breakdown.total() / service
    }
}

/// Per-replica-group usage and outcome summary of one simulation run — the
/// comparison basis for mixed vs uniform fleets (heterogeneous-GPU scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GroupStats {
    /// Group index within its fleet side.
    pub group: usize,
    /// GPU family of the group.
    pub gpu: GpuKind,
    /// Replicas in the group.
    pub replicas: usize,
    /// Completed requests the group served (prefill side: requests prefilled
    /// here; decode side: requests decoded here).
    pub completed: usize,
    /// Summed service seconds on the group (prefill + quantization on the
    /// prefill side; decode + dequant/approx — including aborted decode time —
    /// on the decode side).
    pub busy_secs: f64,
    /// `busy_secs / (replicas * makespan)` — the group's mean utilization.
    pub utilization: f64,
    /// Mean JCT of the requests the group served (0 when it served none).
    pub mean_jct: f64,
    /// Peak KV bytes resident on any replica of the group (decode side; 0.0
    /// on the prefill side).
    pub peak_kv_bytes: f64,
    /// Peak GPU-memory usage fraction of the group (decode side; 0.0 on the
    /// prefill side).
    pub peak_memory_fraction: f64,
    /// GPU dollars the group billed: summed racked-replica uptime times the
    /// group's [`ReplicaGroup::dollars_per_gpu_hour`](crate::fleet::ReplicaGroup)
    /// rate. Without autoscaling this is `replicas * makespan * rate`.
    pub gpu_dollars: f64,
}

/// Blast-radius accounting of one fault of the run's
/// [`FaultPlan`](crate::topology::FaultPlan), in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultRecord {
    /// The fault domain that went down.
    pub domain: FaultDomain,
    /// Failure time (seconds since trace start).
    pub at: f64,
    /// Recovery time, or `None` for a permanent fault.
    pub recover_at: Option<f64>,
    /// Replicas (prefill + decode) the fault took down — for a ToR fault,
    /// every replica behind the switch; 0 for a spine fault (links only).
    pub replicas_affected: usize,
    /// Requests whose in-flight work (prefill, transfer, or decode) the fault
    /// aborted.
    pub requests_aborted: usize,
    /// Seconds the domain was down (fault to recovery, or to the end of the
    /// run for a permanent fault).
    pub downtime_secs: f64,
    /// Seconds from the fault's recovery until the memory-wait queue next
    /// drained (0 when it was already empty — recovery absorbed instantly).
    pub recovery_drain_secs: f64,
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimulationResult {
    /// Name of the evaluated method.
    pub method: String,
    /// Per-request records, in completion order.
    pub records: Vec<RequestRecord>,
    /// Peak GPU-memory usage fraction across decode replicas (Table 5).
    pub peak_decode_memory_fraction: f64,
    /// Peak KV bytes resident on any decode replica.
    pub peak_decode_kv_bytes: f64,
    /// Number of requests that had to wait for decode memory (CPU-swap path).
    pub swapped_requests: usize,
    /// Number of requests turned away by the admission policy (zero under
    /// [`crate::policy::AdmissionPolicyKind::AdmitAll`]).
    pub rejected_requests: usize,
    /// Admission rejections per tenant (index = tenant id; trailing
    /// rejection-free tenants are trimmed, so this is empty when nothing was
    /// rejected).
    pub rejected_by_tenant: Vec<usize>,
    /// Number of request re-queues caused by decode-replica failures (one
    /// request can be re-queued more than once; zero without fault injection).
    pub requeued_requests: usize,
    /// Number of fault events delivered during the run (replica failures,
    /// prefill failures and fabric cuts each count once).
    pub injected_failures: usize,
    /// Total transfer retries scheduled (flow aborts plus failed restarts;
    /// zero without fault injection).
    pub transfer_retries: usize,
    /// `retry_histogram[k]` = requests that made exactly `k` transfer
    /// attempts (`k >= 1`; index 0 is always 0). Empty when no retries
    /// happened.
    pub retry_histogram: Vec<usize>,
    /// Requests neither completed nor rejected when the run ended:
    /// permanently aborted after exhausting retries and re-admissions, or
    /// stranded by a permanent whole-fleet failure.
    pub aborted_requests: usize,
    /// The subset of [`Self::aborted_requests`] that explicitly gave up
    /// (exhausted [`crate::topology::MAX_READMISSIONS`]).
    pub abandoned_requests: usize,
    /// Per-fault blast radius, in fault-plan order (empty without faults).
    pub faults: Vec<FaultRecord>,
    /// Total seconds at least one fault domain was down (union of fault
    /// windows, clipped to the run).
    pub degraded_secs: f64,
    /// Completions per second inside the degraded windows (0 when the run
    /// had none).
    pub degraded_goodput: f64,
    /// Link-seconds spent below nominal capacity under link-degradation
    /// faults (links degraded × window seconds, clipped to the run).
    pub degraded_link_secs: f64,
    /// Nominal fabric capacity removed by link degradations, integrated over
    /// their windows (Gbps-seconds).
    pub throughput_loss_gbps_s: f64,
    /// Flows that survived a spine fault by ECMP-rerouting onto a surviving
    /// spine block instead of aborting.
    pub rerouted_flows: usize,
    /// Scale-up orders the autoscaler placed (each pays the group's
    /// provisioning delay before the replica joins; 0 with scaling off).
    pub scale_ups: usize,
    /// Scale-downs the autoscaler completed (a drained replica powering off;
    /// 0 with scaling off).
    pub scale_downs: usize,
    /// Total GPU dollars the run billed across both fleet sides (sum of the
    /// per-group [`GroupStats::gpu_dollars`]).
    pub gpu_dollars: f64,
    /// `gpu_dollars` per thousand generated (output) tokens — the unit-cost
    /// figure the autoscaling experiments trade against SLO attainment (0
    /// when the run completed nothing).
    pub dollars_per_1k_tokens: f64,
    /// Prefill-side session lookups that found a usable cached prefix (0 with
    /// the cache off — as are all the `prefix_*` sensors below).
    pub prefix_hits: usize,
    /// Session follow-ups whose prefix was not resident.
    pub prefix_misses: usize,
    /// Cached prefixes dropped (LRU pressure, reservation reclaim, residency
    /// moves, failures, drains).
    pub prefix_evictions: usize,
    /// `prefix_hits / (prefix_hits + prefix_misses)` (0 when no session
    /// lookups happened).
    pub prefix_hit_rate: f64,
    /// Fabric bytes not transferred thanks to prefix hits.
    pub prefix_bytes_saved: f64,
    /// Prefill + quantization seconds not spent thanks to prefix hits.
    pub prefill_seconds_saved: f64,
    /// Per decode group (group order): the worst replica's peak prefix-cache
    /// occupancy as a fraction of its full KV budget. Empty with the cache
    /// off.
    pub prefix_cache_peak_fraction: Vec<f64>,
    /// Per-prefill-group usage summary, in group order.
    pub prefill_groups: Vec<GroupStats>,
    /// Per-decode-group usage summary, in group order.
    pub decode_groups: Vec<GroupStats>,
    /// Total simulated time (completion of the last request).
    pub makespan: f64,
}

impl SimulationResult {
    /// Average JCT across requests (the quantity plotted in Figs. 9, 11, 12, 13, 14).
    pub fn average_jct(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.jct()).sum::<f64>() / self.records.len() as f64
    }

    /// Aggregate JCT statistics.
    pub fn jct_stats(&self) -> JctStats {
        JctStats::from_breakdowns(self.records.iter().map(|r| &r.breakdown))
    }

    /// Average per-stage time ratios (Figs. 1–4).
    pub fn average_ratios(&self) -> StageRatios {
        average_ratios(self.records.iter().map(|r| &r.breakdown))
    }

    // --- Per-tenant views (multi-tenant scenarios). ---

    /// The distinct tenants with completed requests, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut tenants: Vec<TenantId> = Vec::new();
        for r in &self.records {
            if let Err(i) = tenants.binary_search(&r.tenant()) {
                tenants.insert(i, r.tenant());
            }
        }
        tenants
    }

    /// Per-tenant [`JctStats`], ascending by tenant.
    pub fn per_tenant_stats(&self) -> Vec<(TenantId, JctStats)> {
        tenant::per_tenant_stats(self.records.iter().map(|r| (r.tenant(), r.breakdown)))
    }

    /// Per-tenant mean slowdown (`JCT / queueing-free service time`),
    /// ascending by tenant. The scheduling policy controls queueing, so this
    /// is the allocation the fairness index is computed on.
    pub fn per_tenant_mean_slowdown(&self) -> Vec<(TenantId, f64)> {
        let mut acc: Vec<(TenantId, f64, usize)> = Vec::new();
        for r in &self.records {
            match acc.binary_search_by_key(&r.tenant(), |(t, _, _)| *t) {
                Ok(i) => {
                    acc[i].1 += r.slowdown();
                    acc[i].2 += 1;
                }
                Err(i) => acc.insert(i, (r.tenant(), r.slowdown(), 1)),
            }
        }
        acc.into_iter()
            .map(|(t, sum, n)| (t, sum / n as f64))
            .collect()
    }

    /// Jain's fairness index over the tenants' normalized service rates
    /// (the reciprocal of each tenant's mean slowdown): `1.0` when every
    /// tenant is slowed equally, `→ 1/n` when one tenant absorbs all the
    /// queueing. Single-tenant runs are trivially fair.
    pub fn jain_fairness(&self) -> f64 {
        let rates: Vec<f64> = self
            .per_tenant_mean_slowdown()
            .into_iter()
            .map(|(_, slowdown)| 1.0 / slowdown.max(1.0))
            .collect();
        tenant::jain_index(&rates)
    }

    /// Per-tenant SLO attainment against the run's tenant classes
    /// (`slo_jct` per tenant), ascending by tenant.
    pub fn slo_summary(&self, classes: &TenantClasses) -> Vec<TenantSlo> {
        tenant::slo_attainment(self.records.iter().map(|r| (r.tenant(), r.jct())), |t| {
            classes.get(t).slo_jct
        })
    }

    // --- Per-group views (heterogeneous-fleet scenarios). ---

    /// Full [`JctStats`] (mean, p50/p95/p99, min/max) per decode group, in
    /// group order — the percentile complement of the usage-oriented
    /// [`GroupStats`]; groups that served nothing report empty stats. Each
    /// request counts towards the group that *completed* it (under fault
    /// injection its aborted attempts may have run elsewhere).
    pub fn per_decode_group_stats(&self) -> Vec<(usize, JctStats)> {
        Self::group_stats_of(&self.decode_groups, &self.records, |r| r.decode_replica)
    }

    fn group_stats_of(
        groups: &[GroupStats],
        records: &[RequestRecord],
        replica_of: impl Fn(&RequestRecord) -> usize,
    ) -> Vec<(usize, JctStats)> {
        // Replicas flatten group-major (group 0's replicas first), so the
        // group of replica r is found by walking the cumulative group sizes.
        let group_of = |replica: usize| {
            let mut offset = 0;
            for g in groups {
                offset += g.replicas;
                if replica < offset {
                    return g.group;
                }
            }
            groups.last().map_or(0, |g| g.group)
        };
        let mut per_group: Vec<Vec<JctBreakdown>> = vec![Vec::new(); groups.len()];
        for r in records {
            let group = group_of(replica_of(r));
            if let Some(bucket) = groups.iter().position(|g| g.group == group) {
                per_group[bucket].push(r.breakdown);
            }
        }
        groups
            .iter()
            .zip(per_group)
            .map(|(g, breakdowns)| (g.group, JctStats::from_breakdowns(&breakdowns)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant_record(tenant: u32, arrival: f64, finish: f64, queueing: f64) -> RequestRecord {
        RequestRecord {
            request: Request {
                id: 0,
                tenant: TenantId(tenant),
                arrival,
                input_len: 100,
                output_len: 10,
                session: 0,
                parent: None,
                shared_prefix_tokens: 0,
            },
            prefill_replica: 0,
            decode_replica: 0,
            finish_time: finish,
            breakdown: JctBreakdown {
                prefill: 1.0,
                queueing,
                decode: finish - arrival - 1.0 - queueing,
                ..Default::default()
            },
        }
    }

    fn record(arrival: f64, finish: f64) -> RequestRecord {
        tenant_record(0, arrival, finish, 0.0)
    }

    fn result_of(records: Vec<RequestRecord>) -> SimulationResult {
        SimulationResult {
            method: "baseline".to_string(),
            records,
            peak_decode_memory_fraction: 0.5,
            peak_decode_kv_bytes: 1e9,
            swapped_requests: 0,
            rejected_requests: 0,
            rejected_by_tenant: Vec::new(),
            requeued_requests: 0,
            injected_failures: 0,
            transfer_retries: 0,
            retry_histogram: Vec::new(),
            aborted_requests: 0,
            abandoned_requests: 0,
            faults: Vec::new(),
            degraded_secs: 0.0,
            degraded_goodput: 0.0,
            degraded_link_secs: 0.0,
            throughput_loss_gbps_s: 0.0,
            rerouted_flows: 0,
            scale_ups: 0,
            scale_downs: 0,
            gpu_dollars: 0.0,
            dollars_per_1k_tokens: 0.0,
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_evictions: 0,
            prefix_hit_rate: 0.0,
            prefix_bytes_saved: 0.0,
            prefill_seconds_saved: 0.0,
            prefix_cache_peak_fraction: Vec::new(),
            prefill_groups: Vec::new(),
            decode_groups: Vec::new(),
            makespan: 25.0,
        }
    }

    #[test]
    fn jct_and_average() {
        let result = result_of(vec![record(0.0, 10.0), record(5.0, 25.0)]);
        assert_eq!(result.records[0].jct(), 10.0);
        assert_eq!(result.average_jct(), 15.0);
        assert_eq!(result.jct_stats().count, 2);
        assert!(result.average_ratios().prefill > 0.0);
    }

    #[test]
    fn empty_result_is_harmless() {
        let result = SimulationResult {
            method: "x".to_string(),
            records: vec![],
            peak_decode_memory_fraction: 0.0,
            peak_decode_kv_bytes: 0.0,
            swapped_requests: 0,
            rejected_requests: 0,
            rejected_by_tenant: Vec::new(),
            requeued_requests: 0,
            injected_failures: 0,
            transfer_retries: 0,
            retry_histogram: Vec::new(),
            aborted_requests: 0,
            abandoned_requests: 0,
            faults: Vec::new(),
            degraded_secs: 0.0,
            degraded_goodput: 0.0,
            degraded_link_secs: 0.0,
            throughput_loss_gbps_s: 0.0,
            rerouted_flows: 0,
            scale_ups: 0,
            scale_downs: 0,
            gpu_dollars: 0.0,
            dollars_per_1k_tokens: 0.0,
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_evictions: 0,
            prefix_hit_rate: 0.0,
            prefix_bytes_saved: 0.0,
            prefill_seconds_saved: 0.0,
            prefix_cache_peak_fraction: Vec::new(),
            prefill_groups: Vec::new(),
            decode_groups: Vec::new(),
            makespan: 0.0,
        };
        assert_eq!(result.average_jct(), 0.0);
        assert_eq!(result.jct_stats().count, 0);
        assert_eq!(result.jain_fairness(), 1.0);
        assert!(result.tenants().is_empty());
    }

    #[test]
    fn per_tenant_views_group_and_rank_fairness() {
        // Tenant 0: no queueing. Tenant 1: heavy queueing (starved).
        let starved = result_of(vec![
            tenant_record(0, 0.0, 10.0, 0.0),
            tenant_record(0, 2.0, 12.0, 0.0),
            tenant_record(1, 1.0, 41.0, 30.0),
        ]);
        let fair = result_of(vec![
            tenant_record(0, 0.0, 13.0, 3.0),
            tenant_record(0, 2.0, 15.0, 3.0),
            tenant_record(1, 1.0, 14.0, 3.0),
        ]);
        assert_eq!(starved.tenants(), vec![TenantId(0), TenantId(1)]);
        let stats = starved.per_tenant_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1.count, 2);
        assert_eq!(stats[1].1.count, 1);
        let slowdowns = starved.per_tenant_mean_slowdown();
        assert!(slowdowns[0].1 < slowdowns[1].1, "tenant 1 is starved");
        assert!(
            starved.jain_fairness() < fair.jain_fairness(),
            "starvation must rank less fair: {} vs {}",
            starved.jain_fairness(),
            fair.jain_fairness()
        );
        assert!(fair.jain_fairness() > 0.99, "equal slowdowns are fair");

        // SLO attainment against per-tenant targets.
        let classes = TenantClasses::new(&[
            crate::policy::TenantClass {
                weight: 1.0,
                slo_jct: 15.0,
            },
            crate::policy::TenantClass {
                weight: 1.0,
                slo_jct: 15.0,
            },
        ]);
        let slo = starved.slo_summary(&classes);
        assert_eq!(slo[0].attained, 2);
        assert_eq!(slo[1].attained, 0);
    }

    #[test]
    fn per_group_stats_follow_the_group_major_replica_layout() {
        let group = |g: usize, replicas: usize| GroupStats {
            group: g,
            gpu: GpuKind::A10G,
            replicas,
            completed: 0,
            busy_secs: 0.0,
            utilization: 0.0,
            mean_jct: 0.0,
            peak_kv_bytes: 0.0,
            peak_memory_fraction: 0.0,
            gpu_dollars: 0.0,
        };
        let mut result = result_of(vec![
            record(0.0, 10.0), // decode replica 0 -> group 0
            record(0.0, 20.0),
            record(0.0, 30.0),
        ]);
        // Group 0 holds replicas {0, 1}, group 1 holds replica {2}.
        result.decode_groups = vec![group(0, 2), group(1, 1)];
        result.records[1].decode_replica = 1; // still group 0
        result.records[2].decode_replica = 2; // group 1
        let stats = result.per_decode_group_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, 0);
        assert_eq!(stats[0].1.count, 2);
        assert_eq!(stats[0].1.mean, 15.0);
        assert_eq!(stats[1].0, 1);
        assert_eq!(stats[1].1.count, 1);
        assert_eq!(stats[1].1.max, 30.0);
        assert!(stats[0].1.p50 <= stats[0].1.p95 && stats[0].1.p95 <= stats[0].1.p99);
    }

    #[test]
    fn record_serde_round_trips_exactly() {
        // The JSON text of a record parses back to exactly its serialized
        // tree, nested request and breakdown included, every f64 bit-exact.
        let original = tenant_record(3, 1.25, 41.5, 7.75);
        let json = serde_json::to_string(&original).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        assert_eq!(value, original.serialize_value());
        let queueing = value
            .get_key("breakdown")
            .and_then(|b| b.get_key("queueing"))
            .and_then(serde::Value::as_f64);
        assert_eq!(
            queueing.map(f64::to_bits),
            Some(original.breakdown.queueing.to_bits())
        );
    }
}
