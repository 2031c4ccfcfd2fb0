//! End-to-end JCT experiments on the cluster simulator.
//!
//! One [`JctExperiment`] describes a row of the paper's evaluation matrix (model ×
//! prefill GPU × dataset × load); [`JctExperiment::run`] evaluates one method on it and
//! returns the aggregate numbers the figures plot.

use crate::method::Method;
use hack_cluster::{ClusterConfig, SimulationConfig, Simulator};
use hack_metrics::jct::{JctStats, StageRatios};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::{TraceConfig, TraceTemplate};
use serde::Serialize;
use std::sync::Arc;

/// One experiment configuration (the workload/cluster side; the method is supplied to
/// [`JctExperiment::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct JctExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Prefill GPU family.
    pub prefill_gpu: GpuKind,
    /// Dataset.
    pub dataset: Dataset,
    /// Number of requests simulated.
    pub num_requests: usize,
    /// Request rate; `None` selects ~90% of the baseline's estimated maximum capacity
    /// (§7.1: "The RPS was set to the maximum processing capacity").
    pub rps: Option<f64>,
    /// Whether KV transfer is pipelined with prefill.
    pub pipelining: bool,
    /// Override for the number of prefill replicas (`None` keeps the paper's fleet).
    pub prefill_replicas: Option<usize>,
    /// Override for the number of decode replicas.
    pub decode_replicas: Option<usize>,
    /// Trace seed.
    pub seed: u64,
}

impl JctExperiment {
    /// The paper's default setting: Llama-3.1 70B, A10G prefill, Cocktail.
    pub fn paper_default() -> Self {
        Self::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Cocktail)
    }

    /// Creates an experiment with default load (≈ max capacity) and 100 requests.
    pub fn new(model: ModelKind, prefill_gpu: GpuKind, dataset: Dataset) -> Self {
        Self {
            model,
            prefill_gpu,
            dataset,
            num_requests: 100,
            rps: None,
            pipelining: false,
            prefill_replicas: None,
            decode_replicas: None,
            seed: 42,
        }
    }

    /// The scalability configuration of §7.6 / Fig. 14: `p` prefill replicas against a
    /// half-instance decode side, at RPS = 0.02·p.
    pub fn scalability(p: usize) -> Self {
        Self {
            rps: Some(0.02 * p as f64),
            prefill_replicas: Some(p),
            decode_replicas: Some(1),
            num_requests: 80,
            ..Self::paper_default()
        }
    }

    /// Builds the cluster configuration for this experiment.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cluster = match self.prefill_replicas {
            Some(p) if self.decode_replicas == Some(1) => ClusterConfig::scalability(p),
            _ => ClusterConfig::paper_default(self.model, self.prefill_gpu),
        };
        if let Some(p) = self.prefill_replicas {
            cluster.set_prefill_replicas(p);
        }
        if let Some(d) = self.decode_replicas {
            cluster.set_decode_replicas(d);
        }
        cluster.pipelining = self.pipelining;
        cluster
    }

    /// The request rate used by this experiment.
    ///
    /// With `rps: None` this falls back to the **analytic** capacity estimate
    /// (fast, used by unit tests and as the bisection's starting bracket); the
    /// figure binaries instead resolve the load by *measurement* — see
    /// [`JctExperiment::with_measured_load`].
    pub fn effective_rps(&self) -> f64 {
        if let Some(rps) = self.rps {
            return rps;
        }
        // The paper drives every method at the same load, set by the capacity of the
        // deployment; use 90% of the baseline's estimated maximum.
        0.9 * self.analytic_max_rps()
    }

    /// The analytic capacity estimate of this experiment's cluster for the
    /// baseline method (the bisection's starting bracket and the fast default
    /// behind [`Self::effective_rps`]).
    fn analytic_max_rps(&self) -> f64 {
        let cluster = self.cluster_config();
        let input = self.dataset.input_stats().avg;
        let output = self.dataset.output_stats().avg;
        cluster.estimate_max_rps(&Method::Baseline.profile(), input, output)
    }

    /// The bounded probe experiment the capacity bisection runs at each rate.
    fn bisection_experiment(&self, rps: f64, num_requests: usize) -> JctExperiment {
        JctExperiment {
            rps: Some(rps),
            num_requests,
            ..*self
        }
    }

    /// The shared accept/reject structure of the capacity measurement:
    /// `probe_jct(rps)` is the measured average baseline JCT at a rate; a rate
    /// is sustainable while that stays within [`Self::SATURATION_FACTOR`] of
    /// the unloaded JCT. Grow a bracket from the analytic seed, then bisect.
    fn bisect_max_rps(&self, mut probe_jct: impl FnMut(f64) -> f64) -> f64 {
        let analytic = self.analytic_max_rps();
        // Unloaded reference: a rate so low queueing is negligible.
        let unloaded_jct = probe_jct(analytic * 0.05);
        let mut stable = move |rps: f64| probe_jct(rps) <= unloaded_jct * Self::SATURATION_FACTOR;

        // Grow a bracket [lo stable, hi unstable] from the analytic seed.
        let mut lo = analytic * 0.05;
        let mut hi = analytic.max(lo * 2.0);
        let mut bracketed = !stable(hi);
        let mut growth = 0;
        while !bracketed && growth < 8 {
            lo = hi;
            hi *= 2.0;
            growth += 1;
            bracketed = !stable(hi);
        }
        if !bracketed {
            // Never saturated within 256x of the estimate; report the highest
            // rate that probed stable.
            return lo;
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if stable(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Measures the cluster's maximum sustainable request rate by bisection over
    /// actual simulator runs (§7.1: "the RPS was set to the maximum processing
    /// capacity").
    ///
    /// A rate is deemed sustainable when the measured average baseline JCT stays
    /// within [`Self::SATURATION_FACTOR`] of the unloaded JCT — past saturation,
    /// queueing makes the JCT blow up and the probe fails immediately. The
    /// analytic [`hack_cluster::ClusterConfig::estimate_max_rps`] only seeds the
    /// initial bracket; every accept/reject decision is a measured simulator run,
    /// so model errors in the analytic estimate cannot skew the operating point.
    ///
    /// The ~20 probe runs of a bisection share one [`TraceTemplate`] (sampled
    /// once; each probe only rescales arrival times, bit-identical to a fresh
    /// trace at that rate) and, through the process-wide cost-table cache, one
    /// set of decode cost tables — so each probe re-runs only the event loop.
    /// A test pins it bit-identical to the uncached per-probe path.
    ///
    /// Deterministic: probes reuse this experiment's trace seed.
    pub fn measured_max_rps(&self) -> f64 {
        let n = self.num_requests.clamp(20, 40);
        let template = TraceTemplate::new(self.bisection_experiment(1.0, n).trace_config());
        self.bisect_max_rps(|rps| {
            let config = self
                .bisection_experiment(rps, n)
                .simulation_config(Method::Baseline);
            let requests = Arc::new(template.instantiate(rps));
            Simulator::with_requests(config, requests)
                .run()
                .average_jct()
        })
    }

    /// The uncached capacity measurement: every probe synthesises its trace
    /// from scratch and runs a fresh simulator on it. It is the test oracle
    /// that [`Self::measured_max_rps`], which shares one trace template
    /// across its probes, must reproduce bit-identically.
    #[cfg(test)]
    fn measured_max_rps_reference(&self) -> f64 {
        let n = self.num_requests.clamp(20, 40);
        self.bisect_max_rps(|rps| {
            let config = self
                .bisection_experiment(rps, n)
                .simulation_config(Method::Baseline);
            Simulator::new(config).run().average_jct()
        })
    }

    /// JCT inflation over the unloaded baseline beyond which a probed rate is
    /// considered saturated (see [`Self::measured_max_rps`]).
    pub const SATURATION_FACTOR: f64 = 1.3;

    /// Resolves a `rps: None` load by measurement: 90% of
    /// [`Self::measured_max_rps`], mirroring the analytic default's headroom.
    /// Experiments with an explicit rate are returned unchanged.
    pub fn with_measured_load(self) -> Self {
        if self.rps.is_some() {
            return self;
        }
        Self {
            rps: Some(0.9 * self.measured_max_rps()),
            ..self
        }
    }

    fn trace_config(&self) -> TraceConfig {
        TraceConfig {
            dataset: self.dataset,
            rps: self.effective_rps(),
            num_requests: self.num_requests,
            max_context: self.model.spec().max_context,
            seed: self.seed,
        }
    }

    /// Builds the full simulation configuration for one method (also used to
    /// drive the [`Simulator`] directly, e.g. with event tracing).
    pub fn simulation_config(&self, method: Method) -> SimulationConfig {
        SimulationConfig::new(self.cluster_config(), self.trace_config(), method.profile())
    }

    /// Runs one method on this experiment.
    pub fn run(&self, method: Method) -> JctOutcome {
        let result = Simulator::new(self.simulation_config(method)).run();
        JctOutcome {
            method,
            method_name: method.name(),
            average_jct: result.average_jct(),
            stats: result.jct_stats(),
            ratios: result.average_ratios(),
            peak_decode_memory_fraction: result.peak_decode_memory_fraction,
            swapped_requests: result.swapped_requests,
            requeued_requests: result.requeued_requests,
            completed_requests: result.records.len(),
        }
    }

    /// Runs several methods on the same experiment (same trace, same load).
    pub fn run_all(&self, methods: &[Method]) -> Vec<JctOutcome> {
        methods.iter().map(|m| self.run(*m)).collect()
    }
}

/// Aggregate outcome of one (experiment, method) pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JctOutcome {
    /// The evaluated method.
    pub method: Method,
    /// Its display name.
    pub method_name: String,
    /// Average JCT across requests (seconds) — the paper's headline metric.
    pub average_jct: f64,
    /// Full JCT statistics (mean, p50, p95, max, mean stage breakdown).
    pub stats: JctStats,
    /// Average per-stage time ratios.
    pub ratios: StageRatios,
    /// Peak decode-instance GPU memory usage fraction (Table 5).
    pub peak_decode_memory_fraction: f64,
    /// Requests that had to wait for decode memory.
    pub swapped_requests: usize,
    /// Request re-queues caused by injected decode-replica failures.
    pub requeued_requests: usize,
    /// Requests completed (sanity check: equals the trace length).
    pub completed_requests: usize,
}

impl JctOutcome {
    /// JCT reduction of this method versus another outcome (`1 - self/other`).
    pub fn jct_reduction_vs(&self, other: &JctOutcome) -> f64 {
        if other.average_jct <= 0.0 {
            return 0.0;
        }
        1.0 - self.average_jct / other.average_jct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dataset: Dataset) -> JctExperiment {
        JctExperiment {
            num_requests: 30,
            ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, dataset)
        }
    }

    #[test]
    fn default_rps_is_positive_and_moderate() {
        let e = small(Dataset::Cocktail);
        let rps = e.effective_rps();
        assert!(rps > 0.0 && rps < 5.0, "rps {rps}");
    }

    #[test]
    fn measured_capacity_is_deterministic_and_tracks_the_analytic_estimate() {
        let e = small(Dataset::Cocktail);
        let measured = e.measured_max_rps();
        assert!(measured > 0.0, "measured capacity must be positive");
        // The analytic model and the measured saturation point describe the same
        // cluster; they must agree to well within an order of magnitude.
        let analytic = e.effective_rps() / 0.9;
        assert!(
            measured > 0.2 * analytic && measured < 5.0 * analytic,
            "measured {measured} vs analytic {analytic}"
        );
        assert_eq!(
            measured,
            e.measured_max_rps(),
            "bisection must be deterministic"
        );
    }

    #[test]
    fn cached_bisection_is_bit_identical_to_the_reference_path() {
        // The cached capacity measurement (one shared trace template) must
        // make exactly the same accept/reject decisions as the uncached
        // reference path, hence return the identical rate.
        for dataset in [Dataset::Imdb, Dataset::Cocktail] {
            let e = small(dataset);
            assert_eq!(
                e.measured_max_rps(),
                e.measured_max_rps_reference(),
                "{}: cached and reference bisection disagree",
                dataset.name()
            );
        }
    }

    #[test]
    fn every_method_profile_matches_reference_at_dataset_contexts() {
        // Table-vs-loop equivalence of decode durations for every Method's
        // cost profile, at each dataset's maximum context.
        use hack_model::cost_table::DecodeCostTable;
        use hack_model::parallelism::Parallelism;
        use hack_model::ReplicaCostModel;

        let spec = ModelKind::Llama31_70B.spec();
        let decode_model = ReplicaCostModel::new(
            spec,
            GpuKind::A100.spec(),
            Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A100),
        );
        let batch = decode_model.params.decode_batch;
        let methods = [
            Method::Baseline,
            Method::CacheGen,
            Method::KvQuant,
            Method::Fp8,
            Method::Fp6,
            Method::Fp4,
            Method::Hack { partition: 32 },
            Method::hack(),
            Method::Hack { partition: 128 },
            Method::HackNoSe,
            Method::HackNoRqe,
        ];
        for dataset in Dataset::all() {
            let input = dataset.input_stats().max;
            let output = dataset.output_stats().max;
            for method in methods {
                let profile = method.profile();
                let table = DecodeCostTable::build(&decode_model, &profile, batch, input + output);
                let (td, tq) = table.decode_durations(input, output);
                let (rd, rq) =
                    decode_model.decode_durations_reference(&profile, batch, input, output);
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(f64::MIN_POSITIVE);
                assert!(
                    close(td, rd) && close(tq, rq),
                    "{} on {}: table ({td}, {tq}) vs reference ({rd}, {rq})",
                    method.name(),
                    dataset.name()
                );
            }
        }
    }

    #[test]
    fn with_measured_load_fills_only_unset_rates() {
        let e = small(Dataset::Imdb);
        let resolved = e.with_measured_load();
        assert!(resolved.rps.is_some());
        // The measured operating point must actually be sustainable: the probe
        // at the resolved rate stays below the saturation threshold.
        let jct = resolved.run(Method::Baseline).average_jct;
        let unloaded = JctExperiment {
            rps: Some(resolved.rps.unwrap() * 0.05),
            ..e
        }
        .run(Method::Baseline)
        .average_jct;
        assert!(
            jct <= unloaded * 2.0,
            "resolved load saturates the cluster: {jct} vs unloaded {unloaded}"
        );

        let pinned = JctExperiment {
            rps: Some(0.123),
            ..e
        };
        assert_eq!(pinned.with_measured_load().rps, Some(0.123));
    }

    #[test]
    fn fig9_ordering_holds_on_cocktail() {
        let e = small(Dataset::Cocktail);
        let outcomes = e.run_all(&Method::main_comparison());
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert_eq!(o.completed_requests, 30, "{}", o.method_name);
        }
        let base = &outcomes[0];
        let cachegen = &outcomes[1];
        let kvquant = &outcomes[2];
        let hack = &outcomes[3];
        assert!(hack.average_jct < cachegen.average_jct);
        assert!(hack.average_jct < kvquant.average_jct);
        assert!(hack.average_jct < base.average_jct);
        assert!(
            hack.jct_reduction_vs(base) > 0.1,
            "reduction {}",
            hack.jct_reduction_vs(base)
        );
    }

    #[test]
    fn table5_memory_ordering_holds() {
        let e = small(Dataset::Cocktail);
        let base = e.run(Method::Baseline);
        let kvq = e.run(Method::KvQuant);
        let hack = e.run(Method::hack());
        assert!(base.peak_decode_memory_fraction > kvq.peak_decode_memory_fraction);
        assert!(hack.peak_decode_memory_fraction >= kvq.peak_decode_memory_fraction - 1e-9);
    }

    #[test]
    fn scalability_experiment_builds_single_decode_replica() {
        let e = JctExperiment::scalability(4);
        let cluster = e.cluster_config();
        assert_eq!(cluster.prefill_replicas(), 4);
        assert_eq!(cluster.decode_replicas(), 1);
        assert!((e.effective_rps() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn hack_ablations_are_not_faster_than_hack() {
        let e = small(Dataset::Arxiv);
        let hack = e.run(Method::hack());
        let no_se = e.run(Method::HackNoSe);
        let no_rqe = e.run(Method::HackNoRqe);
        assert!(no_se.average_jct >= hack.average_jct);
        assert!(no_rqe.average_jct >= hack.average_jct);
    }
}
