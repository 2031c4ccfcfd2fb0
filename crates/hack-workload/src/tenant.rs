//! Multi-tenant traces: several workload classes (dataset × rate × seed)
//! merged into one deterministic request stream for the cluster simulator.
//!
//! Each tenant is described by a [`TenantSpec`] — its own [`TraceConfig`]
//! (dataset, rate, request count, seed) under its own [`TenantId`]. The
//! builder samples one [`TraceTemplate`] per tenant, instantiates each at its
//! configured rate, and merge-sorts the streams by arrival time into one
//! globally ordered trace. The merge is *stable*: arrival ties are broken by
//! the tenants' order in the spec list, and each tenant's substream keeps its
//! internal order, so it is bit-identical to the standalone
//! [`TraceTemplate::instantiate`] output (pinned by test).

use crate::trace::{Request, TenantId, TraceConfig, TraceTemplate};

/// One tenant's workload: its identity plus the trace it generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Tenant identity carried on every generated request.
    pub tenant: TenantId,
    /// Trace parameters of this tenant's stream (its `rps` field is the rate
    /// the stream is instantiated at).
    pub trace: TraceConfig,
}

/// A deterministic multi-tenant trace: per-tenant [`TraceTemplate`] streams
/// merge-sorted into one arrival-ordered request stream.
#[derive(Debug, Clone)]
pub struct MultiTenantTrace {
    specs: Vec<TenantSpec>,
    templates: Vec<TraceTemplate>,
}

impl MultiTenantTrace {
    /// Samples one template per spec.
    ///
    /// # Panics
    /// Panics on an empty spec list, a duplicate [`TenantId`], or a
    /// non-positive per-tenant rate.
    pub fn new(specs: Vec<TenantSpec>) -> Self {
        assert!(
            !specs.is_empty(),
            "multi-tenant trace needs at least one tenant"
        );
        for (i, a) in specs.iter().enumerate() {
            assert!(
                a.trace.rps > 0.0,
                "{}: per-tenant arrival rate must be positive",
                a.tenant
            );
            for b in &specs[..i] {
                assert_ne!(a.tenant, b.tenant, "duplicate {}", a.tenant);
            }
        }
        let templates = specs.iter().map(|s| TraceTemplate::new(s.trace)).collect();
        Self { specs, templates }
    }

    /// The tenant specs, in merge-priority order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Total number of requests across all tenants.
    pub fn num_requests(&self) -> usize {
        self.specs.iter().map(|s| s.trace.num_requests).sum()
    }

    /// Largest `input_len + output_len` across every tenant's template.
    pub fn max_total_tokens(&self) -> usize {
        self.templates
            .iter()
            .map(TraceTemplate::max_total_tokens)
            .max()
            .unwrap_or(0)
    }

    /// One tenant's stream exactly as it enters the merge (tagged, ids local
    /// to the stream) — the oracle the merged trace's substreams are pinned
    /// against.
    #[cfg(test)]
    pub fn tenant_stream(&self, tenant: TenantId) -> Option<Vec<Request>> {
        let i = self.specs.iter().position(|s| s.tenant == tenant)?;
        Some(self.templates[i].instantiate_tagged(self.specs[i].trace.rps, tenant))
    }

    /// Materialises the merged trace: globally sorted by arrival time (stable
    /// on ties: spec order, then per-stream order), with ids re-numbered to
    /// the global trace position.
    pub fn generate(&self) -> Vec<Request> {
        let mut merged: Vec<Request> = self
            .specs
            .iter()
            .zip(&self.templates)
            .flat_map(|(spec, template)| template.instantiate_tagged(spec.trace.rps, spec.tenant))
            .collect();
        // Within a stream arrivals are strictly increasing, so a stable sort
        // of the concatenation preserves every stream's internal order and
        // breaks cross-tenant ties by spec order.
        merged.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        for (i, r) in merged.iter_mut().enumerate() {
            r.id = i as u64;
        }
        merged
    }

    /// Extracts one tenant's substream from a merged trace, re-numbering ids
    /// to the substream position (so it compares equal to
    /// [`Self::tenant_stream`]).
    #[cfg(test)]
    pub fn substream(trace: &[Request], tenant: TenantId) -> Vec<Request> {
        trace
            .iter()
            .filter(|r| r.tenant == tenant)
            .enumerate()
            .map(|(i, r)| Request { id: i as u64, ..*r })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn spec(tenant: u32, dataset: Dataset, rps: f64, n: usize, seed: u64) -> TenantSpec {
        TenantSpec {
            tenant: TenantId(tenant),
            trace: TraceConfig {
                dataset,
                rps,
                num_requests: n,
                max_context: 131_072,
                seed,
            },
        }
    }

    fn two_tenant() -> MultiTenantTrace {
        MultiTenantTrace::new(vec![
            spec(0, Dataset::Cocktail, 0.2, 120, 7),
            spec(1, Dataset::Imdb, 0.9, 80, 21),
        ])
    }

    #[test]
    fn merge_is_globally_time_sorted_with_global_ids() {
        let trace = two_tenant().generate();
        assert_eq!(trace.len(), 200);
        for (i, w) in trace.windows(2).enumerate() {
            assert!(
                w[1].arrival >= w[0].arrival,
                "out of order at {i}: {} after {}",
                w[1].arrival,
                w[0].arrival
            );
        }
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn substreams_are_bit_identical_to_standalone_instantiation() {
        let mt = two_tenant();
        let trace = mt.generate();
        for tenant in [TenantId(0), TenantId(1)] {
            let substream = MultiTenantTrace::substream(&trace, tenant);
            let standalone = mt.tenant_stream(tenant).unwrap();
            assert_eq!(substream.len(), standalone.len(), "{tenant}");
            for (a, b) in substream.iter().zip(&standalone) {
                assert_eq!(a, b, "{tenant}");
                assert_eq!(a.arrival.to_bits(), b.arrival.to_bits(), "{tenant}");
            }
        }
    }

    #[test]
    fn merge_is_stable_on_arrival_ties() {
        // Identical (dataset, rate, seed) streams produce identical arrival
        // sequences — every arrival is a cross-tenant tie. Stability means the
        // earlier spec's request always precedes the later spec's.
        let mt = MultiTenantTrace::new(vec![
            spec(4, Dataset::HumanEval, 0.5, 50, 3),
            spec(2, Dataset::HumanEval, 0.5, 50, 3),
        ]);
        let trace = mt.generate();
        assert_eq!(trace.len(), 100);
        for pair in trace.chunks(2) {
            assert_eq!(pair[0].arrival.to_bits(), pair[1].arrival.to_bits());
            assert_eq!(pair[0].tenant, TenantId(4), "spec order breaks ties");
            assert_eq!(pair[1].tenant, TenantId(2));
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = two_tenant().generate();
        let b = two_tenant().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn max_total_tokens_covers_all_tenants() {
        let mt = two_tenant();
        let expected = mt
            .generate()
            .iter()
            .map(Request::total_tokens)
            .max()
            .unwrap();
        assert_eq!(mt.max_total_tokens(), expected);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant-3")]
    fn duplicate_tenants_are_rejected() {
        MultiTenantTrace::new(vec![
            spec(3, Dataset::Imdb, 0.1, 10, 1),
            spec(3, Dataset::Arxiv, 0.1, 10, 2),
        ]);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_is_rejected() {
        MultiTenantTrace::new(vec![spec(0, Dataset::Imdb, 0.0, 10, 1)]);
    }
}
