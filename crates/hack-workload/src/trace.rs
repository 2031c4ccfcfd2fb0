//! Request traces: datasets × arrival process → the stream of requests the cluster
//! simulator replays.

use crate::arrivals::PoissonArrivals;
use crate::dataset::Dataset;
use hack_tensor::DetRng;
use serde::{Serialize, Value};

/// Identity of the workload class ("tenant") a request belongs to.
///
/// Single-workload traces use [`TenantId::default`] (tenant 0); multi-tenant
/// traces built by [`crate::tenant::MultiTenantTrace`] tag each request with
/// the tenant whose stream produced it, and the tag rides through the cluster
/// simulator into the per-request results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant index as a plain `usize` (array key into per-tenant state).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

// Tuple structs are outside the derive stub's coverage; serialize as a bare
// number so traces stay flat JSON.
impl Serialize for TenantId {
    fn serialize_value(&self) -> Value {
        Value::Number(f64::from(self.0))
    }
}

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Request {
    /// Request id (position in the trace).
    pub id: u64,
    /// Tenant (workload class) the request belongs to.
    pub tenant: TenantId,
    /// Arrival time in seconds since the start of the trace.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Number of output tokens to generate.
    pub output_len: usize,
    /// Session the request belongs to (0 = independent, no session).
    ///
    /// Session-structured traces ([`crate::session::SessionTrace`]) number
    /// sessions from 1; every turn/tool-call of one conversation shares the
    /// session id, which keys the decode-side prefix cache.
    pub session: u64,
    /// Trace id of the request this one follows up on, if any.
    ///
    /// A request with a parent is *gated*: the simulator dispatches it no
    /// earlier than its parent's completion, at `max(arrival, parent finish)`.
    pub parent: Option<u64>,
    /// Leading tokens of `input_len` shared verbatim with the parent's final
    /// context — the KV prefix a cache hit can skip re-prefilling.
    pub shared_prefix_tokens: usize,
}

impl Request {
    /// Total sequence length at the end of decoding.
    pub fn total_tokens(&self) -> usize {
        self.input_len + self.output_len
    }
}

/// Trace-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceConfig {
    /// Dataset providing the length distributions.
    pub dataset: Dataset,
    /// Requests per second of the Poisson arrival process.
    pub rps: f64,
    /// Number of requests in the trace.
    pub num_requests: usize,
    /// Context-window cap of the model serving the trace (inputs are clamped).
    pub max_context: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// A default trace: the paper's default dataset (Cocktail) at a moderate rate.
    #[cfg(test)]
    pub fn cocktail_default() -> Self {
        Self {
            dataset: Dataset::Cocktail,
            rps: 0.1,
            num_requests: 100,
            max_context: 131_072,
            seed: 42,
        }
    }
}

/// Generates request traces.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator for the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        assert!(
            config.num_requests > 0,
            "trace must contain at least one request"
        );
        Self { config }
    }

    /// The configuration this generator uses.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Generates the full trace.
    pub fn generate(&self) -> Vec<Request> {
        let mut rng = DetRng::new(self.config.seed);
        let mut arrivals = PoissonArrivals::new(self.config.rps);
        let lengths = self.config.dataset.sampler(self.config.max_context);
        (0..self.config.num_requests as u64)
            .map(|id| {
                let arrival = arrivals.next_arrival(&mut rng);
                let (input_len, output_len) = lengths.sample(&mut rng);
                Request {
                    id,
                    tenant: TenantId::default(),
                    arrival,
                    input_len,
                    output_len,
                    session: 0,
                    parent: None,
                    shared_prefix_tokens: 0,
                }
            })
            .collect()
    }
}

/// A rate-independent trace template: the random draws of a trace with the
/// request rate factored out, so one sampling pass can be instantiated at many
/// rates.
///
/// [`TraceGenerator::generate`] interleaves two streams from one seeded RNG:
/// exponential inter-arrival gaps (`-ln(u) / rps`) and per-request length
/// pairs. Only the division by `rps` depends on the rate, so the template
/// stores the unit-rate gaps (`-ln(u)`) and the lengths once;
/// [`TraceTemplate::instantiate`] divides and accumulates exactly the way the
/// generator does, producing **bit-identical** traces (pinned by test). The
/// capacity bisection in `hack-core` uses this to synthesise its probe trace
/// once instead of once per probed rate.
#[derive(Debug, Clone)]
pub struct TraceTemplate {
    config: TraceConfig,
    /// `-ln(u)` draws: inter-arrival gaps of a unit-rate Poisson process.
    unit_gaps: Vec<f64>,
    /// `(input_len, output_len)` per request.
    lengths: Vec<(usize, usize)>,
}

impl TraceTemplate {
    /// Samples the template for `config` (whose `rps` field is irrelevant here;
    /// the rate is chosen per [`Self::instantiate`] call).
    pub fn new(config: TraceConfig) -> Self {
        assert!(
            config.num_requests > 0,
            "trace must contain at least one request"
        );
        let mut rng = DetRng::new(config.seed);
        let sampler = config.dataset.sampler(config.max_context);
        let mut unit_gaps = Vec::with_capacity(config.num_requests);
        let mut lengths = Vec::with_capacity(config.num_requests);
        for _ in 0..config.num_requests {
            // exponential(1.0) divides -ln(u) by exactly 1.0, so the stored gap
            // is the raw -ln(u) draw and consumes the same RNG stream as
            // `PoissonArrivals` does at any rate.
            unit_gaps.push(rng.exponential(1.0));
            lengths.push(sampler.sample(&mut rng));
        }
        Self {
            config,
            unit_gaps,
            lengths,
        }
    }

    /// The configuration the template was sampled from.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Largest `input_len + output_len` in the template (sizes cost tables).
    pub fn max_total_tokens(&self) -> usize {
        self.lengths.iter().map(|(i, o)| i + o).max().unwrap_or(0)
    }

    /// Materialises the trace at `rps`, bit-identical to
    /// `TraceGenerator::new(TraceConfig { rps, ..config }).generate()`.
    pub fn instantiate(&self, rps: f64) -> Vec<Request> {
        self.instantiate_tagged(rps, TenantId::default())
    }

    /// [`Self::instantiate`] with every request tagged as `tenant` — the
    /// per-tenant substreams of a [`crate::tenant::MultiTenantTrace`]. The
    /// arrival times and lengths are bit-identical to the untagged trace.
    pub fn instantiate_tagged(&self, rps: f64, tenant: TenantId) -> Vec<Request> {
        assert!(rps > 0.0, "arrival rate must be positive");
        let mut now = 0.0f64;
        self.unit_gaps
            .iter()
            .zip(&self.lengths)
            .enumerate()
            .map(|(id, (gap, &(input_len, output_len)))| {
                now += gap / rps;
                Request {
                    id: id as u64,
                    tenant,
                    arrival: now,
                    input_len,
                    output_len,
                    session: 0,
                    parent: None,
                    shared_prefix_tokens: 0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_requested_length_and_ordering() {
        let gen = TraceGenerator::new(TraceConfig {
            dataset: Dataset::Arxiv,
            rps: 0.2,
            num_requests: 250,
            max_context: 131_072,
            seed: 1,
        });
        let trace = gen.generate();
        assert_eq!(trace.len(), 250);
        for w in trace.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
            assert_eq!(w[1].id, w[0].id + 1);
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = TraceConfig::cocktail_default();
        let a = TraceGenerator::new(cfg).generate();
        let b = TraceGenerator::new(cfg).generate();
        assert_eq!(a, b);
        let c = TraceGenerator::new(TraceConfig { seed: 43, ..cfg }).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn lengths_fall_within_dataset_bounds() {
        let cfg = TraceConfig {
            dataset: Dataset::HumanEval,
            rps: 1.0,
            num_requests: 500,
            max_context: 131_072,
            seed: 3,
        };
        let trace = TraceGenerator::new(cfg).generate();
        let istats = Dataset::HumanEval.input_stats();
        let ostats = Dataset::HumanEval.output_stats();
        for r in &trace {
            assert!(r.input_len >= istats.min && r.input_len <= istats.max);
            assert!(r.output_len >= ostats.min && r.output_len <= ostats.max);
            assert_eq!(r.total_tokens(), r.input_len + r.output_len);
        }
    }

    #[test]
    fn context_cap_is_enforced() {
        let cfg = TraceConfig {
            dataset: Dataset::Cocktail,
            rps: 0.1,
            num_requests: 200,
            max_context: 2048,
            seed: 4,
        };
        for r in TraceGenerator::new(cfg).generate() {
            assert!(r.input_len <= 2048);
        }
    }

    #[test]
    fn template_instantiates_bit_identical_traces_at_any_rate() {
        for dataset in Dataset::all() {
            let cfg = TraceConfig {
                dataset,
                rps: 0.0, // irrelevant to the template
                num_requests: 300,
                max_context: 131_072,
                seed: 17,
            };
            let template = TraceTemplate::new(cfg);
            for rps in [0.013, 0.08, 1.0, 7.5] {
                let direct = TraceGenerator::new(TraceConfig { rps, ..cfg }).generate();
                let templated = template.instantiate(rps);
                assert_eq!(direct, templated, "{}: rps {rps}", dataset.name());
            }
        }
    }

    #[test]
    fn template_reports_max_total_tokens() {
        let cfg = TraceConfig::cocktail_default();
        let template = TraceTemplate::new(cfg);
        let expected = TraceGenerator::new(cfg)
            .generate()
            .iter()
            .map(Request::total_tokens)
            .max()
            .unwrap();
        assert_eq!(template.max_total_tokens(), expected);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn template_rejects_zero_rate() {
        TraceTemplate::new(TraceConfig::cocktail_default()).instantiate(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_trace_panics() {
        TraceGenerator::new(TraceConfig {
            num_requests: 0,
            ..TraceConfig::cocktail_default()
        });
    }

    #[test]
    fn request_serde_round_trips_exactly() {
        // f64 serialization uses the shortest round-trippable representation,
        // so the JSON text of a request parses back to exactly its serialized
        // tree — including the tenant tag (a bare number) and the session
        // fields (`parent` is `null` or the parent's id).
        let mut trace = TraceTemplate::new(TraceConfig::cocktail_default())
            .instantiate_tagged(0.37, TenantId(3));
        for (i, r) in trace.iter_mut().enumerate() {
            if i % 3 == 1 {
                r.session = 1 + i as u64 / 3;
                r.parent = Some(i as u64 - 1);
                r.shared_prefix_tokens = r.input_len / 2;
            }
        }
        for r in trace {
            let value = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
            assert_eq!(value, r.serialize_value());
            let field = |key: &str| value.get_key(key).and_then(Value::as_f64);
            assert_eq!(
                field("arrival").map(f64::to_bits),
                Some(r.arrival.to_bits())
            );
            assert_eq!(field("tenant"), Some(3.0));
            assert_eq!(field("parent"), r.parent.map(|p| p as f64));
        }
    }
}
