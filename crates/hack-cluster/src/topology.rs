//! Fabric topology and correlated-fault configuration.
//!
//! [`TopologySpec`] selects the KV-transfer fabric model. The default,
//! [`TopologySpec::Flat`], is the original per-NIC FIFO with a min-bandwidth
//! wire time and is pinned bit- and cost-identical to the pre-topology
//! simulator. [`TopologySpec::LinkGraph`] models the fabric as replica NIC →
//! ToR → spine tiers with per-link capacities; active KV transfers become
//! flows that each take the equal share of their bottleneck link (not
//! max-min water-filling — ROADMAP item 2(b)), with progress re-split on
//! every transfer start/finish/failure event, so a group's effective NIC
//! bandwidth is emergent rather than assumed.
//!
//! [`FaultPlan`] is a bounded schedule of typed fault events over *fault
//! domains* — a single replica, a NIC, a ToR, or the spine. A switch fault
//! atomically fails every replica behind it; in-flight transfers crossing a
//! dead link abort with partial progress and retry with deterministic seeded
//! backoff.

use serde::{Serialize, Value};
use std::fmt;

/// Maximum number of fault events in a [`FaultPlan`] (the plan is a
/// fixed-capacity `Copy` value, like [`crate::fleet::GroupSet`]). Sized for
/// generated availability schedules ([`AvailabilityModel::generate_plan`]),
/// not just hand-written storms.
pub const MAX_FAULTS: usize = 32;

/// Default bounded transfer retry attempts before a request gives up on its
/// current reservation and re-enters admission
/// ([`RetryPolicy::max_transfer_attempts`]).
pub const MAX_TRANSFER_ATTEMPTS: u32 = 4;

/// Default bounded re-admissions after exhausted transfer retries before a
/// request is permanently aborted (it then counts into
/// [`crate::SimulationResult::aborted_requests`];
/// [`RetryPolicy::max_readmissions`]).
pub const MAX_READMISSIONS: u32 = 2;

/// Default base of the deterministic exponential retry backoff (seconds;
/// [`RetryPolicy::backoff_base_s`]).
pub const RETRY_BACKOFF_BASE_S: f64 = 1.0;

/// Default cap on the backoff doubling exponent
/// ([`RetryPolicy::backoff_cap_doublings`]).
pub const RETRY_BACKOFF_CAP_DOUBLINGS: u32 = 6;

/// The transfer-retry and re-admission policy: the deterministic seeded
/// exponential backoff (`base * 2^min(attempt-1, cap) * (1 + jitter)`) and
/// the two give-up budgets. The default reproduces the pre-policy hardcoded
/// constants bit-for-bit (pinned by seed_equivalence).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Backoff base (seconds) before the first retry.
    pub backoff_base_s: f64,
    /// The doubling exponent saturates at this many doublings (the backoff
    /// cap is `base * 2^cap`).
    pub backoff_cap_doublings: u32,
    /// Transfer attempts before the request drops its reservation and
    /// re-enters admission.
    pub max_transfer_attempts: u32,
    /// Re-admissions before the request is permanently abandoned.
    pub max_readmissions: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            backoff_base_s: RETRY_BACKOFF_BASE_S,
            backoff_cap_doublings: RETRY_BACKOFF_CAP_DOUBLINGS,
            max_transfer_attempts: MAX_TRANSFER_ATTEMPTS,
            max_readmissions: MAX_READMISSIONS,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy (called from
    /// [`SimulationConfig::validate`](crate::config::SimulationConfig)).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.backoff_base_s.is_finite() && self.backoff_base_s > 0.0) {
            return Err(ConfigError::InvalidRetryPolicy {
                what: "backoff_base_s (must be positive and finite)",
            });
        }
        if self.backoff_cap_doublings > 62 {
            return Err(ConfigError::InvalidRetryPolicy {
                what: "backoff_cap_doublings (must be <= 62)",
            });
        }
        if self.max_transfer_attempts == 0 {
            return Err(ConfigError::InvalidRetryPolicy {
                what: "max_transfer_attempts (must be >= 1)",
            });
        }
        Ok(())
    }
}

/// The KV-transfer fabric model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub enum TopologySpec {
    /// The original fabric: one FIFO NIC per prefill replica, wire time from
    /// the min of the two groups' NIC bandwidths. Bit- and cost-identical to
    /// the pre-topology simulator (pinned by seed_equivalence and the
    /// interleaved `fault_storm` bench row).
    #[default]
    Flat,
    /// Link-graph fabric: per-replica NICs feeding ToR uplinks feeding a
    /// spine, with transfers as flows at their bottleneck link's equal share.
    LinkGraph(LinkGraphSpec),
}

impl TopologySpec {
    /// The link-graph spec, if this topology is one.
    pub fn link_graph(&self) -> Option<&LinkGraphSpec> {
        match self {
            TopologySpec::Flat => None,
            TopologySpec::LinkGraph(spec) => Some(spec),
        }
    }
}

/// Parameters of the link-graph fabric: how many replicas share each ToR and
/// the per-link capacities of the two switching tiers.
///
/// Every KV transfer is a flow crossing five links — source prefill NIC,
/// prefill-side ToR uplink, one spine block, decode-side ToR uplink,
/// destination decode NIC — and receives `min_l capacity(l) / flows(l)` of
/// bandwidth along its path. NIC capacities come from the replica groups'
/// `network_gbps`, so the oversubscription of a ToR is
/// `per_tor · nic_gbps / tor_uplink_gbps`.
///
/// With `spines > 1` the fabric has that many redundant spine blocks of
/// `spine_gbps` each; every flow is pinned to one block by a deterministic
/// ECMP hash of its request id, and a spine fault reroutes surviving flows
/// across the remaining blocks instead of aborting them. `spines == 1` is
/// bit-identical to the pre-ECMP single-spine fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkGraphSpec {
    /// Prefill replicas per prefill-side ToR (last ToR may be partial).
    pub prefill_per_tor: usize,
    /// Decode replicas per decode-side ToR.
    pub decode_per_tor: usize,
    /// Capacity of each ToR's spine uplink (Gbps).
    pub tor_uplink_gbps: f64,
    /// Capacity of each spine block (Gbps), shared by the inter-ToR traffic
    /// ECMP-hashed onto it.
    pub spine_gbps: f64,
    /// Number of redundant spine blocks (ECMP paths).
    pub spines: usize,
}

impl LinkGraphSpec {
    /// A paper-shaped default: four prefill replicas and two decode replicas
    /// per ToR, 100 Gbps uplinks, a 400 Gbps spine.
    pub fn paper_default() -> Self {
        Self {
            prefill_per_tor: 4,
            decode_per_tor: 2,
            tor_uplink_gbps: 100.0,
            spine_gbps: 400.0,
            spines: 1,
        }
    }

    /// The paper-shaped fabric with `spines` redundant spine blocks (ECMP).
    pub fn redundant(spines: usize) -> Self {
        Self {
            spines,
            ..Self::paper_default()
        }
    }

    /// Number of ToRs needed for `replicas` replicas at `per_tor` per switch.
    pub fn tors_for(replicas: usize, per_tor: usize) -> usize {
        replicas.div_ceil(per_tor.max(1))
    }
}

/// A fault domain: the unit of the cluster that a [`FaultEvent`] takes down.
///
/// Switch domains (`*Tor`, `Spine`, `*Nic`) atomically fail every replica
/// behind them and abort in-flight transfers crossing the dead link; they
/// require [`TopologySpec::LinkGraph`] (there are no links to cut in the flat
/// fabric). Replica domains work under either topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultDomain {
    /// One decode replica (global, group-major index): it admits nothing
    /// while down, its in-flight requests are aborted and re-dispatched, and
    /// on recovery it rejoins the fleet empty.
    DecodeReplica(usize),
    /// One prefill replica: its queue re-routes to live replicas, its
    /// in-flight prefill is aborted and re-admitted.
    PrefillReplica(usize),
    /// The NIC of one prefill replica: the replica fails and flows through
    /// the NIC abort (link-graph only).
    PrefillNic(usize),
    /// The NIC of one decode replica (link-graph only).
    DecodeNic(usize),
    /// A prefill-side ToR: every prefill replica behind it fails
    /// (link-graph only).
    PrefillTor(usize),
    /// A decode-side ToR: every decode replica behind it fails
    /// (link-graph only).
    DecodeTor(usize),
    /// One spine block: no replica fails. With a single spine every in-flight
    /// transfer aborts and new transfers cannot start until recovery; with
    /// redundant spines surviving flows are ECMP-rerouted across the live
    /// blocks instead (link-graph only).
    Spine(usize),
}

impl FaultDomain {
    /// Whether this domain cuts fabric links (and therefore requires the
    /// link-graph topology).
    pub fn needs_link_graph(&self) -> bool {
        !matches!(
            self,
            FaultDomain::DecodeReplica(_) | FaultDomain::PrefillReplica(_)
        )
    }

    /// A short stable label for traces and reports.
    pub fn label(&self) -> String {
        match self {
            FaultDomain::DecodeReplica(i) => format!("decode-{i}"),
            FaultDomain::PrefillReplica(i) => format!("prefill-{i}"),
            FaultDomain::PrefillNic(i) => format!("nic-p{i}"),
            FaultDomain::DecodeNic(i) => format!("nic-d{i}"),
            FaultDomain::PrefillTor(i) => format!("tor-p{i}"),
            FaultDomain::DecodeTor(i) => format!("tor-d{i}"),
            FaultDomain::Spine(i) => format!("spine-{i}"),
        }
    }
}

/// One scheduled fault: a domain goes down at `at` and (optionally) recovers.
///
/// With `degrade: None` the fault is binary (the domain is fully down). With
/// `degrade: Some(f)` the fault is a *link degradation*: the domain's links
/// keep carrying traffic at `f` times their nominal capacity (`0 < f < 1`),
/// flows re-split instead of aborting, and no replica fails. Degradation is
/// only valid on link domains (NICs, ToRs, spines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// What fails.
    pub domain: FaultDomain,
    /// Failure time (seconds since trace start).
    pub at: f64,
    /// Recovery time, or `None` for a permanent fault.
    pub recover_at: Option<f64>,
    /// Capacity multiplier in `(0, 1)` for a degradation, or `None` for a
    /// binary up/down fault.
    pub degrade: Option<f64>,
}

impl FaultEvent {
    /// A permanent fault of `domain` at time `at`.
    pub fn permanent(domain: FaultDomain, at: f64) -> Self {
        Self {
            domain,
            at,
            recover_at: None,
            degrade: None,
        }
    }

    /// A fault of `domain` at `at` that recovers at `recover_at`.
    pub fn transient(domain: FaultDomain, at: f64, recover_at: f64) -> Self {
        Self {
            domain,
            at,
            recover_at: Some(recover_at),
            degrade: None,
        }
    }

    /// A link degradation: `domain`'s links run at `factor` times nominal
    /// capacity between `at` and `recover_at`.
    pub fn degraded(domain: FaultDomain, at: f64, recover_at: f64, factor: f64) -> Self {
        Self {
            domain,
            at,
            recover_at: Some(recover_at),
            degrade: Some(factor),
        }
    }
}

/// A bounded, `Copy` schedule of fault events (at most [`MAX_FAULTS`]).
///
/// The empty plan (the default) injects nothing and is bit-identical to the
/// pre-fault simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    events: [Option<FaultEvent>; MAX_FAULTS],
    len: usize,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from a slice of events. Panics if more than [`MAX_FAULTS`].
    pub fn new(events: &[FaultEvent]) -> Self {
        assert!(
            events.len() <= MAX_FAULTS,
            "a FaultPlan holds at most {MAX_FAULTS} events, got {}",
            events.len()
        );
        let mut plan = Self::default();
        for &e in events {
            plan.events[plan.len] = Some(e);
            plan.len += 1;
        }
        plan
    }

    /// Appends an event. Panics when full.
    pub fn push(&mut self, event: FaultEvent) {
        assert!(
            self.len < MAX_FAULTS,
            "a FaultPlan holds at most {MAX_FAULTS} events"
        );
        self.events[self.len] = Some(event);
        self.len += 1;
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th fault event.
    pub fn get(&self, i: usize) -> &FaultEvent {
        self.events[i].as_ref().expect("fault index in range")
    }

    /// Iterates over the scheduled events.
    pub fn iter(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().take(self.len).filter_map(|e| e.as_ref())
    }

    /// Whether any event cuts fabric links (requires the link-graph topology).
    pub fn needs_link_graph(&self) -> bool {
        self.iter().any(|e| e.domain.needs_link_graph())
    }
}

impl Serialize for FaultPlan {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(|e| e.serialize_value()).collect())
    }
}

/// A configuration error detected at [`Simulator`](crate::Simulator)
/// construction time, before any event runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A fault targets a replica index outside the fleet.
    ReplicaOutOfRange {
        /// The offending domain.
        domain: FaultDomain,
        /// Number of replicas (or switches) on that side.
        limit: usize,
    },
    /// A fault time is non-finite or negative.
    InvalidFaultTime {
        /// The offending domain.
        domain: FaultDomain,
        /// The rejected time.
        at: f64,
    },
    /// A fault recovers at or before its failure time.
    RecoveryBeforeFault {
        /// The offending domain.
        domain: FaultDomain,
        /// Failure time.
        at: f64,
        /// Rejected recovery time.
        recover_at: f64,
    },
    /// Two faults on the same domain overlap in time.
    OverlappingFaults {
        /// The domain faulted twice.
        domain: FaultDomain,
    },
    /// A fault cuts fabric links but the topology is [`TopologySpec::Flat`].
    TopologyRequired {
        /// The offending domain.
        domain: FaultDomain,
    },
    /// A link-graph capacity or grouping parameter is not a positive,
    /// finite number.
    InvalidTopology {
        /// Which parameter is invalid.
        what: &'static str,
    },
    /// A [`RetryPolicy`] parameter is out of range.
    InvalidRetryPolicy {
        /// Which parameter is invalid.
        what: &'static str,
    },
    /// An admission or scaling policy parameter is out of range.
    InvalidPolicy {
        /// Which parameter is invalid.
        what: &'static str,
    },
    /// A degradation factor is not in `(0, 1)`, or a degradation targets a
    /// replica domain (only links can run slow; replicas fail binarily).
    InvalidDegradeFactor {
        /// The offending domain.
        domain: FaultDomain,
    },
    /// A session child references a parent that is missing from the trace,
    /// is itself, or arrives after the child — the simulator gates children
    /// on parent completion and cannot honor a causality-violating link.
    InvalidSessionParent {
        /// The child request's trace id.
        child: u64,
        /// The rejected parent id.
        parent: u64,
    },
    /// A request is tagged with a tenant at or beyond
    /// [`MAX_TENANTS`](crate::policy::MAX_TENANTS), which the per-tenant
    /// queues and counters cannot hold.
    TenantOutOfRange {
        /// The offending request's trace id.
        request: u64,
        /// Its tenant index.
        tenant: u32,
    },
    /// A fleet side has no replicas at all, so no request could complete.
    EmptyFleetSide {
        /// `"prefill"` or `"decode"`.
        side: &'static str,
    },
    /// A request's arrival time is non-finite or negative, so its arrival
    /// event cannot be scheduled.
    InvalidArrival {
        /// The offending request's trace id.
        request: u64,
        /// The rejected arrival time.
        arrival: f64,
    },
    /// The telemetry sampling interval is not a positive, finite number of
    /// seconds, so the sampler could not re-arm.
    InvalidTelemetryInterval {
        /// The rejected interval.
        interval: f64,
    },
    /// A supplied trace's length differs from `config.trace.num_requests`.
    TraceLengthMismatch {
        /// `config.trace.num_requests`.
        expected: usize,
        /// The supplied trace's length.
        got: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ReplicaOutOfRange { domain, limit } => write!(
                f,
                "failure targets {} but the cluster has {limit}",
                match domain {
                    FaultDomain::DecodeReplica(i) => format!("decode replica {i}"),
                    FaultDomain::PrefillReplica(i) => format!("prefill replica {i}"),
                    FaultDomain::PrefillNic(i) => format!("prefill NIC {i}"),
                    FaultDomain::DecodeNic(i) => format!("decode NIC {i}"),
                    FaultDomain::PrefillTor(i) => format!("prefill ToR {i}"),
                    FaultDomain::DecodeTor(i) => format!("decode ToR {i}"),
                    FaultDomain::Spine(i) => format!("spine {i}"),
                }
            ),
            ConfigError::InvalidFaultTime { domain, at } => write!(
                f,
                "fault on {} has invalid time {at} (must be finite and >= 0)",
                domain.label()
            ),
            ConfigError::RecoveryBeforeFault {
                domain,
                at,
                recover_at,
            } => write!(
                f,
                "fault on {} recovers at {recover_at} <= failure time {at}",
                domain.label()
            ),
            ConfigError::OverlappingFaults { domain } => {
                write!(f, "overlapping faults on domain {}", domain.label())
            }
            ConfigError::TopologyRequired { domain } => write!(
                f,
                "fault on {} cuts fabric links and requires TopologySpec::LinkGraph",
                domain.label()
            ),
            ConfigError::InvalidTopology { what } => {
                write!(f, "link-graph topology has invalid {what}")
            }
            ConfigError::InvalidRetryPolicy { what } => {
                write!(f, "retry policy has invalid {what}")
            }
            ConfigError::InvalidPolicy { what } => write!(f, "policy has invalid {what}"),
            ConfigError::InvalidDegradeFactor { domain } => write!(
                f,
                "degradation on {} needs a factor in (0, 1) and a link domain",
                domain.label()
            ),
            ConfigError::InvalidSessionParent { child, parent } => write!(
                f,
                "session child {child} references parent {parent} that is \
                 missing, itself, or arrives after the child"
            ),
            ConfigError::TenantOutOfRange { request, tenant } => write!(
                f,
                "request {request} is tagged with tenant {tenant}, beyond MAX_TENANTS ({})",
                crate::policy::MAX_TENANTS
            ),
            ConfigError::EmptyFleetSide { side } => {
                write!(f, "the {side} side of the fleet has no replicas")
            }
            ConfigError::InvalidArrival { request, arrival } => write!(
                f,
                "request {request} arrives at {arrival} (must be finite and >= 0)"
            ),
            ConfigError::InvalidTelemetryInterval { interval } => write!(
                f,
                "telemetry sample interval {interval} s (must be finite and > 0)"
            ),
            ConfigError::TraceLengthMismatch { expected, got } => write!(
                f,
                "supplied trace has {got} requests but config.trace.num_requests is {expected}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Deterministic per-(seed, request, attempt) jitter in `[0, 1)` for the
/// retry backoff — a splitmix64 finalizer, identical across runs and
/// platforms.
pub(crate) fn retry_jitter(seed: u64, req: usize, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_add((req as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic seeded backoff before transfer retry `attempt`
/// (1-based): exponential base with bounded jitter, both from `policy`.
pub(crate) fn retry_backoff(policy: &RetryPolicy, seed: u64, req: usize, attempt: u32) -> f64 {
    let scale = (1u64 << (attempt - 1).min(policy.backoff_cap_doublings)) as f64;
    policy.backoff_base_s * scale * (1.0 + retry_jitter(seed, req, attempt))
}

/// Availability of one fault-domain kind: exponential mean time between
/// failures and mean time to repair, plus an optional degradation factor
/// (link kinds only) that turns generated faults into slowdowns instead of
/// binary outages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MtbfSpec {
    /// Mean time between failures (seconds; exponential inter-failure times).
    pub mtbf_s: f64,
    /// Mean time to repair (seconds; exponential repair times).
    pub mttr_s: f64,
    /// When `Some(f)`, generated faults are link degradations at factor `f`
    /// instead of binary outages. Ignored (forced to `None`) on replica
    /// domains, which can only fail binarily.
    pub degrade: Option<f64>,
}

impl MtbfSpec {
    /// A binary-outage availability spec.
    pub fn outage(mtbf_s: f64, mttr_s: f64) -> Self {
        Self {
            mtbf_s,
            mttr_s,
            degrade: None,
        }
    }

    /// A degradation availability spec: faults slow links to `factor` times
    /// nominal capacity instead of cutting them.
    pub fn slowdown(mtbf_s: f64, mttr_s: f64, factor: f64) -> Self {
        Self {
            mtbf_s,
            mttr_s,
            degrade: Some(factor),
        }
    }
}

/// The fleet dimensions an [`AvailabilityModel`] draws fault targets from —
/// a plain value so plan generation does not need the full cluster config
/// (see `ClusterConfig::fleet_shape`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetShape {
    /// Prefill replicas (global, group-major indexing).
    pub prefill_replicas: usize,
    /// Decode replicas (global, group-major indexing).
    pub decode_replicas: usize,
    /// Prefill-side ToRs.
    pub prefill_tors: usize,
    /// Decode-side ToRs.
    pub decode_tors: usize,
    /// Redundant spine blocks.
    pub spines: usize,
}

/// Per-fault-domain-kind MTBF/MTTR availability models that *generate* a
/// [`FaultPlan`] deterministically for a run horizon.
///
/// Each `(kind, instance)` pair walks its own seeded exponential
/// failure/repair process, so windows on one domain are sequential by
/// construction and the generated plan always passes
/// `SimulationConfig::validate` (no overlapping windows per domain, in-range
/// indices). Generation stops early once the plan holds [`MAX_FAULTS`]
/// events. `None` kinds never fail; the all-`None` default generates the
/// empty plan.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct AvailabilityModel {
    /// Decode-replica availability.
    pub decode_replica: Option<MtbfSpec>,
    /// Prefill-replica availability.
    pub prefill_replica: Option<MtbfSpec>,
    /// Prefill-NIC availability (link-graph only).
    pub prefill_nic: Option<MtbfSpec>,
    /// Decode-NIC availability (link-graph only).
    pub decode_nic: Option<MtbfSpec>,
    /// Prefill-ToR availability (link-graph only).
    pub prefill_tor: Option<MtbfSpec>,
    /// Decode-ToR availability (link-graph only).
    pub decode_tor: Option<MtbfSpec>,
    /// Spine-block availability (link-graph only).
    pub spine: Option<MtbfSpec>,
}

/// One fault-generation kind: its MTBF/MTTR spec (if configured), how many
/// instances of the domain the fleet has, and the domain constructor.
type FaultKindSpec = (Option<MtbfSpec>, usize, fn(usize) -> FaultDomain);

impl AvailabilityModel {
    /// The `(kind, spec, instances, domain constructor)` grid in a fixed
    /// generation order.
    fn kinds(&self, shape: &FleetShape) -> [FaultKindSpec; 7] {
        // A shape without spine blocks is the flat fabric: it has no links to
        // cut or degrade, so every link-bound kind gets zero instances and the
        // generated plan stays valid for the flat topology.
        let nics = |n: usize| if shape.spines == 0 { 0 } else { n };
        [
            (self.decode_replica, shape.decode_replicas, {
                FaultDomain::DecodeReplica as fn(usize) -> FaultDomain
            }),
            (self.prefill_replica, shape.prefill_replicas, {
                FaultDomain::PrefillReplica
            }),
            (self.prefill_nic, nics(shape.prefill_replicas), {
                FaultDomain::PrefillNic
            }),
            (self.decode_nic, nics(shape.decode_replicas), {
                FaultDomain::DecodeNic
            }),
            (
                self.prefill_tor,
                shape.prefill_tors,
                FaultDomain::PrefillTor,
            ),
            (self.decode_tor, shape.decode_tors, FaultDomain::DecodeTor),
            (self.spine, shape.spines, FaultDomain::Spine),
        ]
    }

    /// Whether any configured kind cuts or degrades fabric links (and the
    /// generated plan therefore requires the link-graph topology).
    pub fn needs_link_graph(&self) -> bool {
        self.prefill_nic.is_some()
            || self.decode_nic.is_some()
            || self.prefill_tor.is_some()
            || self.decode_tor.is_some()
            || self.spine.is_some()
    }

    /// Generates the fault plan of one run: every configured `(kind,
    /// instance)` domain walks its own exponential failure/repair process
    /// from a [`DetRng`](hack_tensor::DetRng) seeded off `seed`, until
    /// `horizon_s`. Deterministic in `(self, shape, horizon_s, seed)`.
    pub fn generate_plan(&self, shape: &FleetShape, horizon_s: f64, seed: u64) -> FaultPlan {
        use hack_tensor::DetRng;
        let mut plan = FaultPlan::none();
        for (kind, (spec, instances, domain)) in self.kinds(shape).into_iter().enumerate() {
            let Some(spec) = spec else { continue };
            // Replica domains fail binarily; only links can run slow.
            let degrade = if kind < 2 { None } else { spec.degrade };
            for i in 0..instances {
                let mut rng = DetRng::new(
                    seed.wrapping_add((kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
                );
                let mut t = rng.exponential(1.0 / spec.mtbf_s);
                while t < horizon_s {
                    if plan.len() == MAX_FAULTS {
                        return plan;
                    }
                    let recover = t + rng.exponential(1.0 / spec.mttr_s);
                    plan.push(FaultEvent {
                        domain: domain(i),
                        at: t,
                        recover_at: Some(recover),
                        degrade,
                    });
                    // The next failure draw starts after the repair finishes,
                    // so windows on one domain never overlap.
                    t = recover + rng.exponential(1.0 / spec.mtbf_s);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_the_default_topology() {
        assert_eq!(TopologySpec::default(), TopologySpec::Flat);
        assert!(TopologySpec::Flat.link_graph().is_none());
    }

    #[test]
    fn topology_serde_round_trips() {
        for topo in [
            TopologySpec::Flat,
            TopologySpec::LinkGraph(LinkGraphSpec::paper_default()),
        ] {
            let json = serde_json::to_string(&topo).unwrap();
            assert_eq!(serde_json::from_str(&json), Ok(topo.serialize_value()));
        }
    }

    #[test]
    fn fault_plan_serde_round_trips() {
        let plan = FaultPlan::new(&[
            FaultEvent::transient(FaultDomain::DecodeReplica(1), 10.0, 50.0),
            FaultEvent::permanent(FaultDomain::PrefillTor(0), 100.0),
            FaultEvent::transient(FaultDomain::Spine(0), 200.0, 210.0),
            FaultEvent::degraded(FaultDomain::DecodeTor(1), 300.0, 330.0, 0.25),
        ]);
        // Only the live events serialize, each one bit-exact through JSON.
        let json = serde_json::to_string(&plan).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        assert_eq!(value, plan.serialize_value());
        assert!(matches!(value, Value::Array(events) if events.len() == 4));
    }

    #[test]
    fn fault_domain_labels_and_link_needs() {
        assert!(!FaultDomain::DecodeReplica(0).needs_link_graph());
        assert!(!FaultDomain::PrefillReplica(0).needs_link_graph());
        for d in [
            FaultDomain::PrefillNic(0),
            FaultDomain::DecodeNic(1),
            FaultDomain::PrefillTor(0),
            FaultDomain::DecodeTor(1),
            FaultDomain::Spine(0),
        ] {
            assert!(d.needs_link_graph(), "{}", d.label());
        }
        assert_eq!(FaultDomain::Spine(0).label(), "spine-0");
        assert_eq!(FaultDomain::Spine(2).label(), "spine-2");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy::default();
        let retry_backoff = |seed, req, attempt| retry_backoff(&policy, seed, req, attempt);
        let b1 = retry_backoff(42, 7, 1);
        let b2 = retry_backoff(42, 7, 2);
        let b3 = retry_backoff(42, 7, 3);
        assert_eq!(b1, retry_backoff(42, 7, 1), "same inputs, same backoff");
        assert!((RETRY_BACKOFF_BASE_S..2.0 * RETRY_BACKOFF_BASE_S).contains(&b1));
        assert!((2.0 * RETRY_BACKOFF_BASE_S..4.0 * RETRY_BACKOFF_BASE_S).contains(&b2));
        assert!(b3 > b2 && b2 > b1);
        assert_ne!(
            retry_jitter(42, 7, 1),
            retry_jitter(42, 8, 1),
            "jitter differs per request"
        );
    }

    #[test]
    fn retry_policy_default_validates_and_bad_values_do_not() {
        assert!(RetryPolicy::default().validate().is_ok());
        let bad_base = RetryPolicy {
            backoff_base_s: 0.0,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            bad_base.validate(),
            Err(ConfigError::InvalidRetryPolicy { .. })
        ));
        let bad_cap = RetryPolicy {
            backoff_cap_doublings: 63,
            ..RetryPolicy::default()
        };
        assert!(bad_cap.validate().is_err());
        let bad_attempts = RetryPolicy {
            max_transfer_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(bad_attempts.validate().is_err());
    }

    fn shape() -> FleetShape {
        FleetShape {
            prefill_replicas: 8,
            decode_replicas: 4,
            prefill_tors: 2,
            decode_tors: 2,
            spines: 2,
        }
    }

    #[test]
    fn generated_plans_are_deterministic_and_sequential_per_domain() {
        let model = AvailabilityModel {
            decode_replica: Some(MtbfSpec::outage(400.0, 60.0)),
            spine: Some(MtbfSpec::outage(900.0, 30.0)),
            decode_tor: Some(MtbfSpec::slowdown(600.0, 120.0, 0.3)),
            ..AvailabilityModel::default()
        };
        let a = model.generate_plan(&shape(), 2000.0, 7);
        let b = model.generate_plan(&shape(), 2000.0, 7);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, model.generate_plan(&shape(), 2000.0, 8));
        assert!(!a.is_empty(), "2000 s horizon at MTBF 400 s must fault");
        // Windows on one domain are sequential: sorted by `at` per domain
        // and each recovery precedes the next failure.
        for e in a.iter() {
            assert!(e.at >= 0.0 && e.at < 2000.0);
            let recover = e.recover_at.expect("generated faults always recover");
            assert!(recover > e.at);
            for other in a.iter() {
                if other.domain == e.domain && other.at > e.at {
                    assert!(other.at > recover, "windows on {:?} overlap", e.domain);
                }
            }
        }
        // Degradations only land on link domains, binary faults elsewhere.
        for e in a.iter() {
            match e.domain {
                FaultDomain::DecodeTor(_) => assert_eq!(e.degrade, Some(0.3)),
                _ => assert_eq!(e.degrade, None),
            }
        }
    }

    #[test]
    fn generation_caps_at_max_faults_and_default_is_empty() {
        let model = AvailabilityModel::default();
        assert!(model.generate_plan(&shape(), 1e6, 1).is_empty());
        assert!(!model.needs_link_graph());
        let storm = AvailabilityModel {
            decode_replica: Some(MtbfSpec::outage(1.0, 0.5)),
            ..AvailabilityModel::default()
        };
        let plan = storm.generate_plan(&shape(), 1e6, 1);
        assert_eq!(plan.len(), MAX_FAULTS);
        let linky = AvailabilityModel {
            spine: Some(MtbfSpec::outage(100.0, 10.0)),
            ..AvailabilityModel::default()
        };
        assert!(linky.needs_link_graph());
    }

    #[test]
    fn oversubscription_ratio() {
        let spec = LinkGraphSpec::paper_default();
        // Four 40 Gbps NICs per ToR over its uplink.
        let ratio = 40.0 * 4.0 / spec.tor_uplink_gbps;
        assert!((ratio - 1.6).abs() < 1e-12);
        assert_eq!(LinkGraphSpec::tors_for(5, 4), 2);
        assert_eq!(LinkGraphSpec::tors_for(4, 4), 1);
        assert_eq!(LinkGraphSpec::tors_for(0, 4), 0);
    }
}
