//! The run's dispatch, admission, scheduling and scaling policies.
//!
//! The `Frontend` component makes three per-request decisions and the autoscaling
//! controller one per tick:
//!
//! * **dispatch** — *which prefill replica* an admitted request queues on.
//!   Least-loaded is the frontend's own routing (§7.1); the other policies
//!   see every replica's group and backlog, and fastest-eligible also the
//!   request's estimated service time on that replica's group, so
//!   heterogeneous fleets can route around slow groups;
//! * **admission** — *whether* a request enters the cluster at all;
//! * **scheduling** — *which queued request* a freed prefill replica serves
//!   next. FCFS pops the replica's FIFO head; the tenant-aware policies pick
//!   a **tenant** from per-tenant sub-queue heads (O(tenants) per decision)
//!   and serve that tenant's earliest-queued request;
//! * **scaling** — how many decode replicas each group keeps live.
//!
//! Each is chosen per run through the serializable, `Copy` [`PolicyConfig`]
//! on [`crate::config::SimulationConfig`] and built fresh for every run into
//! a closed enum (`Dispatch`, `Admission`, `Scheduling`, `Scaling`) with one
//! `match` method, so policy state (round-robin credit, token buckets,
//! session pins, forecasts) never leaks across runs. Each enum arm is the
//! single code path of its kind; the defaults
//! ([`DispatchPolicyKind::LeastLoaded`], [`AdmissionPolicyKind::AdmitAll`],
//! [`SchedulingPolicyKind::Fcfs`]) are the pre-policy simulator's paths, and
//! [`ScalingPolicyKind::Off`] builds no controller at all. Parameter ranges
//! are checked by [`crate::config::SimulationConfig::validate`], so an
//! out-of-range policy fails at `Simulator::try_new`, never mid-run.

use crate::components::frontend::Frontend;
use crate::components::{PrefillQueue, PrefillReplicaState};
use hack_tensor::IntMap;
use hack_workload::trace::{Request, TenantId};
use serde::{Serialize, Value};
use std::collections::VecDeque;

/// Upper bound on distinct tenants per simulation (sizes the fixed per-tenant
/// state so [`PolicyConfig`] stays `Copy`).
pub const MAX_TENANTS: usize = 8;

/// Service class of one tenant: scheduling weight and SLO target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantClass {
    /// Relative scheduling weight (share under
    /// [`SchedulingPolicyKind::WeightedRoundRobin`], token rate under
    /// [`AdmissionPolicyKind::TokenBucket`]).
    pub weight: f64,
    /// Target job completion time in seconds ([`SchedulingPolicyKind::SloEdf`]'s
    /// deadline offset and the SLO-attainment threshold in the metrics).
    pub slo_jct: f64,
}

impl Default for TenantClass {
    fn default() -> Self {
        Self {
            weight: 1.0,
            slo_jct: f64::INFINITY,
        }
    }
}

/// The per-tenant service classes of a run: class `i` applies to
/// [`TenantId`]`(i)`. Fixed capacity ([`MAX_TENANTS`]) so the containing
/// configuration stays `Copy`; tenants beyond the configured set fall back to
/// [`TenantClass::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantClasses {
    classes: [TenantClass; MAX_TENANTS],
    len: usize,
}

impl TenantClasses {
    /// A single default tenant (weight 1, no SLO target).
    pub fn single_tenant() -> Self {
        Self::new(&[TenantClass::default()])
    }

    /// Classes for tenants `0..classes.len()`.
    ///
    /// # Panics
    /// Panics when more than [`MAX_TENANTS`] classes are supplied or a weight
    /// is not positive.
    pub fn new(classes: &[TenantClass]) -> Self {
        assert!(
            classes.len() <= MAX_TENANTS,
            "at most {MAX_TENANTS} tenants per simulation, got {}",
            classes.len()
        );
        assert!(
            classes.iter().all(|c| c.weight > 0.0),
            "tenant weights must be positive"
        );
        let mut fixed = [TenantClass::default(); MAX_TENANTS];
        fixed[..classes.len()].copy_from_slice(classes);
        Self {
            classes: fixed,
            len: classes.len().max(1),
        }
    }

    /// Number of configured tenant classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no class beyond the implicit default tenant is configured.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The class of `tenant` (the default class when unconfigured).
    pub fn get(&self, tenant: TenantId) -> TenantClass {
        self.classes
            .get(tenant.index())
            .copied()
            .filter(|_| tenant.index() < self.len)
            .unwrap_or_default()
    }

    /// The configured classes, in tenant order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, TenantClass)> + '_ {
        (0..self.len).map(|i| (TenantId(i as u32), self.classes[i]))
    }
}

impl Default for TenantClasses {
    fn default() -> Self {
        Self::single_tenant()
    }
}

// Serialize only the live prefix (the derive would emit all MAX_TENANTS slots).
impl Serialize for TenantClasses {
    fn serialize_value(&self) -> Value {
        Value::Array(
            self.classes[..self.len]
                .iter()
                .map(Serialize::serialize_value)
                .collect(),
        )
    }
}

// --- Dispatch: which prefill replica an admitted request queues on. ---

/// The run's dispatch policy, built once per run from its
/// [`DispatchPolicyKind`].
#[derive(Debug)]
pub(crate) enum Dispatch {
    LeastLoaded,
    FastestEligible,
    GroupAffinity,
    SessionAffinity(SessionAffinity),
}

impl Dispatch {
    pub(crate) fn new(kind: DispatchPolicyKind) -> Self {
        match kind {
            DispatchPolicyKind::LeastLoaded => Dispatch::LeastLoaded,
            DispatchPolicyKind::FastestEligible => Dispatch::FastestEligible,
            DispatchPolicyKind::GroupAffinity => Dispatch::GroupAffinity,
            DispatchPolicyKind::SessionAffinity => {
                Dispatch::SessionAffinity(SessionAffinity::default())
            }
        }
    }

    /// The prefill replica `request` queues on, or `None` when every replica
    /// has failed. Least-loaded is the frontend's routing over the live
    /// replicas. The other policies see every replica, failed ones included,
    /// and a pick on a failed replica falls back to least-loaded: the
    /// policies predate fault awareness. Only fastest-eligible evaluates
    /// `service_secs(group)`, the request's estimated (prefill +
    /// quantization) service time on `group`.
    pub(crate) fn route(
        &mut self,
        prefill: &[PrefillReplicaState],
        request: &Request,
        service_secs: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        let pick = match self {
            Dispatch::LeastLoaded => return Frontend::route(prefill, request.input_len),
            Dispatch::FastestEligible => fastest_eligible(prefill, request, service_secs),
            Dispatch::GroupAffinity => group_affinity(prefill, request),
            Dispatch::SessionAffinity(pins) => pins.route(prefill, request),
        };
        if prefill[pick].failed {
            Frontend::route(prefill, request.input_len)
        } else {
            Some(pick)
        }
    }
}

/// Least estimated completion time: the token backlog (plus this request)
/// scaled by the group's per-token service speed for this request. On a
/// homogeneous fleet this ranks replicas as least-loaded does, up to a
/// constant addend; on a mixed fleet the faster group absorbs
/// proportionally more load.
fn fastest_eligible(
    prefill: &[PrefillReplicaState],
    request: &Request,
    service_secs: impl Fn(usize) -> f64,
) -> usize {
    let input = request.input_len.max(1);
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    for (i, p) in prefill.iter().enumerate() {
        let backlog = (p.backlog_tokens(request.input_len) + request.input_len) as f64;
        // Seconds to drain the backlog at this group's speed for prompts
        // like this one (service_secs / input tokens).
        let score = backlog * service_secs(p.group) / input as f64;
        // Strict `<` keeps the first minimum, matching least-loaded's
        // deterministic tie-break.
        if score < best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

/// Pins tenants to prefill groups round-robin (`tenant mod groups`) and
/// routes least-loaded *within* the preferred group, so one tenant's burst
/// only queues behind its own group.
fn group_affinity(prefill: &[PrefillReplicaState], request: &Request) -> usize {
    let groups = prefill.iter().map(|p| p.group + 1).max().unwrap_or(1);
    let preferred = request.tenant.index() % groups;
    prefill
        .iter()
        .enumerate()
        .filter(|(_, p)| p.group == preferred)
        .min_by_key(|(_, p)| p.backlog_tokens(request.input_len))
        .map(|(i, _)| i)
        .expect("every group has at least one replica")
}

/// Factor by which a session's pinned prefill replica may exceed the
/// least-loaded replica's backlog before session-affinity dispatch spills
/// the session elsewhere.
pub const SESSION_SPILL_FACTOR: f64 = 2.0;

/// Keeps each session's turns on the prefill replica that served the session
/// last (warm locality: the session's KV prefix lands on one decode path and
/// the prefill replica re-serves familiar context), spilling to the
/// least-loaded replica — and re-pinning there — when the pinned replica's
/// backlog exceeds [`SESSION_SPILL_FACTOR`] × the least-loaded backlog plus
/// the request's own length. Independent requests (session 0) route
/// least-loaded. This is the prefill-side half of session affinity; on the
/// decode side, a prefix-cache hit independently forces placement onto the
/// replica holding the prefix.
#[derive(Debug, Default)]
pub(crate) struct SessionAffinity {
    pinned: IntMap<u64, usize>,
}

impl SessionAffinity {
    fn route(&mut self, prefill: &[PrefillReplicaState], request: &Request) -> usize {
        let fallback = prefill
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.backlog_tokens(request.input_len))
            .map(|(i, _)| i)
            .expect("cluster has at least one prefill replica");
        if request.session == 0 {
            return fallback;
        }
        match self.pinned.get(&request.session) {
            Some(&pinned) if pinned < prefill.len() => {
                let pinned_backlog = prefill[pinned].backlog_tokens(request.input_len) as f64;
                let best_backlog = prefill[fallback].backlog_tokens(request.input_len) as f64;
                let limit = SESSION_SPILL_FACTOR * best_backlog + request.input_len as f64;
                if pinned_backlog <= limit {
                    pinned
                } else {
                    self.pinned.insert(request.session, fallback);
                    fallback
                }
            }
            _ => {
                self.pinned.insert(request.session, fallback);
                fallback
            }
        }
    }
}

/// Serializable selector of the run's dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum DispatchPolicyKind {
    /// Shortest queue by pending tokens (the pre-fleet routing, bit-identical).
    #[default]
    LeastLoaded,
    /// Least estimated completion time under the group's cost model.
    FastestEligible,
    /// Tenant-to-group pinning, least-loaded within the preferred group.
    GroupAffinity,
    /// Session-to-replica pinning with a load-spill threshold; independent
    /// requests route least-loaded.
    SessionAffinity,
}

impl DispatchPolicyKind {
    /// Display name (bench/table row labels).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicyKind::LeastLoaded => "least-loaded",
            DispatchPolicyKind::FastestEligible => "fastest-eligible",
            DispatchPolicyKind::GroupAffinity => "group-affinity",
            DispatchPolicyKind::SessionAffinity => "session-affinity",
        }
    }

    /// Every shipped dispatch policy (grid/bench sweeps).
    pub fn all() -> [DispatchPolicyKind; 4] {
        [
            DispatchPolicyKind::LeastLoaded,
            DispatchPolicyKind::FastestEligible,
            DispatchPolicyKind::GroupAffinity,
            DispatchPolicyKind::SessionAffinity,
        ]
    }
}

// --- Admission: whether an arriving request enters the cluster. ---

/// The run's admission policy, built once per run from its
/// [`AdmissionPolicyKind`]. Rejected requests never occupy a prefill queue;
/// the simulator counts them per run (and per tenant) in the result.
#[derive(Debug)]
pub(crate) enum Admission {
    AdmitAll,
    TokenBucket(TenantTokenBucket),
}

impl Admission {
    pub(crate) fn new(kind: AdmissionPolicyKind, classes: &TenantClasses) -> Self {
        match kind {
            AdmissionPolicyKind::AdmitAll => Admission::AdmitAll,
            AdmissionPolicyKind::TokenBucket {
                rate_per_weight,
                burst,
            } => Admission::TokenBucket(TenantTokenBucket::new(rate_per_weight, burst, classes)),
        }
    }

    /// Whether `request`, arriving at `now`, enters the cluster. Called once
    /// per arrival, in arrival order.
    pub(crate) fn admit(&mut self, request: &Request, now: f64) -> bool {
        match self {
            Admission::AdmitAll => true,
            Admission::TokenBucket(bucket) => bucket.admit(request, now),
        }
    }
}

/// Per-tenant token bucket: tenant `t` accrues `rate_per_weight * weight(t)`
/// tokens per second up to `burst`, and each admission spends one token.
///
/// Buckets start full, so short bursts are absorbed; a tenant that sustains
/// more than its configured rate sees deterministic rejections instead of
/// inflating every other tenant's queueing time.
#[derive(Debug)]
pub(crate) struct TenantTokenBucket {
    rates: [f64; MAX_TENANTS],
    burst: f64,
    tokens: [f64; MAX_TENANTS],
    refilled_at: [f64; MAX_TENANTS],
}

impl TenantTokenBucket {
    /// Builds the bucket set from the run's tenant classes (`rate_per_weight
    /// > 0` and `burst >= 1`, checked by the config's validation).
    fn new(rate_per_weight: f64, burst: f64, classes: &TenantClasses) -> Self {
        let mut rates = [rate_per_weight; MAX_TENANTS];
        for (tenant, class) in classes.iter() {
            rates[tenant.index()] = rate_per_weight * class.weight;
        }
        Self {
            rates,
            burst,
            tokens: [burst; MAX_TENANTS],
            refilled_at: [0.0; MAX_TENANTS],
        }
    }

    fn admit(&mut self, request: &Request, now: f64) -> bool {
        let t = request.tenant.index().min(MAX_TENANTS - 1);
        let elapsed = (now - self.refilled_at[t]).max(0.0);
        self.tokens[t] = (self.tokens[t] + elapsed * self.rates[t]).min(self.burst);
        self.refilled_at[t] = now;
        if self.tokens[t] >= 1.0 {
            self.tokens[t] -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Serializable selector of the run's admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum AdmissionPolicyKind {
    /// Admit everything (the pre-policy behaviour).
    #[default]
    AdmitAll,
    /// Per-tenant token bucket: `rate_per_weight * weight(t)` admissions per
    /// second sustained, bursts up to `burst`.
    TokenBucket {
        /// Sustained admission rate per unit of tenant weight (requests/s).
        rate_per_weight: f64,
        /// Bucket capacity in requests (≥ 1).
        burst: f64,
    },
}

// --- Scheduling: which queued request a freed prefill replica serves. ---

/// The run's scheduling policy, built once per run from its
/// [`SchedulingPolicyKind`]. Every prefill queue of the run is built by
/// [`Scheduling::queue`], in the shape its policy pops.
#[derive(Debug)]
pub(crate) enum Scheduling {
    Fcfs,
    /// One credit set, shared by every replica's queue.
    WeightedRoundRobin(WeightedRoundRobin),
    SloEdf,
}

impl Scheduling {
    pub(crate) fn new(kind: SchedulingPolicyKind) -> Self {
        match kind {
            SchedulingPolicyKind::Fcfs => Scheduling::Fcfs,
            SchedulingPolicyKind::WeightedRoundRobin => {
                Scheduling::WeightedRoundRobin(WeightedRoundRobin::default())
            }
            SchedulingPolicyKind::SloEdf => Scheduling::SloEdf,
        }
    }

    /// An empty prefill queue in the shape this policy pops: a FIFO for
    /// FCFS, per-tenant sub-queues for the tenant-aware policies.
    pub(crate) fn queue(&self) -> PrefillQueue {
        match self {
            Scheduling::Fcfs => PrefillQueue::Fifo(VecDeque::new()),
            Scheduling::WeightedRoundRobin(_) | Scheduling::SloEdf => {
                PrefillQueue::ByTenant(Default::default())
            }
        }
    }

    /// Pops the request `queue`'s replica serves next (`None` when empty).
    /// FCFS pops the FIFO head (the pre-policy simulator, bit-for-bit); the
    /// tenant-aware policies pick a tenant from the sub-queue heads and pop
    /// that tenant's earliest-queued request.
    pub(crate) fn select(
        &mut self,
        queue: &mut PrefillQueue,
        requests: &[Request],
        classes: &TenantClasses,
    ) -> Option<usize> {
        match (self, queue) {
            (Scheduling::Fcfs, PrefillQueue::Fifo(fifo)) => fifo.pop_front(),
            (Scheduling::WeightedRoundRobin(wrr), PrefillQueue::ByTenant(queues)) => {
                queues.pop_by(|heads| wrr.select_tenant(heads, classes))
            }
            (Scheduling::SloEdf, PrefillQueue::ByTenant(queues)) => {
                queues.pop_by(|heads| slo_edf(heads, requests, classes))
            }
            _ => unreachable!("Scheduling::queue builds every prefill queue in its policy's shape"),
        }
    }
}

/// Smooth weighted round-robin over the tenants currently present in the
/// queue; within a tenant, requests are served in arrival order.
///
/// Classic smooth-WRR: every selection first credits each *present* tenant by
/// its weight, picks the present tenant with the highest accumulated credit
/// (ties to the lowest tenant id), then debits the winner by the total weight
/// credited this round. Absent tenants accrue nothing, so a tenant cannot
/// bank service while idle. O(tenants) per decision.
#[derive(Debug, Default)]
pub(crate) struct WeightedRoundRobin {
    credit: [f64; MAX_TENANTS],
}

impl WeightedRoundRobin {
    /// The tenant to serve next; `heads[t]` is tenant `t`'s earliest queued
    /// request (`None` when it has nothing queued; at least one is `Some`).
    fn select_tenant(
        &mut self,
        heads: &[Option<usize>; MAX_TENANTS],
        classes: &TenantClasses,
    ) -> usize {
        let mut round_total = 0.0;
        let mut winner = MAX_TENANTS;
        for (t, head) in heads.iter().enumerate() {
            if head.is_none() {
                continue;
            }
            let weight = classes.get(TenantId(t as u32)).weight;
            self.credit[t] += weight;
            round_total += weight;
            if winner == MAX_TENANTS || self.credit[t] > self.credit[winner] {
                winner = t;
            }
        }
        self.credit[winner] -= round_total;
        winner
    }
}

/// Earliest-deadline-first with per-tenant deadlines `arrival + slo_jct`:
/// the tenant whose head has the earliest deadline.
///
/// Tenants without a finite SLO target effectively yield to every tenant with
/// one; among equal deadlines the earliest arrival (smallest request index)
/// wins, so single-tenant traces degrade to FCFS. Each tenant's head carries
/// the tenant's earliest deadline (arrival order within a tenant is deadline
/// order), so the decision is O(tenants).
fn slo_edf(
    heads: &[Option<usize>; MAX_TENANTS],
    requests: &[Request],
    classes: &TenantClasses,
) -> usize {
    let mut best_tenant = MAX_TENANTS;
    let mut best = (f64::INFINITY, usize::MAX);
    for (t, head) in heads.iter().enumerate() {
        let Some(req) = *head else { continue };
        let r = &requests[req];
        let deadline = r.arrival + classes.get(r.tenant).slo_jct;
        // Strict lexicographic minimum on (deadline, request index): ties
        // resolve to the earliest-queued request, as the old scan did.
        if deadline < best.0 || (deadline == best.0 && req < best.1) {
            best = (deadline, req);
            best_tenant = t;
        }
    }
    best_tenant
}

/// Serializable selector of the run's scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum SchedulingPolicyKind {
    /// First-come-first-served (the pre-policy behaviour, bit-identical).
    #[default]
    Fcfs,
    /// Smooth weighted round-robin over the tenants present in each queue.
    WeightedRoundRobin,
    /// Earliest-deadline-first on per-tenant SLO deadlines.
    SloEdf,
}

impl SchedulingPolicyKind {
    /// Display name (bench/table row labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicyKind::Fcfs => "fcfs",
            SchedulingPolicyKind::WeightedRoundRobin => "wrr",
            SchedulingPolicyKind::SloEdf => "slo-edf",
        }
    }

    /// Every shipped scheduling policy (grid/bench sweeps).
    pub fn all() -> [SchedulingPolicyKind; 3] {
        [
            SchedulingPolicyKind::Fcfs,
            SchedulingPolicyKind::WeightedRoundRobin,
            SchedulingPolicyKind::SloEdf,
        ]
    }
}

// --- Scaling: how many decode replicas each group keeps live. ---

/// The autoscaling controller's per-group snapshot at one scaling tick.
/// `live` replicas are dispatchable, `provisioning` ones were ordered but are
/// still paying the provisioning delay, `draining` ones are finishing their
/// in-flight batches before leaving; the three never overlap and never exceed
/// `capacity` (the group's configured replica count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupScalingView {
    /// Decode group index.
    pub group: usize,
    /// Dispatchable (non-failed, non-drained) replicas.
    pub live: usize,
    /// Replicas ordered but not yet dispatchable.
    pub provisioning: usize,
    /// Replicas draining towards scale-down.
    pub draining: usize,
    /// Configured replica count — the fleet the operator paid to rack.
    pub capacity: usize,
    /// Requests currently decoding across the group's live replicas.
    pub active: usize,
    /// Decode batch slots per replica.
    pub batch: usize,
    /// Requests queued for decode admission (waiting for memory or a batch
    /// slot) plus those still in prefill/transfer — demand that has entered
    /// the cluster but not yet finished decoding.
    pub queued: usize,
    /// Requests that arrived at the cluster since the previous scaling tick.
    pub arrived: usize,
}

impl GroupScalingView {
    /// Replicas already committed to serving (live or on the way up).
    pub fn committed(&self) -> usize {
        self.live + self.provisioning
    }
}

/// The run's decode-fleet scaling policy, built once per run from its
/// [`ScalingPolicyKind`]. Picks each decode group's desired replica count at
/// every scaling tick; the controller clamps the answer to `[1, capacity]`
/// and turns the delta into provisioning orders (scale-up) or drains
/// (scale-down).
#[derive(Debug)]
pub(crate) enum Scaling {
    /// Queue-depth watermarks: grow by one replica while the backlog per
    /// committed replica exceeds `high`, shrink by one while it sits below
    /// `low`.
    Threshold {
        high: f64,
        low: f64,
    },
    /// Busy-fraction setpoint with hysteresis: utilization is demand over the
    /// committed fleet's batch slots; outside `setpoint ± band` the group
    /// grows or shrinks by one replica per tick, inside the band it holds
    /// (the band is what keeps a noisy trace from thrashing every tick).
    TargetUtilization {
        setpoint: f64,
        band: f64,
    },
    Predictive(PredictiveScaler),
}

impl Scaling {
    /// The policy of `kind`; `None` for [`ScalingPolicyKind::Off`], whose run
    /// has no controller component at all.
    pub(crate) fn new(kind: ScalingPolicyKind) -> Option<Self> {
        Some(match kind {
            ScalingPolicyKind::Off => return None,
            ScalingPolicyKind::Threshold { high, low } => Scaling::Threshold { high, low },
            ScalingPolicyKind::TargetUtilization { setpoint, band } => {
                Scaling::TargetUtilization { setpoint, band }
            }
            ScalingPolicyKind::Predictive {
                alpha,
                per_replica_rps,
                headroom,
            } => Scaling::Predictive(PredictiveScaler::new(alpha, per_replica_rps, headroom)),
        })
    }

    /// Desired replica count for the group described by `view` at time `now`.
    pub(crate) fn desired(&mut self, view: &GroupScalingView, now: f64) -> usize {
        let committed = view.committed();
        // One replica up, one down, or hold.
        let step = |grow: bool, shrink: bool| {
            if grow {
                committed + 1
            } else if shrink {
                committed.saturating_sub(1)
            } else {
                committed
            }
        };
        match self {
            Scaling::Threshold { high, low } => {
                let backlog = view.queued as f64 / committed.max(1) as f64;
                step(backlog > *high, backlog < *low)
            }
            Scaling::TargetUtilization { setpoint, band } => {
                let slots = (committed * view.batch.max(1)).max(1) as f64;
                let util = (view.active + view.queued) as f64 / slots;
                step(util > *setpoint + *band, util < *setpoint - *band)
            }
            Scaling::Predictive(predictive) => predictive.desired(view, now),
        }
    }
}

/// EWMA of the arrival rate (fed by the same tick cadence the telemetry
/// sampler uses): desired replicas are the smoothed rate, padded by
/// `headroom`, divided by one replica's sustainable throughput.
#[derive(Debug)]
pub(crate) struct PredictiveScaler {
    alpha: f64,
    per_replica_rps: f64,
    headroom: f64,
    ewma: f64,
    last_now: f64,
    primed: bool,
}

impl PredictiveScaler {
    /// `alpha` is the EWMA smoothing factor in (0, 1], `per_replica_rps` one
    /// replica's sustainable request rate (> 0), `headroom` the safety
    /// multiplier (≥ 1); the config's validation checks all three.
    fn new(alpha: f64, per_replica_rps: f64, headroom: f64) -> Self {
        Self {
            alpha,
            per_replica_rps,
            headroom,
            ewma: 0.0,
            last_now: 0.0,
            primed: false,
        }
    }

    fn desired(&mut self, view: &GroupScalingView, now: f64) -> usize {
        let dt = now - self.last_now;
        self.last_now = now;
        if dt <= 0.0 {
            return view.committed();
        }
        let rate = view.arrived as f64 / dt;
        // The first observation seeds the average instead of decaying from 0.
        self.ewma = if self.primed {
            self.alpha * rate + (1.0 - self.alpha) * self.ewma
        } else {
            self.primed = true;
            rate
        };
        (self.ewma * self.headroom / self.per_replica_rps).ceil() as usize
    }
}

/// Serializable selector of the run's decode-fleet scaling policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum ScalingPolicyKind {
    /// No autoscaling: the fleet stays at its configured size and the
    /// simulator skips the controller entirely (the pre-scaling behaviour,
    /// bit- and cost-identical).
    #[default]
    Off,
    /// Queue-depth watermarks per committed replica.
    Threshold {
        /// Grow while queued-per-replica exceeds this.
        high: f64,
        /// Shrink while queued-per-replica sits below this.
        low: f64,
    },
    /// Busy-fraction setpoint with hysteresis.
    TargetUtilization {
        /// Target busy fraction of the committed batch slots.
        setpoint: f64,
        /// Hysteresis half-width around the setpoint.
        band: f64,
    },
    /// EWMA arrival-rate forecast over per-replica throughput.
    Predictive {
        /// EWMA smoothing factor in (0, 1].
        alpha: f64,
        /// One replica's sustainable request rate (requests/s).
        per_replica_rps: f64,
        /// Safety multiplier on the forecast rate (≥ 1).
        headroom: f64,
    },
}

impl ScalingPolicyKind {
    /// Display name (bench/table row labels).
    pub fn name(self) -> &'static str {
        match self {
            ScalingPolicyKind::Off => "off",
            ScalingPolicyKind::Threshold { .. } => "threshold",
            ScalingPolicyKind::TargetUtilization { .. } => "target-util",
            ScalingPolicyKind::Predictive { .. } => "predictive",
        }
    }

    /// The paper-flavoured parameterisation of every shipped scaling policy
    /// (grid/bench sweeps); `per_replica_rps` feeds the predictive forecast.
    pub fn all(per_replica_rps: f64) -> [ScalingPolicyKind; 4] {
        [
            ScalingPolicyKind::Off,
            ScalingPolicyKind::Threshold {
                high: 4.0,
                low: 1.0,
            },
            ScalingPolicyKind::TargetUtilization {
                setpoint: 0.7,
                band: 0.15,
            },
            ScalingPolicyKind::Predictive {
                alpha: 0.3,
                per_replica_rps,
                headroom: 1.2,
            },
        ]
    }
}

/// The frontend policy of one run: tenant classes plus the dispatch,
/// admission and scheduling policies operating on them. `Copy` and
/// serializable so it rides inside [`crate::config::SimulationConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PolicyConfig {
    /// Per-tenant service classes (weight, SLO target).
    pub tenants: TenantClasses,
    /// Replica dispatch policy (which prefill replica a request queues on).
    pub dispatch: DispatchPolicyKind,
    /// Admission policy.
    pub admission: AdmissionPolicyKind,
    /// Scheduling policy.
    pub scheduling: SchedulingPolicyKind,
    /// Transfer-retry backoff and give-up budgets. The default reproduces
    /// the pre-policy hardcoded constants bit-for-bit.
    pub retry: crate::topology::RetryPolicy,
    /// Decode-fleet autoscaling policy ([`ScalingPolicyKind::Off`] keeps the
    /// static fleet and skips the controller entirely).
    pub scaling: ScalingPolicyKind,
}

impl PolicyConfig {
    /// A single-tenant policy with the given decode-fleet scaling policy
    /// (autoscaling experiments).
    pub fn autoscaled(scaling: ScalingPolicyKind) -> Self {
        Self {
            scaling,
            ..Self::default()
        }
    }

    /// A single-tenant policy with the given dispatch policy (heterogeneous-
    /// fleet routing experiments).
    pub fn dispatched(dispatch: DispatchPolicyKind) -> Self {
        Self {
            dispatch,
            ..Self::default()
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, tenant: u32, arrival: f64) -> Request {
        Request {
            id,
            tenant: TenantId(tenant),
            arrival,
            input_len: 100,
            output_len: 10,
            session: 0,
            parent: None,
            shared_prefix_tokens: 0,
        }
    }

    /// Per-tenant sub-queue heads of an arrival-ordered flat queue.
    fn heads_of(queue: &VecDeque<usize>, requests: &[Request]) -> [Option<usize>; MAX_TENANTS] {
        let mut heads = [None; MAX_TENANTS];
        for &req in queue {
            let t = requests[req].tenant.index().min(MAX_TENANTS - 1);
            if heads[t].is_none() {
                heads[t] = Some(req);
            }
        }
        heads
    }

    // --- The retired O(queue) scan selections, kept verbatim as the oracle
    // --- the O(tenants) head-based policies are pinned against.

    fn scan_wrr(
        credit: &mut [f64; MAX_TENANTS],
        queue: &VecDeque<usize>,
        requests: &[Request],
        classes: &TenantClasses,
    ) -> usize {
        let mut present = [false; MAX_TENANTS];
        for &req in queue {
            present[requests[req].tenant.index().min(MAX_TENANTS - 1)] = true;
        }
        let mut round_total = 0.0;
        let mut winner = MAX_TENANTS;
        for (t, _) in present.iter().enumerate().filter(|(_, &p)| p) {
            let weight = classes.get(TenantId(t as u32)).weight;
            credit[t] += weight;
            round_total += weight;
            if winner == MAX_TENANTS || credit[t] > credit[winner] {
                winner = t;
            }
        }
        credit[winner] -= round_total;
        queue
            .iter()
            .position(|&req| requests[req].tenant.index().min(MAX_TENANTS - 1) == winner)
            .expect("winner was marked present from this queue")
    }

    fn scan_edf(queue: &VecDeque<usize>, requests: &[Request], classes: &TenantClasses) -> usize {
        let deadline = |req: usize| {
            let r = &requests[req];
            r.arrival + classes.get(r.tenant).slo_jct
        };
        let mut best = 0;
        for pos in 1..queue.len() {
            if deadline(queue[pos]) < deadline(queue[best]) {
                best = pos;
            }
        }
        best
    }

    #[test]
    fn tenant_classes_default_beyond_configured_set() {
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 3.0,
                slo_jct: 60.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 600.0,
            },
        ]);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.get(TenantId(0)).weight, 3.0);
        assert_eq!(classes.get(TenantId(1)).slo_jct, 600.0);
        // Unconfigured tenant falls back to the default class.
        assert_eq!(classes.get(TenantId(5)).weight, 1.0);
        assert!(classes.get(TenantId(5)).slo_jct.is_infinite());
    }

    #[test]
    fn fcfs_picks_the_tenant_with_the_earliest_head() {
        // Tenant 1's request 0 queued before tenant 0's request 1: FCFS
        // serves the FIFO head whatever the tenants.
        let requests = vec![request(0, 1, 0.0), request(1, 0, 1.0)];
        let classes = TenantClasses::single_tenant();
        let mut fcfs = Scheduling::new(SchedulingPolicyKind::Fcfs);
        let mut queue = fcfs.queue();
        queue.push(0, 1);
        queue.push(1, 0);
        assert_eq!(fcfs.select(&mut queue, &requests, &classes), Some(0));
        assert_eq!(fcfs.select(&mut queue, &requests, &classes), Some(1));
        assert_eq!(fcfs.select(&mut queue, &requests, &classes), None);
    }

    #[test]
    fn wrr_shares_service_by_weight() {
        // Tenant 0 (weight 2) and tenant 1 (weight 1), both always backlogged:
        // over 3 selections tenant 0 must win twice, tenant 1 once.
        let requests: Vec<Request> = (0..12)
            .map(|i| request(i, (i % 2) as u32, i as f64))
            .collect();
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 2.0,
                slo_jct: f64::INFINITY,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: f64::INFINITY,
            },
        ]);
        let mut wrr = WeightedRoundRobin::default();
        let queue: VecDeque<usize> = [0, 1, 2, 3, 4, 5].into_iter().collect();
        let heads = heads_of(&queue, &requests);
        let mut wins = [0usize; 2];
        for _ in 0..6 {
            wins[wrr.select_tenant(&heads, &classes)] += 1;
        }
        assert_eq!(wins, [4, 2], "2:1 weights over 6 turns");
    }

    #[test]
    fn wrr_serves_a_lone_tenant_in_arrival_order() {
        let requests: Vec<Request> = (0..4).map(|i| request(i, 0, i as f64)).collect();
        let classes = TenantClasses::single_tenant();
        let mut wrr = Scheduling::new(SchedulingPolicyKind::WeightedRoundRobin);
        let mut queue = wrr.queue();
        for req in 0..4 {
            queue.push(req, 0);
        }
        // Only tenant 0 present: its sub-queue drains in arrival order.
        for req in 0..4 {
            assert_eq!(wrr.select(&mut queue, &requests, &classes), Some(req));
        }
        assert_eq!(wrr.select(&mut queue, &requests, &classes), None);
    }

    #[test]
    fn slo_edf_prioritises_tight_deadlines_and_breaks_ties_by_arrival() {
        let requests = vec![
            request(0, 0, 0.0), // deadline 0 + 1000
            request(1, 1, 5.0), // deadline 5 + 10 = 15
            request(2, 1, 8.0), // deadline 8 + 10 = 18
        ];
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 1.0,
                slo_jct: 1000.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 10.0,
            },
        ]);
        let queue: VecDeque<usize> = [0, 1, 2].into_iter().collect();
        assert_eq!(
            slo_edf(&heads_of(&queue, &requests), &requests, &classes),
            1
        );
        // Equal deadlines: the earliest-queued request wins.
        let twins = vec![request(0, 0, 1.0), request(1, 1, 1.0)];
        let classes = TenantClasses::new(&[TenantClass::default(), TenantClass::default()]);
        let queue: VecDeque<usize> = [0, 1].into_iter().collect();
        assert_eq!(slo_edf(&heads_of(&queue, &twins), &twins, &classes), 0);
    }

    #[test]
    fn head_based_policies_match_the_retired_queue_scan() {
        // Drive the O(tenants) head-based selection and the retired O(queue)
        // scan through identical randomized queue evolutions; every selection
        // must pick the same request. This pins the per-tenant sub-queue
        // redesign bit-identical to the scan path it replaced.
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 3.0,
                slo_jct: 45.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 800.0,
            },
            TenantClass {
                weight: 2.0,
                slo_jct: f64::INFINITY,
            },
        ]);
        // Deterministic pseudo-random stream (no external RNG in this crate).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let requests: Vec<Request> = (0..64)
            .map(|i| {
                request(
                    i,
                    (next() % 3) as u32,
                    i as f64 + (next() % 7) as f64 * 0.125,
                )
            })
            .collect();

        let mut wrr_heads = WeightedRoundRobin::default();
        let mut wrr_scan_credit = [0.0f64; MAX_TENANTS];

        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut arrivals = 0usize;
        for step in 0..200 {
            // Randomly push the next arrival(s) (arrival order preserved).
            while arrivals < requests.len() && next() % 2 == 0 {
                queue.push_back(arrivals);
                arrivals += 1;
            }
            if queue.is_empty() {
                continue;
            }
            let heads = heads_of(&queue, &requests);

            // EDF: stateless, compare directly.
            let scan_pos = scan_edf(&queue, &requests, &classes);
            let tenant = slo_edf(&heads, &requests, &classes);
            assert_eq!(
                heads[tenant],
                Some(queue[scan_pos]),
                "step {step}: EDF head selection diverged from the scan"
            );

            // WRR: stateful; advance both copies with the same selection.
            let scan_pos = scan_wrr(&mut wrr_scan_credit, &queue, &requests, &classes);
            let tenant = wrr_heads.select_tenant(&heads, &classes);
            let scan_req = queue[scan_pos];
            assert_eq!(
                heads[tenant],
                Some(scan_req),
                "step {step}: WRR head selection diverged from the scan"
            );
            queue.remove(scan_pos);
        }
    }

    #[test]
    fn token_bucket_enforces_weighted_rates_and_bursts() {
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 2.0,
                slo_jct: f64::INFINITY,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: f64::INFINITY,
            },
        ]);
        let mut bucket = TenantTokenBucket::new(0.5, 2.0, &classes);
        // Burst of 2 admitted at t=0; the third is rejected.
        assert!(bucket.admit(&request(0, 1, 0.0), 0.0));
        assert!(bucket.admit(&request(1, 1, 0.0), 0.0));
        assert!(!bucket.admit(&request(2, 1, 0.0), 0.0));
        // Tenant 1 refills at 0.5/s: one token back after 2 s.
        assert!(bucket.admit(&request(3, 1, 2.0), 2.0));
        assert!(!bucket.admit(&request(4, 1, 2.0), 2.0));
        // Tenant 0 (weight 2) refills twice as fast — its own bucket is
        // untouched by tenant 1's spending.
        assert!(bucket.admit(&request(5, 0, 0.0), 0.0));
        assert!(bucket.admit(&request(6, 0, 0.0), 0.0));
        assert!(!bucket.admit(&request(7, 0, 0.0), 0.0));
        assert!(bucket.admit(&request(8, 0, 1.0), 1.0));
    }

    fn replica(queued_tokens: usize, busy: bool, failed: bool) -> PrefillReplicaState {
        PrefillReplicaState {
            queued_tokens,
            failed,
            current: busy.then_some((0, 0)),
            ..PrefillReplicaState::new(0, Scheduling::Fcfs.queue())
        }
    }

    fn in_group(group: usize, queued_tokens: usize, busy: bool) -> PrefillReplicaState {
        PrefillReplicaState {
            group,
            ..replica(queued_tokens, busy, false)
        }
    }

    #[test]
    fn least_loaded_matches_the_pre_fleet_metric() {
        // input_len = 100. Replica 1 has fewer queued tokens, but replica 2
        // is idle: idle beats a busy replica whose in-service request counts
        // at this length.
        let prefill = [
            replica(300, false, false),
            replica(50, true, false),
            replica(120, false, false),
        ];
        assert_eq!(Frontend::route(&prefill, 100), Some(2));
        // First minimum wins ties.
        let tied = [replica(80, false, false), replica(80, false, false)];
        assert_eq!(Frontend::route(&tied, 100), Some(0));
        // Failed replicas never qualify; a fully failed fleet routes nowhere.
        let degraded = [replica(0, false, true), replica(500, true, false)];
        assert_eq!(Frontend::route(&degraded, 100), Some(1));
        assert_eq!(Frontend::route(&[replica(0, false, true)], 100), None);
    }

    #[test]
    fn fastest_eligible_prefers_the_faster_group_under_equal_load() {
        let req = request(0, 0, 0.0);
        // Group 1 serves this prompt twice as fast as group 0.
        let service_secs = |group| if group == 0 { 2.0 } else { 1.0 };
        // Same backlog: the faster group wins.
        let loads = [in_group(0, 200, false), in_group(1, 200, false)];
        assert_eq!(fastest_eligible(&loads, &req, service_secs), 1);
        // A fast group with a deep queue loses to an idle slow one.
        let loads = [in_group(0, 0, false), in_group(1, 5_000, true)];
        assert_eq!(fastest_eligible(&loads, &req, service_secs), 0);
    }

    #[test]
    fn session_affinity_pins_sessions_and_spills_under_load() {
        let mut policy = SessionAffinity::default();
        let mut req = request(0, 0, 0.0); // input_len = 100
        req.session = 7;
        // First turn of the session routes least-loaded and pins there.
        let loads = [replica(300, false, false), replica(50, false, false)];
        assert_eq!(policy.route(&loads, &req), 1);
        // Follow-ups stick to the pin even when it is no longer least-loaded
        // (400 <= 2 * 200 + 100).
        let loads = [replica(200, false, false), replica(400, false, false)];
        assert_eq!(policy.route(&loads, &req), 1);
        // ... until the pinned backlog crosses the spill threshold
        // (901 > 2 * 400 + 100); the session re-pins on the spill target.
        let loads = [replica(400, false, false), replica(901, false, false)];
        assert_eq!(policy.route(&loads, &req), 0);
        let loads = [replica(500, false, false), replica(450, false, false)];
        assert_eq!(policy.route(&loads, &req), 0, "re-pinned after spill");
        // Independent requests (session 0) always route least-loaded.
        assert_eq!(policy.route(&loads, &request(1, 0, 0.0)), 1);
        // Different sessions pin independently.
        let mut other = request(2, 0, 0.0);
        other.session = 9;
        assert_eq!(policy.route(&loads, &other), 1);
    }

    #[test]
    fn group_affinity_pins_tenants_to_groups() {
        let loads = [
            in_group(0, 500, false),
            in_group(0, 0, false),
            in_group(1, 0, false),
            in_group(1, 100, false),
        ];
        // Tenant 0 -> group 0 (least-loaded within it), tenant 1 -> group 1,
        // tenant 2 wraps to group 0 again.
        assert_eq!(group_affinity(&loads, &request(0, 0, 0.0)), 1);
        assert_eq!(group_affinity(&loads, &request(1, 1, 0.0)), 2);
        assert_eq!(group_affinity(&loads, &request(2, 2, 0.0)), 1);
    }

    #[test]
    fn kinds_build_their_policies() {
        let classes = TenantClasses::single_tenant();
        let requests = vec![request(0, 0, 0.0)];
        for kind in SchedulingPolicyKind::all() {
            let mut policy = Scheduling::new(kind);
            let mut queue = policy.queue();
            queue.push(0, 0);
            assert_eq!(policy.select(&mut queue, &requests, &classes), Some(0));
            assert_eq!(policy.select(&mut queue, &requests, &classes), None);
            assert!(!kind.name().is_empty());
        }
        for kind in DispatchPolicyKind::all() {
            let mut policy = Dispatch::new(kind);
            let prefill = [replica(0, false, false)];
            assert_eq!(policy.route(&prefill, &requests[0], |_| 1.0), Some(0));
            // A pick on a failed replica falls back to the live fleet.
            let prefill = [replica(0, false, true), replica(900, true, false)];
            assert_eq!(policy.route(&prefill, &requests[0], |_| 1.0), Some(1));
            assert!(!kind.name().is_empty());
        }
        let mut admit = Admission::new(AdmissionPolicyKind::AdmitAll, &classes);
        assert!(admit.admit(&requests[0], 0.0));
        let mut bucket = Admission::new(
            AdmissionPolicyKind::TokenBucket {
                rate_per_weight: 1.0,
                burst: 1.0,
            },
            &classes,
        );
        assert!(bucket.admit(&requests[0], 0.0));
        assert!(!bucket.admit(&requests[0], 0.0));
    }

    fn view(live: usize, provisioning: usize, active: usize, queued: usize) -> GroupScalingView {
        GroupScalingView {
            group: 0,
            live,
            provisioning,
            draining: 0,
            capacity: 8,
            active,
            batch: 8,
            queued,
            arrived: 0,
        }
    }

    #[test]
    fn scaling_policies_track_load() {
        // Off builds no controller at all; everything else builds one.
        assert!(Scaling::new(ScalingPolicyKind::Off).is_none());
        for kind in ScalingPolicyKind::all(1.0).into_iter().skip(1) {
            assert!(Scaling::new(kind).is_some(), "{}", kind.name());
        }
        let build = |kind| Scaling::new(kind).expect("not Off");

        // Threshold: backlog per committed replica against the watermarks.
        let mut th = build(ScalingPolicyKind::Threshold {
            high: 4.0,
            low: 1.0,
        });
        assert_eq!(th.desired(&view(2, 0, 0, 10), 0.0), 3, "10/2 > 4 grows");
        assert_eq!(th.desired(&view(2, 0, 0, 1), 0.0), 1, "1/2 < 1 shrinks");
        assert_eq!(th.desired(&view(2, 0, 0, 4), 0.0), 2, "2 <= 4/2 <= 4 holds");
        // Provisioning replicas count as committed: no double-ordering while
        // the first order is still in flight.
        assert_eq!(th.desired(&view(2, 1, 0, 13), 0.0), 4);
        assert_eq!(th.desired(&view(2, 1, 0, 9), 0.0), 3);
        // The never-firing watermarks of the inert-controller A/B hold
        // whatever is committed, in-flight orders included.
        let mut inert = build(ScalingPolicyKind::Threshold {
            high: 1e18,
            low: -1.0,
        });
        assert_eq!(inert.desired(&view(3, 1, 0, 100), 10.0), 4);

        // Target utilization: demand over committed batch slots, hysteresis
        // band holds in between.
        let mut tu = build(ScalingPolicyKind::TargetUtilization {
            setpoint: 0.7,
            band: 0.15,
        });
        assert_eq!(tu.desired(&view(2, 0, 14, 0), 0.0), 3, "14/16 > 0.85");
        assert_eq!(tu.desired(&view(2, 0, 4, 0), 0.0), 1, "4/16 < 0.55");
        assert_eq!(tu.desired(&view(2, 0, 11, 0), 0.0), 2, "0.69 in band");

        // Predictive: the first tick seeds the EWMA, later ticks smooth it;
        // desired is the padded forecast over per-replica throughput.
        let mut pr = build(ScalingPolicyKind::Predictive {
            alpha: 0.5,
            per_replica_rps: 1.0,
            headroom: 1.0,
        });
        let mut v = view(1, 0, 0, 0);
        v.arrived = 40;
        assert_eq!(pr.desired(&v, 10.0), 4, "seed: 4 rps / 1 rps per replica");
        v.arrived = 0;
        assert_eq!(pr.desired(&v, 20.0), 2, "EWMA 2 rps after an idle tick");
        // A zero-dt tick holds instead of dividing by zero.
        assert_eq!(pr.desired(&v, 20.0), 1);
    }
}
