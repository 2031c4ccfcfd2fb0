//! The cluster simulator's components on the [`hack_sim`] engine.
//!
//! Four component kinds cooperate:
//!
//! * [`frontend::Frontend`] — admission and replica-aware dispatch of arriving
//!   requests onto the prefill fleet (least-loaded by default; the other
//!   [`crate::policy::DispatchPolicyKind`]s serve heterogeneous fleets and
//!   sessions);
//! * [`prefill::PrefillReplica`] — the prefill lifecycle of one replica
//!   (queueing, prefill + quantization service, hand-off to the transfer path);
//! * [`network::NetworkFabric`] — per-prefill-NIC serialization of KV
//!   transfers, including transfers pipelined under prefill (Fig. 1(d));
//! * [`decode::DecodeReplica`] — KV memory accounting, continuous-batching
//!   congestion, completion, and the fault-injection lifecycle.
//!
//! The components communicate through typed events (see [`crate::events`]) and
//! share one [`ClusterState`] blackboard holding the per-request and
//! per-replica bookkeeping; the event-handler layer stays thin so that the
//! arithmetic below is a line-for-line port of the original monolithic
//! simulator (whose per-request numerics this refactor reproduces exactly).
//!
//! Per-request state is two tables indexed by request, 160 B per request in
//! all: [`Charges`] (80 B), exactly what the result reads — placement and the
//! seconds charged to each stage — and [`Lifecycle`] (80 B), the in-flight
//! bookkeeping the handlers need until the request is resolved. Its
//! [`ReqPhase`] says where the request is in the pipeline and changes only
//! through [`ClusterState::advance`], which is also where the request's
//! telemetry timeline is drawn. The result assembly reads the lifecycle
//! table first and frees it before it allocates the records.
//!
//! Each [`DecodeReplicaState`] indexes the requests that hold memory on it:
//! its KV reservations, taken by [`ClusterState::reserve`] and returned by
//! [`ClusterState::release`] (a replica failure drops them all at once),
//! and, with the prefix cache on, the prefix hits promised against it
//! ([`ClusterState::resolve_prefix`] / [`ClusterState::release_hit`]). A
//! decode-replica failure therefore costs O(requests on the replica), not a
//! pass over the trace. The indices are unordered; anything that iterates
//! them where order reaches a result (float sums, re-dispatch) sorts the
//! members ascending first, the order a scan over the trace visits them.
//!
//! Every replica belongs to a [`crate::fleet::ReplicaGroup`]; costs are
//! evaluated under the *group's* cost model (GPU, parallelism, NIC, optional
//! per-group efficiency constants), with one cost table per group (decode) or
//! per prefill×decode group pair (transfer wire times).

pub(crate) mod decode;
pub(crate) mod frontend;
pub(crate) mod network;
pub(crate) mod prefill;
pub(crate) mod scaling;

use crate::cache::{PrefixHit, SessionCacheState};
use crate::config::SimulationConfig;
use crate::events::{RequestArrived, TransferCompleted, TransferRetry};
use crate::fleet::FleetSpec;
use crate::policy::{Admission, Dispatch, Scheduling, MAX_TENANTS};
use crate::topology::retry_backoff;
use hack_model::cost::{PrefillEvaluator, ReplicaCostModel};
use hack_model::cost_table::DecodeCostTable;
use hack_sim::{ComponentId, EventId, SimulationContext};
use hack_workload::trace::Request;
use std::collections::VecDeque;
use std::sync::Arc;

/// The cost layer of a [`crate::sim::Simulator`], built on its first run and
/// shared by every later one: one decode prefix-sum table per decode group
/// and one prefill-side evaluator per (prefill group × decode group) pair,
/// so every per-request cost the handlers ask for is O(1) and every prompt
/// length, prefix-cache suffixes included, takes the same path. The
/// [`hack_model::ReplicaCostModel`] formulas remain the test oracle of every
/// lookup (`cost_layer_*` in the simulator's tests).
#[derive(Clone)]
pub(crate) struct SimCosts {
    pub fleet: FleetSpec,
    /// `decode[dg]`: the decode cost table of decode group `dg`.
    pub decode: Vec<Arc<DecodeCostTable>>,
    /// `prefill[pg][dg]`: prefill group `pg`'s cost model with the wire at
    /// `min(pg, dg)` NIC bandwidth. Prefill and quantization times do not
    /// depend on the wire, so group-only lookups read `prefill[pg][0]`.
    pub prefill: Vec<Vec<PrefillEvaluator>>,
}

impl SimCosts {
    /// Total (decode, dequant/approx) time of `request`'s decode iterations on
    /// a replica of decode group `group`: two prefix subtractions in the
    /// group's decode cost table.
    pub fn decode_durations(&self, group: usize, request: &Request) -> (f64, f64) {
        self.decode[group].decode_durations(request.input_len, request.output_len)
    }

    /// Prefill and quantization service times of a prompt on prefill group
    /// `group`.
    pub fn prefill_service_times(&self, group: usize, prompt: usize) -> (f64, f64) {
        let costs = &self.prefill[group][0];
        (costs.prefill_time(prompt), costs.quantization_time(prompt))
    }

    /// Uncontended wire time of a `prompt`-token KV transfer from prefill
    /// group `prefill_group` to decode group `decode_group`, bottlenecked by
    /// the slower of the two groups' NICs (the NIC serialization on top of
    /// it is per-request state in the fabric).
    pub fn transfer_duration_len(
        &self,
        prefill_group: usize,
        decode_group: usize,
        prompt: usize,
    ) -> f64 {
        self.prefill[prefill_group][decode_group].transfer_time(prompt)
    }
}

/// The pending requests of one prefill replica, in the shape the run's
/// scheduling policy pops ([`Scheduling::queue`]). Requests enter in the
/// order they reach the replica, so within any (sub-)queue the head is the
/// earliest-queued request.
#[derive(Debug, Clone)]
pub(crate) enum PrefillQueue {
    /// Arrival-ordered FIFO (FCFS: `push_back` / `pop_front`, nothing else).
    Fifo(VecDeque<usize>),
    /// Per-tenant sub-queues (the tenant-aware policies): the policy picks a
    /// *tenant* from the sub-queue heads (O(tenants)) and the winner's head
    /// pops in O(1).
    ByTenant(TenantQueues),
}

impl PrefillQueue {
    /// Queues `req` for `tenant`.
    pub fn push(&mut self, req: usize, tenant: usize) {
        match self {
            PrefillQueue::Fifo(fifo) => fifo.push_back(req),
            PrefillQueue::ByTenant(queues) => {
                queues.queues[tenant.min(MAX_TENANTS - 1)].push_back(req);
                queues.len += 1;
            }
        }
    }

    /// Queued requests across all tenants.
    pub fn len(&self) -> usize {
        match self {
            PrefillQueue::Fifo(fifo) => fifo.len(),
            PrefillQueue::ByTenant(queues) => queues.len,
        }
    }

    /// Every queued request, in no particular order.
    #[cfg(debug_assertions)]
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        let queues: &[VecDeque<usize>] = match self {
            PrefillQueue::Fifo(fifo) => std::slice::from_ref(fifo),
            PrefillQueue::ByTenant(queues) => &queues.queues[..],
        };
        queues.iter().flatten().copied()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the queue, returning every queued request in arrival order
    /// (request indices ascend with arrival, so sorting restores the global
    /// order across sub-queues and re-routed requests). Used when a prefill
    /// replica fails and its queue re-routes.
    pub fn drain_all(&mut self) -> Vec<usize> {
        let mut all: Vec<usize> = match self {
            PrefillQueue::Fifo(fifo) => fifo.drain(..).collect(),
            PrefillQueue::ByTenant(queues) => {
                queues.len = 0;
                queues.queues.iter_mut().flat_map(|q| q.drain(..)).collect()
            }
        };
        all.sort_unstable();
        all
    }
}

/// One arrival-ordered sub-queue per tenant, plus their total length.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantQueues {
    queues: Box<[VecDeque<usize>; MAX_TENANTS]>,
    len: usize,
}

impl TenantQueues {
    /// Pops the head of the tenant `pick` selects from the sub-queue heads
    /// (`heads[t]` is tenant `t`'s earliest queued request, `None` when it
    /// has nothing queued; `pick` sees at least one `Some`). `None` when
    /// nothing is queued.
    pub fn pop_by(
        &mut self,
        pick: impl FnOnce(&[Option<usize>; MAX_TENANTS]) -> usize,
    ) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let heads = self.queues.each_ref().map(|q| q.front().copied());
        let req = self.queues[pick(&heads)].pop_front();
        if req.is_some() {
            self.len -= 1;
        }
        req
    }
}

/// Prefill-side state of one replica.
#[derive(Debug, Clone)]
pub(crate) struct PrefillReplicaState {
    /// Prefill group the replica belongs to.
    pub group: usize,
    pub queue: PrefillQueue,
    pub queued_tokens: usize,
    /// Whether the replica is currently failed (fault injection).
    pub failed: bool,
    /// The request in prefill service and its pending `PrefillFinished`
    /// event (cancellable on failure).
    pub current: Option<(usize, EventId)>,
}

impl PrefillReplicaState {
    pub fn new(group: usize, queue: PrefillQueue) -> Self {
        Self {
            group,
            queue,
            queued_tokens: 0,
            failed: false,
            current: None,
        }
    }

    /// Whether the replica is serving a prefill.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// The pre-fleet routing metric for a request of `input_len` prompt
    /// tokens: pending tokens, plus `input_len` while busy. `queued_tokens`
    /// still holds the in-service prompt (it is released only when its
    /// prefill finishes), so the `busy` addend counts the in-service request
    /// *again*, at the arriving request's length: the pre-fleet router's
    /// deliberate pessimism, kept for bit-compatibility.
    pub fn backlog_tokens(&self, input_len: usize) -> usize {
        self.queued_tokens + if self.busy() { input_len } else { 0 }
    }
}

/// Decode-side state of one replica.
#[derive(Debug, Clone)]
pub(crate) struct DecodeReplicaState {
    /// Decode group the replica belongs to.
    pub group: usize,
    pub kv_capacity: f64,
    pub kv_used: f64,
    pub peak_kv: f64,
    pub active: usize,
    pub resident_tokens: usize,
    /// Whether the replica is currently failed (fault injection).
    pub failed: bool,
    /// Scaled out by the autoscaler: powered down, invisible to routing, not
    /// billed. Only the controller flips this (fault injection uses `failed`).
    pub scaled_out: bool,
    /// Draining toward scale-down: finishes its in-flight work but admits
    /// nothing new; flips to `scaled_out` once idle.
    pub draining: bool,
    /// Exactly the requests whose phase holds a KV reservation with
    /// `decode_replica` = this replica (decoding, or in transfer toward it).
    /// `active == 0` and an empty index is the idle test the scale-down
    /// drain waits on, not `kv_used == 0.0`: float accumulation need not
    /// return to exactly zero.
    pub reserved_reqs: ReqIndex,
    /// Exactly the requests holding a prefix-cache hit on this replica
    /// (empty with the cache off).
    pub hit_reqs: ReqIndex,
}

impl DecodeReplicaState {
    /// A live, empty replica of decode group `group` with `kv_capacity` bytes
    /// of KV budget.
    pub fn new(group: usize, kv_capacity: f64) -> Self {
        Self {
            group,
            kv_capacity,
            kv_used: 0.0,
            peak_kv: 0.0,
            active: 0,
            resident_tokens: 0,
            failed: false,
            scaled_out: false,
            draining: false,
            reserved_reqs: ReqIndex::default(),
            hit_reqs: ReqIndex::default(),
        }
    }

    /// Whether routing may target this replica.
    #[inline]
    pub fn dispatchable(&self) -> bool {
        !self.failed && !self.scaled_out && !self.draining
    }
}

/// An unordered set of request indices with O(1) insertion and removal.
/// Each member's position is kept in a slot of its own [`Lifecycle`]
/// (`reserve_slot`, `hit_slot`), so a removal swaps the last member into
/// the hole and the caller repoints that member's slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReqIndex(Vec<u32>);

impl ReqIndex {
    /// Adds `req`; returns the slot it now occupies.
    fn insert(&mut self, req: usize) -> u32 {
        let slot = self.0.len() as u32;
        self.0.push(req as u32);
        slot
    }

    /// Removes the member at `slot`; returns the member that moved into
    /// `slot`, whose own slot the caller must repoint.
    fn remove(&mut self, slot: u32) -> Option<usize> {
        self.0.swap_remove(slot as usize);
        self.0.get(slot as usize).map(|&r| r as usize)
    }

    /// Empties the set without releasing its capacity.
    fn clear(&mut self) {
        self.0.clear();
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The members in ascending request order: the order a scan over the
    /// whole trace visits them.
    pub fn sorted(&self) -> Vec<usize> {
        let mut members: Vec<usize> = self.0.iter().map(|&r| r as usize).collect();
        members.sort_unstable();
        members
    }
}

/// What the result reads of one request: its placement and the seconds
/// charged to each stage of its JCT breakdown. One entry per request of the
/// trace (80 B), index-aligned with [`Lifecycle`].
#[derive(Clone, Copy, Default)]
pub(crate) struct Charges {
    /// Prefill replica of the request's latest journey.
    pub prefill_replica: u32,
    /// Decode replica of the latest reservation.
    pub decode_replica: u32,
    pub prefill_wait: f64,
    pub prefill_time: f64,
    pub quant_time: f64,
    pub comm_time: f64,
    pub memory_wait: f64,
    pub dequant_time: f64,
    pub decode_time: f64,
    /// Decode time lost to aborted attempts on failed replicas (charged to the
    /// decode stage in the final breakdown).
    pub aborted_decode: f64,
    pub finish_time: f64,
}

/// Where a request stands in the HACK pipeline: prefilled and quantized
/// once, its K′/V′ shipped to a decode replica (possibly pipelined under the
/// prefill, Fig. 1(d)), then decoded there. Each variant carries only what is
/// live in that phase, and the phase changes only through
/// [`ClusterState::advance`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) enum ReqPhase {
    /// Not in service: before its arrival, on its way to the frontend, in a
    /// prefill queue, or parked while the whole prefill fleet is down.
    #[default]
    Queued,
    /// In prefill service on its `prefill_replica`. `Some` while its KV
    /// transfer is pipelined under the prefill.
    Prefilling(Option<Transfer>),
    /// Prefill done; the KV transfer toward `decode_replica` is exposed
    /// communication since `since`.
    Transferring { since: f64, transfer: Transfer },
    /// Spilled to prefill CPU memory and queued in `waiting_for_memory`
    /// since `since`.
    WaitingForMemory { since: f64 },
    /// In `decode_replica`'s continuous batch since `started`; `event` is
    /// its pending `DecodeFinished` (cancelled if the replica fails).
    Decoding { event: EventId, started: f64 },
    /// Decoded to completion.
    Done,
    /// Rejected by admission.
    Rejected,
    /// Permanently aborted: retries and re-admissions exhausted.
    Abandoned,
}

/// A request's KV transfer toward its `decode_replica`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Transfer {
    /// Holds its KV reservation on `decode_replica`. Cleared when that
    /// replica fails under the transfer, which then re-dispatches when it
    /// lands or its retry fires.
    pub reserved: bool,
    pub wire: Wire,
}

/// Where a [`Transfer`]'s bytes are.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Wire {
    /// Landing at (or landed at) this time: a flat-fabric NIC booking, whose
    /// `TransferCompleted` is delivered then, or a pipelined link-graph flow
    /// that landed before its prefill finished.
    LandsAt(f64),
    /// A link-graph flow in flight since `started` (its `FlowCompleted` is
    /// the fabric's).
    Flow { started: f64 },
    /// A link-graph flow that was cut or could not start: `remaining`
    /// Gbps-seconds still to move when its pending `TransferRetry` fires.
    Backoff { remaining: f64 },
}

impl ReqPhase {
    /// The request's KV transfer, pipelined under its prefill or after it.
    pub fn transfer(&self) -> Option<Transfer> {
        match *self {
            ReqPhase::Prefilling(transfer) => transfer,
            ReqPhase::Transferring { transfer, .. } => Some(transfer),
            _ => None,
        }
    }

    /// Whether the phase holds a KV reservation on `decode_replica`.
    pub fn holds_reservation(&self) -> bool {
        matches!(self, ReqPhase::Decoding { .. }) || self.transfer().is_some_and(|t| t.reserved)
    }

    /// Whether the phase is what a decode dispatch leads to: a reserved
    /// transfer, or the memory wait.
    fn dispatched(&self) -> bool {
        match self {
            ReqPhase::WaitingForMemory { .. } => true,
            ReqPhase::Transferring { transfer, .. } => transfer.reserved,
            _ => false,
        }
    }

    /// Whether `self → to` is a phase change of the pipeline.
    fn can_advance(&self, to: &Self) -> bool {
        use ReqPhase::*;
        match (*self, *to) {
            (Queued, Prefilling(_) | Rejected) | (Prefilling(_), Queued) => true,
            (Decoding { .. }, Done) | (Prefilling(Some(_)), Prefilling(_)) => true,
            // After the prefill, the pipelined transfer carries on exposed.
            (Prefilling(Some(from)), _) => {
                to.transfer().is_some_and(|t| t.reserved == from.reserved)
                    || self.redispatches_under_prefill(to)
            }
            // Dispatched after the prefill, after its decode replica failed,
            // or from the memory wait.
            (Prefilling(None) | Decoding { .. }, _) => to.dispatched(),
            (WaitingForMemory { .. }, Transferring { transfer, .. }) => transfer.reserved,
            // The wire moves on or loses its target; the transfer lands,
            // re-dispatches or gives up. (This also covers a request that
            // re-dispatched under its prefill and is still in service.)
            (Transferring { .. }, to) => !matches!(to, Prefilling(_) | Done | Rejected),
            _ => false,
        }
    }

    /// The known violation of the pipeline (ROADMAP item 11(b) deletes it):
    /// a pipelined transfer whose decode target failed during its retry
    /// backoff re-dispatches when the retry fires, although its prefill is
    /// still in service. The new transfer can land, and the request start
    /// decoding, before its own `PrefillFinished`.
    fn redispatches_under_prefill(&self, to: &Self) -> bool {
        matches!(
            self,
            ReqPhase::Prefilling(Some(Transfer {
                reserved: false,
                wire: Wire::Backoff { .. },
            }))
        ) && to.dispatched()
    }
}

/// The in-flight bookkeeping of one request: everything the handlers need
/// until the request is resolved and the result does not read. One entry per
/// request of the trace (at most 80 B), index-aligned with [`Charges`];
/// freed before the result's records are allocated.
#[derive(Clone, Copy, Default)]
pub(crate) struct Lifecycle {
    /// Written only by [`ClusterState::advance`].
    pub phase: ReqPhase,
    /// Bytes of the KV reservation while the phase holds one.
    pub kv_reserve_bytes: f64,
    /// The prefix-cache hit this request was promised at prefill time:
    /// `Some` between the prefill-side lookup and decode completion (or a
    /// downgrade when the prefix replica dies). Always `None` with
    /// [`crate::cache::CacheConfig::Off`].
    pub prefix: Option<PrefixHit>,
    /// Position in `decode_replica`'s `reserved_reqs` while reserved.
    pub reserve_slot: u32,
    /// Position in the hit replica's `hit_reqs` while `prefix` is `Some`.
    pub hit_slot: u32,
    /// Transfer attempts consumed (aborts + failed restarts); feeds the retry
    /// histogram.
    pub transfer_attempts: u32,
    /// Times the request re-entered admission after exhausting retries.
    pub readmissions: u32,
    /// Waited for decode memory at least once.
    pub swapped: bool,
}

impl Lifecycle {
    /// The prompt tokens `request`'s prefill/transfer actually covers: the
    /// full prompt, or only the suffix past the cached prefix on a hit.
    pub fn effective_prompt(&self, request: &Request) -> usize {
        match self.prefix {
            Some(hit) => request.input_len - hit.tokens(),
            None => request.input_len,
        }
    }
}

/// Relative tolerance of the debug-build check that a decode replica's
/// `kv_used` equals its reserved plus cached bytes: the running sum and the
/// recount add the same terms in different orders, so they agree only to
/// rounding. Relative to the larger of the replica's capacity and the
/// recount.
#[cfg(debug_assertions)]
const KV_BYTES_REL_TOL: f64 = 1e-9;

/// Debug-build check of a phase change of `req` (see
/// [`ClusterState::advance`]): `to` must follow `from.phase`, and `to` holds
/// a reservation exactly when `req` is in `reserved` (its decode replica's
/// reservation index) at its `reserve_slot`.
fn check_advance(req: usize, from: &Lifecycle, to: &ReqPhase, reserved: &ReqIndex) {
    let (from, slot, member) = (from.phase, from.reserve_slot as usize, req as u32);
    assert!(
        from.can_advance(to),
        "request {req} cannot advance from {from:?} to {to:?}"
    );
    if to.holds_reservation() {
        let at_slot = reserved.0.get(slot) == Some(&member);
        assert!(
            at_slot,
            "request {req} enters {to:?} without its reservation"
        );
    } else {
        let indexed = reserved.0.contains(&member);
        assert!(
            !indexed,
            "request {req} enters {to:?} still indexed as reserved"
        );
    }
}

/// Per-fault blast-radius bookkeeping, accumulated while the run executes and
/// folded into [`crate::result::FaultRecord`]s afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultTally {
    /// Replicas (prefill + decode) this fault took down, precomputed at
    /// seeding time.
    pub replicas_affected: usize,
    /// Requests whose in-flight work (prefill, transfer, or decode) this
    /// fault aborted.
    pub requests_aborted: usize,
    /// Seconds from the fault's recovery until the memory-wait queue next
    /// drained (0 when it was already empty).
    pub recovery_drain: f64,
}

/// Shared blackboard of the cluster components: the request trace, per-replica
/// and per-request state, admission queues and aggregate counters. The
/// cross-cutting policies (routing, memory admission, transfer serialization)
/// live here as methods so every component sees one consistent picture.
pub(crate) struct ClusterState {
    pub config: SimulationConfig,
    /// Cost model of each decode group (index = group).
    pub decode_models: Vec<ReplicaCostModel>,
    pub costs: SimCosts,
    /// The run's dispatch, admission and scheduling policies (fresh per
    /// run; see [`crate::policy`]).
    pub dispatch: Dispatch,
    pub admission: Admission,
    pub scheduling: Scheduling,
    pub requests: Arc<Vec<Request>>,
    pub prefill: Vec<PrefillReplicaState>,
    pub decode: Vec<DecodeReplicaState>,
    /// Per-request placement and stage charges (index = request).
    pub charges: Vec<Charges>,
    /// Per-request in-flight bookkeeping (index = request); emptied before
    /// the result's records are built.
    pub lifecycle: Vec<Lifecycle>,
    /// Requests waiting for decode memory, FIFO (each in
    /// [`ReqPhase::WaitingForMemory`]).
    pub waiting_for_memory: VecDeque<usize>,
    /// Requests that could not route to any live prefill replica (whole
    /// prefill fleet down); drained on prefill recovery.
    pub waiting_for_prefill: VecDeque<usize>,
    pub fabric: network::NetworkFabric,
    pub completed: usize,
    pub rejected: usize,
    /// Admission rejections per tenant (index = tenant id).
    pub rejected_per_tenant: [usize; crate::policy::MAX_TENANTS],
    pub requeued: usize,
    pub injected_failures: usize,
    /// Total transfer retries scheduled (aborts + failed restarts).
    pub retries: usize,
    /// Requests permanently aborted after exhausting retries and
    /// re-admissions.
    pub gave_up: usize,
    /// One tally per event of the run's fault plan (empty without faults).
    pub fault_tallies: Vec<FaultTally>,
    /// Faults whose recovery is waiting for the memory-wait queue to drain:
    /// `(fault index, recovery time)`.
    pub pending_drain: Vec<(usize, f64)>,
    /// Engine address of the frontend (destination of re-admissions and
    /// transfer retries).
    pub frontend_id: ComponentId,
    /// Decode seconds wasted by failure-aborted attempts, per decode *group*
    /// — the group that actually spent the time, which under re-dispatch can
    /// differ from the group that eventually completes the request (the
    /// per-request `aborted_decode` charge follows the request; this follows
    /// the hardware, for the per-group utilization report).
    pub aborted_decode_by_group: Vec<f64>,
    /// Per-prefill-replica contexts (engine address + emitter of
    /// `PrefillFinished` for each replica).
    pub prefill_ctxs: Vec<SimulationContext>,
    /// Per-decode-replica contexts (engine address + emitter of
    /// `DecodeFinished` for each replica).
    pub decode_ctxs: Vec<SimulationContext>,
    /// Telemetry recording state — `None` when telemetry is off, keeping the
    /// default run path identical to the pre-telemetry simulator.
    pub tel: Option<crate::telemetry::TelemetryState>,
    /// When each decode replica's current billed interval opened (`Some(t)`
    /// while racked — live, draining or failed — `None` while scaled out).
    /// All replicas open at 0.0; without a scaling policy nothing ever
    /// closes, so the static fleet bills the full makespan.
    pub decode_up_since: Vec<Option<f64>>,
    /// Closed billed intervals accrued by each decode replica (seconds).
    pub decode_uptime: Vec<f64>,
    /// Scale-up orders issued by the autoscaling controller.
    pub scale_ups: usize,
    /// Scale-down drains completed by the autoscaling controller.
    pub scale_downs: usize,
    /// Session prefix-cache state — `None` when the cache is off, keeping the
    /// default run path identical to the pre-cache simulator.
    pub cache: Option<SessionCacheState>,
    /// `session_children[req]`: children gated on request `req`'s completion.
    /// Empty (outer `Vec`) when the trace has no session parents, so
    /// non-session runs pay one `is_empty` check per terminal request.
    pub session_children: Vec<Vec<usize>>,
}

impl ClusterState {
    /// Moves `req` to phase `to` at `now`: the only write of a request's
    /// phase. Test and debug builds reject a change the pipeline does not
    /// make and check the reservation from the request's side (see
    /// [`check_advance`]); [`Self::reserve`] and [`Self::release`] update
    /// the index before the caller advances.
    pub fn advance(&mut self, req: usize, to: ReqPhase, now: f64) {
        let from = self.lifecycle[req].phase;
        if cfg!(debug_assertions) {
            let reserved = &self.decode[self.charges[req].decode_replica as usize].reserved_reqs;
            check_advance(req, &self.lifecycle[req], &to, reserved);
        }
        self.observe_phase(req, from, to, now);
        self.lifecycle[req].phase = to;
    }

    /// Advances `req`, whose phase has a transfer, to the same phase with
    /// `change` applied to the transfer.
    pub fn advance_transfer(&mut self, req: usize, now: f64, change: impl FnOnce(&mut Transfer)) {
        let mut to = self.lifecycle[req].phase;
        match &mut to {
            ReqPhase::Prefilling(Some(t)) | ReqPhase::Transferring { transfer: t, .. } => change(t),
            phase => unreachable!("request {req} has no transfer in {phase:?}"),
        }
        self.advance(req, to, now);
    }

    /// Re-admits `req` after an aborted journey, as a fresh arrival. Its
    /// next prefill start recomputes the queueing wait from the original
    /// arrival, so everything spent on the failed journey collapses into
    /// queueing time and the breakdown keeps summing to the JCT. Placement,
    /// the finish time, counters and index slots survive.
    fn readmit(&mut self, req: usize, now: f64) {
        let c = &mut self.charges[req];
        *c = Charges {
            prefill_replica: c.prefill_replica,
            decode_replica: c.decode_replica,
            finish_time: c.finish_time,
            ..Charges::default()
        };
        self.advance(req, ReqPhase::Queued, now);
        self.requeued += 1;
        self.fabric
            .deliver(RequestArrived { req }, self.frontend_id, now);
    }

    /// The KV bytes of `tokens` tokens under the run's method. They depend
    /// only on the model architecture (identical across decode groups), so
    /// any group's model computes the same value.
    pub fn kv_bytes(&self, tokens: usize) -> f64 {
        self.decode_models[0].kv_fp16_bytes(tokens) * self.config.profile.kv_size_factor
    }

    /// The KV bytes `req`'s decode reservation must cover: the full
    /// sequence, minus the shared prefix already resident on the target
    /// replica when the request holds a prefix-cache hit.
    pub fn request_kv_bytes(&self, req: usize) -> f64 {
        let full = self.kv_bytes(self.requests[req].total_tokens());
        match self.lifecycle[req].prefix {
            Some(hit) => (full - hit.bytes).max(0.0),
            None => full,
        }
    }

    /// Hands `req` to the transfer/decode pipeline: reserve decode memory and
    /// serialize the KV transfer onto the prefill NIC, or spill to prefill CPU
    /// memory and join the FIFO memory-wait queue (§4). A prefix-cache hit
    /// forces the target onto the replica holding the prefix.
    pub fn try_dispatch_to_decode(&mut self, req: usize, now: f64) {
        self.downgrade_dead_hit(req);
        let bytes = self.request_kv_bytes(req);
        if let Some(target) = self.dispatch_target(req, bytes) {
            self.reserve_and_transfer(req, target, bytes, now);
        } else {
            // The result counts each *request* that ever waited for memory
            // once, even if a replica failure sends it here a second time.
            self.lifecycle[req].swapped = true;
            self.waiting_for_memory.push_back(req);
            self.advance(req, ReqPhase::WaitingForMemory { since: now }, now);
        }
    }

    /// Reserves `bytes` of KV memory for `req` on decode replica `target` and
    /// starts its transfer over the prefill replica's NIC: `req` advances to
    /// [`ReqPhase::Transferring`]. `bytes` is the caller's
    /// `kv_reserve_bytes` for the request, computed once per dispatch
    /// attempt.
    pub fn reserve_and_transfer(&mut self, req: usize, target: usize, bytes: f64, now: f64) {
        // Cache occupancy yields to decode memory demand: a reservation that
        // does not fit under the raw budget first reclaims unpinned cached
        // prefixes on the target (no-op branch when the cache is off).
        if self.cache.is_some() {
            let overflow = self.decode[target].kv_used + bytes - self.decode[target].kv_capacity;
            if overflow > 0.0 {
                self.reclaim_cache(target, overflow);
            }
        }
        self.reserve(req, target, bytes);
        let wire = self.start_wire(req, target, now);
        if let Wire::LandsAt(end) = wire {
            // Communication time as experienced by the request: waiting for
            // the NIC plus the wire time.
            self.charges[req].comm_time += end - now;
            let dst = self.decode_ctxs[target].id();
            self.fabric.deliver(TransferCompleted { req }, dst, end);
        }
        let (since, reserved) = (now, true);
        let transfer = Transfer { reserved, wire };
        self.advance(req, ReqPhase::Transferring { since, transfer }, now);
        if let Wire::Backoff { .. } = wire {
            self.schedule_retry(req, now);
        }
    }

    /// Puts `req`'s KV on the wire from its prefill replica toward decode
    /// replica `target`, whose reservation it holds: a flat-fabric NIC
    /// booking, or a fair-shared link-graph flow — in backoff when the path
    /// is dead, for the caller to schedule its retry.
    pub fn start_wire(&mut self, req: usize, target: usize, now: f64) -> Wire {
        let replica = self.charges[req].prefill_replica as usize;
        let groups = (self.prefill[replica].group, self.decode[target].group);
        if !self.fabric.graph_enabled() {
            let prompt = self.lifecycle[req].effective_prompt(&self.requests[req]);
            let duration = self.costs.transfer_duration_len(groups.0, groups.1, prompt);
            return Wire::LandsAt(self.fabric.reserve_nic(replica, now, duration));
        }
        debug_assert!(
            !self.fabric.has_flow(req),
            "request {req} already has an active flow"
        );
        let volume = self.transfer_volume(groups.0, groups.1, req);
        let dst = self.decode_ctxs[target].id();
        if !self
            .fabric
            .start_flow(req, replica, target, dst, volume, now)
        {
            return Wire::Backoff { remaining: volume };
        }
        Wire::Flow { started: now }
    }

    /// Reserves `bytes` of KV memory for `req` on decode replica `target`
    /// and enters `req` into the replica's reservation index; the caller
    /// then advances `req` to a phase holding the reservation.
    pub fn reserve(&mut self, req: usize, target: usize, bytes: f64) {
        let d = &mut self.decode[target];
        d.kv_used += bytes;
        d.peak_kv = d.peak_kv.max(d.kv_used);
        let s = &mut self.lifecycle[req];
        self.charges[req].decode_replica =
            u32::try_from(target).expect("replica index fits in u32");
        s.kv_reserve_bytes = bytes;
        s.reserve_slot = d.reserved_reqs.insert(req);
        #[cfg(debug_assertions)]
        self.check_reservations(target);
    }

    /// Returns `req`'s KV reservation to its decode replica and removes it
    /// from the replica's reservation index; returns that replica. The
    /// caller then advances `req` to a phase without a reservation.
    pub fn release(&mut self, req: usize) -> usize {
        let target = self.charges[req].decode_replica as usize;
        let s = self.lifecycle[req];
        let d = &mut self.decode[target];
        debug_assert_eq!(
            d.reserved_reqs.0.get(s.reserve_slot as usize),
            Some(&(req as u32)),
            "request {req} holds no reservation"
        );
        d.kv_used -= s.kv_reserve_bytes;
        if let Some(moved) = d.reserved_reqs.remove(s.reserve_slot) {
            self.lifecycle[moved].reserve_slot = s.reserve_slot;
        }
        #[cfg(debug_assertions)]
        self.check_reservations(target);
        target
    }

    /// Debug-build check of decode replica `d`'s reservation index after a
    /// reserve or release: each member's reservation is on `d` and it sits
    /// at its recorded slot, and `kv_used` equals the members' reserved
    /// bytes plus the replica's resident prefix bytes within
    /// [`KV_BYTES_REL_TOL`]. Whether each member's phase holds the
    /// reservation is the request side's check, in [`Self::advance`].
    #[cfg(debug_assertions)]
    fn check_reservations(&self, d: usize) {
        let replica = &self.decode[d];
        let mut reserved_bytes = 0.0;
        for (slot, &r) in replica.reserved_reqs.0.iter().enumerate() {
            let s = &self.lifecycle[r as usize];
            assert_eq!(
                self.charges[r as usize].decode_replica as usize, d,
                "request {r} is indexed on replica {d} but reserved elsewhere"
            );
            assert_eq!(s.reserve_slot as usize, slot, "request {r} on replica {d}");
            reserved_bytes += s.kv_reserve_bytes;
        }
        let cached = self
            .cache
            .as_ref()
            .map_or(0.0, |cache| cache.caches[d].used_bytes());
        let expected = reserved_bytes + cached;
        assert!(
            (replica.kv_used - expected).abs()
                <= KV_BYTES_REL_TOL * expected.max(replica.kv_capacity),
            "replica {d}: kv_used {} but reservations hold {reserved_bytes} and the cache {cached}",
            replica.kv_used
        );
    }

    /// The volume of `req`'s KV transfer in Gbps-seconds: the wire time is
    /// linear in inverse bandwidth, so the evaluated min-NIC duration times
    /// that bandwidth is the bandwidth-independent volume a fair-shared flow
    /// must move.
    pub fn transfer_volume(&self, prefill_group: usize, decode_group: usize, req: usize) -> f64 {
        let prompt = self.lifecycle[req].effective_prompt(&self.requests[req]);
        self.costs
            .transfer_duration_len(prefill_group, decode_group, prompt)
            * self.costs.fleet.wire_gbps(prefill_group, decode_group)
    }

    /// Schedules the next retry of `req`'s transfer, whose wire is in
    /// backoff, after a deterministic seeded backoff, or — once the policy's
    /// transfer attempts are spent — gives the transfer up.
    pub fn schedule_retry(&mut self, req: usize, now: f64) {
        let policy = self.config.policy.retry;
        if self.lifecycle[req].transfer_attempts >= policy.max_transfer_attempts {
            self.give_up_transfer(req, now);
            return;
        }
        self.lifecycle[req].transfer_attempts += 1;
        self.retries += 1;
        let attempt = self.lifecycle[req].transfer_attempts;
        let delay = retry_backoff(&policy, self.config.trace.seed, req, attempt);
        self.fabric
            .deliver(TransferRetry { req }, self.frontend_id, now + delay);
        if let Some(tel) = &mut self.tel {
            tel.transfer_retry_scheduled(self.charges[req].prefill_replica as usize, req, now);
        }
    }

    /// Exhausted transfer retries: drop the KV reservation and the
    /// transfer. A pipelined transfer leaves its request in prefill, which
    /// dispatches it afresh at `PrefillFinished`; otherwise the request
    /// re-enters admission, or permanently aborts once the policy's
    /// re-admissions are spent.
    fn give_up_transfer(&mut self, req: usize, now: f64) {
        let phase = self.lifecycle[req].phase;
        if phase.holds_reservation() {
            // The reservation is only still held when the target is alive (a
            // replica failure zeroes its accounting and clears it).
            let target = self.release(req);
            if self.decode[target].draining {
                self.maybe_finish_drain(target, now);
            }
        }
        if let ReqPhase::Prefilling(_) = phase {
            self.advance(req, ReqPhase::Prefilling(None), now);
            return;
        }
        // The next journey re-resolves the prefix from scratch (and must not
        // leak this journey's pin).
        self.release_hit(req);
        self.lifecycle[req].readmissions += 1;
        if self.lifecycle[req].readmissions > self.config.policy.retry.max_readmissions {
            self.advance(req, ReqPhase::Abandoned, now);
            self.gave_up += 1;
            // Permanent abort is terminal: gated children would strand
            // otherwise.
            self.release_children(req, now);
            return;
        }
        self.readmit(req, now);
    }

    /// Freed memory (or a recovered replica): admit waiting requests in FIFO
    /// order while they fit somewhere (a head holding a prefix-cache hit
    /// waits specifically for the replica holding its prefix).
    pub fn drain_waiting(&mut self, now: f64) {
        while let Some(&head) = self.waiting_for_memory.front() {
            self.downgrade_dead_hit(head);
            let bytes = self.request_kv_bytes(head);
            if let Some(target) = self.dispatch_target(head, bytes) {
                self.waiting_for_memory.pop_front();
                let ReqPhase::WaitingForMemory { since } = self.lifecycle[head].phase else {
                    unreachable!("request {head} queued for memory outside its wait");
                };
                self.charges[head].memory_wait += now - since;
                self.reserve_and_transfer(head, target, bytes, now);
            } else {
                break;
            }
        }
        // Recovery-drain accounting: a recovered fault waits here until the
        // memory-wait queue next empties (no-op — one empty-vec check — in
        // fault-free runs).
        if !self.pending_drain.is_empty() && self.waiting_for_memory.is_empty() {
            for (fault, recovered_at) in std::mem::take(&mut self.pending_drain) {
                let drain = now - recovered_at;
                let tally = &mut self.fault_tallies[fault];
                tally.recovery_drain = tally.recovery_drain.max(drain);
            }
        }
    }

    /// Picks the live decode replica with the fewest resident tokens among those
    /// that can fit `bytes` of new KV data, de-prioritizing replicas behind a
    /// degraded ToR uplink or NIC (the sort key is `(degraded, tokens)`, which
    /// collapses to the plain token order when no link is degraded — the
    /// bit-identical default). A request too large to ever fit an *empty*
    /// replica is force-admitted to the emptiest idle one (modelling partial
    /// host offload) so the simulation always terminates. Failed replicas
    /// never qualify.
    pub fn best_decode_replica(&self, bytes: f64) -> Option<usize> {
        let fit = self
            .decode
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                d.dispatchable() && d.kv_used + bytes <= d.kv_capacity + self.cache_evictable(*i)
            })
            .min_by_key(|(i, d)| (self.fabric.decode_path_degraded(*i), d.resident_tokens))
            .map(|(i, _)| i);
        if fit.is_some() {
            return fit;
        }
        if self
            .decode
            .iter()
            .filter(|d| d.dispatchable())
            .all(|d| bytes > d.kv_capacity)
        {
            // Oversized even for an empty replica: admit to the one with the
            // most free space once it is idle.
            return self
                .decode
                .iter()
                .enumerate()
                .filter(|(_, d)| d.dispatchable() && d.active == 0)
                .min_by_key(|(_, d)| d.resident_tokens)
                .map(|(i, _)| i);
        }
        None
    }

    // --- Session prefix cache (every entry point below is a no-op or a
    // --- single `Option`/`is_empty` check when the cache is off / the trace
    // --- has no sessions, keeping the default path bit-identical). ---

    /// Bytes reclaimable from replica `d`'s prefix cache (0 when off).
    fn cache_evictable(&self, d: usize) -> f64 {
        match &self.cache {
            Some(cache) => cache.caches[d].evictable_bytes(),
            None => 0.0,
        }
    }

    /// The decode replica `req` must land on: the replica holding its prefix
    /// on a hit (waiting for it rather than paying a full transfer
    /// elsewhere), otherwise [`Self::best_decode_replica`].
    fn dispatch_target(&self, req: usize, bytes: f64) -> Option<usize> {
        match self.lifecycle[req].prefix {
            Some(hit) => {
                let d = &self.decode[hit.replica()];
                (d.kv_used + bytes <= d.kv_capacity + self.cache_evictable(hit.replica()))
                    .then_some(hit.replica())
            }
            None => self.best_decode_replica(bytes),
        }
    }

    /// Releases `req`'s prefix-cache pin (if any) and forgets the hit — the
    /// request will pay full price on its next dispatch/journey.
    pub fn release_hit(&mut self, req: usize) {
        if let Some(hit) = self.lifecycle[req].prefix.take() {
            let slot = self.lifecycle[req].hit_slot;
            if let Some(moved) = self.decode[hit.replica()].hit_reqs.remove(slot) {
                self.lifecycle[moved].hit_slot = slot;
            }
            if let Some(cache) = &mut self.cache {
                cache.caches[hit.replica()].unpin(self.requests[req].session);
            }
        }
    }

    /// Downgrades `req`'s hit to the miss path when the replica holding its
    /// prefix has meanwhile failed or drained away. The prefill savings are
    /// already banked — a deliberate modeling artifact of this failure race
    /// — but the reservation and transfer revert to full price.
    fn downgrade_dead_hit(&mut self, req: usize) {
        if let Some(hit) = self.lifecycle[req].prefix {
            if !self.decode[hit.replica()].dispatchable() {
                self.release_hit(req);
            }
        }
    }

    /// Evicts unpinned prefixes on `d` until `need` bytes are freed (or
    /// nothing evictable remains), mirroring the bytes into `kv_used`.
    fn reclaim_cache(&mut self, d: usize, need: f64) {
        let Some(cache) = &mut self.cache else { return };
        let (freed, evicted) = cache.caches[d].evict_until(need);
        if evicted.is_empty() {
            return;
        }
        for session in &evicted {
            cache.resident.remove(session);
        }
        cache.evictions += evicted.len();
        self.decode[d].kv_used = (self.decode[d].kv_used - freed).max(0.0);
        if let Some(tel) = &mut self.tel {
            tel.prefix_evicted(evicted.len());
        }
    }

    /// Drops every cached prefix on replica `d` (failure or scale-down power
    /// off) and forgets its residency; returns the bytes that were resident
    /// (the caller decides whether `kv_used` still needs the subtraction —
    /// a failure zeroes the replica's accounting wholesale).
    pub fn invalidate_replica_cache(&mut self, d: usize) -> f64 {
        let Some(cache) = &mut self.cache else {
            return 0.0;
        };
        let before = cache.evictions;
        let freed = cache.invalidate_replica(d);
        let dropped = cache.evictions - before;
        if dropped > 0 {
            if let Some(tel) = &mut self.tel {
                tel.prefix_evicted(dropped);
            }
        }
        freed
    }

    /// Prefill-side prefix lookup for `req` on prefill group `group`:
    /// returns the prompt length prefill must actually compute — the suffix
    /// past the cached prefix on a hit (recording the hit on the request and
    /// pinning the prefix until decode completes), the full prompt
    /// otherwise. Misses are counted only for genuine session follow-ups.
    pub fn resolve_prefix(&mut self, req: usize, group: usize, now: f64) -> usize {
        let request = self.requests[req];
        let full = request.input_len;
        if self.cache.is_none() || request.parent.is_none() || request.shared_prefix_tokens == 0 {
            return full;
        }
        let found = {
            let cache = self.cache.as_mut().expect("checked above");
            match cache.resident.get(&request.session).copied() {
                Some(replica) => match cache.caches[replica].lookup(request.session) {
                    Some((tokens, _)) => Some((replica, tokens)),
                    None => {
                        cache.resident.remove(&request.session);
                        None
                    }
                },
                None => None,
            }
        };
        let hit = found.and_then(|(replica, tokens)| {
            if !self.decode[replica].dispatchable() {
                return None;
            }
            // Keep at least one suffix token: a prefill must still run to
            // produce the turn's first output token.
            let saved = tokens
                .min(request.shared_prefix_tokens)
                .min(full.saturating_sub(1));
            (saved > 0).then_some((replica, saved))
        });
        let Some((replica, saved)) = hit else {
            let cache = self.cache.as_mut().expect("checked above");
            cache.misses += 1;
            if let Some(tel) = &mut self.tel {
                tel.prefix_miss(req, now);
            }
            return full;
        };
        let suffix = full - saved;
        let (full_prefill, full_quant) = self.costs.prefill_service_times(group, full);
        let (suffix_prefill, suffix_quant) = self.costs.prefill_service_times(group, suffix);
        let bytes = self.kv_bytes(saved);
        debug_assert!(
            self.lifecycle[req].prefix.is_none(),
            "request {req} already holds a prefix hit"
        );
        let cache = self.cache.as_mut().expect("checked above");
        cache.caches[replica].pin(request.session);
        cache.hits += 1;
        cache.prefill_secs_saved += (full_prefill + full_quant) - (suffix_prefill + suffix_quant);
        cache.bytes_saved += bytes;
        self.lifecycle[req].prefix = Some(PrefixHit::new(replica, saved, bytes));
        self.lifecycle[req].hit_slot = self.decode[replica].hit_reqs.insert(req);
        if let Some(tel) = &mut self.tel {
            tel.prefix_hit(replica, req, now);
        }
        suffix
    }

    /// Decode-completion bookkeeping of a session request on replica `d`:
    /// release the hit's pin, then insert (or grow) the session's prefix on
    /// `d` — the replica now holding the request's full context — updating
    /// residency and mirroring the byte deltas into `kv_used`.
    pub fn cache_on_decode_finished(&mut self, req: usize, d: usize) {
        let request = self.requests[req];
        if request.session == 0 || self.cache.is_none() {
            return;
        }
        self.release_hit(req);
        let bytes = self.kv_bytes(request.total_tokens());
        let cache = self.cache.as_mut().expect("checked above");
        let mut dropped = 0usize;
        if let Some(prev) = cache.resident.get(&request.session).copied() {
            if prev != d {
                if cache.caches[prev].is_pinned(request.session) {
                    // A sibling in flight was promised the old copy; it stays
                    // authoritative and this newer context is not cached.
                    return;
                }
                if let Some(freed) = cache.caches[prev].remove(request.session) {
                    self.decode[prev].kv_used = (self.decode[prev].kv_used - freed).max(0.0);
                    cache.evictions += 1;
                    dropped += 1;
                }
                cache.resident.remove(&request.session);
            }
        }
        let report = cache.caches[d].insert(request.session, request.total_tokens(), bytes);
        for session in &report.evicted {
            cache.resident.remove(session);
        }
        cache.evictions += report.evicted.len();
        dropped += report.evicted.len();
        if report.accepted {
            cache.resident.insert(request.session, d);
        } else {
            cache.resident.remove(&request.session);
        }
        self.decode[d].kv_used += report.bytes_delta;
        self.decode[d].peak_kv = self.decode[d].peak_kv.max(self.decode[d].kv_used);
        if dropped > 0 {
            if let Some(tel) = &mut self.tel {
                tel.prefix_evicted(dropped);
            }
        }
    }

    /// Releases the children gated on `req`'s terminal state: each arrives at
    /// the frontend at `max(its nominal arrival, now)` — think time already
    /// baked into the nominal arrival, causality enforced here.
    pub fn release_children(&mut self, req: usize, now: f64) {
        if self.session_children.is_empty() {
            return;
        }
        for child in std::mem::take(&mut self.session_children[req]) {
            let at = self.requests[child].arrival.max(now);
            self.fabric
                .deliver(RequestArrived { req: child }, self.frontend_id, at);
        }
    }

    // --- Autoscaling bookkeeping (no-ops in runs without a scaling policy:
    // --- `draining`/`scaled_out` stay false and nothing below ever fires). ---

    /// Completes decode replica `d`'s scale-down drain if it is draining and
    /// idle: close its billed interval, power it down, and record the drain.
    pub fn maybe_finish_drain(&mut self, d: usize, now: f64) {
        let state = &mut self.decode[d];
        if !state.draining || state.active != 0 || state.reserved_reqs.len() != 0 {
            return;
        }
        state.draining = false;
        state.scaled_out = true;
        if let Some(opened) = self.decode_up_since[d].take() {
            self.decode_uptime[d] += now - opened;
        }
        self.scale_downs += 1;
        if let Some(tel) = &mut self.tel {
            tel.replica_drained(d, now);
        }
        // A powered-off replica keeps no cached prefixes.
        let freed = self.invalidate_replica_cache(d);
        if freed > 0.0 {
            self.decode[d].kv_used = (self.decode[d].kv_used - freed).max(0.0);
        }
    }

    /// A provisioned decode replica joins the dispatchable fleet: open its
    /// billed interval, make it routable, and admit waiting work.
    pub fn replica_join(&mut self, d: usize, now: f64) {
        debug_assert!(self.decode[d].scaled_out, "only scaled-out replicas join");
        self.decode[d].scaled_out = false;
        self.decode_up_since[d] = Some(now);
        if let Some(tel) = &mut self.tel {
            tel.replica_joined(d, now);
        }
        self.drain_waiting(now);
    }
}

/// Test-build log of phase changes: every [`ClusterState::advance`] on this
/// thread between [`phase_log::start`] and [`phase_log::take`] appends
/// `(request, to, now)`.
#[cfg(test)]
pub(crate) mod phase_log {
    use super::ReqPhase;
    use std::cell::RefCell;

    thread_local! {
        static LOG: RefCell<Option<Vec<(usize, ReqPhase, f64)>>> = const { RefCell::new(None) };
    }

    /// Starts (or restarts) recording on this thread.
    pub(crate) fn start() {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
    }

    pub(crate) fn record(req: usize, to: ReqPhase, now: f64) {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push((req, to, now));
            }
        });
    }

    /// Stops recording and returns what was recorded.
    pub(crate) fn take() -> Vec<(usize, ReqPhase, f64)> {
        LOG.with(|log| log.borrow_mut().take().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_tables_fit_in_80_and_80_bytes() {
        // One entry of each table per request of the trace. On the
        // 300k-request run, 80 B + 80 B = 160 B per request is 48.0 MB
        // (45.8 MiB); the 80 B lifecycle entries (24.0 MB) are freed before
        // the 144 B records (43.2 MB) are allocated.
        let charges = std::mem::size_of::<Charges>();
        let lifecycle = std::mem::size_of::<Lifecycle>();
        assert!(charges <= 80, "Charges is {charges} B");
        assert!(lifecycle <= 80, "Lifecycle is {lifecycle} B");
        assert!(std::mem::size_of::<ReqPhase>() <= 32);
    }

    #[test]
    fn each_phase_keeps_its_own_data() {
        let cut = Transfer {
            reserved: true,
            wire: Wire::Backoff { remaining: 2.5 },
        };
        let lost = Transfer {
            reserved: false,
            ..cut
        };
        let transferring = |transfer| ReqPhase::Transferring {
            since: 1.5,
            transfer,
        };
        let decoding = ReqPhase::Decoding {
            event: u64::MAX,
            started: 0.5,
        };
        assert_eq!(transferring(cut).transfer(), Some(cut));
        assert_eq!(ReqPhase::Prefilling(Some(lost)).transfer(), Some(lost));
        let held = [ReqPhase::Prefilling(Some(cut)), transferring(cut), decoding];
        let free = [
            ReqPhase::Queued,
            ReqPhase::Prefilling(None),
            ReqPhase::Prefilling(Some(lost)),
            transferring(lost),
            ReqPhase::WaitingForMemory { since: 1.0 },
            ReqPhase::Done,
            ReqPhase::Rejected,
            ReqPhase::Abandoned,
        ];
        assert!(held.iter().all(ReqPhase::holds_reservation));
        assert!(!free.iter().any(ReqPhase::holds_reservation));
        // Only the two transfer phases carry one.
        assert_eq!(free.iter().filter(|p| p.transfer().is_some()).count(), 2);
        assert_eq!(decoding.transfer(), None);
        assert_eq!(Lifecycle::default().phase, ReqPhase::Queued);
        let hit = PrefixHit::new(3, 7, 1.5);
        assert_eq!((hit.replica(), hit.tokens(), hit.bytes), (3, 7, 1.5));
    }

    #[test]
    fn the_redispatch_under_prefill_is_the_one_named_violation() {
        let pipelined = ReqPhase::Prefilling(Some(Transfer {
            reserved: false,
            wire: Wire::Backoff { remaining: 1.0 },
        }));
        let redispatched = ReqPhase::Transferring {
            since: 2.0,
            transfer: Transfer {
                reserved: true,
                wire: Wire::Flow { started: 1.0 },
            },
        };
        assert!(pipelined.redispatches_under_prefill(&redispatched));
        let waiting = ReqPhase::WaitingForMemory { since: 2.0 };
        assert!(pipelined.redispatches_under_prefill(&waiting));
        assert!(pipelined.can_advance(&redispatched));
        // The same dispatch after the prefill is the normal path.
        assert!(!ReqPhase::Prefilling(None).redispatches_under_prefill(&redispatched));
        assert!(ReqPhase::Prefilling(None).can_advance(&redispatched));
        // A pipelined transfer that keeps its reservation carries on.
        let kept = ReqPhase::Prefilling(redispatched.transfer());
        assert!(!kept.redispatches_under_prefill(&redispatched));
        assert!(!kept.can_advance(&waiting));
    }

    /// A replica index holding `members`, each at the slot of its position.
    fn index_of(members: &[usize]) -> ReqIndex {
        let mut index = ReqIndex::default();
        for &req in members {
            index.insert(req);
        }
        index
    }

    #[test]
    #[should_panic(expected = "cannot advance from Done")]
    fn advance_rejects_leaving_a_terminal_phase() {
        let done = Lifecycle {
            phase: ReqPhase::Done,
            ..Lifecycle::default()
        };
        check_advance(4, &done, &ReqPhase::Queued, &index_of(&[]));
    }

    #[test]
    #[should_panic(expected = "without its reservation")]
    fn advance_rejects_a_decode_admission_without_a_reservation() {
        let landing = Lifecycle {
            phase: ReqPhase::Transferring {
                since: 1.0,
                transfer: Transfer {
                    reserved: false,
                    wire: Wire::Flow { started: 1.0 },
                },
            },
            ..Lifecycle::default()
        };
        let decoding = ReqPhase::Decoding {
            event: 9,
            started: 2.0,
        };
        check_advance(4, &landing, &decoding, &index_of(&[1, 2]));
    }

    #[test]
    fn advance_checks_the_reservation_from_the_request_side() {
        let mut queued = Lifecycle::default();
        let transfer = Transfer {
            reserved: true,
            wire: Wire::Flow { started: 1.0 },
        };
        let prefilling = ReqPhase::Prefilling(Some(transfer));
        // Reserved at slot 1: the pipelined phase may hold it.
        queued.reserve_slot = 1;
        check_advance(4, &queued, &prefilling, &index_of(&[2, 4]));
        let held = std::panic::catch_unwind(|| {
            check_advance(4, &queued, &ReqPhase::Prefilling(None), &index_of(&[2, 4]))
        });
        assert!(held.is_err(), "a phase without a reservation left indexed");
        let moved =
            std::panic::catch_unwind(|| check_advance(4, &queued, &prefilling, &index_of(&[4, 2])));
        assert!(moved.is_err(), "a reservation at another slot");
    }

    #[test]
    fn req_index_swap_removal_repoints_the_moved_member() {
        let mut index = ReqIndex::default();
        let mut slot = [0u32; 8];
        for req in [5, 2, 7, 1] {
            slot[req] = index.insert(req);
        }
        for req in [2, 1] {
            if let Some(moved) = index.remove(slot[req]) {
                slot[moved] = slot[req];
            }
        }
        assert_eq!(index.sorted(), vec![5, 7]);
        for req in [5, 7] {
            assert_eq!(index.0[slot[req] as usize] as usize, req);
        }
        index.clear();
        assert_eq!(index.len(), 0);
    }
}
