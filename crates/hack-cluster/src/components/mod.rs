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
use hack_model::cost::{KvMethodProfile, ReplicaCostModel};
use hack_model::cost_table::{DecodeCostTable, PrefillCostTable};
use hack_sim::{ComponentId, EventId, SimulationContext};
use hack_workload::trace::Request;
use std::collections::VecDeque;
use std::sync::Arc;

/// The memoized cost layer of a [`crate::sim::Simulator`], built on its first
/// run and shared by every later one: one decode prefix-sum table per decode
/// group and one prompt-length memo per (prefill group × decode group) pair,
/// so every per-request cost the handlers ask for is O(1). Prompt lengths
/// outside the trace (prefix-cache suffixes) fall through to the
/// [`ReplicaCostModel`] formulas, which remain the test oracle of every
/// lookup (`cost_layer_*` in the simulator's tests).
#[derive(Clone)]
pub(crate) struct SimCosts {
    pub profile: KvMethodProfile,
    pub fleet: FleetSpec,
    /// Cost model of each prefill group (index = group).
    pub prefill_models: Vec<ReplicaCostModel>,
    /// `decode[dg]`: the decode cost table of decode group `dg`.
    pub decode: Vec<Arc<DecodeCostTable>>,
    /// `prefill[pg][dg]`: prefill/quantization times under prefill group
    /// `pg`'s model and the wire time over `min(pg, dg)` NIC bandwidth. The
    /// prefill/quantization entries are identical across `dg` (they do not
    /// depend on the network), so group-only lookups read `prefill[pg][0]`.
    pub prefill: Vec<Vec<Arc<PrefillCostTable>>>,
}

impl SimCosts {
    /// Total (decode, dequant/approx) time of `request`'s decode iterations on
    /// a replica of decode group `group`: two prefix subtractions in the
    /// group's decode cost table.
    pub fn decode_durations(&self, group: usize, request: &Request) -> (f64, f64) {
        self.decode[group].decode_durations(request.input_len, request.output_len)
    }

    /// Prefill and quantization service times of a prompt on prefill group
    /// `group`, memoized by prompt length (lengths repeat heavily across a
    /// trace).
    pub fn prefill_service_times(&self, group: usize, prompt: usize) -> (f64, f64) {
        if let Some(costs) = self.prefill[group][0].get(prompt) {
            return (costs.prefill, costs.quantization);
        }
        let model = &self.prefill_models[group];
        (
            model.prefill_time(prompt, &self.profile),
            model.quantization_time(prompt, &self.profile),
        )
    }

    /// Uncontended wire time of a `prompt`-token KV transfer from prefill
    /// group `prefill_group` to decode group `decode_group`, bottlenecked by
    /// the slower of the two groups' NICs and memoized by prompt length (the
    /// NIC serialization on top of it is per-request state in the fabric).
    pub fn transfer_duration_len(
        &self,
        prefill_group: usize,
        decode_group: usize,
        prompt: usize,
    ) -> f64 {
        if let Some(costs) = self.prefill[prefill_group][decode_group].get(prompt) {
            return costs.transfer;
        }
        let gbps = self.fleet.wire_gbps(prefill_group, decode_group);
        self.prefill_models[prefill_group].transfer_time(prompt, &self.profile, gbps)
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
    pub busy: bool,
    /// Whether the replica is currently failed (fault injection).
    pub failed: bool,
    /// The request currently in prefill service (cancellable on failure).
    pub current: Option<usize>,
}

impl PrefillReplicaState {
    pub fn new(group: usize, queue: PrefillQueue) -> Self {
        Self {
            group,
            queue,
            queued_tokens: 0,
            busy: false,
            failed: false,
            current: None,
        }
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
    /// Outstanding KV reservations (decoding or in transfer toward this
    /// replica). `active == 0 && reservations == 0` is the idle test the
    /// scale-down drain waits on — a counter, not `kv_used == 0.0`, because
    /// float accumulation need not return to exactly zero.
    pub reservations: usize,
    /// Scaled out by the autoscaler: powered down, invisible to routing, not
    /// billed. Only the controller flips this (fault injection uses `failed`).
    pub scaled_out: bool,
    /// Draining toward scale-down: finishes its in-flight work but admits
    /// nothing new; flips to `scaled_out` once idle.
    pub draining: bool,
}

impl DecodeReplicaState {
    /// Whether routing may target this replica.
    #[inline]
    pub fn dispatchable(&self) -> bool {
        !self.failed && !self.scaled_out && !self.draining
    }
}

/// Per-request bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReqState {
    pub prefill_replica: usize,
    pub decode_replica: usize,
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
    /// Pipelined transfer completion time (if a transfer was started during prefill).
    pub pipelined_transfer_end: Option<f64>,
    /// When the request started waiting for decode memory.
    pub memory_wait_start: Option<f64>,
    pub kv_reserve_bytes: f64,
    /// Whether the KV reservation on `decode_replica` is currently held.
    pub reserved: bool,
    /// Pending `DecodeFinished` event (cancellable on replica failure) and the
    /// time decoding started.
    pub pending_decode: Option<(EventId, f64)>,
    /// Pending `PrefillFinished` event (cancellable on prefill-replica
    /// failure).
    pub pending_prefill: Option<EventId>,
    /// When communication charging started for the current transfer flow
    /// (link-graph fabric; `None` while the flow hides under prefill).
    pub transfer_start: Option<f64>,
    /// Partial progress of an aborted flow: the volume (Gbps-seconds) still
    /// to move when it retries toward the *same* reservation. Dropped when
    /// the request re-targets.
    pub transfer_remaining: Option<f64>,
    /// Transfer attempts consumed (aborts + failed restarts); feeds the retry
    /// histogram.
    pub transfer_attempts: u32,
    /// Times the request re-entered admission after exhausting retries.
    pub readmissions: u32,
    pub finish_time: f64,
    pub done: bool,
    pub swapped: bool,
    /// Rejected by admission (terminal).
    pub rejected: bool,
    /// Permanently aborted: retries and re-admissions exhausted, or stranded
    /// by a permanent fault (terminal).
    pub abandoned: bool,
    /// How many times the request was re-queued by a replica failure.
    pub requeues: usize,
    /// The prefix-cache hit this request was promised at prefill time:
    /// `Some` between the prefill-side lookup and decode completion (or a
    /// downgrade when the prefix replica dies). Always `None` with
    /// [`crate::cache::CacheConfig::Off`].
    pub prefix: Option<PrefixHit>,
}

impl ReqState {
    /// Clears the per-stage charges of an aborted journey before the request
    /// re-enters admission: its next prefill start recomputes the queueing
    /// wait from the original arrival, so everything spent on the failed
    /// journey collapses into queueing time and the breakdown keeps summing
    /// to the JCT. Terminal flags, counters and placement survive.
    pub fn reset_for_readmission(&mut self) {
        self.prefill_wait = 0.0;
        self.prefill_time = 0.0;
        self.quant_time = 0.0;
        self.comm_time = 0.0;
        self.memory_wait = 0.0;
        self.dequant_time = 0.0;
        self.decode_time = 0.0;
        self.aborted_decode = 0.0;
        self.pipelined_transfer_end = None;
        self.memory_wait_start = None;
        self.transfer_start = None;
        self.transfer_remaining = None;
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
    pub states: Vec<ReqState>,
    pub waiting_for_memory: VecDeque<usize>,
    /// Requests that could not route to any live prefill replica (whole
    /// prefill fleet down); drained on prefill recovery.
    pub waiting_for_prefill: VecDeque<usize>,
    pub fabric: network::NetworkFabric,
    pub completed: usize,
    pub rejected: usize,
    /// Admission rejections per tenant (index = tenant id).
    pub rejected_per_tenant: [usize; crate::policy::MAX_TENANTS],
    pub swapped: usize,
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
    /// transfer retries). `None` only during construction.
    pub frontend_id: Option<ComponentId>,
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
    pub fn profile(&self) -> &KvMethodProfile {
        &self.config.profile
    }

    pub fn kv_reserve_bytes(&self, request: &Request) -> f64 {
        // KV bytes depend only on the model architecture (identical across
        // decode groups); any group's model computes the same value.
        self.decode_models[0].kv_fp16_bytes(request.total_tokens()) * self.profile().kv_size_factor
    }

    /// The KV bytes `req`'s decode reservation must cover: the full
    /// sequence, minus the shared prefix already resident on the target
    /// replica when the request holds a prefix-cache hit.
    pub fn request_kv_bytes(&self, req: usize) -> f64 {
        let full = self.kv_reserve_bytes(&self.requests[req]);
        match self.states[req].prefix {
            Some(hit) => (full - hit.bytes).max(0.0),
            None => full,
        }
    }

    /// The prompt tokens `req`'s prefill/transfer actually covers: the full
    /// prompt, or only the suffix past the cached prefix on a hit.
    pub fn effective_prompt(&self, req: usize) -> usize {
        let input = self.requests[req].input_len;
        match self.states[req].prefix {
            Some(hit) => input - hit.tokens,
            None => input,
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
            self.states[req].memory_wait_start = Some(now);
            // Count each *request* that ever waited for memory once, even if a
            // replica failure sends it through this path a second time.
            if !self.states[req].swapped {
                self.states[req].swapped = true;
                self.swapped += 1;
            }
            self.waiting_for_memory.push_back(req);
        }
    }

    /// Reserves `bytes` of KV memory for `req` on decode replica `target` and
    /// starts its transfer over the prefill replica's NIC. `bytes` is the
    /// caller's `kv_reserve_bytes` for the request, computed once per dispatch
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
        self.decode[target].kv_used += bytes;
        self.decode[target].peak_kv = self.decode[target].peak_kv.max(self.decode[target].kv_used);
        self.decode[target].reservations += 1;
        self.states[req].decode_replica = target;
        self.states[req].kv_reserve_bytes = bytes;
        self.states[req].reserved = true;

        let replica = self.states[req].prefill_replica;
        if self.fabric.graph_enabled() {
            self.start_transfer_flow(req, replica, target, now);
            return;
        }
        let duration = self.costs.transfer_duration_len(
            self.prefill[replica].group,
            self.decode[target].group,
            self.effective_prompt(req),
        );
        let end = self.fabric.reserve_nic(replica, now, duration);
        // Communication time as experienced by the request: waiting for the NIC
        // plus the wire time.
        self.states[req].comm_time += end - now;
        if let Some(tel) = &mut self.tel {
            tel.transfer_started(replica, req, now, end - duration, end);
        }
        self.fabric.deliver(
            TransferCompleted { req },
            self.decode_ctxs[target].id(),
            end,
        );
    }

    /// The volume of `req`'s KV transfer in Gbps-seconds: the wire time is
    /// linear in inverse bandwidth, so the memoized min-NIC duration times
    /// that bandwidth is the bandwidth-independent volume a fair-shared flow
    /// must move.
    pub fn transfer_volume(&self, prefill_group: usize, decode_group: usize, req: usize) -> f64 {
        let prompt = self.effective_prompt(req);
        self.costs
            .transfer_duration_len(prefill_group, decode_group, prompt)
            * self.costs.fleet.wire_gbps(prefill_group, decode_group)
    }

    /// Starts (or fails to start) the fair-shared flow of `req` from prefill
    /// replica `replica` to decode replica `target` (link-graph fabric). A
    /// dead path schedules a seeded-backoff retry instead.
    pub fn start_transfer_flow(&mut self, req: usize, replica: usize, target: usize, now: f64) {
        debug_assert!(
            !self.fabric.has_flow(req),
            "request {req} already has an active flow"
        );
        let volume = self.states[req]
            .transfer_remaining
            .take()
            .unwrap_or_else(|| {
                self.transfer_volume(self.prefill[replica].group, self.decode[target].group, req)
            });
        self.states[req].transfer_start = Some(now);
        if self.fabric.start_flow(
            req,
            replica,
            target,
            self.decode_ctxs[target].id(),
            volume,
            now,
        ) {
            if let Some(tel) = &mut self.tel {
                tel.flow_started(replica);
            }
        } else {
            self.states[req].transfer_remaining = Some(volume);
            self.schedule_retry(req, now);
        }
    }

    /// Schedules the next retry of `req`'s transfer after a deterministic
    /// seeded backoff, or — once the policy's transfer attempts are spent —
    /// gives the reservation up and sends the request back through admission.
    pub fn schedule_retry(&mut self, req: usize, now: f64) {
        let policy = self.config.policy.retry;
        if self.states[req].transfer_attempts >= policy.max_transfer_attempts {
            self.give_up_transfer(req, now);
            return;
        }
        self.states[req].transfer_attempts += 1;
        self.retries += 1;
        let attempt = self.states[req].transfer_attempts;
        let delay = retry_backoff(&policy, self.config.trace.seed, req, attempt);
        let frontend = self.frontend_id.expect("frontend registered before events");
        self.fabric
            .deliver(TransferRetry { req }, frontend, now + delay);
        if let Some(tel) = &mut self.tel {
            tel.transfer_retry_scheduled(self.states[req].prefill_replica, req, now, attempt);
        }
    }

    /// Exhausted transfer retries: drop the KV reservation and re-enter
    /// admission, or permanently abort once the policy's re-admissions are
    /// spent.
    pub fn give_up_transfer(&mut self, req: usize, now: f64) {
        let target = self.states[req].decode_replica;
        if self.states[req].reserved {
            // The reservation is only still held when the target is alive (a
            // replica failure zeroes its accounting and clears the flag).
            self.decode[target].kv_used -= self.states[req].kv_reserve_bytes;
            self.decode[target].reservations -= 1;
            self.states[req].reserved = false;
            if self.decode[target].draining {
                self.maybe_finish_drain(target, now);
            }
        }
        self.states[req].transfer_remaining = None;
        self.states[req].transfer_start = None;
        if self.states[req].pending_prefill.is_some() {
            // A pipelined flow exhausted its retries while the prefill is
            // still in service: drop only the transfer state — the request
            // never left its prefill replica, so `PrefillFinished` dispatches
            // it through the normal path (no re-admission).
            self.states[req].pipelined_transfer_end = None;
            return;
        }
        // The next journey re-resolves the prefix from scratch (and must not
        // leak this journey's pin).
        self.release_hit(req);
        self.states[req].readmissions += 1;
        if self.states[req].readmissions > self.config.policy.retry.max_readmissions {
            self.states[req].abandoned = true;
            self.gave_up += 1;
            if let Some(tel) = &mut self.tel {
                tel.request_abandoned(req, now);
            }
            // Permanent abort is terminal: gated children would strand
            // otherwise.
            self.release_children(req, now);
            return;
        }
        // Everything spent so far collapses into queueing time at the next
        // prefill start, keeping the breakdown equal to the JCT.
        self.states[req].reset_for_readmission();
        self.states[req].requeues += 1;
        self.requeued += 1;
        let frontend = self.frontend_id.expect("frontend registered before events");
        self.fabric.deliver(RequestArrived { req }, frontend, now);
        if let Some(tel) = &mut self.tel {
            tel.requeued(target, req, now);
        }
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
                let wait_start = self.states[head].memory_wait_start.take().unwrap_or(now);
                self.states[head].memory_wait += now - wait_start;
                if let Some(tel) = &mut self.tel {
                    tel.memory_wait_over(target, head, wait_start, now);
                }
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
        match self.states[req].prefix {
            Some(hit) => {
                let d = &self.decode[hit.replica];
                (d.kv_used + bytes <= d.kv_capacity + self.cache_evictable(hit.replica))
                    .then_some(hit.replica)
            }
            None => self.best_decode_replica(bytes),
        }
    }

    /// Releases `req`'s prefix-cache pin (if any) and forgets the hit — the
    /// request will pay full price on its next dispatch/journey.
    pub fn release_hit(&mut self, req: usize) {
        if let Some(hit) = self.states[req].prefix.take() {
            if let Some(cache) = &mut self.cache {
                cache.caches[hit.replica].unpin(self.requests[req].session);
            }
        }
    }

    /// Downgrades `req`'s hit to the miss path when the replica holding its
    /// prefix has meanwhile failed or drained away. The prefill savings are
    /// already banked — a deliberate modeling artifact of this failure race
    /// — but the reservation and transfer revert to full price.
    fn downgrade_dead_hit(&mut self, req: usize) {
        if let Some(hit) = self.states[req].prefix {
            if !self.decode[hit.replica].dispatchable() {
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
        let bytes = self.decode_models[0].kv_fp16_bytes(saved) * self.profile().kv_size_factor;
        let cache = self.cache.as_mut().expect("checked above");
        cache.caches[replica].pin(request.session);
        cache.hits += 1;
        cache.prefill_secs_saved += (full_prefill + full_quant) - (suffix_prefill + suffix_quant);
        cache.bytes_saved += bytes;
        self.states[req].prefix = Some(PrefixHit {
            replica,
            tokens: saved,
            bytes,
        });
        if let Some(tel) = &mut self.tel {
            tel.prefix_hit(replica, req, now);
        }
        suffix
    }

    /// Decode-completion bookkeeping of a session request on replica `d`:
    /// release the hit's pin, then insert (or grow) the session's prefix on
    /// `d` — the replica now holding the request's full context — updating
    /// residency and mirroring the byte deltas into `kv_used`.
    pub fn cache_on_decode_finished(&mut self, req: usize, d: usize, now: f64) {
        let request = self.requests[req];
        if request.session == 0 || self.cache.is_none() {
            return;
        }
        self.release_hit(req);
        let bytes = self.decode_models[0].kv_fp16_bytes(request.total_tokens())
            * self.profile().kv_size_factor;
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
        let _ = now;
    }

    /// Releases the children gated on `req`'s terminal state: each arrives at
    /// the frontend at `max(its nominal arrival, now)` — think time already
    /// baked into the nominal arrival, causality enforced here.
    pub fn release_children(&mut self, req: usize, now: f64) {
        if self.session_children.is_empty() {
            return;
        }
        let frontend = self.frontend_id.expect("frontend registered before events");
        for child in std::mem::take(&mut self.session_children[req]) {
            let at = self.requests[child].arrival.max(now);
            self.fabric
                .deliver(RequestArrived { req: child }, frontend, at);
        }
    }

    // --- Autoscaling bookkeeping (no-ops in runs without a scaling policy:
    // --- `draining`/`scaled_out` stay false and nothing below ever fires). ---

    /// Completes decode replica `d`'s scale-down drain if it is draining and
    /// idle: close its billed interval, power it down, and record the drain.
    pub fn maybe_finish_drain(&mut self, d: usize, now: f64) {
        let state = &mut self.decode[d];
        if !state.draining || state.active != 0 || state.reservations != 0 {
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
