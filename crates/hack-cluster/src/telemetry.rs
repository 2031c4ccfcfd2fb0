//! Cluster telemetry: configuration, the per-run recording state, and the
//! deterministic sampling component.
//!
//! The data layer lives in [`hack_metrics::telemetry`]; this module wires it
//! into the cluster simulator following the repo's retained-reference
//! discipline:
//!
//! * [`TelemetryConfig::Off`] (the default) instantiates to `None` on the
//!   [`crate::sim::Simulator`] run path — every recording site is guarded by
//!   one `Option` check, so the off-path is bit- and cost-identical to the
//!   pre-telemetry simulator.
//! * A request's timeline has one recording site: every phase change goes
//!   through `ClusterState::advance`, which hands the old and the new phase
//!   to `TelemetryState::on_phase`. Events that change no request's phase
//!   (replica, fabric and scaling events, admissions, prefix lookups, retry
//!   schedules, reroutes) record where they happen, as do the two request
//!   events the hook cannot place: an aborted decode and the re-queue of a
//!   transfer landing on a failed replica (see `OBSERVABILITY.md`).
//! * Telemetry **on** must not perturb the simulation: spans and samples are
//!   recorded from values the components already compute, and the periodic
//!   time-series sampler is a dedicated engine component that only *reads* the
//!   cluster blackboard, draws no randomness, and emits events only to itself
//!   — so the `SimulationResult` of a telemetry-on run is bit-identical to the
//!   telemetry-off run of the same seed (pinned by tests).
//!
//! See `OBSERVABILITY.md` at the repository root for the span taxonomy and how
//! to open exported traces in Perfetto.

use crate::components::{Charges, ClusterState, ReqPhase, Transfer, Wire};
use crate::events::SampleTick;
use hack_metrics::telemetry::{SeriesId, Telemetry, TrackId, NO_REQUEST};
use hack_sim::{Event, EventHandler, SimulationContext};
use hack_workload::trace::Request;
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

/// Telemetry switch on [`crate::SimulationConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum TelemetryConfig {
    /// No telemetry (the default): zero recording state is allocated and the
    /// run is bit- and cost-identical to the pre-telemetry simulator.
    #[default]
    Off,
    /// Record lifecycle spans and periodic time-series samples.
    On(TelemetrySettings),
}

impl TelemetryConfig {
    /// Telemetry on with default settings.
    pub fn on() -> Self {
        Self::On(TelemetrySettings::default())
    }

    /// Telemetry on with an explicit sampling interval (simulated seconds).
    pub fn with_interval(sample_interval_secs: f64) -> Self {
        Self::On(TelemetrySettings {
            sample_interval_secs,
            ..TelemetrySettings::default()
        })
    }

    /// Whether telemetry is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, Self::On(_))
    }

    /// The settings when enabled.
    pub fn settings(&self) -> Option<TelemetrySettings> {
        match self {
            Self::Off => None,
            Self::On(s) => Some(*s),
        }
    }
}

/// Settings of a telemetry-enabled run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TelemetrySettings {
    /// Period of the time-series sampler (simulated seconds). Each tick
    /// samples every registered series once; see `OBSERVABILITY.md` for
    /// guidance on choosing it relative to the expected makespan.
    pub sample_interval_secs: f64,
    /// Head-based trace sampling: record the full lifecycle (spans + instants)
    /// of one in every `span_sample_every` requests, chosen deterministically
    /// by request index. Aggregate counters, time-series gauges, and the JCT
    /// histogram always cover **every** request — sampling thins only the
    /// per-request trace. `0` (the default) auto-sizes from the run's request
    /// count so traces stay Perfetto-loadable and recording overhead stays
    /// flat at any scale; `1` records everything. Values are rounded up to a
    /// power of two.
    pub span_sample_every: u32,
}

impl Default for TelemetrySettings {
    fn default() -> Self {
        Self {
            sample_interval_secs: 10.0,
            span_sample_every: 0,
        }
    }
}

/// Under auto span sampling (`span_sample_every: 0`), the target number of
/// requests whose lifecycle is traced: runs up to this size trace every
/// request; larger runs thin deterministically to stay near it.
pub const AUTO_SPAN_TARGET: usize = 32_768;

impl TelemetrySettings {
    /// The concrete sampling stride for a run of `num_requests`: the
    /// configured stride — or, under auto (`0`), `num_requests /`
    /// [`AUTO_SPAN_TARGET`] — rounded up to a power of two (so the per-record
    /// sampled test is a single mask comparison).
    pub fn resolved_span_every(&self, num_requests: usize) -> u64 {
        let every = match self.span_sample_every {
            0 => (num_requests / AUTO_SPAN_TARGET).max(1) as u64,
            n => u64::from(n),
        };
        every.next_power_of_two()
    }
}

/// The per-run recording state: the [`Telemetry`] registry plus the
/// track/series ids registered for this cluster shape, and the small bits of
/// derived state (tenant backlog, in-flight transfer count) the sampler reads.
///
/// Lives on the [`ClusterState`] blackboard as an `Option` — `None` when
/// telemetry is off. The registry is owned directly (no interior mutability):
/// components already hold `&mut ClusterState` when they record, so every
/// recording call is a plain inlined `Vec` push — the per-request overhead of
/// a fully instrumented run stays within a few percent of the off run.
pub(crate) struct TelemetryState {
    /// The registry all spans/instants/samples/counters land in.
    pub tel: Telemetry,
    frontend_track: TrackId,
    prefill_tracks: Vec<TrackId>,
    nic_tracks: Vec<TrackId>,
    decode_tracks: Vec<TrackId>,
    prefill_queue_series: Vec<SeriesId>,
    prefill_busy_series: Vec<SeriesId>,
    decode_active_series: Vec<SeriesId>,
    decode_kv_series: Vec<SeriesId>,
    inflight_series: SeriesId,
    memory_wait_series: SeriesId,
    tenant_backlog_series: Vec<SeriesId>,
    /// Admitted requests per tenant whose prefill has not started (sampler
    /// input).
    tenant_backlog: Vec<usize>,
    /// Requests whose KV is on the wire, waiting for or occupying a NIC
    /// (sampler input).
    inflight_transfers: usize,
    /// Head-based sampling mask (`stride - 1`, stride a power of two): request
    /// `req`'s lifecycle is traced iff `req & span_mask == 0`.
    span_mask: u64,
}

impl TelemetryState {
    /// Registers the tracks and series of a cluster with the given shape.
    /// Registration order is fixed, so exports are deterministic.
    pub fn new(
        prefill_replicas: usize,
        decode_replicas: usize,
        decode_groups: usize,
        tenants: usize,
        span_every: u64,
    ) -> Self {
        let mut tel = Telemetry::new();
        let frontend_track = tel.register_track("frontend");
        let prefill_tracks = (0..prefill_replicas)
            .map(|i| tel.register_track(format!("prefill-{i}")))
            .collect();
        let nic_tracks = (0..prefill_replicas)
            .map(|i| tel.register_track(format!("nic-p{i}")))
            .collect();
        let decode_tracks = (0..decode_replicas)
            .map(|i| tel.register_track(format!("decode-{i}")))
            .collect();
        let prefill_queue_series = (0..prefill_replicas)
            .map(|i| tel.register_series(format!("prefill-{i}/queue_depth")))
            .collect();
        let prefill_busy_series = (0..prefill_replicas)
            .map(|i| tel.register_series(format!("prefill-{i}/busy")))
            .collect();
        let decode_active_series = (0..decode_replicas)
            .map(|i| tel.register_series(format!("decode-{i}/active_batch")))
            .collect();
        let decode_kv_series = (0..decode_groups)
            .map(|g| tel.register_series(format!("decode-group-{g}/kv_occupancy")))
            .collect();
        let inflight_series = tel.register_series("fabric/inflight_transfers");
        let memory_wait_series = tel.register_series("cluster/memory_wait_queue");
        let tenant_backlog_series = (0..tenants)
            .map(|t| tel.register_series(format!("tenant-{t}/backlog")))
            .collect();
        Self {
            tel,
            frontend_track,
            prefill_tracks,
            nic_tracks,
            decode_tracks,
            prefill_queue_series,
            prefill_busy_series,
            decode_active_series,
            decode_kv_series,
            inflight_series,
            memory_wait_series,
            tenant_backlog_series,
            tenant_backlog: vec![0; tenants],
            inflight_transfers: 0,
            span_mask: span_every.next_power_of_two() - 1,
        }
    }

    /// Whether request `req`'s lifecycle is traced (head-based sampling: the
    /// whole journey of a sampled request is recorded, so every exported trace
    /// shows complete request lifecycles rather than disconnected fragments).
    #[inline]
    fn traced(&self, req: usize) -> bool {
        req as u64 & self.span_mask == 0
    }

    // --- A request's timeline (see OBSERVABILITY.md, "Span taxonomy", for
    // the phase change behind each span and instant). ---

    /// `req` of `tenant` was admitted: it joins its tenant's backlog until
    /// its prefill starts.
    #[inline]
    pub fn request_arrived(&mut self, req: usize, tenant: usize, now: f64) {
        self.tenant_backlog[tenant] += 1;
        if self.traced(req) {
            self.tel
                .instant("arrived", "frontend", self.frontend_track, req as u64, now);
        }
    }

    /// What `req`'s phase change `from → to` at `now` draws on its timeline:
    /// the one recording site of the request lifecycle, called by
    /// [`ClusterState::advance`] before it writes `to`. `c` and `request`
    /// are the request's entries; `wire_time` recomputes the uncontended
    /// wire time of a fresh flat-fabric NIC booking and is called only for
    /// traced requests. Counters, the JCT histogram and the two gauges
    /// derived from phases (transfers on the wire, tenant backlog) cover
    /// every request, with exact arithmetic.
    #[inline]
    pub fn on_phase(
        &mut self,
        req: usize,
        (from, to): (ReqPhase, ReqPhase),
        now: f64,
        c: &Charges,
        request: &Request,
        wire_time: impl FnOnce() -> f64,
    ) {
        use ReqPhase::*;
        match (on_wire(&from), on_wire(&to)) {
            (false, true) => self.inflight_transfers += 1,
            (true, false) => self.inflight_transfers -= 1,
            _ => {}
        }
        if let (Queued, Prefilling(_)) = (from, to) {
            self.tenant_backlog[request.tenant.index()] -= 1;
        }
        let counter = match to {
            Rejected => Some("rejected"),
            Abandoned => Some("abandoned"),
            Queued => Some("requeued"),
            Done => Some("completed"),
            _ => None,
        };
        if let Some(name) = counter {
            self.tel.add_counter(name, 1);
        }
        let flow_left = flow_left(&from, &to);
        if let Some(("kv_flow_aborted", _)) = flow_left {
            self.tel.add_counter("transfer_aborts", 1);
        }
        if to == Done {
            let jct = now - request.arrival;
            self.tel.record_histogram("jct_seconds", jct);
        }
        if !self.traced(req) {
            return;
        }
        let r = req as u64;
        let (p, d) = (c.prefill_replica as usize, c.decode_replica as usize);
        let (prefill, nic) = (self.prefill_tracks[p], self.nic_tracks[p]);
        let (frontend, decode) = (self.frontend_track, self.decode_tracks[d]);
        let tel = &mut self.tel;
        match (from, to) {
            // The queueing wait and the prefill/quantization service, whose
            // end times are known at the start.
            (Queued, Prefilling(_)) => {
                let (arrived, prefilled) = (now - c.prefill_wait, now + c.prefill_time);
                let quantized = prefilled + c.quant_time;
                tel.span("queue_wait", "frontend", prefill, r, arrived, now);
                tel.span("prefill_exec", "prefill", prefill, r, now, prefilled);
                tel.span("quantize", "prefill", prefill, r, prefilled, quantized);
            }
            (WaitingForMemory { since }, _) => {
                tel.span("memory_wait", "decode", decode, r, since, now);
            }
            (Decoding { started, .. }, Done) => {
                tel.span("decode_exec", "decode", decode, r, started, now);
                tel.instant("completed", "decode", decode, r, now);
            }
            (_, Rejected) => tel.instant("rejected", "frontend", frontend, r, now),
            (_, Abandoned) => tel.instant("abandoned", "frontend", frontend, r, now),
            (_, Queued) => tel.instant("requeued", "decode", decode, r, now),
            _ => {}
        }
        if let Some((name, started)) = flow_left {
            tel.span(name, "fabric", nic, r, started, now);
        }
        // A fresh flat-fabric NIC booking (not one the request already held
        // before this change): it waits for the NIC from `now`, then
        // occupies it until it lands. On an idle NIC `end` is `now + wire
        // time`, and `end − wire time` can round one ulp below `now`.
        if let Some(Transfer {
            reserved: true,
            wire: Wire::LandsAt(end),
        }) = to.transfer()
        {
            if !from.transfer().is_some_and(|t| t.reserved) {
                let start = now.max(end - wire_time());
                tel.span("nic_wait", "fabric", nic, r, now, start);
                tel.span("kv_transfer", "fabric", nic, r, start, end);
            }
        }
    }

    // --- Session prefix cache (see OBSERVABILITY.md, "Prefix-cache
    // taxonomy"). ---

    /// A prefill-side lookup found `req`'s session prefix resident on decode
    /// `replica`.
    #[inline]
    pub fn prefix_hit(&mut self, replica: usize, req: usize, now: f64) {
        if self.traced(req) {
            self.tel.instant(
                "prefix_hit",
                "decode",
                self.decode_tracks[replica],
                req as u64,
                now,
            );
        }
        self.tel.add_counter("prefix_hit", 1);
    }

    /// A session follow-up's prefix was not resident (evicted, invalidated,
    /// or never cached).
    #[inline]
    pub fn prefix_miss(&mut self, req: usize, now: f64) {
        if self.traced(req) {
            self.tel.instant(
                "prefix_miss",
                "frontend",
                self.frontend_track,
                req as u64,
                now,
            );
        }
        self.tel.add_counter("prefix_miss", 1);
    }

    /// `n` cached prefixes were dropped (LRU pressure, reservation reclaim,
    /// residency move, failure, or drain).
    #[inline]
    pub fn prefix_evicted(&mut self, n: usize) {
        self.tel.add_counter("prefix_evicted", n as u64);
    }

    // --- The fault/retry path (see OBSERVABILITY.md, "Fault and retry
    // taxonomy"). ---

    /// A retry of `req`'s transfer was scheduled after a seeded backoff
    /// starting at `now`.
    pub fn transfer_retry_scheduled(&mut self, replica: usize, req: usize, now: f64) {
        if self.traced(req) {
            self.tel.instant(
                "transfer_retry",
                "fabric",
                self.nic_tracks[replica],
                req as u64,
                now,
            );
        }
        self.tel.add_counter("transfer_retries", 1);
    }

    pub fn prefill_failed(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_failed",
            "prefill",
            self.prefill_tracks[replica],
            NO_REQUEST,
            now,
        );
    }

    pub fn prefill_recovered(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_recovered",
            "prefill",
            self.prefill_tracks[replica],
            NO_REQUEST,
            now,
        );
    }

    /// Fault `fault` of the run's plan cut its links, or only `degraded`
    /// them (capacity lowered, flows re-split but kept alive). The `req`
    /// slot carries the fault index for attribution in the exported trace.
    pub fn fabric_fault(&mut self, fault: usize, degraded: bool, now: f64) {
        let name = if degraded {
            "link_degraded"
        } else {
            "fabric_fault"
        };
        let track = self.frontend_track;
        self.tel.instant(name, "fabric", track, fault as u64, now);
    }

    /// Fault `fault`'s links came back up, or were restored to nominal
    /// capacity when it only `degraded` them.
    pub fn fabric_recovered(&mut self, fault: usize, degraded: bool, now: f64) {
        let name = if degraded {
            "link_restored"
        } else {
            "fabric_recovered"
        };
        let track = self.frontend_track;
        self.tel.instant(name, "fabric", track, fault as u64, now);
    }

    /// A flow survived a spine fault by ECMP-rerouting onto a surviving
    /// spine block (instant on the source replica's NIC track).
    pub fn flow_rerouted(&mut self, replica: usize, req: usize, now: f64) {
        if self.traced(req) {
            self.tel.instant(
                "flow_rerouted",
                "fabric",
                self.nic_tracks[replica],
                req as u64,
                now,
            );
        }
        self.tel.add_counter("flow_reroutes", 1);
    }

    // --- Decode-side faults. ---

    /// `req`'s KV landed on decode `replica` after the replica failed: it
    /// re-enters dispatch. (The re-dispatch's reservation overwrites the
    /// request's decode replica before its phase changes, so this instant
    /// is recorded where the landing is handled.)
    #[inline]
    pub fn requeued(&mut self, replica: usize, req: usize, now: f64) {
        if self.traced(req) {
            self.tel.instant(
                "requeued",
                "decode",
                self.decode_tracks[replica],
                req as u64,
                now,
            );
        }
        self.tel.add_counter("requeued", 1);
    }

    /// A failure of `replica` aborted `req`'s decode, which ran over
    /// [`started`, `now`]. (Recorded where the failure is handled, so that
    /// every aborted span precedes the re-dispatches' transfer spans.)
    pub fn decode_aborted(&mut self, replica: usize, req: usize, started: f64, now: f64) {
        if self.traced(req) {
            self.tel.span(
                "decode_aborted",
                "decode",
                self.decode_tracks[replica],
                req as u64,
                started,
                now,
            );
        }
        self.tel.add_counter("aborted_decodes", 1);
    }

    pub fn replica_failed(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_failed",
            "decode",
            self.decode_tracks[replica],
            NO_REQUEST,
            now,
        );
    }

    pub fn replica_recovered(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_recovered",
            "decode",
            self.decode_tracks[replica],
            NO_REQUEST,
            now,
        );
    }

    // --- Autoscaling lifecycle (see OBSERVABILITY.md, "Autoscaling
    // taxonomy"). ---

    /// The controller ordered a scale-up of `replica`: the provisioning delay
    /// starts now.
    pub fn replica_provisioning(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_provisioning",
            "scaling",
            self.decode_tracks[replica],
            NO_REQUEST,
            now,
        );
        self.tel.add_counter("scale_ups", 1);
    }

    /// `replica` finished provisioning and joined the dispatchable fleet.
    pub fn replica_joined(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_joined",
            "scaling",
            self.decode_tracks[replica],
            NO_REQUEST,
            now,
        );
    }

    /// `replica` finished draining its in-flight batch and left the fleet.
    pub fn replica_drained(&mut self, replica: usize, now: f64) {
        self.tel.instant(
            "replica_drained",
            "scaling",
            self.decode_tracks[replica],
            NO_REQUEST,
            now,
        );
        self.tel.add_counter("scale_downs", 1);
    }

    // --- Periodic sampling. ---

    /// Samples every registered time series. `prefill`/`decode`/`mem_wait`
    /// come from the cluster blackboard (the registry lives on the same
    /// blackboard, so the caller hands the sibling fields in by reference).
    fn sample(
        &mut self,
        prefill: &[crate::components::PrefillReplicaState],
        decode: &[crate::components::DecodeReplicaState],
        mem_wait: usize,
        now: f64,
    ) {
        let tel = &mut self.tel;
        for (i, p) in prefill.iter().enumerate() {
            tel.sample(self.prefill_queue_series[i], now, p.queue.len() as f64);
            tel.sample(self.prefill_busy_series[i], now, f64::from(p.busy()));
        }
        for (i, d) in decode.iter().enumerate() {
            tel.sample(self.decode_active_series[i], now, d.active as f64);
        }
        for (g, &series) in self.decode_kv_series.iter().enumerate() {
            let (used, capacity) = decode
                .iter()
                .filter(|d| d.group == g)
                .fold((0.0, 0.0), |(u, c), d| (u + d.kv_used, c + d.kv_capacity));
            let occupancy = if capacity > 0.0 { used / capacity } else { 0.0 };
            tel.sample(series, now, occupancy);
        }
        tel.sample(self.inflight_series, now, self.inflight_transfers as f64);
        tel.sample(self.memory_wait_series, now, mem_wait as f64);
        for (t, &series) in self.tenant_backlog_series.iter().enumerate() {
            tel.sample(series, now, self.tenant_backlog[t] as f64);
        }
        tel.add_counter("sampler_ticks", 1);
    }
}

/// Whether `phase`'s KV is on the wire — a NIC booking or a flow, waiting
/// for or occupying its NIC — rather than in retry backoff: what the
/// in-flight gauge counts.
fn on_wire(phase: &ReqPhase) -> bool {
    matches!(
        phase.transfer().map(|t| t.wire),
        Some(Wire::LandsAt(_) | Wire::Flow { .. })
    )
}

/// The span a link-graph flow leaves when `from → to` takes it off the
/// wire, with the start of its attempt: `kv_flow` when it landed (and its
/// request was admitted or, its reservation lost, re-dispatched),
/// `kv_flow_aborted` when a cut or its prefill's failure stopped it. `None`
/// while it carries on, also after losing its reservation, and when it
/// lands early under its prefill, which draws no span.
fn flow_left(from: &ReqPhase, to: &ReqPhase) -> Option<(&'static str, f64)> {
    let Some(Transfer {
        reserved,
        wire: Wire::Flow { started },
    }) = from.transfer()
    else {
        return None;
    };
    let name = match to.transfer() {
        Some(t) if t.reserved == reserved => {
            matches!(t.wire, Wire::Backoff { .. }).then_some("kv_flow_aborted")?
        }
        // Landed without its reservation and re-dispatched at once.
        Some(_) => (!reserved).then_some("kv_flow")?,
        None if *to == ReqPhase::Queued => "kv_flow_aborted",
        None => "kv_flow",
    };
    Some((name, started))
}

impl ClusterState {
    /// Observes `req`'s phase change `from → to` at `now`, before
    /// [`ClusterState::advance`] writes it: the test-build phase log, then
    /// the request's telemetry timeline ([`TelemetryState::on_phase`]).
    #[inline]
    pub(crate) fn observe_phase(&mut self, req: usize, from: ReqPhase, to: ReqPhase, now: f64) {
        #[cfg(test)]
        crate::components::phase_log::record(req, to, now);
        let Self {
            tel: Some(tel),
            charges,
            requests,
            lifecycle,
            costs,
            prefill,
            decode,
            ..
        } = self
        else {
            return;
        };
        let (c, request) = (&charges[req], &requests[req]);
        // The wire time `start_wire` booked on the prefill replica's NIC.
        let wire_time = || {
            let groups = (
                prefill[c.prefill_replica as usize].group,
                decode[c.decode_replica as usize].group,
            );
            let prompt = lifecycle[req].effective_prompt(request);
            costs.transfer_duration_len(groups.0, groups.1, prompt)
        };
        tel.on_phase(req, (from, to), now, c, request, wire_time);
    }

    /// Debug-build check of the gauges [`TelemetryState::on_phase`] keeps:
    /// the transfers on the wire and each tenant's backlog (its requests in
    /// prefill queues or parked while the prefill fleet is down) equal a
    /// recount.
    #[cfg(debug_assertions)]
    fn check_gauges(&self) {
        let Some(ts) = &self.tel else { return };
        let wired = self.lifecycle.iter().filter(|l| on_wire(&l.phase)).count();
        assert_eq!(ts.inflight_transfers, wired, "transfers on the wire");
        let mut backlog = vec![0; ts.tenant_backlog.len()];
        let queued = self.prefill.iter().flat_map(|p| p.queue.members());
        for r in queued.chain(self.waiting_for_prefill.iter().copied()) {
            backlog[self.requests[r].tenant.index()] += 1;
        }
        assert_eq!(ts.tenant_backlog, backlog, "tenant backlog");
    }

    /// One sampler tick: append a sample to every registered time series.
    /// Read-only on everything the cluster components look at — recording
    /// mutates only the telemetry registry itself.
    pub(crate) fn sample_telemetry(&mut self, now: f64) {
        #[cfg(debug_assertions)]
        self.check_gauges();
        let Self {
            tel,
            prefill,
            decode,
            waiting_for_memory,
            ..
        } = self;
        if let Some(ts) = tel {
            ts.sample(prefill, decode, waiting_for_memory.len(), now);
        }
    }
}

/// The periodic time-series sampler: a dedicated engine component that ticks
/// every `interval` simulated seconds, samples the cluster blackboard
/// (read-only), and re-arms itself.
///
/// Determinism: the sampler draws no randomness, mutates nothing the cluster
/// components read, and emits only to itself, so interleaving its ticks with
/// cluster events — whatever the tie order — cannot change the simulation's
/// outcome. The run loop (not the sampler) decides when to stop stepping; the
/// sampler always keeps exactly one pending tick in the queue.
pub(crate) struct TelemetrySampler {
    pub ctx: SimulationContext,
    pub cluster: Rc<RefCell<ClusterState>>,
    /// Positive and finite: [`crate::SimulationConfig::validate`] rejects
    /// any other interval.
    pub interval: f64,
}

impl EventHandler for TelemetrySampler {
    fn on(&mut self, event: Event) {
        if !event.is::<SampleTick>() {
            return;
        }
        self.cluster.borrow_mut().sample_telemetry(event.time);
        self.ctx.emit_self(SampleTick, self.interval);
    }
}
