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
//! * Telemetry **on** must not perturb the simulation: spans and samples are
//!   recorded from values the components already compute, and the periodic
//!   time-series sampler is a dedicated engine component that only *reads* the
//!   cluster blackboard, draws no randomness, and emits events only to itself
//!   — so the `SimulationResult` of a telemetry-on run is bit-identical to the
//!   telemetry-off run of the same seed (pinned by tests).
//!
//! See `OBSERVABILITY.md` at the repository root for the span taxonomy and how
//! to open exported traces in Perfetto.

use crate::components::ClusterState;
use crate::events::SampleTick;
use hack_metrics::telemetry::{SeriesId, Telemetry, TrackId, NO_REQUEST};
use hack_sim::{Event, EventHandler, SimulationContext};
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
    pub frontend_track: TrackId,
    pub prefill_tracks: Vec<TrackId>,
    pub nic_tracks: Vec<TrackId>,
    pub decode_tracks: Vec<TrackId>,
    prefill_queue_series: Vec<SeriesId>,
    prefill_busy_series: Vec<SeriesId>,
    decode_active_series: Vec<SeriesId>,
    decode_kv_series: Vec<SeriesId>,
    inflight_series: SeriesId,
    memory_wait_series: SeriesId,
    tenant_backlog_series: Vec<SeriesId>,
    /// Queued-but-not-yet-prefilling requests per tenant (sampler input).
    tenant_backlog: Vec<usize>,
    /// KV transfers currently waiting for or occupying a NIC (sampler input).
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

    // --- Frontend lifecycle. ---

    #[inline]
    pub fn request_arrived(&mut self, req: usize, now: f64) {
        if self.traced(req) {
            self.tel
                .instant("arrived", "frontend", self.frontend_track, req as u64, now);
        }
    }

    #[inline]
    pub fn request_rejected(&mut self, req: usize, now: f64) {
        if self.traced(req) {
            self.tel
                .instant("rejected", "frontend", self.frontend_track, req as u64, now);
        }
        self.tel.add_counter("rejected", 1);
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

    #[inline]
    pub fn tenant_enqueued(&mut self, tenant: usize) {
        if let Some(n) = self.tenant_backlog.get_mut(tenant) {
            *n += 1;
        }
    }

    #[inline]
    pub fn tenant_dequeued(&mut self, tenant: usize) {
        if let Some(n) = self.tenant_backlog.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
    }

    // --- Prefill lifecycle. ---

    /// The prefill-queue wait ([arrival, prefill start]) and the scheduled
    /// prefill/quantization service spans. Recorded when the replica picks the
    /// request up — the service end times are deterministic at that point.
    #[inline]
    pub fn prefill_started(
        &mut self,
        replica: usize,
        req: usize,
        wait_start: f64,
        now: f64,
        prefill_t: f64,
        quant_t: f64,
    ) {
        if !self.traced(req) {
            return;
        }
        let track = self.prefill_tracks[replica];
        let tel = &mut self.tel;
        tel.span("queue_wait", "frontend", track, req as u64, wait_start, now);
        tel.span(
            "prefill_exec",
            "prefill",
            track,
            req as u64,
            now,
            now + prefill_t,
        );
        tel.span(
            "quantize",
            "prefill",
            track,
            req as u64,
            now + prefill_t,
            now + prefill_t + quant_t,
        );
    }

    // --- Transfer path. ---

    /// A KV transfer was serialized onto prefill replica `replica`'s NIC:
    /// waits for the NIC over [`now`, `wire_start`] (possibly empty) and
    /// occupies the wire over [`wire_start`, `wire_end`].
    #[inline]
    pub fn transfer_started(
        &mut self,
        replica: usize,
        req: usize,
        now: f64,
        wire_start: f64,
        wire_end: f64,
    ) {
        self.inflight_transfers += 1;
        if !self.traced(req) {
            return;
        }
        let track = self.nic_tracks[replica];
        let tel = &mut self.tel;
        tel.span("nic_wait", "fabric", track, req as u64, now, wire_start);
        tel.span(
            "kv_transfer",
            "fabric",
            track,
            req as u64,
            wire_start,
            wire_end,
        );
    }

    #[inline]
    pub fn transfer_landed(&mut self) {
        self.inflight_transfers = self.inflight_transfers.saturating_sub(1);
    }

    // --- Link-graph flows and the fault/retry path (see OBSERVABILITY.md,
    // "Fault and retry taxonomy"). ---

    /// A fair-shared flow started (or restarted after an abort) on the
    /// link-graph fabric. The span is recorded at the landing, when the end
    /// is known ([`Self::flow_finished`]); starting only moves the in-flight
    /// gauge.
    #[inline]
    pub fn flow_started(&mut self, _replica: usize) {
        self.inflight_transfers += 1;
    }

    /// A fair-shared flow delivered its last byte: the final (successful)
    /// attempt occupied [`started`, `now`]. The in-flight gauge drops via
    /// [`Self::transfer_landed`], which the caller invokes alongside.
    #[inline]
    pub fn flow_finished(&mut self, replica: usize, req: usize, started: f64, now: f64) {
        if self.traced(req) {
            self.tel.span(
                "kv_flow",
                "fabric",
                self.nic_tracks[replica],
                req as u64,
                started,
                now,
            );
        }
    }

    /// An in-flight transfer aborted (dead link or dead source replica) after
    /// running over [`started`, `now`]; its partial progress is kept for the
    /// retry.
    pub fn transfer_aborted(&mut self, replica: usize, req: usize, started: f64, now: f64) {
        self.inflight_transfers = self.inflight_transfers.saturating_sub(1);
        if self.traced(req) {
            self.tel.span(
                "kv_flow_aborted",
                "fabric",
                self.nic_tracks[replica],
                req as u64,
                started,
                now,
            );
        }
        self.tel.add_counter("transfer_aborts", 1);
    }

    /// Attempt `attempt` of `req`'s transfer was scheduled after a seeded
    /// backoff starting at `now`.
    pub fn transfer_retry_scheduled(
        &mut self,
        replica: usize,
        req: usize,
        now: f64,
        _attempt: u32,
    ) {
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

    /// `req` exhausted its transfer retries and re-admissions: permanently
    /// aborted.
    pub fn request_abandoned(&mut self, req: usize, now: f64) {
        if self.traced(req) {
            self.tel.instant(
                "abandoned",
                "frontend",
                self.frontend_track,
                req as u64,
                now,
            );
        }
        self.tel.add_counter("abandoned", 1);
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

    /// Fault `fault` of the run's plan cut its links (the `req` slot carries
    /// the fault index for attribution in the exported trace).
    pub fn fabric_fault(&mut self, fault: usize, now: f64) {
        self.tel.instant(
            "fabric_fault",
            "fabric",
            self.frontend_track,
            fault as u64,
            now,
        );
    }

    pub fn fabric_recovered(&mut self, fault: usize, now: f64) {
        self.tel.instant(
            "fabric_recovered",
            "fabric",
            self.frontend_track,
            fault as u64,
            now,
        );
    }

    /// Fault `fault` of the run's plan degraded its links (capacity lowered,
    /// flows re-split but kept alive; the `req` slot carries the fault index).
    pub fn link_degraded(&mut self, fault: usize, now: f64) {
        self.tel.instant(
            "link_degraded",
            "fabric",
            self.frontend_track,
            fault as u64,
            now,
        );
    }

    /// Fault `fault`'s degraded links were restored to nominal capacity.
    pub fn link_restored(&mut self, fault: usize, now: f64) {
        self.tel.instant(
            "link_restored",
            "fabric",
            self.frontend_track,
            fault as u64,
            now,
        );
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

    // --- Decode lifecycle. ---

    /// A request waited for decode KV memory over [`wait_start`, `now`] before
    /// being admitted to replica `replica`.
    #[inline]
    pub fn memory_wait_over(&mut self, replica: usize, req: usize, wait_start: f64, now: f64) {
        if !self.traced(req) {
            return;
        }
        self.tel.span(
            "memory_wait",
            "decode",
            self.decode_tracks[replica],
            req as u64,
            wait_start,
            now,
        );
    }

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

    /// A request finished decoding on `replica`: the batched decode occupied
    /// [`started`, `now`], and the request's JCT enters the histogram.
    #[inline]
    pub fn decode_finished(
        &mut self,
        replica: usize,
        req: usize,
        started: f64,
        now: f64,
        jct: f64,
    ) {
        if self.traced(req) {
            let track = self.decode_tracks[replica];
            let tel = &mut self.tel;
            tel.span("decode_exec", "decode", track, req as u64, started, now);
            tel.instant("completed", "decode", track, req as u64, now);
        }
        self.tel.add_counter("completed", 1);
        self.tel.record_histogram("jct_seconds", jct);
    }

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

impl ClusterState {
    /// One sampler tick: append a sample to every registered time series.
    /// Read-only on everything the cluster components look at — recording
    /// mutates only the telemetry registry itself.
    pub(crate) fn sample_telemetry(&mut self, now: f64) {
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
