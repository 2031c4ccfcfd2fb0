//! # hack-cluster
//!
//! Discrete-event simulator of disaggregated LLM inference (§2, §4, §7.1 of the paper),
//! built as components on the generic [`hack_sim`] engine.
//!
//! The simulated cluster consists of prefill replicas (cheap compute GPUs: A10G, V100,
//! T4, L4 — or A100) and decode replicas (A100), sized the way §7.1 sizes them.
//! Requests arrive as a Poisson process, are dispatched to the prefill replica with the
//! shortest queue (by queued tokens), run prefill + KV quantization, transfer their KV
//! data over the prefill instance's NIC (a FIFO resource, which is where the
//! communication bottleneck and its contention come from), optionally overlapped with
//! prefill (pipelining, Fig. 1(d)), wait for decode memory if none is available (the
//! CPU-swap path of §4), and then decode one token at a time under continuous batching
//! until the output length is reached.
//!
//! Architecturally, each concern is one event-handler component on the engine —
//! `Frontend` (admission + routing), `PrefillReplica`, `NetworkFabric` (NIC
//! serialization + pipelined transfer) and `DecodeReplica` (KV memory accounting) —
//! communicating through the typed payloads in [`events`]. New serving scenarios are
//! added by introducing event types and handlers instead of editing a monolithic
//! match; fault injection ([`FaultPlan`]) is the first such scenario: a decode
//! replica dies mid-run, its in-flight requests are aborted and re-queued onto the
//! surviving fleet, and the replica optionally recovers. Multi-tenancy is the
//! second: requests carry a [`hack_workload::trace::TenantId`], and the frontend's
//! admission and prefill-scheduling decisions are per-run policies
//! ([`policy`]: FCFS — bit-identical to the pre-policy simulator — weighted
//! round-robin, SLO-deadline EDF, and per-tenant token-bucket admission), with
//! per-tenant JCT/fairness/SLO summaries on [`SimulationResult`]. Heterogeneous
//! fleets are the third: the cluster's topology is a first-class [`FleetSpec`]
//! of [`ReplicaGroup`]s ([`fleet`]), each group carrying its own GPU kind,
//! parallelism, NIC bandwidth and cost model; the frontend's replica routing is
//! chosen by [`DispatchPolicyKind`] (least-loaded — bit-identical to the
//! pre-fleet router — fastest-eligible, group-affinity), and results report
//! per-group utilization/JCT ([`GroupStats`]). Every legacy constructor lowers
//! to a single-group fleet pinned bit-identical to the flat configuration.
//!
//! Per-stage *service* times come from [`hack_model::ReplicaCostModel`]; the simulator
//! adds queueing, NIC contention, memory admission control and batching, and produces
//! the per-request JCT decompositions, average time ratios and peak decode-memory
//! figures that the paper's figures and tables report.
//!
//! # RESILIENCE
//!
//! The robustness layer generalizes fault injection to topology-aware
//! correlated failures:
//!
//! * **Topology** ([`topology::TopologySpec`]): [`TopologySpec::Flat`] (the
//!   default) is the original per-NIC FIFO fabric, pinned bit- and
//!   cost-identical to the pre-topology simulator.
//!   [`TopologySpec::LinkGraph`] models replica NIC → ToR → spine tiers with
//!   per-link capacities; every KV transfer becomes a flow receiving the
//!   equal share of its bottleneck link, `min_l capacity(l)/flows(l)` along
//!   its five-link path, re-split on every transfer start/finish/failure.
//!   This is not max-min fairness (true water-filling is ROADMAP item 2(b)).
//! * **Fault plans** ([`FaultPlan`]): a bounded schedule of typed
//!   [`FaultEvent`]s over [`FaultDomain`]s — a decode or prefill replica, a
//!   NIC, a ToR, or the spine. A switch fault atomically fails every replica
//!   behind it and cuts its fabric links; in-flight transfers crossing a dead
//!   link abort with partial progress and retry under deterministic seeded
//!   exponential backoff (at most [`topology::MAX_TRANSFER_ATTEMPTS`]
//!   attempts, then at most [`topology::MAX_READMISSIONS`] re-admissions
//!   before the request is permanently aborted). The frontend routes around
//!   dead prefill replicas and parks arrivals when the whole fleet is down.
//!   Configurations are validated at [`Simulator::try_new`] time with typed
//!   [`ConfigError`]s.
//! * **Sensors** ([`SimulationResult`]): per-fault blast radius
//!   ([`FaultRecord`]: replicas affected, requests aborted, downtime,
//!   recovery-drain time), retry counts and a per-request attempt histogram,
//!   permanently aborted requests, and goodput while degraded. Telemetry
//!   gains fault/recovery instants and flow/retry spans (see
//!   `OBSERVABILITY.md`).
//!
//! The availability layer builds on that machinery:
//!
//! * **Link degradation**: a [`FaultEvent`] carrying a `degrade` factor runs
//!   the domain's links at a fraction of nominal capacity instead of cutting
//!   them — flows re-split to the smaller bottleneck shares, dispatch
//!   de-prioritizes replicas behind degraded decode paths, nothing aborts,
//!   and [`SimulationResult`] reports the exposure (`degraded_link_secs`,
//!   `throughput_loss_gbps_s`).
//! * **Redundant spines with ECMP** ([`LinkGraphSpec::redundant`]): the
//!   fabric generalizes to N spine blocks; each flow is pinned to one by a
//!   deterministic hash of its request id, and a spine fault *reroutes* the
//!   surviving in-flight flows across the remaining blocks
//!   (`rerouted_flows`) instead of aborting them. A single spine stays
//!   bit-identical to the pre-ECMP fabric.
//! * **Generated fault plans** ([`AvailabilityModel`]): per-domain-kind
//!   MTBF/MTTR specs ([`MtbfSpec`]) walk seeded exponential failure/repair
//!   processes over a [`FleetShape`] and emit a valid [`FaultPlan`] for a
//!   run horizon — Monte-Carlo availability sweeps without hand-written
//!   event lists. Retry behaviour is a config knob now ([`RetryPolicy`] on
//!   [`PolicyConfig`]), defaults bit-identical to the old constants.
//! * **Elastic fleets** ([`ScalingPolicyKind`] on [`PolicyConfig`]): an
//!   autoscaling controller ticks every [`SCALE_TICK_SECS`], asks the run's
//!   scaling policy (queue-depth thresholds, target utilization with
//!   hysteresis, or a predictive arrival-rate EWMA) for a desired decode
//!   replica count per group, and grows/shrinks the fleet through the same
//!   event machinery faults use — scale-ups pay a per-GPU-kind provisioning
//!   delay, scale-downs drain in-flight work before powering off. Each
//!   [`ReplicaGroup`] carries a `$`/GPU-hour price, and [`SimulationResult`]
//!   turns racked uptime into cost sensors (`gpu_dollars`,
//!   `dollars_per_1k_tokens`). [`ScalingPolicyKind::Off`] (the default)
//!   builds no controller at all and stays bit- and cost-identical to the
//!   static fleet.
//!
//! # SESSIONS
//!
//! The session layer adds structured workloads and a prefix cache on top:
//!
//! * **Session-structured traces** ([`hack_workload::session`]): requests
//!   carry a session id, an optional parent, and a shared-prefix length;
//!   the simulator *gates* a child on its parent's terminal state (released
//!   at `max(arrival, parent completion)`), modeling chat think time and
//!   agentic tool-call joins. Parent links are validated at
//!   [`Simulator::try_new`] time ([`ConfigError::InvalidSessionParent`]).
//! * **Prefix cache** ([`CacheConfig`], [`hack_kvcache::PrefixCache`]): each
//!   decode replica keeps finished sessions' quantized KV prefixes resident
//!   under a configurable fraction of its KV budget (LRU with pinning while
//!   a descendant is in flight). A hit skips the shared prefix's prefill
//!   compute *and* its fabric transfer and shrinks the decode reservation;
//!   resident bytes are charged to the same `kv_used` accounting decode
//!   reservations use, which can reclaim them on demand. Results report hit
//!   rate, bytes saved, prefill seconds avoided and per-group occupancy;
//!   telemetry gains `prefix_hit`/`prefix_miss`/`prefix_evicted` (see
//!   `OBSERVABILITY.md`). [`CacheConfig::Off`] (the default) instantiates no
//!   cache state and stays bit- and cost-identical to the pre-cache
//!   simulator.
//! * **Session-affinity dispatch** ([`DispatchPolicyKind::SessionAffinity`]):
//!   routes a session's follow-ups to the prefill replica that served it
//!   last, spilling to the least-loaded replica when the pinned one's
//!   backlog exceeds a load-spill threshold.

pub mod cache;
mod components;
pub mod config;
pub mod events;
pub mod fleet;
pub mod policy;
pub mod result;
pub mod sim;
pub mod telemetry;
pub mod topology;

pub use cache::{CacheConfig, CacheSettings};
pub use components::scaling::SCALE_TICK_SECS;
pub use config::{ClusterConfig, SimulationConfig};
pub use fleet::{FleetSpec, GroupSet, ReplicaGroup, MAX_GROUPS};
pub use policy::{
    AdmissionPolicyKind, DispatchPolicyKind, GroupScalingView, PolicyConfig, ReplicaLoad,
    ScalingPolicyKind, SchedulingPolicyKind, TenantClass, TenantClasses,
};
pub use result::{FaultRecord, GroupStats, RequestRecord, SimulationResult};
pub use sim::Simulator;
pub use telemetry::{TelemetryConfig, TelemetrySettings};
pub use topology::{
    AvailabilityModel, ConfigError, FaultDomain, FaultEvent, FaultPlan, FleetShape, LinkGraphSpec,
    MtbfSpec, RetryPolicy, TopologySpec, MAX_FAULTS,
};
