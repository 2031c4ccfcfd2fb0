//! Typed event payloads exchanged by the cluster components on the
//! [`hack_sim`] engine.
//!
//! Each payload is addressed to one component: arrivals go to the `Frontend`,
//! prefill completions to the owning `PrefillReplica`, transfer completions and
//! decode completions to the owning `DecodeReplica`, and failure/recovery
//! control events to the affected `DecodeReplica`. New scenarios extend the
//! simulator by adding payload types and handlers rather than editing a
//! central event enum.

/// A request entered the cluster (delivered to the frontend at its arrival time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestArrived {
    /// Index of the request in the trace.
    pub req: usize,
}

/// A prefill replica finished prefill (+ quantization) of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillFinished {
    /// Index of the request in the trace.
    pub req: usize,
}

/// A request's KV data has fully arrived at its decode replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferCompleted {
    /// Index of the request in the trace.
    pub req: usize,
}

/// A request generated its last token on its decode replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeFinished {
    /// Index of the request in the trace.
    pub req: usize,
}

/// Periodic telemetry tick, self-addressed by the telemetry sampler
/// component (`TelemetrySampler`). Only exists in telemetry-enabled
/// runs; the sampler re-arms itself each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTick;

/// Fault injection: the destination decode replica goes down. Its in-flight
/// requests are aborted and re-queued onto the remaining fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFailed {
    /// Index of the causing fault in the run's
    /// [`FaultPlan`](crate::topology::FaultPlan) (blast-radius attribution).
    pub fault: usize,
}

/// Fault injection: the destination decode replica comes back empty and starts
/// admitting requests again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRecovered {
    /// Index of the recovering fault in the run's fault plan.
    pub fault: usize,
}

/// Fault injection: the destination prefill replica goes down. Its queue
/// re-routes to live replicas and its in-flight prefill re-enters admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillFailed {
    /// Index of the causing fault in the run's fault plan.
    pub fault: usize,
}

/// Fault injection: the destination prefill replica rejoins the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillRecovered {
    /// Index of the recovering fault in the run's fault plan.
    pub fault: usize,
}

/// Fault injection (link-graph fabric only, delivered to the frontend): the
/// fault's links go down and every in-flight transfer crossing them aborts
/// with partial progress, then retries with seeded backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricFault {
    /// Index of the causing fault in the run's fault plan.
    pub fault: usize,
}

/// The links of a fabric fault come back up (delivered to the frontend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricRecovered {
    /// Index of the recovering fault in the run's fault plan.
    pub fault: usize,
}

/// A previously aborted KV transfer retries (delivered to the frontend at the
/// end of its deterministic seeded backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRetry {
    /// Index of the request in the trace.
    pub req: usize,
}

/// A fair-shared transfer flow delivered its last byte (link-graph fabric
/// only; the flat fabric uses [`TransferCompleted`] at a precomputed time).
/// Delivered to the destination decode replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCompleted {
    /// Index of the request in the trace.
    pub req: usize,
}

/// Periodic autoscaling tick, self-addressed by the autoscaling controller
/// component (`ScalingController`). Only exists in runs
/// with a scaling policy; the controller re-arms itself each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleTick;

/// A scale-up order finished paying its provisioning delay: the destination
/// decode replica joins the dispatchable fleet (delivered to the controller,
/// which flips the replica live and kicks queued work at it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaProvisioned {
    /// Global decode replica index of the joining replica.
    pub replica: usize,
}
