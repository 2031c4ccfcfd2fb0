//! NIC serialization and KV-transfer delivery.
//!
//! Two fabric models live here, selected by
//! [`TopologySpec`](crate::topology::TopologySpec):
//!
//! * **Flat** (the default): each prefill replica sources its KV transfers
//!   from one NIC, modelled as a FIFO resource (`nic_free_at`): a transfer
//!   starts when the NIC frees up and occupies it for the wire time. The wire
//!   time itself is group-aware — see
//!   [`super::SimCosts::transfer_duration_len`], which memoizes it per
//!   (prefill group, decode group, prompt length) and bottlenecks on the
//!   slower of the two groups' NICs. This path is bit- and cost-identical to
//!   the pre-topology simulator.
//! * **Link graph**: transfers are flows crossing five links (source NIC,
//!   source ToR uplink, spine, destination ToR uplink, destination NIC), each
//!   receiving the max-min fair share `min_l capacity(l)/flows(l)` along its
//!   path. Progress is re-split on every flow start/finish/failure: remaining
//!   volumes advance at the old rates, rates are recomputed, and each flow's
//!   completion event is cancelled and re-emitted — group NIC bandwidth is
//!   emergent rather than assumed. Dead links abort their flows with partial
//!   progress kept for the retry path.

use crate::events::FlowCompleted;
use crate::topology::FaultDomain;
use hack_sim::{ComponentId, EventId, SimulationContext};
use std::any::Any;
use std::collections::BTreeMap;

/// One in-flight fair-shared transfer (link-graph fabric only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flow {
    /// Source prefill replica.
    pub src: usize,
    /// Destination decode replica.
    pub dst: usize,
    /// Spine block this flow is ECMP-pinned to (0 on single-spine fabrics).
    pub spine: usize,
    /// Engine address of the destination decode replica's component.
    pub dst_ctx: ComponentId,
    /// Remaining volume in Gbps-seconds (`transfer_time` at 1 Gbps).
    pub remaining: f64,
    /// Current fair-share rate (Gbps).
    pub rate: f64,
    /// Pending [`FlowCompleted`] event.
    pub event: EventId,
    /// When this flow (attempt) started, for telemetry spans.
    pub started: f64,
}

/// Fixed link-index layout of the graph:
/// `[prefill NICs][prefill ToR uplinks][spine blocks][decode ToR uplinks][decode NICs]`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    prefill_replicas: usize,
    prefill_tors: usize,
    decode_tors: usize,
    prefill_per_tor: usize,
    decode_per_tor: usize,
    spines: usize,
}

impl Layout {
    fn spine_base(&self) -> usize {
        self.prefill_replicas + self.prefill_tors
    }

    fn decode_tor_base(&self) -> usize {
        self.spine_base() + self.spines
    }

    fn path_via(&self, src: usize, dst: usize, spine: usize) -> [usize; 5] {
        [
            src,
            self.prefill_replicas + src / self.prefill_per_tor,
            self.spine_base() + spine,
            self.decode_tor_base() + dst / self.decode_per_tor,
            self.decode_tor_base() + self.decode_tors + dst,
        ]
    }
}

/// Deterministic ECMP hash of a request id — a splitmix64 finalizer, so the
/// spine choice is identical across engine modes and platforms.
fn ecmp_hash(req: usize) -> u64 {
    let mut z = (req as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mutable state of the link-graph fabric.
pub(crate) struct LinkGraph {
    layout: Layout,
    /// Per-link capacity (Gbps), in [`Layout`] order.
    capacity: Vec<f64>,
    /// Per-link liveness (fault injection cuts links).
    alive: Vec<bool>,
    /// Per-link degradation multiplier in `(0, 1]` (1.0 = nominal; link
    /// degradation faults lower it, recovery restores it).
    degrade: Vec<f64>,
    /// Active flows by request index (ordered: deterministic re-splits).
    flows: BTreeMap<usize, Flow>,
    /// Time the flows' `remaining` volumes were last advanced to.
    last_update: f64,
}

/// The transfer path between the prefill and decode fleets.
pub(crate) struct NetworkFabric {
    ctx: SimulationContext,
    /// Earliest time each prefill replica's NIC is free again (flat fabric).
    nic_free_at: Vec<f64>,
    /// Link-graph state — `None` under [`TopologySpec::Flat`], keeping the
    /// default path untouched.
    ///
    /// [`TopologySpec::Flat`]: crate::topology::TopologySpec::Flat
    graph: Option<LinkGraph>,
    /// Flows ECMP-rerouted onto a surviving spine after a spine fault.
    rerouted: usize,
}

impl NetworkFabric {
    pub fn new(ctx: SimulationContext, prefill_replicas: usize) -> Self {
        Self {
            ctx,
            nic_free_at: vec![0.0; prefill_replicas],
            graph: None,
            rerouted: 0,
        }
    }

    /// Enables the link-graph fabric with the given per-replica NIC capacities
    /// and switch-tier parameters. `spines` redundant spine blocks of
    /// `spine_gbps` each carry the ECMP-hashed inter-ToR traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn with_link_graph(
        ctx: SimulationContext,
        prefill_nic_gbps: Vec<f64>,
        decode_nic_gbps: Vec<f64>,
        prefill_per_tor: usize,
        decode_per_tor: usize,
        tor_uplink_gbps: f64,
        spine_gbps: f64,
        spines: usize,
    ) -> Self {
        let prefill_replicas = prefill_nic_gbps.len();
        let layout = Layout {
            prefill_replicas,
            prefill_tors: prefill_replicas.div_ceil(prefill_per_tor.max(1)),
            decode_tors: decode_nic_gbps.len().div_ceil(decode_per_tor.max(1)),
            prefill_per_tor: prefill_per_tor.max(1),
            decode_per_tor: decode_per_tor.max(1),
            spines: spines.max(1),
        };
        let mut capacity = prefill_nic_gbps;
        capacity.extend(std::iter::repeat_n(tor_uplink_gbps, layout.prefill_tors));
        capacity.extend(std::iter::repeat_n(spine_gbps, layout.spines));
        capacity.extend(std::iter::repeat_n(tor_uplink_gbps, layout.decode_tors));
        capacity.extend(decode_nic_gbps);
        let alive = vec![true; capacity.len()];
        let degrade = vec![1.0; capacity.len()];
        Self {
            ctx,
            nic_free_at: vec![0.0; prefill_replicas],
            graph: Some(LinkGraph {
                layout,
                capacity,
                alive,
                degrade,
                flows: BTreeMap::new(),
                last_update: 0.0,
            }),
            rerouted: 0,
        }
    }

    /// Whether the link-graph fabric is active.
    pub fn graph_enabled(&self) -> bool {
        self.graph.is_some()
    }

    /// Serializes a `duration`-second transfer onto prefill replica `replica`'s
    /// NIC starting no earlier than `now`; returns the completion time (flat
    /// fabric).
    pub fn reserve_nic(&mut self, replica: usize, now: f64, duration: f64) -> f64 {
        let start = self.nic_free_at[replica].max(now);
        let end = start + duration;
        self.nic_free_at[replica] = end;
        end
    }

    /// Emits `payload` to `dst` at the absolute time `at` (the moment the KV
    /// data fully lands on the decode side).
    pub fn deliver<T: Any>(&self, payload: T, dst: ComponentId, at: f64) {
        self.ctx.emit_at(payload, dst, at);
    }

    /// The link indices a fault domain cuts (empty for replica domains).
    pub fn links_for_domain(&self, domain: FaultDomain) -> Vec<usize> {
        let Some(g) = &self.graph else {
            return Vec::new();
        };
        let l = g.layout;
        match domain {
            FaultDomain::DecodeReplica(_) | FaultDomain::PrefillReplica(_) => Vec::new(),
            FaultDomain::PrefillNic(i) => vec![i],
            FaultDomain::PrefillTor(t) => vec![l.prefill_replicas + t],
            FaultDomain::Spine(s) => vec![l.spine_base() + s],
            FaultDomain::DecodeTor(t) => vec![l.decode_tor_base() + t],
            FaultDomain::DecodeNic(i) => vec![l.decode_tor_base() + l.decode_tors + i],
        }
    }

    /// Marks links up or down.
    pub fn set_links(&mut self, links: &[usize], alive: bool) {
        if let Some(g) = &mut self.graph {
            for &l in links {
                g.alive[l] = alive;
            }
        }
    }

    /// Sets the degradation multiplier of `links` (1.0 restores nominal
    /// capacity), re-splitting every active flow at the new capacities.
    pub fn set_degrade(&mut self, links: &[usize], factor: f64, now: f64) {
        let Self { ctx, graph, .. } = self;
        if let Some(g) = graph.as_mut() {
            g.advance(now);
            for &l in links {
                g.degrade[l] = factor;
            }
            g.resplit(ctx, now);
        }
    }

    /// Sum of the nominal capacities of `links` (Gbps) — for the
    /// throughput-loss sensor.
    pub fn nominal_capacity(&self, links: &[usize]) -> f64 {
        self.graph
            .as_ref()
            .map_or(0.0, |g| links.iter().map(|&l| g.capacity[l]).sum())
    }

    /// Flows ECMP-rerouted onto a surviving spine after a spine fault.
    pub fn rerouted_flows(&self) -> usize {
        self.rerouted
    }

    /// Whether decode replica `dst`'s ToR uplink or NIC is currently
    /// degraded — dispatch can de-prioritize such groups.
    pub fn decode_path_degraded(&self, dst: usize) -> bool {
        let Some(g) = &self.graph else {
            return false;
        };
        let l = g.layout;
        let tor = l.decode_tor_base() + dst / l.decode_per_tor;
        let nic = l.decode_tor_base() + l.decode_tors + dst;
        g.degrade[tor] < 1.0 || g.degrade[nic] < 1.0
    }

    /// Whether every link on the `src → dst` path is up: the four endpoint
    /// links must be alive and at least one spine block must survive (ECMP
    /// hops around dead spines).
    pub fn path_alive(&self, src: usize, dst: usize) -> bool {
        let Some(g) = &self.graph else {
            return true;
        };
        let l = g.layout;
        let endpoints = [
            src,
            l.prefill_replicas + src / l.prefill_per_tor,
            l.decode_tor_base() + dst / l.decode_per_tor,
            l.decode_tor_base() + l.decode_tors + dst,
        ];
        endpoints.iter().all(|&x| g.alive[x]) && g.alive_spines().next().is_some()
    }

    /// Whether `req` currently has an active flow.
    pub fn has_flow(&self, req: usize) -> bool {
        self.graph
            .as_ref()
            .is_some_and(|g| g.flows.contains_key(&req))
    }

    /// Number of active flows (telemetry gauge).
    pub fn active_flows(&self) -> usize {
        self.graph.as_ref().map_or(0, |g| g.flows.len())
    }

    /// Starts a flow of `volume` Gbps-seconds from prefill replica `src` to
    /// decode replica `dst`, fairly re-splitting every active flow. Returns
    /// `false` (and starts nothing) when the path crosses a dead link — the
    /// caller schedules a retry.
    pub fn start_flow(
        &mut self,
        req: usize,
        src: usize,
        dst: usize,
        dst_ctx: ComponentId,
        volume: f64,
        now: f64,
    ) -> bool {
        if !self.path_alive(src, dst) {
            return false;
        }
        let Self { ctx, graph, .. } = self;
        let g = graph.as_mut().expect("start_flow requires the link graph");
        let spine = g.ecmp_spine(req).expect("path_alive checked a live spine");
        g.advance(now);
        // The completion event is re-emitted with the true fair-share rate by
        // the resplit below; the placeholder is never delivered.
        let event = ctx.emit_at(FlowCompleted { req }, dst_ctx, now + 1e30);
        g.flows.insert(
            req,
            Flow {
                src,
                dst,
                spine,
                dst_ctx,
                remaining: volume,
                rate: 0.0,
                event,
                started: now,
            },
        );
        g.resplit(ctx, now);
        true
    }

    /// Removes `req`'s flow after its [`FlowCompleted`] event fired and
    /// re-splits the survivors. Returns the finished flow.
    pub fn finish_flow(&mut self, req: usize, now: f64) -> Option<Flow> {
        let Self { ctx, graph, .. } = self;
        let g = graph.as_mut()?;
        g.advance(now);
        let flow = g.flows.remove(&req);
        g.resplit(ctx, now);
        flow
    }

    /// Aborts `req`'s flow (e.g. its source prefill replica died), cancelling
    /// its completion event. Returns the aborted flow with its partial
    /// progress in `remaining`.
    pub fn abort_flow(&mut self, req: usize, now: f64) -> Option<Flow> {
        let Self { ctx, graph, .. } = self;
        let g = graph.as_mut()?;
        g.advance(now);
        let flow = g.flows.remove(&req);
        if let Some(f) = &flow {
            ctx.cancel_event(f.event);
        }
        g.resplit(ctx, now);
        flow
    }

    /// Handles every flow crossing a dead link, in request order
    /// (deterministic). A flow whose *only* dead link is its spine block is
    /// ECMP-rerouted onto a surviving spine (re-split, partial progress
    /// kept); a flow with a dead endpoint link — or no surviving spine —
    /// aborts with partial progress kept for the retry path. Returns the
    /// aborted `(req, flow)` pairs and the `(req, src)` pairs of the
    /// rerouted ones (also counted in [`Self::rerouted_flows`]).
    #[allow(clippy::type_complexity)]
    pub fn abort_dead_flows(&mut self, now: f64) -> (Vec<(usize, Flow)>, Vec<(usize, usize)>) {
        let Self {
            ctx,
            graph,
            rerouted,
            ..
        } = self;
        let Some(g) = graph.as_mut() else {
            return (Vec::new(), Vec::new());
        };
        g.advance(now);
        let dead: Vec<usize> = g
            .flows
            .iter()
            .filter(|(_, f)| {
                g.layout
                    .path_via(f.src, f.dst, f.spine)
                    .iter()
                    .any(|&l| !g.alive[l])
            })
            .map(|(&req, _)| req)
            .collect();
        let mut aborted = Vec::with_capacity(dead.len());
        let mut moved = Vec::new();
        for req in dead {
            let flow = g.flows.get(&req).expect("listed flow exists");
            let path = g.layout.path_via(flow.src, flow.dst, flow.spine);
            let endpoint_dead = path
                .iter()
                .enumerate()
                .any(|(hop, &l)| hop != 2 && !g.alive[l]);
            if !endpoint_dead {
                if let Some(spine) = g.ecmp_spine(req) {
                    let flow = g.flows.get_mut(&req).expect("listed flow exists");
                    flow.spine = spine;
                    *rerouted += 1;
                    moved.push((req, flow.src));
                    continue;
                }
            }
            let flow = g.flows.remove(&req).expect("listed flow exists");
            ctx.cancel_event(flow.event);
            aborted.push((req, flow));
        }
        g.resplit(ctx, now);
        (aborted, moved)
    }
}

impl LinkGraph {
    /// Spine blocks that are currently up, in index order.
    fn alive_spines(&self) -> impl Iterator<Item = usize> + '_ {
        let base = self.layout.spine_base();
        (0..self.layout.spines).filter(move |&s| self.alive[base + s])
    }

    /// The spine block a flow of `req` is ECMP-hashed onto, among the
    /// currently alive blocks; `None` when every spine is down. With one
    /// spine this is always block 0 (bit-identical to the pre-ECMP fabric).
    fn ecmp_spine(&self, req: usize) -> Option<usize> {
        let alive: Vec<usize> = self.alive_spines().collect();
        if alive.is_empty() {
            None
        } else {
            Some(alive[(ecmp_hash(req) % alive.len() as u64) as usize])
        }
    }

    /// Advances every flow's remaining volume to `now` at its current rate.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last_update;
        if dt > 0.0 {
            for flow in self.flows.values_mut() {
                flow.remaining = (flow.remaining - dt * flow.rate).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Recomputes every flow's max-min fair share and re-schedules its
    /// completion event (cancel + re-emit). Called after any change to the
    /// flow set or link liveness; `advance` must have run first.
    fn resplit(&mut self, ctx: &SimulationContext, now: f64) {
        let mut load = vec![0u32; self.capacity.len()];
        for flow in self.flows.values() {
            for l in self.layout.path_via(flow.src, flow.dst, flow.spine) {
                load[l] += 1;
            }
        }
        let layout = self.layout;
        let capacity = &self.capacity;
        let degrade = &self.degrade;
        for (&req, flow) in self.flows.iter_mut() {
            let mut rate = f64::INFINITY;
            for l in layout.path_via(flow.src, flow.dst, flow.spine) {
                rate = rate.min(capacity[l] * degrade[l] / load[l] as f64);
            }
            flow.rate = rate;
            ctx.cancel_event(flow.event);
            flow.event = ctx.emit_at(
                FlowCompleted { req },
                flow.dst_ctx,
                now + flow.remaining / rate,
            );
        }
    }
}
