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
//!   receiving the equal share of its bottleneck link,
//!   `min_l capacity(l)/flows(l)` along its path. This is not max-min
//!   fairness: capacity a flow cannot use at its bottleneck is not handed to
//!   the flows sharing its other links (true water-filling is ROADMAP item
//!   2(b)). Progress is re-split on every flow start/finish/failure: remaining
//!   volumes advance at the old rates and rates are recomputed — group NIC
//!   bandwidth is emergent rather than assumed. The fabric keeps one pending
//!   [`FlowCompleted`], the earliest-finishing flow's (lowest request index on
//!   ties); each re-split cancels it and emits the new earliest. Dead links
//!   abort their flows with partial progress kept for the retry path.

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
    /// Current bottleneck-share rate (Gbps).
    pub rate: f64,
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
    /// The fabric's one pending [`FlowCompleted`]: the earliest-finishing
    /// flow's, re-targeted by every re-split.
    pending: Option<EventId>,
    /// Per-link flow counts, a scratch buffer [`LinkGraph::resplit`] refills.
    load: Vec<u32>,
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
        let load = vec![0; capacity.len()];
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
                pending: None,
                load,
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
        g.flows.insert(
            req,
            Flow {
                src,
                dst,
                spine,
                dst_ctx,
                remaining: volume,
                rate: 0.0,
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
        // The pending event is the one being delivered: nothing to cancel.
        g.pending = None;
        g.advance(now);
        let flow = g.flows.remove(&req);
        g.resplit(ctx, now);
        flow
    }

    /// Aborts `req`'s flow (e.g. its source prefill replica died) and
    /// re-splits the survivors. Returns the aborted flow with its partial
    /// progress in `remaining`.
    pub fn abort_flow(&mut self, req: usize, now: f64) -> Option<Flow> {
        let Self { ctx, graph, .. } = self;
        let g = graph.as_mut()?;
        g.advance(now);
        let flow = g.flows.remove(&req);
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
        let n = self.alive_spines().count() as u64;
        if n == 0 {
            None
        } else {
            self.alive_spines().nth((ecmp_hash(req) % n) as usize)
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

    /// Recomputes every flow's bottleneck equal share
    /// `min_l capacity(l)·degrade(l)/flows(l)` (not max-min water-filling:
    /// capacity a flow cannot use at its bottleneck is not handed to the
    /// others — ROADMAP item 2(b)) and re-targets the fabric's one pending
    /// [`FlowCompleted`] at the earliest-finishing flow, ties going to the
    /// lowest request index. Called after any change to the flow set or link
    /// state; `advance` must have run first.
    fn resplit(&mut self, ctx: &SimulationContext, now: f64) {
        let load = &mut self.load;
        load.fill(0);
        for flow in self.flows.values() {
            for l in self.layout.path_via(flow.src, flow.dst, flow.spine) {
                load[l] += 1;
            }
        }
        let layout = self.layout;
        let capacity = &self.capacity;
        let degrade = &self.degrade;
        let mut next: Option<(f64, usize, ComponentId)> = None;
        for (&req, flow) in self.flows.iter_mut() {
            let mut rate = f64::INFINITY;
            for l in layout.path_via(flow.src, flow.dst, flow.spine) {
                rate = rate.min(capacity[l] * degrade[l] / load[l] as f64);
            }
            flow.rate = rate;
            let at = now + flow.remaining / rate;
            // Strict `<` over the request-ordered map: ties keep the lowest
            // request index.
            if next.is_none_or(|(t, ..)| at < t) {
                next = Some((at, req, flow.dst_ctx));
            }
        }
        if let Some(id) = self.pending.take() {
            ctx.cancel_event(id);
        }
        self.pending = next.map(|(at, req, dst)| ctx.emit_at(FlowCompleted { req }, dst, at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_sim::{Event, EventHandler, Simulation};
    use hack_tensor::DetRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records every delivered [`FlowCompleted`] as `(time, req)`.
    #[derive(Default)]
    struct Recorder(Vec<(f64, usize)>);

    impl EventHandler for Recorder {
        fn on(&mut self, event: Event) {
            let &FlowCompleted { req } = event.get::<FlowCompleted>().expect("only flows land");
            self.0.push((event.time, req));
        }
    }

    /// A simulation, a link-graph fabric and the decode-side recorder. The
    /// fabric has `replicas` prefill replicas with `nic` Gbps NICs and as
    /// many decode replicas with 100 Gbps NICs, two replicas per ToR
    /// (100 Gbps uplinks) and `spines` 400 Gbps spine blocks.
    struct Rig {
        sim: Simulation,
        fabric: NetworkFabric,
        dst: ComponentId,
        delivered: Rc<RefCell<Recorder>>,
    }

    impl Rig {
        fn new(replicas: usize, nic: f64, spines: usize) -> Self {
            let mut sim = Simulation::new(7);
            let ctx = sim.create_context("fabric");
            sim.create_context("decode");
            let delivered = Rc::new(RefCell::new(Recorder::default()));
            let dst = sim.add_handler("decode", delivered.clone());
            let fabric = NetworkFabric::with_link_graph(
                ctx,
                vec![nic; replicas],
                vec![100.0; replicas],
                2,
                2,
                100.0,
                400.0,
                spines,
            );
            Self {
                sim,
                fabric,
                dst,
                delivered,
            }
        }

        fn start(&mut self, req: usize, src: usize, dst: usize, volume: f64, now: f64) {
            assert!(self.fabric.start_flow(req, src, dst, self.dst, volume, now));
        }

        /// Delivers the next event and finishes its flow, as the decode
        /// replica does; returns `(time, req)`.
        fn land(&mut self) -> (f64, usize) {
            assert!(self.sim.step(), "a flow completion is pending");
            let (time, req) = *self.delivered.borrow().0.last().expect("delivered");
            assert!(self.fabric.finish_flow(req, time).is_some());
            (time, req)
        }

        fn graph(&self) -> &LinkGraph {
            self.fabric.graph.as_ref().expect("link graph")
        }
    }

    #[test]
    fn every_fabric_operation_emits_one_event() {
        let mut rig = Rig::new(4, 10.0, 1);
        let mut emitted = rig.sim.emitted_count();
        let mut emits_one = |rig: &Rig| {
            let now = rig.sim.emitted_count();
            assert_eq!(now, emitted + 1);
            emitted = now;
        };
        for req in 0..6 {
            rig.start(req, req % 4, (req + 1) % 4, 10.0 + req as f64, 0.0);
            emits_one(&rig);
        }
        let links = rig.fabric.links_for_domain(FaultDomain::Spine(0));
        rig.fabric.set_degrade(&links, 0.5, 0.5);
        emits_one(&rig);
        assert!(rig.fabric.abort_flow(3, 0.5).is_some());
        emits_one(&rig);
        rig.land();
        emits_one(&rig);
        assert_eq!(rig.fabric.active_flows(), 4);
    }

    #[test]
    fn smaller_flow_on_a_shared_nic_lands_first() {
        let mut rig = Rig::new(1, 10.0, 1);
        rig.start(0, 0, 0, 30.0, 0.0);
        rig.start(1, 0, 0, 10.0, 0.0);
        // Both flows get half the 10 Gbps NIC: 10 / 5 = 2 s.
        assert_eq!(rig.land(), (2.0, 1));
        // The survivor moved 10 of its 30 and now runs alone at 10 Gbps.
        assert_eq!(rig.land(), (4.0, 0));
        assert!(!rig.sim.step(), "nothing left pending");
    }

    #[test]
    fn equal_flows_land_in_request_order() {
        let mut rig = Rig::new(1, 10.0, 1);
        rig.start(7, 0, 0, 10.0, 0.0);
        rig.start(3, 0, 0, 10.0, 0.0);
        assert_eq!(rig.land(), (2.0, 3));
        assert_eq!(rig.land(), (2.0, 7));
    }

    #[test]
    fn aborting_the_pending_flow_retargets_the_completion() {
        let mut rig = Rig::new(1, 10.0, 1);
        rig.start(0, 0, 0, 10.0, 0.0);
        rig.start(1, 0, 0, 30.0, 0.0);
        // At 1 s flow 0 (due at 2 s) has 5 left and flow 1 has 25.
        let aborted = rig.fabric.abort_flow(0, 1.0).expect("active");
        assert_eq!(aborted.remaining, 5.0);
        assert_eq!(rig.land(), (3.5, 1));
        assert!(!rig.sim.step(), "the aborted flow's event never lands");
        assert_eq!(rig.delivered.borrow().0.len(), 1);
    }

    /// The flow-capacity invariant: no link carries more than its degraded
    /// capacity, and exactly the non-empty fabric has a pending completion.
    fn assert_within_capacity(g: &LinkGraph) {
        let mut used = vec![0.0; g.capacity.len()];
        for f in g.flows.values() {
            for l in g.layout.path_via(f.src, f.dst, f.spine) {
                used[l] += f.rate;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            let cap = g.capacity[l] * g.degrade[l];
            assert!(u <= cap * (1.0 + 1e-12), "link {l}: {u} Gbps over {cap}");
        }
        assert_eq!(g.pending.is_some(), !g.flows.is_empty());
    }

    #[test]
    fn random_operations_keep_links_within_capacity() {
        let mut rig = Rig::new(8, 40.0, 2);
        let mut rng = DetRng::new(0x5eed);
        let links = rig.graph().capacity.len();
        let (mut next_req, mut most_active) = (0, 0);
        for _ in 0..2000 {
            let now = rig.sim.time();
            let active: Vec<usize> = rig.graph().flows.keys().copied().collect();
            most_active = most_active.max(active.len());
            match rng.range_usize(0, 4) {
                0 => {
                    let (src, dst) = (rng.range_usize(0, 8), rng.range_usize(0, 8));
                    rig.start(next_req, src, dst, rng.range_f64(1.0, 50.0), now);
                    next_req += 1;
                }
                1 if !active.is_empty() => {
                    rig.land();
                }
                2 if !active.is_empty() => {
                    let req = active[rng.range_usize(0, active.len())];
                    assert!(rig.fabric.abort_flow(req, now).is_some());
                }
                _ => {
                    let link = rng.range_usize(0, links);
                    let factor = if rng.chance(0.5) {
                        1.0
                    } else {
                        rng.range_f64(0.1, 1.0)
                    };
                    rig.fabric.set_degrade(&[link], factor, now);
                }
            }
            assert_within_capacity(rig.graph());
        }
        assert!(most_active >= 8, "the sequence exercised contention");
    }
}
