//! The decode-fleet autoscaling controller.
//!
//! A dedicated engine component on the same self-addressed tick pattern as
//! the telemetry sampler: every [`SCALE_TICK_SECS`] it snapshots each decode
//! group on the cluster blackboard, asks the run's scaling policy
//! (built from its [`crate::policy::ScalingPolicyKind`]) for a desired replica count, clamps
//! it to `[1, capacity]`, and turns the delta into the same event machinery
//! fault injection uses:
//!
//! * **Scale-up** picks the lowest-index scaled-out replica of the group,
//!   charges the group's provisioning delay
//!   ([`ReplicaGroup::provision_delay_s`](crate::fleet::ReplicaGroup)), and
//!   delivers [`ReplicaProvisioned`] to itself when the delay elapses — only
//!   then does the replica become routable (and billable).
//! * **Scale-down** marks the highest-index live replica draining: it admits
//!   nothing new, finishes its in-flight decodes and inbound transfers, and
//!   powers down (closing its billed interval) the instant it goes idle.
//!
//! The controller exists only in runs with a scaling policy
//! ([`crate::policy::ScalingPolicyKind::Off`] builds no controller component), draws no
//! randomness, and emits only to itself — so an inert policy (watermarks that
//! never fire) leaves the simulation outcome bit-identical to `Off`.

use crate::components::ClusterState;
use crate::events::{ReplicaProvisioned, ScaleTick};
use crate::policy::{GroupScalingView, Scaling};
use hack_sim::{Event, EventHandler, SimulationContext};
use std::cell::RefCell;
use std::rc::Rc;

/// Period of the scaling control loop in simulated seconds (matches the
/// telemetry sampler's default cadence).
pub const SCALE_TICK_SECS: f64 = 10.0;

/// The autoscaling engine component. Owns the run's scaling policy and the
/// order book of in-flight provisioning; everything else lives on the
/// cluster blackboard.
pub(crate) struct ScalingController {
    pub ctx: SimulationContext,
    pub cluster: Rc<RefCell<ClusterState>>,
    pub policy: Scaling,
    /// Per-decode-replica in-flight scale-up orders (ordered but not yet
    /// provisioned). Controller-local: the blackboard only learns about a
    /// replica when it actually joins.
    pub ordered: Vec<bool>,
    /// Trace arrivals already counted by previous ticks (arrival-rate input
    /// of the predictive policy).
    pub arrivals_seen: usize,
}

impl ScalingController {
    fn on_tick(&mut self, now: f64) {
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        // Trace arrivals since the previous tick (arrival times ascend).
        let seen = cs.requests.partition_point(|r| r.arrival <= now);
        let arrived = seen - self.arrivals_seen;
        self.arrivals_seen = seen;

        // Orders decided this tick: (replica, provisioning delay), emitted
        // after the group loop.
        let mut orders: Vec<(usize, f64)> = Vec::new();
        let fleet = cs.config.cluster.fleet.decode;
        let mut base = 0usize;
        for g in 0..fleet.len() {
            let group = *fleet.get(g);
            let replicas = base..base + group.replicas;
            base += group.replicas;

            let live = replicas
                .clone()
                .filter(|&r| cs.decode[r].dispatchable())
                .count();
            let provisioning = replicas.clone().filter(|&r| self.ordered[r]).count();
            let draining = replicas.clone().filter(|&r| cs.decode[r].draining).count();
            let view = GroupScalingView {
                group: g,
                live,
                provisioning,
                draining,
                capacity: group.replicas,
                active: replicas.clone().map(|r| cs.decode[r].active).sum(),
                batch: cs.decode_models[g].params.decode_batch.max(1.0) as usize,
                // The memory-wait queue is shared across decode groups;
                // each group's view sees the whole backlog (exact for the
                // single-group fleets the experiments sweep).
                queued: cs.waiting_for_memory.len(),
                arrived,
            };
            let desired = self.policy.desired(&view, now).clamp(1, group.replicas);
            let committed = live + provisioning;

            if desired > committed {
                // Wake scaled-out replicas, lowest index first, while any
                // remain (failed replicas are racked, not scaled out, so
                // they are never double-ordered).
                let mut wanted = desired - committed;
                for r in replicas.clone() {
                    if wanted == 0 {
                        break;
                    }
                    if cs.decode[r].scaled_out && !self.ordered[r] {
                        self.ordered[r] = true;
                        wanted -= 1;
                        cs.scale_ups += 1;
                        if let Some(tel) = &mut cs.tel {
                            tel.replica_provisioning(r, now);
                        }
                        orders.push((r, group.provision_delay_s));
                    }
                }
            } else if desired < committed {
                // Drain live replicas, highest index first (provisioning
                // orders cannot be recalled — the instance launch is
                // already paid for).
                let mut excess = committed - desired;
                for r in replicas.clone().rev() {
                    if excess == 0 {
                        break;
                    }
                    if cs.decode[r].dispatchable() {
                        cs.decode[r].draining = true;
                        excess -= 1;
                        // Already idle: the drain completes on the spot.
                        cs.maybe_finish_drain(r, now);
                    }
                }
            }
        }
        for (replica, delay) in orders {
            self.ctx.emit_self(ReplicaProvisioned { replica }, delay);
        }
        self.ctx.emit_self(ScaleTick, SCALE_TICK_SECS);
    }

    fn on_provisioned(&mut self, replica: usize, now: f64) {
        self.ordered[replica] = false;
        self.cluster.borrow_mut().replica_join(replica, now);
    }
}

impl EventHandler for ScalingController {
    fn on(&mut self, event: Event) {
        let now = event.time;
        if event.is::<ScaleTick>() {
            self.on_tick(now);
        } else if let Some(&ReplicaProvisioned { replica }) = event.get::<ReplicaProvisioned>() {
            self.on_provisioned(replica, now);
        }
    }
}
