//! Admission and replica-aware dispatch of arriving requests — and, under
//! fault injection, the fabric fault/recovery and transfer-retry control
//! events.

use crate::components::{prefill, ClusterState, PrefillReplicaState, ReqPhase, Transfer, Wire};
use crate::events::{FabricFault, FabricRecovered, RequestArrived, TransferRetry};
use hack_sim::{Event, EventHandler};
use std::cell::RefCell;
use std::rc::Rc;

/// The cluster frontend: receives [`RequestArrived`] events, asks the run's
/// admission policy whether the request enters at all, and dispatches
/// admitted requests onto the prefill fleet through the run's dispatch policy
/// — by default to the live replica with the shortest queue by queued tokens
/// (§7.1, [`Frontend::route`]). The chosen replica is kicked if idle; *which*
/// queued request a replica serves next is the scheduling policy's decision
/// (see [`prefill::start_prefill`]).
///
/// The frontend is also the addressee of the fault-plan control events that
/// concern no single replica: [`FabricFault`]/[`FabricRecovered`] (link
/// liveness and flow aborts) and [`TransferRetry`] (the seeded-backoff retry
/// chain of aborted KV transfers).
pub(crate) struct Frontend {
    pub cluster: Rc<RefCell<ClusterState>>,
}

/// Dispatches an admitted request onto the prefill fleet (or parks it in
/// `waiting_for_prefill` when every replica is down — drained on recovery).
/// Shared by the arrival path and prefill-failure re-routing.
pub(crate) fn dispatch_to_prefill(cs: &mut ClusterState, req: usize, now: f64) {
    let request = cs.requests[req];
    let ClusterState {
        dispatch,
        prefill,
        costs,
        ..
    } = &mut *cs;
    let service_secs = |group: usize| {
        let (prefill_t, quant_t) = costs.prefill_service_times(group, request.input_len);
        prefill_t + quant_t
    };
    let Some(replica) = dispatch.route(prefill, &request, service_secs) else {
        cs.waiting_for_prefill.push_back(req);
        return;
    };
    cs.charges[req].prefill_replica = u32::try_from(replica).expect("replica index fits in u32");
    let tenant = cs.requests[req].tenant.index();
    cs.prefill[replica].queue.push(req, tenant);
    cs.prefill[replica].queued_tokens += cs.requests[req].input_len;
    if !cs.prefill[replica].busy() {
        prefill::start_prefill(cs, replica, now);
    }
}

impl Frontend {
    /// Least-loaded routing (§7.1), the default dispatch policy: pending
    /// tokens per replica, counting the in-service request of a busy replica
    /// at the arriving request's `input_len`. Failed replicas never qualify;
    /// `None` means the whole fleet is down.
    pub(crate) fn route(prefill: &[PrefillReplicaState], input_len: usize) -> Option<usize> {
        (0..prefill.len())
            .filter(|&r| !prefill[r].failed)
            .min_by_key(|&r| prefill[r].backlog_tokens(input_len))
    }

    fn on_arrival(&self, req: usize, now: f64) {
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        if !cs.admission.admit(&cs.requests[req], now) {
            cs.rejected += 1;
            cs.advance(req, ReqPhase::Rejected, now);
            cs.rejected_per_tenant[cs.requests[req].tenant.index()] += 1;
            if let Some(tel) = &mut cs.tel {
                tel.request_rejected(req, now);
            }
            // Rejection is terminal: children gated on this request are
            // released rather than orphaned.
            cs.release_children(req, now);
            return;
        }
        let tenant = cs.requests[req].tenant.index();
        if let Some(tel) = &mut cs.tel {
            tel.request_arrived(req, now);
            tel.tenant_enqueued(tenant);
        }
        dispatch_to_prefill(cs, req, now);
    }

    /// A fault plan event hit this fault's links. A binary fault cuts them:
    /// every in-flight flow crossing a dead endpoint aborts with partial
    /// progress and enters the retry chain, while flows that only lost their
    /// spine block ECMP-reroute onto a surviving spine. A degradation lowers
    /// the links' capacity instead: nothing aborts, flows just re-split to
    /// the smaller bottleneck equal shares.
    fn on_fabric_fault(&self, fault: usize, now: f64) {
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        cs.injected_failures += 1;
        let event = *cs.config.faults.get(fault);
        let links = cs.fabric.links_for_domain(event.domain);
        if let Some(factor) = event.degrade {
            cs.fabric.set_degrade(&links, factor, now);
            if let Some(tel) = &mut cs.tel {
                tel.link_degraded(fault, now);
            }
            return;
        }
        cs.fabric.set_links(&links, false);
        if let Some(tel) = &mut cs.tel {
            tel.fabric_fault(fault, now);
        }
        let (aborted, rerouted) = cs.fabric.abort_dead_flows(now);
        for (req, src) in rerouted {
            if let Some(tel) = &mut cs.tel {
                tel.flow_rerouted(src, req, now);
            }
        }
        for (req, flow) in aborted {
            cs.fault_tallies[fault].requests_aborted += 1;
            let remaining = flow.remaining;
            cs.advance_transfer(req, now, |t| t.wire = Wire::Backoff { remaining });
            if let Some(tel) = &mut cs.tel {
                tel.transfer_aborted(flow.src, req, flow.started, now);
            }
            cs.schedule_retry(req, now);
        }
    }

    fn on_fabric_recovered(&self, fault: usize, now: f64) {
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        let event = *cs.config.faults.get(fault);
        let links = cs.fabric.links_for_domain(event.domain);
        if event.degrade.is_some() {
            cs.fabric.set_degrade(&links, 1.0, now);
            if let Some(tel) = &mut cs.tel {
                tel.link_restored(fault, now);
            }
            return;
        }
        cs.fabric.set_links(&links, true);
        if let Some(tel) = &mut cs.tel {
            tel.fabric_recovered(fault, now);
        }
    }

    /// The seeded backoff of an aborted transfer elapsed: restart the flow
    /// over the surviving path, re-enter the backoff if the path is still
    /// dead, or — when the reservation died with its replica — dispatch the
    /// request afresh.
    fn on_transfer_retry(&self, req: usize, now: f64) {
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        let phase = cs.lifecycle[req].phase;
        // A transfer out of backoff marks the retry as stale (the request
        // was re-dispatched through another path meanwhile, or resolved).
        let Some(Transfer {
            reserved,
            wire: Wire::Backoff { remaining },
        }) = phase.transfer()
        else {
            return;
        };
        if !reserved {
            // The target decode replica failed during the backoff and took
            // the reservation with it: start the dispatch over. A pipelined
            // transfer does so although its prefill is still in service
            // (`ReqPhase::redispatches_under_prefill`).
            if let ReqPhase::Transferring { since, .. } = phase {
                cs.charges[req].comm_time += now - since;
            }
            cs.try_dispatch_to_decode(req, now);
            return;
        }
        let replica = cs.charges[req].prefill_replica as usize;
        let target = cs.charges[req].decode_replica as usize;
        if cs.fabric.path_alive(replica, target) {
            // Note: an exposed transfer keeps its `since` — the
            // communication charging epoch spans aborts and backoff gaps.
            let started = cs.fabric.start_flow(
                req,
                replica,
                target,
                cs.decode_ctxs[target].id(),
                remaining,
                now,
            );
            debug_assert!(started, "path checked alive");
            cs.advance_transfer(req, now, |t| t.wire = Wire::Flow);
            if let Some(tel) = &mut cs.tel {
                tel.flow_started(replica);
            }
        } else {
            cs.schedule_retry(req, now);
        }
    }
}

impl EventHandler for Frontend {
    fn on(&mut self, event: Event) {
        let now = event.time;
        if let Some(&RequestArrived { req }) = event.get::<RequestArrived>() {
            self.on_arrival(req, now);
        } else if let Some(&TransferRetry { req }) = event.get::<TransferRetry>() {
            self.on_transfer_retry(req, now);
        } else if let Some(&FabricFault { fault }) = event.get::<FabricFault>() {
            self.on_fabric_fault(fault, now);
        } else if let Some(&FabricRecovered { fault }) = event.get::<FabricRecovered>() {
            self.on_fabric_recovered(fault, now);
        }
    }
}
