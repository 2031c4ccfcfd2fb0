//! The prefill lifecycle of one replica — including prefill-side failures.

use crate::components::{frontend, ClusterState};
use crate::events::{
    PrefillFailed, PrefillFinished, PrefillRecovered, RequestArrived, TransferCompleted,
};
use hack_sim::{Event, EventHandler};
use std::cell::RefCell;
use std::rc::Rc;

/// One prefill replica: serves its queue one request at a time (prefill +
/// quantization under its group's cost model), optionally starting the KV
/// transfer concurrently with prefill (pipelining, Fig. 1(d)), and hands
/// finished requests to the transfer/decode pipeline. Under fault injection it
/// fails (aborting its in-service prefill and re-routing its queue) and
/// recovers (draining requests parked while the whole fleet was down).
pub(crate) struct PrefillReplica {
    pub index: usize,
    pub cluster: Rc<RefCell<ClusterState>>,
}

/// Starts the next queued prefill on `replica`, if any — *which* queued
/// request is the run's scheduling policy's decision (FCFS pops the FIFO
/// head; the tenant-aware policies pick a tenant from the per-tenant
/// sub-queue heads).
///
/// Free function (rather than a method of [`PrefillReplica`]) because both the
/// frontend (on arrival at an idle replica) and the replica itself (on
/// completion) trigger it while holding the shared state.
pub(crate) fn start_prefill(cs: &mut ClusterState, replica: usize, now: f64) {
    let Some(req) = cs.scheduling.select(
        &mut cs.prefill[replica].queue,
        &cs.requests,
        &cs.config.policy.tenants,
    ) else {
        return;
    };
    cs.prefill[replica].busy = true;
    cs.prefill[replica].current = Some(req);
    let group = cs.prefill[replica].group;
    let request = cs.requests[req];

    cs.states[req].prefill_wait = (now - request.arrival).max(0.0);
    // Session prefix lookup: on a hit, prefill (and later the KV transfer)
    // covers only the suffix past the cached prefix.
    let prompt = cs.resolve_prefix(req, group, now);
    let (prefill_t, quant_t) = cs.costs.prefill_service_times(group, prompt);
    cs.states[req].prefill_time = prefill_t;
    cs.states[req].quant_time = quant_t;
    if let Some(tel) = &mut cs.tel {
        tel.tenant_dequeued(request.tenant.index());
        let wait_start = now - cs.states[req].prefill_wait;
        tel.prefill_started(replica, req, wait_start, now, prefill_t, quant_t);
    }

    // Pipelining: start the KV transfer concurrently with prefill when a decode
    // replica can take the request right now (Fig. 1(d): this hides communication
    // only while the transfer is shorter than prefill and memory is available).
    // On the link-graph fabric the flow only pipelines over a live path; a dead
    // path falls back to the dispatch at `PrefillFinished` (and its retries).
    // Prefix hits skip pipelining: their placement is forced onto the replica
    // holding the prefix, which the post-prefill dispatch handles.
    if cs.config.cluster.pipelining && cs.states[req].prefix.is_none() {
        let bytes = cs.kv_reserve_bytes(&request);
        let target = cs
            .best_decode_replica(bytes)
            .filter(|&t| !cs.fabric.graph_enabled() || cs.fabric.path_alive(replica, t));
        if let Some(target) = target {
            cs.reserve(req, target, bytes);
            if cs.fabric.graph_enabled() {
                // The flow races prefill: an early landing is recorded in
                // `pipelined_transfer_end`; otherwise `PrefillFinished`
                // exposes the remaining communication time.
                let volume = cs.transfer_volume(group, cs.decode[target].group, req);
                let started = cs.fabric.start_flow(
                    req,
                    replica,
                    target,
                    cs.decode_ctxs[target].id(),
                    volume,
                    now,
                );
                debug_assert!(started, "pipelined path checked alive");
                if let Some(tel) = &mut cs.tel {
                    tel.flow_started(replica);
                }
            } else {
                let duration = cs.costs.transfer_duration_len(
                    group,
                    cs.decode[target].group,
                    request.input_len,
                );
                let end = cs.fabric.reserve_nic(replica, now, duration);
                cs.states[req].pipelined_transfer_end = Some(end);
                if let Some(tel) = &mut cs.tel {
                    tel.transfer_started(replica, req, now, end - duration, end);
                }
            }
        }
    }

    let finish = cs.prefill_ctxs[replica].emit_at(
        PrefillFinished { req },
        cs.prefill_ctxs[replica].id(),
        now + prefill_t + quant_t,
    );
    cs.states[req].pending_prefill = Some(finish);
}

impl PrefillReplica {
    fn on_finished(&self, req: usize, now: f64) {
        let i = self.index;
        let mut cs = self.cluster.borrow_mut();

        cs.prefill[i].busy = false;
        cs.prefill[i].current = None;
        cs.states[req].pending_prefill = None;
        cs.prefill[i].queued_tokens = cs.prefill[i]
            .queued_tokens
            .saturating_sub(cs.requests[req].input_len);

        // Hand the request to the transfer/decode pipeline.
        if let Some(transfer_end) = cs.states[req].pipelined_transfer_end {
            // Pipelined: the transfer has been running during prefill; only
            // the non-overlapped part counts as communication time. (On the
            // link-graph fabric this is the flow-landed-early case, so the
            // exposed part is zero.)
            let ready = transfer_end.max(now);
            cs.states[req].comm_time += (transfer_end - now).max(0.0);
            let target = cs.states[req].decode_replica;
            let dst = cs.decode_ctxs[target].id();
            cs.fabric.deliver(TransferCompleted { req }, dst, ready);
        } else if cs.states[req].reserved {
            // Link-graph pipelined flow still in flight (or in retry
            // backoff): communication is exposed from here on; the
            // `FlowCompleted` delivery — or the retry chain — finishes the
            // hand-off.
            cs.states[req].transfer_start = Some(now);
        } else {
            cs.try_dispatch_to_decode(req, now);
        }

        // Start the next queued prefill, if any.
        if !cs.prefill[i].queue.is_empty() {
            start_prefill(&mut cs, i, now);
        }
    }

    fn on_failed(&self, fault: usize, now: f64) {
        let i = self.index;
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        cs.injected_failures += 1;
        cs.prefill[i].failed = true;
        if let Some(tel) = &mut cs.tel {
            tel.prefill_failed(i, now);
        }

        // Abort the in-service prefill (and its pipelined transfer, if any):
        // the request re-enters admission from scratch.
        if let Some(req) = cs.prefill[i].current.take() {
            cs.prefill[i].busy = false;
            cs.prefill[i].queued_tokens = cs.prefill[i]
                .queued_tokens
                .saturating_sub(cs.requests[req].input_len);
            if let Some(ev) = cs.states[req].pending_prefill.take() {
                cs.prefill_ctxs[i].cancel_event(ev);
            }
            if let Some(flow) = cs.fabric.abort_flow(req, now) {
                if let Some(tel) = &mut cs.tel {
                    tel.transfer_aborted(flow.src, req, flow.started, now);
                }
            } else if cs.states[req].pipelined_transfer_end.is_some() {
                // Flat pipelined reservation (or an early-landed flow): the
                // in-flight gauge was counted up when it started.
                if let Some(tel) = &mut cs.tel {
                    tel.transfer_landed();
                }
            }
            if cs.states[req].reserved {
                let target = cs.release(req);
                if cs.decode[target].draining {
                    cs.maybe_finish_drain(target, now);
                }
            }
            // The re-admitted request re-runs prefill from scratch and will
            // re-resolve (and re-pin) its prefix there.
            cs.release_hit(req);
            cs.states[req].reset_for_readmission();
            cs.requeued += 1;
            cs.fault_tallies[fault].requests_aborted += 1;
            let frontend_id = cs.frontend_id.expect("frontend registered before events");
            cs.fabric.deliver(RequestArrived { req }, frontend_id, now);
            if let Some(tel) = &mut cs.tel {
                tel.requeued(cs.states[req].decode_replica, req, now);
            }
        }

        // Re-route the queue onto live replicas (or park requests in
        // `waiting_for_prefill` when the whole fleet is down).
        let queued = cs.prefill[i].queue.drain_all();
        cs.prefill[i].queued_tokens = 0;
        for r in queued {
            frontend::dispatch_to_prefill(cs, r, now);
        }
    }

    fn on_recovered(&self, now: f64) {
        let i = self.index;
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        cs.prefill[i].failed = false;
        if let Some(tel) = &mut cs.tel {
            tel.prefill_recovered(i, now);
        }
        // Dispatch requests that arrived while the whole prefill fleet was
        // down.
        let parked: Vec<usize> = cs.waiting_for_prefill.drain(..).collect();
        for r in parked {
            frontend::dispatch_to_prefill(cs, r, now);
        }
    }
}

impl EventHandler for PrefillReplica {
    fn on(&mut self, event: Event) {
        let now = event.time;
        if let Some(&PrefillFinished { req }) = event.get::<PrefillFinished>() {
            self.on_finished(req, now);
        } else if let Some(&PrefillFailed { fault }) = event.get::<PrefillFailed>() {
            self.on_failed(fault, now);
        } else if event.is::<PrefillRecovered>() {
            self.on_recovered(now);
        }
    }
}
