//! The prefill lifecycle of one replica — including prefill-side failures.

use crate::components::{frontend, ClusterState, ReqPhase, Transfer, Wire};
use crate::events::{PrefillFailed, PrefillFinished, PrefillRecovered, TransferCompleted};
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
    let group = cs.prefill[replica].group;
    let request = cs.requests[req];

    cs.charges[req].prefill_wait = (now - request.arrival).max(0.0);
    // Session prefix lookup: on a hit, prefill (and later the KV transfer)
    // covers only the suffix past the cached prefix.
    let prompt = cs.resolve_prefix(req, group, now);
    let (prefill_t, quant_t) = cs.costs.prefill_service_times(group, prompt);
    cs.charges[req].prefill_time = prefill_t;
    cs.charges[req].quant_time = quant_t;

    // Pipelining: start the KV transfer concurrently with prefill when a decode
    // replica can take the request right now (Fig. 1(d): this hides communication
    // only while the transfer is shorter than prefill and memory is available).
    // On the link-graph fabric the flow only pipelines over a live path; a dead
    // path falls back to the dispatch at `PrefillFinished` (and its retries).
    // Prefix hits skip pipelining: their placement is forced onto the replica
    // holding the prefix, which the post-prefill dispatch handles.
    let mut pipelined = None;
    if cs.config.cluster.pipelining && cs.lifecycle[req].prefix.is_none() {
        let bytes = cs.request_kv_bytes(req);
        let target = cs
            .best_decode_replica(bytes)
            .filter(|&t| !cs.fabric.graph_enabled() || cs.fabric.path_alive(replica, t));
        if let Some(target) = target {
            cs.reserve(req, target, bytes);
            // A link-graph flow races prefill: an early landing is recorded
            // as `Wire::LandsAt`; otherwise `PrefillFinished` exposes the
            // remaining communication time.
            let wire = cs.start_wire(req, target, now);
            debug_assert!(
                !matches!(wire, Wire::Backoff { .. }),
                "pipelined path checked alive"
            );
            let reserved = true;
            pipelined = Some(Transfer { reserved, wire });
        }
    }

    let finish = cs.prefill_ctxs[replica].emit_at(
        PrefillFinished { req },
        cs.prefill_ctxs[replica].id(),
        now + prefill_t + quant_t,
    );
    cs.prefill[replica].current = Some((req, finish));
    cs.advance(req, ReqPhase::Prefilling(pipelined), now);
}

impl PrefillReplica {
    fn on_finished(&self, req: usize, now: f64) {
        let i = self.index;
        let mut cs = self.cluster.borrow_mut();

        cs.prefill[i].current = None;
        cs.prefill[i].queued_tokens = cs.prefill[i]
            .queued_tokens
            .saturating_sub(cs.requests[req].input_len);

        // Hand the request to the transfer/decode pipeline.
        match cs.lifecycle[req].phase {
            ReqPhase::Prefilling(None) => cs.try_dispatch_to_decode(req, now),
            // Pipelined: the transfer carries on as exposed communication.
            // (So does the transfer of a request that re-dispatched under its
            // prefill, `ReqPhase::redispatches_under_prefill`.)
            ReqPhase::Prefilling(Some(transfer)) | ReqPhase::Transferring { transfer, .. } => {
                if let Wire::LandsAt(transfer_end) = transfer.wire {
                    // Only the part not overlapped by prefill counts as
                    // communication time (zero when a link-graph flow
                    // landed early).
                    cs.charges[req].comm_time += (transfer_end - now).max(0.0);
                    let dst = cs.decode_ctxs[cs.charges[req].decode_replica as usize].id();
                    cs.fabric
                        .deliver(TransferCompleted { req }, dst, transfer_end.max(now));
                }
                // Otherwise a link-graph flow is in flight or in retry
                // backoff: its `FlowCompleted` delivery — or the retry chain
                // — finishes the hand-off (re-dispatching if its target
                // failed meanwhile).
                let since = now;
                cs.advance(req, ReqPhase::Transferring { since, transfer }, now);
            }
            // Re-dispatched under its prefill and already waiting for memory
            // or decoding: nothing is left to hand off.
            ReqPhase::WaitingForMemory { .. } | ReqPhase::Decoding { .. } => {}
            phase => debug_assert!(false, "request {req} finished prefill in {phase:?}"),
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
        if let Some((req, finish)) = cs.prefill[i].current.take() {
            cs.prefill[i].queued_tokens = cs.prefill[i]
                .queued_tokens
                .saturating_sub(cs.requests[req].input_len);
            cs.prefill_ctxs[i].cancel_event(finish);
            cs.fabric.abort_flow(req, now);
            if cs.lifecycle[req].phase.holds_reservation() {
                let target = cs.release(req);
                if cs.decode[target].draining {
                    cs.maybe_finish_drain(target, now);
                }
            }
            // The re-admitted request re-runs prefill from scratch and will
            // re-resolve (and re-pin) its prefix there.
            cs.release_hit(req);
            cs.fault_tallies[fault].requests_aborted += 1;
            cs.readmit(req, now);
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
