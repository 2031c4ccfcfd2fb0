//! Decode-side memory accounting, batching, completion — and failures.
//!
//! A replica failure touches only the requests holding memory on the
//! replica: it reads them from the replica's reservation and prefix-hit
//! indices, in ascending request order, so its cost is O(requests on the
//! replica) and its results equal those of a scan over the whole trace.

use crate::components::{ClusterState, ReqPhase, Wire};
use crate::events::{
    DecodeFinished, FlowCompleted, ReplicaFailed, ReplicaRecovered, TransferCompleted,
};
use hack_sim::{Event, EventHandler};
use std::cell::RefCell;
use std::rc::Rc;

/// One decode replica: admits transferred requests into its continuous batch
/// (with congestion slowdown beyond the nominal batch size), accounts KV
/// memory, completes requests (draining the memory-wait queue), and — under
/// fault injection — fails and recovers, aborting and re-queueing its in-flight
/// requests.
pub(crate) struct DecodeReplica {
    pub index: usize,
    pub cluster: Rc<RefCell<ClusterState>>,
}

/// `req`'s KV data fully landed on replica `d`: shared by the flat fabric's
/// [`TransferCompleted`] path and the link-graph fabric's [`FlowCompleted`]
/// path. It joins `d`'s continuous batch on its reservation there.
fn land(cs: &mut ClusterState, d: usize, req: usize, now: f64) {
    if cs.decode[d].failed || !cs.lifecycle[req].phase.holds_reservation() {
        // The KV data landed on a replica that failed while the transfer was
        // in flight (its reservation was dropped at failure time, even if the
        // replica has since recovered empty). Re-queue through the normal
        // admission path: the prefill side still holds the CPU copy and
        // re-transfers it.
        cs.requeued += 1;
        if let Some(tel) = &mut cs.tel {
            tel.requeued(d, req, now);
        }
        cs.try_dispatch_to_decode(req, now);
        return;
    }
    cs.decode[d].active += 1;
    cs.decode[d].resident_tokens += cs.requests[req].total_tokens();
    let group = cs.decode[d].group;
    let (decode_t, dequant_t) = cs.costs.decode_durations(group, &cs.requests[req]);
    // Congestion: when more sequences are resident than the group's
    // nominal batch, every iteration takes proportionally longer.
    let nominal = cs.decode_models[group].params.decode_batch;
    let congestion = (cs.decode[d].active as f64 / nominal).max(1.0);
    let decode_t = decode_t * congestion;
    let dequant_t = dequant_t * congestion;
    cs.charges[req].decode_time = decode_t;
    cs.charges[req].dequant_time = dequant_t;
    let event = cs.decode_ctxs[d].emit_at(
        DecodeFinished { req },
        cs.decode_ctxs[d].id(),
        now + decode_t + dequant_t,
    );
    let started = now;
    cs.advance(req, ReqPhase::Decoding { event, started }, now);
}

impl DecodeReplica {
    fn on_transfer_completed(&self, req: usize, now: f64) {
        let d = self.index;
        land(&mut self.cluster.borrow_mut(), d, req, now);
    }

    /// A fair-shared flow delivered its last byte (link-graph fabric only).
    fn on_flow_completed(&self, req: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        cs.fabric.finish_flow(req, now);

        // Exposed communication: from the charging epoch's start (reservation,
        // or prefill completion for pipelined flows) to the landing — backoff
        // gaps and aborted partial attempts included.
        let ReqPhase::Transferring { since, .. } = cs.lifecycle[req].phase else {
            // Pipelined flow landing while its prefill still runs: record the
            // landing; `PrefillFinished` admits it with zero exposed
            // communication.
            cs.advance_transfer(req, now, |t| t.wire = Wire::LandsAt(now));
            return;
        };
        cs.charges[req].comm_time += now - since;
        land(cs, d, req, now);
    }

    fn on_decode_finished(&self, req: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        let held_on = cs.release(req);
        debug_assert_eq!(held_on, d, "request {req} decoded off its reservation");
        cs.decode[d].active -= 1;
        cs.decode[d].resident_tokens = cs.decode[d]
            .resident_tokens
            .saturating_sub(cs.requests[req].total_tokens());
        cs.charges[req].finish_time = now;
        cs.advance(req, ReqPhase::Done, now);
        cs.completed += 1;

        // Session bookkeeping: the finished request's full context becomes
        // (or refreshes) its session's cached prefix on this replica.
        cs.cache_on_decode_finished(req, d);

        // Freed memory: admit waiting requests in FIFO order while they fit.
        cs.drain_waiting(now);

        // A draining replica that just went idle completes its scale-down.
        if cs.decode[d].draining {
            cs.maybe_finish_drain(d, now);
        }

        // Children gated on this request's completion arrive now.
        cs.release_children(req, now);
    }

    /// Replica failure: aborts every request holding memory here and drops
    /// the replica's cached prefixes. The work is O(requests on the replica):
    /// the candidates come from the replica's reservation and prefix-hit
    /// indices, never from a pass over the trace (see [`FailureSets`]).
    fn on_failed(&self, fault: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        cs.injected_failures += 1;
        cs.decode[d].failed = true;
        if let Some(tel) = &mut cs.tel {
            tel.replica_failed(d, now);
        }
        let sets = FailureSets::indexed(&cs, d);
        #[cfg(test)]
        oracle::check(&cs, d, &sets);

        cs.fault_tallies[fault].requests_aborted += sets.affected;

        // Abort every in-flight decode on this replica: cancel its completion
        // event and charge the wasted time to the decode stage.
        let group = cs.decode[d].group;
        for &r in &sets.aborted {
            let ReqPhase::Decoding { event, started } = cs.lifecycle[r].phase else {
                unreachable!("filtered above");
            };
            cs.decode_ctxs[d].cancel_event(event);
            if let Some(tel) = &mut cs.tel {
                tel.decode_aborted(d, r, started, now);
            }
            cs.charges[r].aborted_decode += now - started;
            cs.aborted_decode_by_group[group] += now - started;
            cs.charges[r].decode_time = 0.0;
            cs.charges[r].dequant_time = 0.0;
            cs.requeued += 1;
        }

        // The replica's memory contents died with it (peak_kv keeps its
        // high-watermark for the memory report).
        let replica = &mut cs.decode[d];
        replica.reserved_reqs.clear();
        replica.kv_used = 0.0;
        replica.active = 0;
        replica.resident_tokens = 0;

        // Every reservation on the replica is gone: the aborted decodes' —
        // which stay in their decode phase, its `DecodeFinished` cancelled,
        // until they re-dispatch below — and those of transfers still
        // heading here, which re-queue when their transfer lands or retries.
        for &r in &sets.cleared {
            if cs.lifecycle[r].phase.transfer().is_some() {
                cs.advance_transfer(r, now, |t| t.reserved = false);
            }
        }

        // Cached prefixes died with the memory, and every in-flight hit
        // promised against them downgrades to the miss path (kv_used is
        // already zeroed wholesale, so no per-entry subtraction here).
        if cs.cache.is_some() {
            for &r in &sets.released_hits {
                cs.release_hit(r);
            }
            cs.invalidate_replica_cache(d);
        }

        // A draining replica whose remaining work the fault just aborted is
        // now idle: its scale-down completes at the failure instant.
        if cs.decode[d].draining {
            cs.maybe_finish_drain(d, now);
        }

        // Re-dispatch the aborted requests onto the surviving fleet (or the
        // memory-wait queue when nothing fits).
        for r in sets.aborted {
            cs.try_dispatch_to_decode(r, now);
        }
    }

    fn on_recovered(&self, fault: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        cs.decode[d].failed = false;
        if let Some(tel) = &mut cs.tel {
            tel.replica_recovered(d, now);
        }
        // A replica the autoscaler powered down while it was failed stays
        // out of the fleet: only a ReplicaProvisioned join brings it back.
        if cs.decode[d].scaled_out {
            return;
        }
        // Recovery-drain sensor: when requests queued for memory during the
        // outage, time how long the queue takes to empty from here.
        if !cs.waiting_for_memory.is_empty() {
            cs.pending_drain.push((fault, now));
        }
        // Freshly available capacity: admit waiting requests.
        cs.drain_waiting(now);
    }
}

/// The requests a failure of decode replica `d` touches, each list in
/// ascending request order. That is the order a scan over the whole trace
/// visits them, and it matters: `aborted_decode_by_group` sums the aborted
/// decodes' float charges in this order, and the aborted requests
/// re-dispatch in it. The sets are read off the replica's indices, which
/// hold exactly the requests whose phase holds a reservation here and those
/// holding a prefix hit here, so they equal those of a whole-trace scan.
#[derive(Debug, Clone, PartialEq)]
struct FailureSets {
    /// Blast radius: requests whose reservation the replica held, in-flight
    /// decodes plus transfers still heading here. Transfers the same
    /// fault's fabric cut already aborted (their wire is in backoff with
    /// its partial progress) are not counted twice.
    affected: usize,
    /// In-flight decodes to cancel and re-dispatch.
    aborted: Vec<usize>,
    /// Reservations that die with the replica (the aborted decodes among
    /// them).
    cleared: Vec<usize>,
    /// Prefix hits promised against the replica's cache.
    released_hits: Vec<usize>,
}

/// Whether `phase`'s transfer is in retry backoff.
fn in_backoff(phase: ReqPhase) -> bool {
    matches!(phase.transfer().map(|t| t.wire), Some(Wire::Backoff { .. }))
}

impl FailureSets {
    fn indexed(cs: &ClusterState, d: usize) -> Self {
        let phase = |r: usize| cs.lifecycle[r].phase;
        let cleared = cs.decode[d].reserved_reqs.sorted();
        let affected = cleared.iter().filter(|&&r| !in_backoff(phase(r))).count();
        let aborted = cleared
            .iter()
            .copied()
            .filter(|&r| matches!(phase(r), ReqPhase::Decoding { .. }))
            .collect();
        let released_hits = cs.decode[d].hit_reqs.sorted();
        FailureSets {
            affected,
            aborted,
            cleared,
            released_hits,
        }
    }
}

impl EventHandler for DecodeReplica {
    fn on(&mut self, event: Event) {
        let now = event.time;
        if let Some(&TransferCompleted { req }) = event.get::<TransferCompleted>() {
            self.on_transfer_completed(req, now);
        } else if let Some(&FlowCompleted { req }) = event.get::<FlowCompleted>() {
            self.on_flow_completed(req, now);
        } else if let Some(&DecodeFinished { req }) = event.get::<DecodeFinished>() {
            self.on_decode_finished(req, now);
        } else if let Some(&ReplicaFailed { fault }) = event.get::<ReplicaFailed>() {
            self.on_failed(fault, now);
        } else if let Some(&ReplicaRecovered { fault }) = event.get::<ReplicaRecovered>() {
            self.on_recovered(fault, now);
        }
    }
}

/// Test oracle of [`FailureSets::indexed`]: the whole-trace scans the
/// replica indices replaced, checked at every decode-replica failure of a
/// test build, plus a record of what each checked failure exercised.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{in_backoff, ClusterState, FailureSets, ReqPhase};
    use std::cell::RefCell;

    /// What one checked failure touched.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) struct Coverage {
        /// Decodes aborted mid-decode.
        pub mid_decode: usize,
        /// Reservations cleared under a transfer that left after its
        /// prefill and is still in flight (or in retry backoff).
        pub mid_transfer: usize,
        /// Reservations cleared while their prefill was still in service
        /// (pipelined).
        pub pipelined: usize,
        /// Cleared reservations left out of the blast radius because a
        /// fabric cut had already aborted their transfer.
        pub fabric_cut: usize,
        /// Prefix hits released.
        pub hits: usize,
    }

    thread_local! {
        static CHECKED: RefCell<Vec<Coverage>> = const { RefCell::new(Vec::new()) };
    }

    /// The failure sets of replica `d` by scanning every request.
    fn scanned(cs: &ClusterState, d: usize) -> FailureSets {
        let (c, s) = (&cs.charges, &cs.lifecycle);
        let n = s.len();
        let live_here =
            |r: usize| s[r].phase != ReqPhase::Done && c[r].decode_replica as usize == d;
        let reserved_here = |r: usize| live_here(r) && s[r].phase.holds_reservation();
        let affected = (0..n)
            .filter(|&r| reserved_here(r) && !in_backoff(s[r].phase))
            .count();
        let aborted = (0..n)
            .filter(|&r| live_here(r) && matches!(s[r].phase, ReqPhase::Decoding { .. }))
            .collect();
        let cleared = (0..n).filter(|&r| reserved_here(r)).collect();
        let released_hits = if cs.cache.is_some() {
            (0..n)
                .filter(|&r| {
                    s[r].phase != ReqPhase::Done && s[r].prefix.is_some_and(|h| h.replica() == d)
                })
                .collect()
        } else {
            Vec::new()
        };
        FailureSets {
            affected,
            aborted,
            cleared,
            released_hits,
        }
    }

    /// Asserts that replica `d`'s indices are exact, that every prefill
    /// replica's in-service request records that replica as its own, and
    /// that `indexed` equals the whole-trace scans; then records the
    /// failure's coverage.
    pub(super) fn check(cs: &ClusterState, d: usize, indexed: &FailureSets) {
        let (c, s) = (&cs.charges, &cs.lifecycle);
        let reserved_here: Vec<usize> = (0..s.len())
            .filter(|&r| s[r].phase.holds_reservation() && c[r].decode_replica as usize == d)
            .collect();
        let hits_here: Vec<usize> = (0..s.len())
            .filter(|&r| s[r].prefix.is_some_and(|h| h.replica() == d))
            .collect();
        assert_eq!(
            cs.decode[d].reserved_reqs.sorted(),
            reserved_here,
            "replica {d}"
        );
        assert_eq!(cs.decode[d].hit_reqs.sorted(), hits_here, "replica {d}");
        for (p, replica) in cs.prefill.iter().enumerate() {
            if let Some((r, _)) = replica.current {
                assert_eq!(c[r].prefill_replica as usize, p, "request {r} in prefill");
            }
        }
        assert_eq!(*indexed, scanned(cs, d), "replica {d}");
        let pipelined = indexed
            .cleared
            .iter()
            .filter(|&&r| matches!(s[r].phase, ReqPhase::Prefilling(_)))
            .count();
        let coverage = Coverage {
            mid_decode: indexed.aborted.len(),
            mid_transfer: indexed.cleared.len() - indexed.aborted.len() - pipelined,
            pipelined,
            fabric_cut: indexed.cleared.len() - indexed.affected,
            hits: indexed.released_hits.len(),
        };
        CHECKED.with(|c| c.borrow_mut().push(coverage));
    }

    /// Drains the coverage of every failure checked on this thread.
    pub(crate) fn take_checked() -> Vec<Coverage> {
        CHECKED.with(|c| std::mem::take(&mut *c.borrow_mut()))
    }
}
