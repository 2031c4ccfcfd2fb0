//! The time-ordered event queue: a sorted run of whole events in front of a
//! key heap over a free-list slab.
//!
//! Events live in two tiers:
//!
//! * a **sorted run** (`VecDeque<Event>`): a push that comes after the run's
//!   last event in `(time, id)` order is appended in O(1), body and all;
//! * a **key heap** (`BinaryHeap`) for every other push. A `BinaryHeap` of
//!   whole [`Event`] structs would move the full body on every sift, so the
//!   heap orders 24-byte `EventKey`s — exactly the `(time, id)` pair the
//!   ordering is defined on plus a slot index — and parks the bodies in a
//!   slab (`Vec<Option<EventNode>>`) whose slots are recycled through a free
//!   list. The slab holds heap-tier events only.
//!
//! A pop takes whichever tier's head is earlier. A simulator that seeds its
//! whole arrival trace up front, in arrival order, therefore lands every
//! seeded arrival in the run, and the heap and the slab hold only the events
//! emitted while running (mostly near-future completions). Its sifts then
//! walk a heap of in-flight events, not one as deep as the whole trace, and
//! the seeded arrivals are popped front to back without a slab access. The
//! run gives its memory back as it drains: a pop that leaves it under a
//! quarter full halves its capacity (down to `RUN_FLOOR` events), which
//! keeps pushes and pops amortized O(1) without reallocating back and forth.
//!
//! Delivery order is identical to a `BinaryHeap<Event>`'s by construction.
//! `(time, id)` under `f64::total_cmp` is a total order and ids are unique;
//! the run is sorted by construction and the heap by its invariant, so the
//! earlier of the two heads is always the global minimum. The unit tests
//! drive the queue in lockstep with such a heap as the ordering oracle.

use crate::event::{ComponentId, Event, EventId};
use crate::payload::Payload;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Capacity (in events) below which a draining run stops shrinking, so a
/// run that empties and refills in steady state does not reallocate.
const RUN_FLOOR: usize = 1024;

/// Whether `(time, id)` pair `a` is delivered before `b`.
fn precedes(a: (f64, EventId), b: (f64, EventId)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

/// Heap key: the total order `(time, id)` plus the slab slot of the body.
#[derive(Debug, Clone, Copy)]
struct EventKey {
    time: f64,
    id: EventId,
    slot: u32,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for EventKey {}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap pops the earliest (time, id) — the same
        // order as `impl Ord for Event`.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Event body parked in the slab while its key waits in the heap.
struct EventNode {
    src: ComponentId,
    dst: ComponentId,
    payload_type: &'static str,
    payload: Payload,
}

/// Two-tier event queue (see module docs).
#[derive(Default)]
pub struct SlabEventQueue {
    /// Events pushed in ascending `(time, id)` order, earliest at the front.
    run: VecDeque<Event>,
    /// Keys of every other event.
    keys: BinaryHeap<EventKey>,
    /// Bodies of the events keyed in `keys`.
    nodes: Vec<Option<EventNode>>,
    free: Vec<u32>,
}

impl SlabEventQueue {
    /// Inserts an event.
    pub fn push(&mut self, event: Event) {
        match self.run.back() {
            Some(last) if !precedes((last.time, last.id), (event.time, event.id)) => {
                self.push_heap(event)
            }
            _ => self.run.push_back(event),
        }
    }

    fn push_heap(&mut self, event: Event) {
        let node = EventNode {
            src: event.src,
            dst: event.dst,
            payload_type: event.payload_type,
            payload: event.payload,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.nodes[slot as usize].is_none());
                self.nodes[slot as usize] = Some(node);
                slot
            }
            None => {
                let slot = u32::try_from(self.nodes.len()).expect("slab overflow");
                self.nodes.push(Some(node));
                slot
            }
        };
        self.keys.push(EventKey {
            time: event.time,
            id: event.id,
            slot,
        });
    }

    /// Removes and returns the earliest event (by `(time, id)`).
    pub fn pop(&mut self) -> Option<Event> {
        let from_run = match (self.run.front(), self.keys.peek()) {
            (Some(run), Some(heap)) => precedes((run.time, run.id), (heap.time, heap.id)),
            (run, _) => run.is_some(),
        };
        if from_run {
            let event = self.run.pop_front();
            let capacity = self.run.capacity();
            if capacity > RUN_FLOOR && self.run.len() < capacity / 4 {
                self.run.shrink_to(capacity / 2);
            }
            return event;
        }
        let key = self.keys.pop()?;
        let node = self.nodes[key.slot as usize]
            .take()
            .expect("slab slot vacated while its key was still queued");
        self.free.push(key.slot);
        Some(Event {
            id: key.id,
            time: key.time,
            src: node.src,
            dst: node.dst,
            payload_type: node.payload_type,
            payload: node.payload,
        })
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.run.len() + self.keys.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::DetRng;

    /// An event whose body is a function of its id: every fifth payload is
    /// too large to store inline and spills to a box.
    fn event(id: EventId, time: f64) -> Event {
        let (payload_type, payload) = if id.is_multiple_of(5) {
            ("[u64; 4]", Payload::new([id, !id, id << 1, id ^ 0x5a5a]))
        } else {
            ("u64", Payload::new(id.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        };
        Event {
            id,
            time,
            src: (id % 7) as ComponentId,
            dst: (id % 11) as ComponentId + 100,
            payload_type,
            payload,
        }
    }

    /// Everything a delivered event carries, times as bits.
    fn body(
        e: &Event,
    ) -> (
        EventId,
        u64,
        ComponentId,
        ComponentId,
        &'static str,
        Vec<u64>,
    ) {
        let payload = match (e.get::<u64>(), e.get::<[u64; 4]>()) {
            (Some(&v), None) => vec![v],
            (None, Some(v)) => v.to_vec(),
            _ => panic!("unexpected payload type {}", e.payload_type),
        };
        (
            e.id,
            e.time.to_bits(),
            e.src,
            e.dst,
            e.payload_type,
            payload,
        )
    }

    #[test]
    fn slab_pops_in_time_then_id_order() {
        let mut q = SlabEventQueue::default();
        q.push(event(3, 5.0));
        q.push(event(1, 1.0));
        q.push(event(2, 1.0));
        q.push(event(0, 9.0));
        let order: Vec<EventId> = std::iter::from_fn(|| q.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn slab_preserves_event_bodies() {
        let mut q = SlabEventQueue::default();
        q.push(Event {
            id: 5,
            time: 2.5,
            src: 3,
            dst: 7,
            payload_type: "u64",
            payload: Payload::new(99u64),
        });
        let e = q.pop().unwrap();
        assert_eq!((e.id, e.time, e.src, e.dst), (5, 2.5, 3, 7));
        assert_eq!(e.get::<u64>(), Some(&99));
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_preserves_heap_tier_bodies() {
        let mut q = SlabEventQueue::default();
        q.push(event(1, 9.0)); // run
        q.push(event(2, 1.0)); // before the run's tail: heap
        q.push(event(5, 2.0)); // heap, spilled payload
        assert_eq!((q.run.len(), q.keys.len()), (1, 2));
        for (id, time) in [(2, 1.0), (5, 2.0), (1, 9.0)] {
            assert_eq!(body(&q.pop().unwrap()), body(&event(id, time)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_recycles_slots_through_the_free_list() {
        let mut q = SlabEventQueue::default();
        // A far-future tail sends every later push to the heap tier.
        q.push(event(0, 1e9));
        // Steady-state churn: heap depth stays <= 4, so the slab must too.
        let mut next_id = 1u64;
        for round in 0..100 {
            for _ in 0..4 {
                q.push(event(next_id, round as f64));
                next_id += 1;
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.nodes.len() <= 4,
            "slab grew to {} slots for heap depth 4",
            q.nodes.len()
        );
    }

    #[test]
    fn a_drained_run_gives_its_memory_back_and_len_stays_exact() {
        let mut q = Lockstep::default();
        // 100k in-order pushes, with a heap-tier push (before the run's tail)
        // after every hundredth.
        let mut next_id = 0u64;
        for i in 0..100_000u64 {
            q.push(next_id, i as f64);
            next_id += 1;
            if i % 100 == 99 {
                q.push(next_id, i as f64 - 0.5);
                next_id += 1;
            }
        }
        assert_eq!(q.tiers(), (100_000, 1_000));
        assert!(q.slab.run.capacity() >= 100_000);
        // Drain, checking the run never holds more than four times its
        // length once it is past the floor.
        while q.pop().is_some() {
            let (len, capacity) = (q.slab.run.len(), q.slab.run.capacity());
            assert!(
                capacity <= RUN_FLOOR.max(4 * (len + 1)),
                "run capacity {capacity} for {len} events"
            );
        }
        assert!(q.slab.is_empty());
        assert!(q.slab.run.capacity() <= RUN_FLOOR);
        assert!(q.slab.nodes.len() <= 1_000);
    }

    #[test]
    fn slab_order_matches_the_heap_oracle_on_random_workload() {
        // The slab queue must reproduce a BinaryHeap<Event>'s delivery order
        // exactly, including ties and interleaved push/pop churn.
        for seed in 0..6 {
            let mut rng = DetRng::new(1000 + seed);
            let mut q = Lockstep::default();
            let mut next_id = 0u64;
            let mut clock = 0.0f64;
            for _ in 0..500 {
                if rng.chance(0.6) || q.slab.is_empty() {
                    // Times collide frequently to exercise the id tie-break.
                    q.push(next_id, clock + (rng.range_usize(0, 4) as f64) * 0.5);
                    next_id += 1;
                } else {
                    clock = q.pop().expect("queue is non-empty").1;
                }
            }
            q.drain();
        }
    }

    /// The two-tier queue and the single-heap oracle driven in lockstep:
    /// every pop must agree on the whole event (`id`, `time`, `src`, `dst`
    /// and payload), and `len`/`is_empty` must agree after every operation.
    #[derive(Default)]
    struct Lockstep {
        slab: SlabEventQueue,
        oracle: BinaryHeap<Event>,
    }

    impl Lockstep {
        fn check_len(&self) {
            assert_eq!(self.slab.len(), self.oracle.len());
            assert_eq!(self.slab.is_empty(), self.oracle.is_empty());
        }

        fn push(&mut self, id: EventId, time: f64) {
            self.slab.push(event(id, time));
            self.oracle.push(event(id, time));
            self.check_len();
        }

        fn pop(&mut self) -> Option<(EventId, f64)> {
            let a = self.slab.pop();
            let b = self.oracle.pop();
            assert_eq!(a.as_ref().map(body), b.as_ref().map(body));
            self.check_len();
            a.map(|e| (e.id, e.time))
        }

        fn drain(&mut self) -> Vec<EventId> {
            std::iter::from_fn(|| self.pop())
                .map(|(id, _)| id)
                .collect()
        }

        /// Keys held by (run, heap).
        fn tiers(&self) -> (usize, usize) {
            (self.slab.run.len(), self.slab.keys.len())
        }
    }

    #[test]
    fn monotone_preseed_fills_the_run_and_churn_matches_the_oracle() {
        let mut q = Lockstep::default();
        // 10k seeded arrivals in (time, id) order, with repeated times.
        let mut next_id = 0u64;
        for i in 0..10_000u64 {
            q.push(next_id, (i / 3) as f64 * 0.25);
            next_id += 1;
        }
        assert_eq!(q.tiers(), (10_000, 0), "a monotone seed bypasses the heap");
        // Churn: each delivery emits near-future follow-ups, as handlers do.
        let mut rng = DetRng::new(7);
        while let Some((_, now)) = q.pop() {
            if next_id < 30_000 {
                for _ in 0..rng.range_usize(0, 3) {
                    q.push(next_id, now + rng.range_usize(0, 8) as f64 * 0.125);
                    next_id += 1;
                }
            }
        }
        assert!(q.slab.is_empty());
    }

    #[test]
    fn equal_time_ties_resolve_by_id_across_tiers() {
        let mut q = Lockstep::default();
        // Run: (1.0, #1), (2.0, #3), (9.0, #4).
        q.push(1, 1.0);
        q.push(3, 2.0);
        q.push(4, 9.0);
        // Heap: same time as the run's (2.0, #3) with a smaller id, and the
        // same time with a larger id.
        q.push(2, 2.0);
        q.push(5, 2.0);
        assert_eq!(q.tiers(), (3, 2));
        assert_eq!(q.drain(), vec![1, 2, 3, 5, 4]);

        // The mirror case: the run holds the smaller id at the shared time.
        q.push(10, 5.0);
        q.push(11, 7.0);
        q.push(12, 5.0);
        q.push(9, 7.0);
        assert_eq!(q.tiers(), (2, 2));
        assert_eq!(q.drain(), vec![10, 12, 9, 11]);
    }

    #[test]
    fn shuffled_seeding_matches_the_oracle() {
        for seed in 0..4 {
            let mut rng = DetRng::new(2000 + seed);
            let mut q = Lockstep::default();
            let mut ids: Vec<EventId> = (0..2_000).collect();
            // Fisher-Yates, so the ids (and with them the times) arrive out
            // of order.
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.range_usize(0, i + 1));
            }
            for &id in &ids {
                // Coarse times, so many keys share one and tie on id.
                q.push(id, (id % 97) as f64);
            }
            let (run, heap) = q.tiers();
            assert!(run > 0 && heap > 0, "both tiers in use: {run}/{heap}");
            let order = q.drain();
            assert_eq!(order.len(), ids.len());
        }
    }

    #[test]
    fn pops_drain_either_tier_first_and_the_run_refills() {
        // The run drains before the heap: everything in the heap is later.
        let mut q = Lockstep::default();
        q.push(0, 0.0);
        q.push(1, 100.0);
        q.push(2, 50.0); // before the run's tail: heap
        assert_eq!(q.tiers(), (2, 1));
        assert_eq!(q.pop(), Some((0, 0.0)));
        assert_eq!(q.pop(), Some((2, 50.0)));
        assert_eq!(q.pop(), Some((1, 100.0)));
        // Both tiers are empty: the next pushes append to the run again.
        q.push(3, 101.0);
        q.push(4, 102.0);
        assert_eq!(q.tiers(), (2, 0));
        assert_eq!(q.drain(), vec![3, 4]);

        // The heap drains before the run: a far-future tail sends every
        // later push to the heap.
        let mut q = Lockstep::default();
        q.push(0, 1000.0);
        for id in 1..=50 {
            q.push(id, id as f64);
        }
        assert_eq!(q.tiers(), (1, 50));
        for id in 1..=20 {
            assert_eq!(q.pop(), Some((id, id as f64)));
        }
        // Interleave: new near-future pushes still go to the heap, ahead of
        // the run's head.
        q.push(51, 20.5);
        assert_eq!(q.pop(), Some((51, 20.5)));
        for id in 21..=50 {
            assert_eq!(q.pop(), Some((id, id as f64)));
        }
        // Only the run is left. Drain it, then refill it while the heap is
        // re-populated behind it.
        assert_eq!(q.tiers(), (1, 0));
        assert_eq!(q.pop(), Some((0, 1000.0)));
        q.push(60, 1500.0); // empty run: appended
        q.push(61, 1200.0); // before the tail: heap
        q.push(62, 1600.0); // after the tail: run
        assert_eq!(q.tiers(), (2, 1));
        assert_eq!(q.drain(), vec![61, 60, 62]);
    }
}
