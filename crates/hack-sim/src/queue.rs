//! The time-ordered event queue: a free-list slab behind a two-tier key index.
//!
//! A `BinaryHeap` of whole [`Event`] structs would move ~56 bytes on every
//! sift operation. The slab queue instead orders 24-byte `EventKey`s — exactly
//! the `(time, id)` pair the ordering is defined on plus a slot index — and
//! parks the event bodies in a slab (`Vec<Option<EventNode>>`) whose slots are
//! recycled through a free list, so node storage is reused instead of
//! reallocated as events churn.
//!
//! The keys live in two tiers:
//!
//! * a **sorted run** (`VecDeque`): a push whose key comes after the run's
//!   last key in `(time, id)` order is appended in O(1);
//! * a **key heap** (`BinaryHeap`) for every other push.
//!
//! A pop takes whichever tier's head is earlier. A simulator that seeds its
//! whole arrival trace up front, in arrival order, therefore lands every
//! seeded arrival in the run, and the heap holds only the events emitted
//! while running (mostly near-future completions). Its sifts then walk a
//! heap of in-flight events, not one as deep as the whole trace.
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

/// Queue key: the total order `(time, id)` plus the slab slot of the body.
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

impl EventKey {
    /// Whether `self` is delivered before `other`: `(time, id)` ascending.
    fn precedes(&self, other: &EventKey) -> bool {
        // `Ord` is reversed for the max-heap, so "greater" means "earlier".
        self > other
    }
}

/// Event body parked in the slab while its key waits in the run or the heap.
struct EventNode {
    src: ComponentId,
    dst: ComponentId,
    payload_type: &'static str,
    payload: Payload,
}

/// Slab-backed event queue (see module docs).
#[derive(Default)]
pub struct SlabEventQueue {
    /// Keys pushed in ascending `(time, id)` order, earliest at the front.
    run: VecDeque<EventKey>,
    /// Every other key.
    keys: BinaryHeap<EventKey>,
    nodes: Vec<Option<EventNode>>,
    free: Vec<u32>,
}

impl SlabEventQueue {
    /// Inserts an event.
    pub fn push(&mut self, event: Event) {
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
        let key = EventKey {
            time: event.time,
            id: event.id,
            slot,
        };
        match self.run.back() {
            Some(last) if !last.precedes(&key) => self.keys.push(key),
            _ => self.run.push_back(key),
        }
    }

    /// Removes and returns the earliest event (by `(time, id)`).
    pub fn pop(&mut self) -> Option<Event> {
        let from_run = match (self.run.front(), self.keys.peek()) {
            (Some(run), Some(heap)) => run.precedes(heap),
            (run, _) => run.is_some(),
        };
        let key = if from_run {
            self.run.pop_front()
        } else {
            self.keys.pop()
        }?;
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

    /// Capacity of the node slab (allocated once, then recycled).
    #[cfg(test)]
    fn slab_capacity(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::DetRng;

    fn event(id: EventId, time: f64) -> Event {
        Event {
            id,
            time,
            src: 0,
            dst: 1,
            payload_type: "u64",
            payload: Payload::new(id),
        }
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
    fn slab_recycles_slots_through_the_free_list() {
        let mut q = SlabEventQueue::default();
        // Steady-state churn: queue depth stays <= 4, so the slab must too.
        let mut next_id = 0u64;
        for round in 0..100 {
            for _ in 0..4 {
                q.push(event(next_id, round as f64));
                next_id += 1;
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slab_capacity() <= 4,
            "slab grew to {} slots for queue depth 4",
            q.slab_capacity()
        );
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
    /// every pop must agree on `(id, time)`, and `len`/`is_empty` must agree
    /// after every operation.
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
            let a = self.slab.pop().map(|e| (e.id, e.time));
            let b = self.oracle.pop().map(|e| (e.id, e.time));
            assert_eq!(
                a.map(|(id, t)| (id, t.to_bits())),
                b.map(|(id, t)| (id, t.to_bits()))
            );
            self.check_len();
            a
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
