//! Internal shared state: clock, event queue, cancellation set, RNG, log.

use crate::event::{ComponentId, Event, EventId};
use crate::log::{EventRecord, RecordKind};
use crate::payload::Payload;
use crate::queue::SlabEventQueue;
use hack_tensor::{DetRng, IntSet};
use std::any::Any;
use std::ops::Range;

pub(crate) struct SimState {
    clock: f64,
    events: SlabEventQueue,
    canceled: IntSet<EventId>,
    next_event_id: EventId,
    processed: u64,
    rng: DetRng,
    log: Option<Vec<EventRecord>>,
}

impl SimState {
    pub fn new(seed: u64) -> Self {
        Self {
            clock: 0.0,
            events: SlabEventQueue::default(),
            canceled: IntSet::default(),
            next_event_id: 0,
            processed: 0,
            rng: DetRng::new(seed),
            log: None,
        }
    }

    pub fn time(&self) -> f64 {
        self.clock
    }

    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    pub fn set_log_enabled(&mut self, enabled: bool) {
        if enabled {
            self.log.get_or_insert_with(Vec::new);
        } else {
            self.log = None;
        }
    }

    pub fn take_log(&mut self) -> Vec<EventRecord> {
        match &mut self.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics when `time` is non-finite or lies in the past — a silent NaN or a
    /// rewound clock would corrupt the queue order, so both are rejected at the
    /// source.
    pub fn add_event(
        &mut self,
        payload: Payload,
        payload_type: &'static str,
        src: ComponentId,
        dst: ComponentId,
        time: f64,
    ) -> EventId {
        assert!(
            time.is_finite(),
            "cannot schedule `{payload_type}` at non-finite time {time} (src {src} -> dst {dst})"
        );
        assert!(
            time >= self.clock,
            "cannot schedule `{payload_type}` at {time}, before the current time {} (src {src} -> dst {dst})",
            self.clock
        );
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.events.push(Event {
            id,
            time,
            src,
            dst,
            payload_type,
            payload,
        });
        if let Some(log) = &mut self.log {
            log.push(EventRecord {
                id,
                time,
                src,
                dst,
                payload_type,
                kind: RecordKind::Emitted,
            });
        }
        id
    }

    /// Schedules every `(time, payload)` of `items`, in ascending time order,
    /// under one block of consecutive ids, and hands the queue a stream that
    /// builds each event only when it is needed. The log gets every
    /// `Emitted` record now, in id order, as one `add_event` per item would
    /// write them.
    ///
    /// # Panics
    /// Panics, as `add_event` does, on a non-finite time or one before the
    /// current time, and on a time before its predecessor's. The queue
    /// builds events late, so the panic comes when the run reaches the
    /// offending event.
    pub fn add_sorted<T: Any, I>(
        &mut self,
        items: I,
        src: ComponentId,
        dst: ComponentId,
    ) -> Range<EventId>
    where
        I: ExactSizeIterator<Item = (f64, T)> + Clone + 'static,
    {
        let payload_type = std::any::type_name::<T>();
        let len = items.len();
        let first = self.next_event_id;
        self.next_event_id += len as EventId;
        let ids = first..self.next_event_id;
        if let Some(log) = &mut self.log {
            log.extend(
                items
                    .clone()
                    .zip(ids.clone())
                    .map(|((time, _), id)| EventRecord {
                        id,
                        time,
                        src,
                        dst,
                        payload_type,
                        kind: RecordKind::Emitted,
                    }),
            );
        }
        // The current time bounds the first item; each item bounds the next.
        let mut floor = self.clock;
        let events = items.zip(ids.clone()).map(move |((time, payload), id)| {
            assert!(
                time.is_finite(),
                "cannot schedule `{payload_type}` at non-finite time {time} (src {src} -> dst {dst})"
            );
            assert!(
                time >= floor,
                "cannot stream `{payload_type}` #{id} at {time}, before the current time or the item before it, {floor} (src {src} -> dst {dst})"
            );
            floor = time;
            Event {
                id,
                time,
                src,
                dst,
                payload_type,
                payload: Payload::new(payload),
            }
        });
        self.events.push_sorted(Box::new(events), len);
        ids
    }

    /// Marks a scheduled event as canceled; it will be dropped when popped.
    ///
    /// Ids that were never issued are ignored — otherwise they would lie in
    /// wait and silently cancel whatever future event is eventually assigned
    /// the same id.
    pub fn cancel_event(&mut self, id: EventId) {
        if id < self.next_event_id {
            self.canceled.insert(id);
        }
    }

    /// Pops the next live event and advances the clock to it.
    pub fn next_event(&mut self) -> Option<Event> {
        while let Some(event) = self.events.pop() {
            // The empty-set check skips a per-event hash lookup on the (vastly
            // dominant) runs that never cancel anything.
            if !self.canceled.is_empty() && self.canceled.remove(&event.id) {
                continue;
            }
            debug_assert!(event.time >= self.clock, "event queue went backwards");
            self.clock = event.time;
            self.processed += 1;
            if let Some(log) = &mut self.log {
                log.push(EventRecord {
                    id: event.id,
                    time: event.time,
                    src: event.src,
                    dst: event.dst,
                    payload_type: event.payload_type,
                    kind: RecordKind::Delivered,
                });
            }
            return Some(event);
        }
        None
    }

    pub fn queue_len(&self) -> usize {
        self.events.len()
    }

    pub fn emitted_count(&self) -> u64 {
        self.next_event_id
    }

    pub fn processed_count(&self) -> u64 {
        self.processed
    }
}
