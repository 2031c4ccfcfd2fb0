//! Internal shared state: clock, event queue, cancellation set, RNG, log.

use crate::event::{ComponentId, Event, EventId};
use crate::log::{EventRecord, RecordKind};
use crate::payload::Payload;
use crate::queue::SlabEventQueue;
use hack_tensor::DetRng;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

pub(crate) struct SimState {
    clock: f64,
    events: SlabEventQueue,
    canceled: HashSet<EventId>,
    next_event_id: EventId,
    processed: u64,
    rng: DetRng,
    log: Option<Vec<EventRecord>>,
    probe: Option<Rc<RefCell<dyn Any>>>,
}

impl SimState {
    pub fn new(seed: u64) -> Self {
        Self {
            clock: 0.0,
            events: SlabEventQueue::default(),
            canceled: HashSet::new(),
            next_event_id: 0,
            processed: 0,
            rng: DetRng::new(seed),
            log: None,
            probe: None,
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

    /// Installs the engine probe components reach via
    /// [`crate::SimulationContext::probe`].
    pub fn set_probe(&mut self, probe: Rc<RefCell<dyn Any>>) {
        self.probe = Some(probe);
    }

    /// Removes and returns the installed probe.
    pub fn take_probe(&mut self) -> Option<Rc<RefCell<dyn Any>>> {
        self.probe.take()
    }

    /// The installed probe, if any.
    pub fn probe(&self) -> Option<&Rc<RefCell<dyn Any>>> {
        self.probe.as_ref()
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
