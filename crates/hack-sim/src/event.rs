//! Simulation events: typed payloads with total-ordered (time, id) scheduling.

use crate::payload::Payload;
use std::any::Any;
use std::cmp::Ordering;

/// Identifier of a registered component (or passive context).
pub type ComponentId = usize;

/// Unique, monotonically increasing event identifier.
///
/// Ids double as the deterministic tie-breaker for events scheduled at the same
/// time: earlier-emitted events are delivered first.
pub type EventId = u64;

/// One scheduled event.
///
/// The payload is an arbitrary `'static` type; handlers inspect it with
/// [`Event::is`] / [`Event::get`].
#[derive(Debug)]
pub struct Event {
    /// Unique identifier (emission order).
    pub id: EventId,
    /// Delivery time (simulation seconds).
    pub time: f64,
    /// Component that emitted the event.
    pub src: ComponentId,
    /// Component the event is addressed to.
    pub dst: ComponentId,
    /// `std::any::type_name` of the payload, captured at emission (for logs and
    /// diagnostics).
    pub payload_type: &'static str,
    /// Typed payload (stored inline when small, boxed otherwise — see
    /// [`crate::payload::Payload`]).
    pub payload: Payload,
}

impl Event {
    /// Whether the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.payload.is::<T>()
    }

    /// The payload as `&T`, if it is of type `T`.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Whether the payload avoids a heap allocation.
    #[cfg(test)]
    pub(crate) fn payload_is_inline(&self) -> bool {
        self.payload.is_inline()
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that `BinaryHeap` (a max-heap) pops the earliest event;
        // `total_cmp` gives a total order even for non-finite times (which
        // `emit` rejects anyway), unlike the `partial_cmp(..).unwrap_or(Equal)`
        // construction this replaces, where a NaN would silently corrupt the
        // heap order.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn event(id: EventId, time: f64) -> Event {
        Event {
            id,
            time,
            src: 0,
            dst: 0,
            payload_type: "()",
            payload: Payload::new(()),
        }
    }

    #[test]
    fn heap_pops_earliest_time_then_lowest_id() {
        let mut heap = BinaryHeap::new();
        heap.push(event(3, 5.0));
        heap.push(event(1, 1.0));
        heap.push(event(2, 1.0));
        heap.push(event(0, 9.0));
        let order: Vec<EventId> = std::iter::from_fn(|| heap.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn nan_time_does_not_corrupt_total_order() {
        // total_cmp puts NaN above every finite value, so finite events still
        // pop in the correct order even if a NaN somehow entered the heap.
        let mut heap = BinaryHeap::new();
        heap.push(event(0, f64::NAN));
        heap.push(event(1, 2.0));
        heap.push(event(2, 1.0));
        let order: Vec<EventId> = std::iter::from_fn(|| heap.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn payload_downcasting() {
        #[derive(Debug, PartialEq)]
        struct Ping {
            n: u32,
        }
        let e = Event {
            id: 0,
            time: 0.0,
            src: 1,
            dst: 2,
            payload_type: std::any::type_name::<Ping>(),
            payload: Payload::new(Ping { n: 7 }),
        };
        assert!(e.is::<Ping>());
        assert!(!e.is::<u32>());
        assert_eq!(e.get::<Ping>(), Some(&Ping { n: 7 }));
    }
}
