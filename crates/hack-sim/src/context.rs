//! Per-component handle into the simulation.

use crate::event::{ComponentId, EventId};
use crate::payload::Payload;
use crate::state::SimState;
use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

/// A component's handle to the engine: read the clock, emit or cancel future
/// events, and draw deterministic random numbers.
///
/// Contexts are created with [`crate::Simulation::create_context`]; cloning one
/// yields another handle to the same component id.
#[derive(Clone)]
pub struct SimulationContext {
    id: ComponentId,
    name: Rc<str>,
    state: Rc<RefCell<SimState>>,
}

impl SimulationContext {
    pub(crate) fn new(id: ComponentId, name: Rc<str>, state: Rc<RefCell<SimState>>) -> Self {
        Self { id, name, state }
    }

    /// This component's id — the address other components emit to.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// The name the component was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.state.borrow().time()
    }

    /// Schedules `payload` for delivery to `dst` after `delay` seconds.
    ///
    /// # Panics
    /// Panics when `delay` is negative or non-finite.
    pub fn emit<T: Any>(&self, payload: T, dst: ComponentId, delay: f64) -> EventId {
        self.emit_at(payload, dst, self.time() + delay)
    }

    /// Schedules `payload` for delivery to `dst` at the absolute time `time`.
    ///
    /// # Panics
    /// Panics when `time` is non-finite or earlier than the current time.
    pub fn emit_at<T: Any>(&self, payload: T, dst: ComponentId, time: f64) -> EventId {
        self.state.borrow_mut().add_event(
            Payload::new(payload),
            std::any::type_name::<T>(),
            self.id,
            dst,
            time,
        )
    }

    /// Schedules each `(time, payload)` of `items` for delivery to `dst` at
    /// its absolute time, as one [`Self::emit_at`] per item in order would,
    /// and returns the ids they get: one consecutive block, reserved now.
    ///
    /// The items must come in ascending time order. Each event is built only
    /// when the queue is about to deliver it, so a long trace (say, every
    /// arrival of a run) occupies one block of the queue at a time rather
    /// than all of it at once; `items` must therefore own what it reads.
    /// With logging on, every `Emitted` record is written now.
    ///
    /// # Panics
    /// Panics on a non-finite time, one earlier than the current time, or
    /// one earlier than the item before it. Events are checked as they are
    /// built, so the panic comes when the queue reaches the offending item.
    pub fn emit_sorted<T, I>(&self, items: I, dst: ComponentId) -> Range<EventId>
    where
        T: Any,
        I: ExactSizeIterator<Item = (f64, T)> + Clone + 'static,
    {
        self.state.borrow_mut().add_sorted(items, self.id, dst)
    }

    /// Schedules `payload` for delivery back to this component after `delay`.
    pub fn emit_self<T: Any>(&self, payload: T, delay: f64) -> EventId {
        self.emit(payload, self.id, delay)
    }

    /// Cancels a previously emitted event. Canceling an already-delivered id is
    /// a no-op (though it retains a set entry until the run ends), and an id
    /// that was never issued is ignored entirely.
    pub fn cancel_event(&self, id: EventId) {
        self.state.borrow_mut().cancel_event(id);
    }

    /// Uniform `f64` in `[0, 1)` from the engine's seeded generator.
    pub fn rand(&self) -> f64 {
        self.state.borrow_mut().rng().next_f64()
    }

    /// Uniform `f64` in `[lo, hi)` from the engine's seeded generator.
    pub fn gen_range(&self, lo: f64, hi: f64) -> f64 {
        self.state.borrow_mut().rng().range_f64(lo, hi)
    }
}

impl std::fmt::Debug for SimulationContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationContext")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}
