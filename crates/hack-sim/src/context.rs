//! Per-component handle into the simulation.

use crate::event::{ComponentId, EventId};
use crate::payload::Payload;
use crate::state::SimState;
use crate::EngineMode;
use std::any::Any;
use std::cell::RefCell;
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
        let mut state = self.state.borrow_mut();
        let time = state.time() + delay;
        let payload = wrap_payload(payload, state.mode());
        state.add_event(payload, std::any::type_name::<T>(), self.id, dst, time)
    }

    /// Schedules `payload` for delivery to `dst` at the absolute time `time`.
    ///
    /// # Panics
    /// Panics when `time` is non-finite or earlier than the current time.
    pub fn emit_at<T: Any>(&self, payload: T, dst: ComponentId, time: f64) -> EventId {
        let mut state = self.state.borrow_mut();
        let payload = wrap_payload(payload, state.mode());
        state.add_event(payload, std::any::type_name::<T>(), self.id, dst, time)
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

    /// Runs `f` against the engine probe installed with
    /// [`crate::Simulation::install_probe`], handing it the current simulation
    /// time. Returns `None` — without touching the clock, the queue or the
    /// RNG — when no probe is installed or the installed probe is not a `T`,
    /// so instrumentation guarded by `probe` is free when telemetry is off.
    pub fn probe<T: Any, R>(&self, f: impl FnOnce(f64, &mut T) -> R) -> Option<R> {
        let (probe, time) = {
            let state = self.state.borrow();
            let probe = Rc::clone(state.probe()?);
            (probe, state.time())
        };
        let mut probe = probe.borrow_mut();
        probe.downcast_mut::<T>().map(|t| f(time, t))
    }
}

/// Wraps a payload according to the engine mode: inline-capable in the default
/// slab engine, always boxed in the pre-change compatibility mode.
fn wrap_payload<T: Any>(payload: T, mode: EngineMode) -> Payload {
    match mode {
        EngineMode::Slab => Payload::new(payload),
        EngineMode::Boxed => Payload::boxed(payload),
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
