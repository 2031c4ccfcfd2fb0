//! The simulation driver: component registry and event loop.

use crate::context::SimulationContext;
use crate::event::{ComponentId, Event};
use crate::handler::EventHandler;
use crate::log::EventRecord;
use crate::state::SimState;
use std::cell::RefCell;
use std::rc::Rc;

/// A deterministic discrete-event simulation.
///
/// Owns the virtual clock, the time-ordered event queue and a seeded
/// [`hack_tensor::DetRng`]. Components are registered by name; each gets a
/// [`SimulationContext`] to emit events and, if it implements
/// [`EventHandler`], receives the events addressed to it.
///
/// See the crate-level documentation for a complete ping-pong example.
pub struct Simulation {
    state: Rc<RefCell<SimState>>,
    names: Vec<Rc<str>>,
    handlers: Vec<Option<Rc<RefCell<dyn EventHandler>>>>,
}

impl Simulation {
    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: Rc::new(RefCell::new(SimState::new(seed))),
            names: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// Registers a component name and returns its context. The returned context
    /// can emit events immediately; attach an [`EventHandler`] with
    /// [`Simulation::add_handler`] if the component should also receive them.
    ///
    /// Names must be unique.
    pub fn create_context(&mut self, name: impl Into<String>) -> SimulationContext {
        let name: Rc<str> = Rc::from(name.into());
        assert!(
            self.lookup_id(&name).is_none(),
            "component name `{name}` registered twice"
        );
        let id = self.names.len();
        self.names.push(Rc::clone(&name));
        self.handlers.push(None);
        SimulationContext::new(id, name, Rc::clone(&self.state))
    }

    /// Attaches an event handler to a previously created component name and
    /// returns the component's id.
    pub fn add_handler(
        &mut self,
        name: &str,
        handler: Rc<RefCell<dyn EventHandler>>,
    ) -> ComponentId {
        let id = self
            .lookup_id(name)
            .unwrap_or_else(|| panic!("no context was created for component `{name}`"));
        self.handlers[id] = Some(handler);
        id
    }

    /// Looks up a component id by name.
    pub fn lookup_id(&self, name: &str) -> Option<ComponentId> {
        self.names.iter().position(|n| n.as_ref() == name)
    }

    /// The name a component id was registered under.
    pub fn name(&self, id: ComponentId) -> &str {
        &self.names[id]
    }

    /// Current simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.state.borrow().time()
    }

    /// Delivers the next event. Returns `false` when the queue is empty.
    ///
    /// Events addressed to a component without a handler are delivered to no
    /// one (they still count as processed), like unhandled messages in most
    /// actor systems.
    pub fn step(&mut self) -> bool {
        let event: Option<Event> = self.state.borrow_mut().next_event();
        match event {
            None => false,
            Some(event) => {
                let handler = self.handlers.get(event.dst).cloned().flatten();
                if let Some(handler) = handler {
                    handler.borrow_mut().on(event);
                }
                true
            }
        }
    }

    /// Runs until the event queue is empty; returns the number of events
    /// delivered by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.state.borrow().processed_count();
        while self.step() {}
        self.state.borrow().processed_count() - before
    }

    /// Total events emitted so far (including canceled and pending ones).
    pub fn emitted_count(&self) -> u64 {
        self.state.borrow().emitted_count()
    }

    /// Total events delivered so far.
    pub fn processed_count(&self) -> u64 {
        self.state.borrow().processed_count()
    }

    /// Number of events currently pending in the queue.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().queue_len()
    }

    /// Enables or disables structured event logging (disabled by default).
    pub fn set_log_enabled(&mut self, enabled: bool) {
        self.state.borrow_mut().set_log_enabled(enabled);
    }

    /// Drains and returns the structured event log recorded so far.
    pub fn take_log(&mut self) -> Vec<EventRecord> {
        self.state.borrow_mut().take_log()
    }

    /// Installs the engine probe: a shared mutable value components can reach
    /// from their [`SimulationContext`] via [`SimulationContext::probe`]
    /// (telemetry registries, debug counters, ...). The probe is deliberately
    /// outside the event system — reading or writing it can never perturb the
    /// clock, the queue or the RNG.
    pub fn install_probe<T: std::any::Any>(&mut self, probe: Rc<RefCell<T>>) {
        self.state.borrow_mut().set_probe(probe);
    }
}

impl Drop for Simulation {
    /// Drops the probe. A probe may hold contexts, directly or through the
    /// state it shares with the components, and every context holds the
    /// engine state that holds the probe: left installed, that cycle would
    /// outlive the simulation.
    fn drop(&mut self) {
        let probe = self.state.borrow_mut().take_probe();
        drop(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::RecordKind;

    #[derive(Debug)]
    struct Tick {
        n: u32,
    }

    struct Counter {
        ctx: SimulationContext,
        seen: Vec<u32>,
        period: f64,
    }

    impl EventHandler for Counter {
        fn on(&mut self, event: Event) {
            if let Some(tick) = event.get::<Tick>() {
                self.seen.push(tick.n);
                if tick.n > 0 {
                    self.ctx.emit_self(Tick { n: tick.n - 1 }, self.period);
                }
            }
        }
    }

    fn build_counter(sim: &mut Simulation, period: f64) -> Rc<RefCell<Counter>> {
        let ctx = sim.create_context("counter");
        let counter = Rc::new(RefCell::new(Counter {
            ctx,
            seen: Vec::new(),
            period,
        }));
        sim.add_handler("counter", counter.clone());
        counter
    }

    #[test]
    fn self_scheduling_component_counts_down() {
        let mut sim = Simulation::new(1);
        let counter = build_counter(&mut sim, 2.0);
        counter.borrow().ctx.emit_self(Tick { n: 3 }, 1.0);
        let delivered = sim.run();
        assert_eq!(delivered, 4);
        assert_eq!(counter.borrow().seen, vec![3, 2, 1, 0]);
        assert!((sim.time() - 7.0).abs() < 1e-12);
        assert_eq!(sim.queue_len(), 0);
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut sim = Simulation::new(1);
        let counter = build_counter(&mut sim, 1.0);
        let keep = counter.borrow().ctx.emit_self(Tick { n: 0 }, 1.0);
        let cancel = counter.borrow().ctx.emit_self(Tick { n: 10 }, 2.0);
        counter.borrow().ctx.cancel_event(cancel);
        let _ = keep;
        sim.run();
        assert_eq!(counter.borrow().seen, vec![0]);
        assert_eq!(sim.processed_count(), 1);
    }

    #[test]
    fn canceling_a_run_resident_event_suppresses_it() {
        // Arrivals seeded in time order all land in the queue's sorted
        // run; cancel one from the middle of it, then let a handler emit
        // near-future follow-ups into the heap tier.
        struct Echo {
            ctx: SimulationContext,
            seen: Vec<u32>,
        }
        impl EventHandler for Echo {
            fn on(&mut self, event: Event) {
                let n = event.get::<Tick>().expect("only ticks").n;
                self.seen.push(n);
                if n < 100 {
                    self.ctx.emit_self(Tick { n: n + 100 }, 0.5);
                }
            }
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("echo");
        let ids: Vec<_> = (0..6)
            .map(|n| ctx.emit_at(Tick { n }, ctx.id(), f64::from(n) + 1.0))
            .collect();
        ctx.cancel_event(ids[3]);
        let echo = Rc::new(RefCell::new(Echo {
            ctx,
            seen: Vec::new(),
        }));
        sim.add_handler("echo", echo.clone());
        assert_eq!(sim.queue_len(), 6, "a canceled event stays queued");
        sim.run();
        assert_eq!(
            echo.borrow().seen,
            vec![0, 100, 1, 101, 2, 102, 4, 104, 5, 105]
        );
        assert_eq!((sim.processed_count(), sim.queue_len()), (10, 0));
    }

    #[test]
    fn canceling_a_heap_resident_event_suppresses_it() {
        // Ticks 0-2 at t = 10, 20, 30 fill the sorted run. Ticks 10-12 at
        // t = 5, 15, 25 land before the run's tail, so they go to the heap
        // tier. Cancel the heap's head (tick 10) and a later heap key
        // (tick 11); the heap must then yield only tick 12, interleaved with
        // the run by time.
        struct Recorder {
            seen: Vec<u32>,
        }
        impl EventHandler for Recorder {
            fn on(&mut self, event: Event) {
                self.seen.push(event.get::<Tick>().expect("only ticks").n);
            }
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("recorder");
        for (n, time) in [(0, 10.0), (1, 20.0), (2, 30.0)] {
            ctx.emit_at(Tick { n }, ctx.id(), time);
        }
        let heap_ids: Vec<_> = [(10, 5.0), (11, 15.0), (12, 25.0)]
            .into_iter()
            .map(|(n, time)| ctx.emit_at(Tick { n }, ctx.id(), time))
            .collect();
        ctx.cancel_event(heap_ids[0]);
        ctx.cancel_event(heap_ids[1]);
        let recorder = Rc::new(RefCell::new(Recorder { seen: Vec::new() }));
        sim.add_handler("recorder", recorder.clone());
        assert_eq!(sim.queue_len(), 6, "canceled events stay queued");
        assert_eq!(sim.run(), 4);
        assert_eq!(recorder.borrow().seen, vec![0, 1, 12, 2]);
        assert_eq!((sim.emitted_count(), sim.queue_len()), (6, 0));
        assert_eq!(sim.time(), 30.0);
    }

    #[test]
    fn events_to_handlerless_components_are_counted() {
        let mut sim = Simulation::new(1);
        let passive = sim.create_context("passive");
        passive.emit_self(Tick { n: 1 }, 0.5);
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.queue_len(), 0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_delay_is_rejected_at_emit() {
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("c");
        ctx.emit_self(Tick { n: 0 }, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn negative_delay_is_rejected_at_emit() {
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("c");
        ctx.emit_self(Tick { n: 0 }, -1.0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_component_names_are_rejected() {
        let mut sim = Simulation::new(1);
        let _a = sim.create_context("dup");
        let _b = sim.create_context("dup");
    }

    #[test]
    fn log_records_emissions_and_deliveries_in_order() {
        let mut sim = Simulation::new(1);
        sim.set_log_enabled(true);
        let counter = build_counter(&mut sim, 1.0);
        counter.borrow().ctx.emit_self(Tick { n: 1 }, 0.25);
        sim.run();
        let log = sim.take_log();
        // 2 emissions (n=1, n=0) + 2 deliveries.
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].kind, RecordKind::Emitted);
        assert_eq!(log[1].kind, RecordKind::Delivered);
        assert!(log[0].payload_type.ends_with("Tick"));
        assert!(!log[0].render().is_empty());
        // Draining empties the log.
        assert!(sim.take_log().is_empty());
    }

    #[test]
    fn same_seed_same_event_trace() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(seed);
            sim.set_log_enabled(true);
            let counter = build_counter(&mut sim, 0.5);
            // Delays drawn from the engine RNG make the trace seed-dependent.
            let delay = counter.borrow().ctx.gen_range(0.0, 1.0);
            counter.borrow().ctx.emit_self(Tick { n: 5 }, delay);
            sim.run();
            sim.take_log()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn small_payloads_are_delivered_inline_and_large_ones_spill() {
        struct Probe {
            inline_seen: Vec<bool>,
        }
        impl EventHandler for Probe {
            fn on(&mut self, event: Event) {
                self.inline_seen.push(event.payload_is_inline());
            }
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("probe");
        ctx.emit_self(Tick { n: 1 }, 0.5);
        ctx.emit_self([0u64; 8], 1.0);
        let probe = Rc::new(RefCell::new(Probe {
            inline_seen: Vec::new(),
        }));
        sim.add_handler("probe", probe.clone());
        sim.run();
        assert_eq!(probe.borrow().inline_seen, vec![true, false]);
    }

    #[test]
    fn render_variants_are_aligned_and_parseable() {
        let record = EventRecord {
            id: 7,
            time: 1.5,
            src: 0,
            dst: 3,
            payload_type: "some::module::Tick",
            kind: crate::log::RecordKind::Emitted,
        };
        // Fixed-width columns: two records of different magnitude align.
        let wide = EventRecord {
            id: 123456,
            time: 98765.25,
            ..record.clone()
        };
        let pos = |s: &str| s.find("(Tick)").unwrap();
        assert_eq!(pos(&record.render()), pos(&wide.render()));
    }

    #[test]
    fn dropping_the_simulation_frees_a_probe_holding_a_context() {
        struct Holder {
            _ctx: SimulationContext,
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("holder");
        ctx.emit_self(Tick { n: 0 }, 1.0);
        let probe = Rc::new(RefCell::new(Holder { _ctx: ctx }));
        let weak = Rc::downgrade(&probe);
        sim.install_probe(probe);
        sim.run();
        assert!(weak.upgrade().is_some(), "the installed probe is alive");
        drop(sim);
        assert!(
            weak.upgrade().is_none(),
            "the probe outlived its simulation"
        );
    }

    #[test]
    fn probe_reaches_installed_value_and_is_silent_otherwise() {
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("c");
        // No probe installed: closure must not run.
        assert_eq!(ctx.probe::<u32, _>(|_, _| unreachable!("no probe")), None);

        let probe = Rc::new(RefCell::new(0u32));
        sim.install_probe(probe.clone());
        // Wrong type: still None.
        assert_eq!(
            ctx.probe::<String, _>(|_, _| unreachable!("wrong type")),
            None
        );
        // Right type: observes the clock and mutates the probe.
        ctx.emit_self(Tick { n: 0 }, 2.0);
        sim.run();
        let seen = ctx.probe::<u32, _>(|time, v| {
            *v += 5;
            time
        });
        assert_eq!(seen, Some(2.0));
        assert_eq!(*probe.borrow(), 5);
        // Probing never perturbs the engine.
        assert_eq!(sim.queue_len(), 0);
        assert_eq!(sim.emitted_count(), 1);
    }
}
