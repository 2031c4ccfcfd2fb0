//! # hack-sim
//!
//! A generic, deterministic discrete-event simulation engine — the substrate the
//! `hack-cluster` serving simulator is built on, usable for any event-driven
//! model.
//!
//! ## Concepts
//!
//! * [`Simulation`] owns the virtual clock, the time-ordered event queue and a
//!   seeded deterministic RNG ([`hack_tensor::DetRng`]). Same seed + same
//!   component logic ⇒ bit-identical event traces.
//! * [`SimulationContext`] is a component's handle into the engine: read the
//!   clock, emit events to other components (by id) after a delay or at an
//!   absolute time, cancel pending events, draw random numbers.
//! * [`EventHandler`] is implemented by components that receive events; payloads
//!   are arbitrary `'static` types, inspected with [`Event::get`].
//! * Event ordering is total: `(time, id)` with `f64::total_cmp`, and emission
//!   rejects non-finite or past times, so the queue can never be corrupted by a
//!   stray NaN.
//! * The queue ([`queue::SlabEventQueue`]) has two tiers: a sorted run of
//!   whole events that takes, in O(1), every push landing after its tail,
//!   and a binary heap of keys for the rest, whose bodies wait in a
//!   recycled slab. A pop takes the earlier of the two heads, so delivery
//!   order is exactly that of one heap of whole events. Payloads of at most
//!   24 bytes are stored inline ([`Payload`]), so emitting one allocates
//!   nothing.
//! * [`SimulationContext::emit_sorted`] schedules a time-ordered stream (such
//!   as a whole arrival trace) under one block of ids, but builds each event
//!   only when the queue is about to deliver it: whenever a pop empties the
//!   run, the next block of 256 streamed events is built into it. The queue
//!   then holds one block of the stream instead of all of it, and its
//!   delivery order and the event log are those of one `emit_at` per item.
//! * The engine can record a structured [`log::EventRecord`] trace for
//!   debugging and determinism tests.
//!
//! ## Ping-pong example
//!
//! Two components bounce a ball until a rally budget is exhausted:
//!
//! ```
//! use hack_sim::{ComponentId, Event, EventHandler, Simulation, SimulationContext};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! struct Ball;
//!
//! struct Player {
//!     ctx: SimulationContext,
//!     peer: ComponentId,
//!     hits: u32,
//!     swing_time: f64,
//! }
//!
//! impl EventHandler for Player {
//!     fn on(&mut self, event: Event) {
//!         if event.is::<Ball>() {
//!             self.hits += 1;
//!             if self.hits < 10 {
//!                 // Return the ball across the net.
//!                 self.ctx.emit(Ball, self.peer, self.swing_time);
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let ping_ctx = sim.create_context("ping");
//! let pong_ctx = sim.create_context("pong");
//! let (ping_id, pong_id) = (ping_ctx.id(), pong_ctx.id());
//!
//! let ping = Rc::new(RefCell::new(Player {
//!     ctx: ping_ctx,
//!     peer: pong_id,
//!     hits: 0,
//!     swing_time: 0.1,
//! }));
//! let pong = Rc::new(RefCell::new(Player {
//!     ctx: pong_ctx,
//!     peer: ping_id,
//!     hits: 0,
//!     swing_time: 0.2,
//! }));
//! sim.add_handler("ping", ping.clone());
//! sim.add_handler("pong", pong.clone());
//!
//! // Serve: the referee tosses the ball to `ping` at t = 1s.
//! let referee = sim.create_context("referee");
//! referee.emit(Ball, ping_id, 1.0);
//!
//! sim.run();
//! // `ping` takes its 10th hit and stops; `pong` got 9.
//! assert_eq!(ping.borrow().hits + pong.borrow().hits, 19);
//! // Serve at 1.0, then 9 returns per side at 0.1/0.2 seconds each.
//! assert!((sim.time() - (1.0 + 9.0 * 0.1 + 9.0 * 0.2)).abs() < 1e-12);
//! ```

pub mod context;
pub mod event;
pub mod handler;
pub mod log;
pub mod payload;
pub mod queue;
pub mod simulation;
mod state;

/// The engine representation. There is only one: a sorted run of whole
/// events in front of a compact key heap over a free-list slab, with payloads
/// up to 24 bytes stored inline.
///
/// This one-variant enum remains for a single reason: the benchmark of record
/// calls `Simulator::run_traced(EngineMode::Slab)` in `hack-cluster`, and the
/// benchmark's source is frozen outside its own maintenance changes. Nothing
/// in the engine reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The slab engine (see [`queue::SlabEventQueue`] and [`Payload`]).
    #[default]
    Slab,
}

pub use context::SimulationContext;
pub use event::{ComponentId, Event, EventId};
pub use handler::EventHandler;
pub use log::{EventRecord, RecordKind};
pub use payload::Payload;
pub use simulation::Simulation;
