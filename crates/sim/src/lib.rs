//! # astral-sim — discrete-event simulation substrate
//!
//! The foundation layer of the Astral reproduction. Every other crate in the
//! workspace builds on the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated clocks.
//! * [`EventQueue`] — a deterministic (FIFO tie-broken) discrete-event queue:
//!   a heap over distinct pending times, each with one FIFO chain of its
//!   events in a recycled slab.
//! * [`SimRng`] — a seeded, splittable random number generator so that every
//!   figure in the paper regenerates bit-identically from a seed.
//! * statistics: [`OnlineStats`], [`Summary`], [`TimeSeries`], and the
//!   least-squares [`polyfit`] used by Seer's self-correcting calibration.
//! * [`MulHashMap`] — a `HashMap` with a deterministic multiplicative
//!   hasher for hot-path maps keyed by internal ids.
//! * [`Digest`] — the FNV-1a 64-bit digest behind every content
//!   fingerprint (topology, Seer scenarios and timelines, rng splits).
//!
//! The engine is deliberately synchronous: the workload is CPU-bound
//! simulation, where an async runtime adds overhead without concurrency
//! benefits.
//!
//! ## Example
//!
//! ```
//! use astral_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { FlowDone(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_micros(10), Ev::FlowDone(1));
//! q.schedule(SimTime::from_micros(5), Ev::FlowDone(2));
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_micros(5));
//! assert_eq!(ev, Ev::FlowDone(2));
//! assert_eq!(q.now() + SimDuration::from_micros(5), SimTime::from_micros(10));
//! ```

#![warn(missing_docs)]

mod digest;
mod event;
mod fit;
mod hash;
mod rng;
mod series;
mod stats;
mod time;

pub use digest::Digest;
pub use event::EventQueue;
pub use fit::{polyfit, r_squared, FitError, Polynomial};
pub use hash::{MulHashMap, MulHasher};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
