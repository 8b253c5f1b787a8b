//! Discrete-event simulation kernel for the Chameleon reproduction.
//!
//! This crate provides the foundation every other crate builds on:
//!
//! * [`fasthash`] — [`FastMap`]/[`FastSet`], hash tables on a fast
//!   hasher for the simulator's own integer ids.
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`]) and spans
//!   ([`SimDuration`]), kept separate from wall-clock types so simulated and
//!   real time can never be confused.
//! * [`event`] — a deterministic event queue ([`EventQueue`]) with stable
//!   FIFO ordering for simultaneous events.
//! * [`rng`] — seedable, forkable random-number streams ([`SimRng`]) so each
//!   stochastic component owns an independent, reproducible stream.
//! * [`dist`] — the probability distributions the paper's workloads need
//!   (Poisson processes, log-normal, Zipf/power-law, ...).
//! * [`stats`] — online statistics, histograms and exact percentile
//!   extraction used by the metrics layer.
//! * [`shard`] — the epoch-synchronised sharded worker pool behind
//!   parallel cluster execution: stateful per-shard workers with
//!   coordinator barriers and deterministic (worker-count-independent)
//!   results.
//!
//! # Example
//!
//! ```
//! use chameleon_simcore::event::EventQueue;
//! use chameleon_simcore::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.push(SimTime::ZERO, "a");
//! let (t, ev) = q.pop().expect("event");
//! assert_eq!((t, ev), (SimTime::ZERO, "a"));
//! ```

pub mod dist;
pub mod event;
pub mod fasthash;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use fasthash::{FastMap, FastSet};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
