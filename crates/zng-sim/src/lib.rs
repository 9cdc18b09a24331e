//! Discrete-event simulation kernel for the ZnG simulator.
//!
//! Building blocks:
//!
//! * [`EventQueue`] — a deterministic time-ordered event queue (FIFO among
//!   same-cycle events): a bitmap-indexed timing wheel for the next
//!   65 536 cycles in front of a binary heap for the far future.
//! * [`Resource`] / [`Link`] — occupancy-based contention models: shared
//!   hardware (an L2 bank, an ONFI channel, a flash plane, an SSD-engine
//!   core) is a set of servers that requests *reserve*; the reservation end
//!   time is the request's departure. This captures queueing and bandwidth
//!   saturation without per-cycle stepping.
//! * [`AdmissionQueue`] — the one bounded-admission mechanism: a finite
//!   in-flight queue that rejects with a retry hint when full.
//! * [`stats`] — exact percentiles and time-series samplers used to
//!   regenerate the paper's figures.
//! * [`CrashSwitch`] — a one-shot power-cut trigger for the
//!   crash-consistency experiments.
//! * [`prefetch`] — a host cache hint for state the request path is
//!   about to read; the simulator's only `unsafe` code.
//!
//! Determinism: all randomness must flow through [`rng::seeded`]; the event
//! queue breaks timestamp ties by insertion order.

#![deny(unsafe_code)]

pub mod event;
pub mod hint;
pub mod parallel;
pub mod power;
pub mod resource;
pub mod rng;
pub mod stats;

pub use event::EventQueue;
pub use hint::prefetch;
pub use parallel::parallel_map;
pub use power::{CrashSwitch, PatrolTicker};
pub use resource::{AdmissionQueue, Link, Resource};
pub use stats::{Percentiles, TimeSeries};
