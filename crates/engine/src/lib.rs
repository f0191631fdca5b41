//! Discrete-event simulation kernel for the Mellow Writes reproduction.
//!
//! This crate is deliberately independent of any memory-system concept: it
//! provides the *mechanics* every timed component in the simulator shares.
//!
//! - [`SimTime`] / [`Duration`] — picosecond-resolution simulation time.
//! - [`CoreCycles`] / [`MemCycles`] — cycle counts tagged with their clock
//!   domain, so core-cycle, memory-cycle, and picosecond quantities can
//!   only meet through explicit conversions (enforced by `mellow-lint`).
//! - [`Clock`] — a fixed-frequency clock domain converting between cycles
//!   and [`SimTime`] (the simulated system mixes a 2 GHz core domain with a
//!   400 MHz memory domain).
//! - [`TimerQueue`] — a deterministic pending-completion queue; the
//!   memory controller keeps its in-flight bank operations in one.
//! - [`HorizonQueue`] — a per-source horizon registry: sources post "my
//!   next work is at `t`" and a loop pops the earliest. The system's
//!   event kernel no longer uses it; it reads each component's horizon
//!   fresh on every jump.
//! - [`stats`] — counters, busy-time accumulators and histograms from which
//!   every figure of the paper is ultimately computed.
//! - [`DetRng`] — a small deterministic RNG so that identical seeds always
//!   reproduce identical simulations.
//! - [`json`] — a dependency-free JSON kernel used to persist experiment
//!   results as line-oriented artifacts.
//!
//! # Examples
//!
//! ```
//! use mellow_engine::{Clock, SimTime, TimerQueue};
//!
//! let mem_clock = Clock::from_mhz(400);
//! let mut timers: TimerQueue<&str> = TimerQueue::new();
//! timers.schedule(mem_clock.cycles_to_time(60), "write pulse done");
//! assert_eq!(timers.pop_due(SimTime::from_ns(150)), Some("write pulse done"));
//! ```

mod clock;
mod horizon;
pub mod json;
mod rng;
pub mod stats;
mod time;
mod timer;

pub use clock::Clock;
pub use horizon::HorizonQueue;
pub use rng::DetRng;
pub use time::{CoreCycles, Duration, MemCycles, SimTime};
pub use timer::TimerQueue;
