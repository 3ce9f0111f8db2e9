#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A small, deterministic discrete-event simulation kernel.
//!
//! Both ExtraP's high-level trace-driven simulator (`extrap-core`) and the
//! link-level reference machine (`extrap-refsim`) are built on this engine.
//! Determinism is load-bearing for the whole reproduction: events at equal
//! timestamps pop in schedule order (FIFO tie-breaking), cancellation is
//! token-based, and no wall-clock or hash-iteration order leaks into
//! simulation results.

pub mod engine;
pub mod fifo;
mod heap;
pub mod rng;

pub use engine::{Engine, EventToken};
pub use fifo::TrackedFifo;
pub use rng::SplitMix64;
