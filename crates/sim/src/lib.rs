#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A small, deterministic discrete-event simulation kernel.
//!
//! ExtraP's trace-driven simulator (`extrap-core`) runs on this engine.
//! Determinism is load-bearing for the whole reproduction: events at
//! equal timestamps pop in schedule order (FIFO tie-breaking), and no
//! wall-clock or hash-iteration order leaks into simulation results.
//!
//! The [`Engine`] merges a binary heap with an O(1) FIFO lane on one
//! `(time, seq)` key.  The lane also carries *tick chains* (the Poll
//! service policy's chunk boundaries): a quiet tick, one with nothing
//! to do, is dispatched and re-armed inside the queue, and whole lane
//! rotations of quiet ticks are applied arithmetically.  The pop order,
//! clock and dispatch count are exactly those of dispatching every tick
//! one at a time.

pub mod engine;
mod heap;
pub mod rng;

pub use engine::Engine;
pub use rng::SplitMix64;
