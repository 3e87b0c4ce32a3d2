//! Parallel-execution substrate for the CEAL reproduction.
//!
//! The auto-tuner measures batches of workflow configurations, the ML crate
//! searches tree splits across features, and the experiment harness repeats
//! randomized algorithm runs hundreds of times — all embarrassingly parallel
//! workloads. This crate provides the small set of primitives they share:
//!
//! * [`ThreadPool`] — a fixed-size work-sharing pool built on a
//!   `std::sync::mpsc` channel, for long-lived background execution.
//! * [`parallel_map`] / [`parallel_for_each`] — scoped fork-join over slices
//!   (no `'static` bound on the closure or data), chunked to amortize spawn
//!   cost. A call nested inside another's chunk uses at most that chunk's
//!   share of the threads, and runs inline when the share is one, so a
//!   fan-out over campaigns does not spawn threads inside its threads.
//! * [`SpinLock`] — a minimal test-and-set spin lock used where critical
//!   sections are a few instructions long (following *Rust Atomics and
//!   Locks*, ch. 4).
//!
//! Everything here is deterministic in *results*: `parallel_map` returns
//! outputs in input order regardless of scheduling.

mod pool;
mod scope;
mod spin;

pub use pool::{ThreadPool, WaitGroup};
pub use scope::{
    available_threads, chunk_count, parallel_for_each, parallel_map, parallel_map_indexed,
};
pub use spin::SpinLock;
