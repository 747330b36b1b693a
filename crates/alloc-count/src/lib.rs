//! The benchmark's counting allocator, shared with the test suite.
//!
//! The module is included from `benchmarks/src/alloc.rs` rather than
//! copied, so the allocator's unsafe code exists once in the repository.
//! A test binary installs [`Counting`] as its `#[global_allocator]` and
//! reads the counts of the code it runs through a [`Session`].

#[path = "../../../benchmarks/src/alloc.rs"]
mod alloc;

pub use alloc::{Counting, Session, Usage};

// The module's own unit test reads the counters, so its test binary counts.
#[cfg(test)]
#[global_allocator]
static COUNTING: Counting = Counting;
