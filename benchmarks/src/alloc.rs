//! A counting `#[global_allocator]`, the benchmark's only unsafe code.
//!
//! It forwards every request to the system allocator. Counting is off
//! unless a [`Session`] is open, so timed regions pay one relaxed load per
//! allocation and nothing else; the benchmark opens a session only around
//! untimed calls (the warm-up call and the traced pass).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

/// The process allocator; installed in `main.rs`.
pub struct Counting;

// All four are statistics: they publish no other data, so `Relaxed` is
// enough (rust guide, "Threads and shared state").
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since the session opened. Signed,
/// because a session also sees frees of blocks allocated before it.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let delta = isize::try_from(bytes).unwrap_or(isize::MAX);
    let live = LIVE.fetch_add(delta, Relaxed).saturating_add(delta);
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(isize::try_from(bytes).unwrap_or(isize::MAX), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only atomics, never the returned memory, and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` obligations are the caller's,
        // passed through to the allocator the block came from.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What one counting session saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// Highest net growth of the heap above its size when the session
    /// opened, in bytes.
    pub peak_bytes: u64,
    /// Allocation calls (`alloc`, `alloc_zeroed`, growing or shrinking
    /// `realloc`), from every thread.
    pub allocations: u64,
}

impl Usage {
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Counts allocations from [`Session::open`] until [`Session::close`]
/// (or drop). One session at a time: the benchmark's harness is
/// single-threaded, only the program under test spawns threads.
pub struct Session(());

impl Session {
    pub fn open() -> Session {
        LIVE.store(0, Relaxed);
        PEAK.store(0, Relaxed);
        ALLOCS.store(0, Relaxed);
        ENABLED.store(true, Relaxed);
        Session(())
    }

    pub fn close(self) -> Usage {
        ENABLED.store(false, Relaxed);
        Usage {
            peak_bytes: u64::try_from(PEAK.load(Relaxed)).unwrap_or(0),
            allocations: ALLOCS.load(Relaxed),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: sessions share process-wide counters, and the test
    // binary runs tests on parallel threads.
    #[test]
    fn session_sees_peak_and_count_of_what_runs_inside_it() {
        let before: Vec<u8> = vec![1; 1 << 20];
        let session = Session::open();
        drop(before); // a free of a block from before the session
        let a: Vec<u8> = vec![2; 3 << 20];
        let b: Vec<u8> = vec![3; 1 << 20];
        std::hint::black_box((&a, &b));
        drop(a);
        drop(b);
        let usage = session.close();
        // −1 MiB, then +3 +1: the peak net growth is 3 MiB (plus whatever
        // other test threads allocate while the session is open).
        assert!(usage.peak_bytes >= 3 << 20, "{usage:?}");
        assert!(usage.allocations >= 2, "{usage:?}");
        assert!((usage.peak_mib() - usage.peak_bytes as f64 / 1048576.0).abs() < 1e-12);

        let after = Session::open().close();
        assert!(
            after.peak_bytes < usage.peak_bytes,
            "counters reset per session: {after:?}"
        );
    }
}
