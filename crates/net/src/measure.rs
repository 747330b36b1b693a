//! The one clock in the crate.
//!
//! Everything `mlstar-net` reports about *time* flows through this
//! module, so exactly one file waives the workspace's wall-clock ban: wall
//! clocks here feed measurement records only — never control flow, RNG
//! seeding, or model math — which is what keeps net-backed training
//! bit-identical to the simulated path.

#![expect(
    clippy::disallowed_types,
    reason = "the crate's one host clock; readings feed measurement records only"
)]

use std::time::Instant;

/// A started wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the watch now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Whole nanoseconds elapsed since [`Stopwatch::start`] (saturating
    /// at `u64::MAX` — ~584 years).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_moves_forward() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
        assert!(sw.elapsed_s() >= 0.0);
    }
}
