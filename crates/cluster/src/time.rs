//! Simulated time: nanosecond instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start as `f64` (the unit of the paper's time axes).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Duration since an earlier instant (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from floating-point seconds, saturating at zero
    /// for negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scales the duration by a nonnegative factor (saturating).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_millis(250).as_nanos(), 250_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn negative_and_nan_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        assert_eq!(t.as_nanos(), 100_000_000);
        let t2 = t + SimDuration::from_millis(50);
        assert_eq!((t2 - t).as_nanos(), 50_000_000);
        // Saturating subtraction.
        assert_eq!((t - t2).as_nanos(), 0);
        let mut acc = SimDuration::ZERO;
        acc += SimDuration::from_millis(10);
        acc += SimDuration::from_millis(5);
        assert_eq!(acc.as_nanos(), 15_000_000);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(
            SimDuration::from_nanos(5).max(SimDuration::from_nanos(9)),
            SimDuration::from_nanos(9)
        );
    }

    #[test]
    fn mul_scales() {
        let d = SimDuration::from_secs_f64(2.0).mul_f64(2.5);
        assert!((d.as_secs_f64() - 5.0).abs() < 1e-9);
        assert_eq!(
            SimDuration::from_secs_f64(1.0).mul_f64(-3.0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(format!("{}", SimTime::from_nanos(1_500_000_000)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(20)), "0.020s");
    }
}
