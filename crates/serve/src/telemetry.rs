//! Serving telemetry: per-batch records and fixed-bucket latency
//! histograms.
//!
//! All latencies here are **simulated** (virtual-clock) values produced by
//! the scoring engine's cost model, so telemetry is bit-reproducible
//! across runs and worker-shard counts — the same discipline the round
//! engine applies to training telemetry. Wall-clock measurement lives
//! only in the bench crate.

use mlstar_sim::SimTime;

/// Number of finite histogram buckets.
const NUM_BUCKETS: usize = 48;

/// Smallest bucket upper bound, in seconds (1 µs).
const FIRST_BOUND_S: f64 = 1e-6;

/// Bucket upper bounds in seconds: bucket `i` ends at `1 µs · 2^i`.
const BOUNDS: [f64; NUM_BUCKETS] = {
    let mut bounds = [0.0; NUM_BUCKETS];
    let mut i = 0;
    while i < NUM_BUCKETS {
        bounds[i] = FIRST_BOUND_S * (1u64 << i) as f64;
        i += 1;
    }
    bounds
};

/// A fixed-bucket latency histogram: 48 geometric buckets doubling from
/// 1 µs, plus an overflow bucket. Fixed buckets keep percentile reports
/// comparable across runs and configurations (no adaptive resizing).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum_s: f64,
    max_s: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            overflow: 0,
            total: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// Records one latency observation (seconds; negative or non-finite
    /// values are clamped to zero).
    pub fn record(&mut self, secs: f64) {
        let v = if secs.is_finite() { secs.max(0.0) } else { 0.0 };
        self.total += 1;
        self.sum_s += v;
        self.max_s = self.max_s.max(v);
        // The first bucket whose bound is ≥ v; past the last, overflow.
        match self.counts.get_mut(BOUNDS.partition_point(|&b| b < v)) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean observed latency in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_s / self.total as f64
        }
    }

    /// Largest observed latency in seconds.
    pub fn max(&self) -> f64 {
        self.max_s
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// containing that rank; the overflow bucket reports the observed
    /// maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BOUNDS[i];
            }
        }
        self.max_s
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Telemetry for one scored micro-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRecord {
    /// Batch sequence number (0-based, formation order).
    pub index: u64,
    /// Requests in the batch.
    pub size: usize,
    /// `size / max_batch` — how full the batch was when it closed.
    pub fill: f64,
    /// Requests already arrived but not yet dispatched when this batch
    /// closed (including this batch's own members' successors).
    pub queue_depth_at_close: usize,
    /// Virtual time the batch closed (size or deadline trigger).
    pub close: SimTime,
    /// Virtual time scoring started (close, or later if workers were
    /// still busy with earlier batches).
    pub service_start: SimTime,
    /// Virtual time the merged results were ready.
    pub done: SimTime,
    /// Modeled scoring time: the slowest shard's share of the batch.
    pub score_s: f64,
    /// Modeled merge time: per-result accumulation into id order.
    pub merge_s: f64,
}

/// Aggregate telemetry for one serving run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeTelemetry {
    /// Requests scored.
    pub requests: u64,
    /// Per-batch records, in formation order.
    pub batches: Vec<BatchRecord>,
    /// Per-request queue latency (arrival → scoring start).
    pub queue: LatencyHistogram,
    /// Per-batch modeled scoring latency.
    pub score: LatencyHistogram,
    /// Per-batch modeled merge latency.
    pub merge: LatencyHistogram,
    /// Arrival of the earliest request.
    pub first_arrival: SimTime,
    /// Completion of the last batch.
    pub last_done: SimTime,
}

impl ServeTelemetry {
    /// Number of batches formed.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Mean batch fill ratio (0 when no batches ran).
    pub fn mean_fill(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.fill).sum::<f64>() / self.batches.len() as f64
    }

    /// Mean queue depth observed at batch close (0 when no batches ran).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches
            .iter()
            .map(|b| b.queue_depth_at_close as f64)
            .sum::<f64>()
            / self.batches.len() as f64
    }

    /// End-to-end virtual-time throughput in requests per second
    /// (0 for a degenerate zero-length run).
    pub fn throughput_rps(&self) -> f64 {
        let span = self.last_done.since(self.first_arrival).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn records_land_in_geometric_buckets() {
        let mut h = LatencyHistogram::new();
        // 1000 fast observations and 10 slow ones.
        for _ in 0..1000 {
            h.record(10e-6); // 10 µs → bucket bound 16 µs
        }
        for _ in 0..10 {
            h.record(0.1); // 100 ms
        }
        assert_eq!(h.count(), 1010);
        assert!((h.p50() - 16e-6).abs() < 1e-12, "{}", h.p50());
        assert!((h.p95() - 16e-6).abs() < 1e-12);
        // p99 rank = 1000 — still the fast bucket; p995 crosses into slow.
        assert!((h.p99() - 16e-6).abs() < 1e-12);
        assert!(h.quantile(0.999) > 0.05);
        assert!((h.max() - 0.1).abs() < 1e-12);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100 {
            h.record(i as f64 * 1e-4);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.quantile(1.0).max(h.max()));
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let mut h = LatencyHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 0.0);
        // Everything landed in the smallest bucket.
        assert!((h.p99() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn bucketing_matches_the_linear_scan_at_every_edge() {
        let mut probes = vec![0.0, -0.0, f64::NAN, f64::INFINITY, 1e12];
        for (i, &b) in BOUNDS.iter().enumerate() {
            assert_eq!(b.to_bits(), (FIRST_BOUND_S * (1u64 << i) as f64).to_bits());
            probes.extend([b.next_down(), b, b.next_up()]);
        }
        for x in probes {
            let mut h = LatencyHistogram::new();
            h.record(x);
            // Reference: clamp, then scan for the first bucket whose bound
            // is ≥ v, else overflow.
            let v = if x.is_finite() { x.max(0.0) } else { 0.0 };
            let scan = (0..NUM_BUCKETS).find(|&i| v <= FIRST_BOUND_S * (1u64 << i) as f64);
            assert_eq!(h.counts.iter().position(|&c| c == 1), scan, "{x:e}");
            assert_eq!(h.overflow, u64::from(scan.is_none()), "{x:e}");
        }
    }

    #[test]
    fn overflow_reports_observed_max() {
        let mut h = LatencyHistogram::new();
        let huge = 1e12; // beyond the last finite bucket
        h.record(huge);
        assert!((h.quantile(0.99) - huge).abs() < 1.0);
    }

    #[test]
    fn telemetry_aggregates() {
        let mut t = ServeTelemetry {
            requests: 6,
            first_arrival: SimTime::ZERO,
            last_done: SimTime::from_nanos(3_000_000_000),
            ..ServeTelemetry::default()
        };
        for (i, size) in [4usize, 2].iter().enumerate() {
            t.batches.push(BatchRecord {
                index: i as u64,
                size: *size,
                fill: *size as f64 / 4.0,
                queue_depth_at_close: *size,
                close: SimTime::ZERO,
                service_start: SimTime::ZERO,
                done: SimTime::ZERO,
                score_s: 0.0,
                merge_s: 0.0,
            });
        }
        assert_eq!(t.num_batches(), 2);
        assert!((t.mean_fill() - 0.75).abs() < 1e-12);
        assert!((t.mean_queue_depth() - 3.0).abs() < 1e-12);
        assert!((t.throughput_rps() - 2.0).abs() < 1e-12);
        let empty = ServeTelemetry::default();
        assert_eq!(empty.mean_fill(), 0.0);
        assert_eq!(empty.throughput_rps(), 0.0);
    }
}
