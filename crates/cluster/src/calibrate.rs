//! Least-squares cost-model calibration from measured rounds.
//!
//! The real execution backend (`mlstar-net`) records, for every worker in
//! every dispatch batch, the modeled flops it was asked to perform, the
//! serialized bytes exchanged, the number of protocol messages, and the
//! observed turnaround time. Under the same linear cost model the
//! simulator charges —
//!
//! ```text
//! seconds ≈ flops·x₁ + bytes·x₂ + messages·x₃
//! ```
//!
//! — those samples determine the three rates by ordinary least squares.
//! [`fit_rates`] solves the 3×3 normal equations directly (no iteration,
//! no randomness: this crate is simulation-critical and must stay
//! deterministic), and [`FittedRates::cluster`] turns the solution into a
//! homogeneous [`ClusterSpec`] so the very same training run can be
//! re-simulated under the calibrated model and compared against the
//! measured makespan.

use crate::spec::{ClusterSpec, NetworkSpec, NodeSpec};
use crate::time::SimDuration;

/// One measured observation: work shipped to a worker and the wall-clock
/// seconds until its reply was fully received.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSample {
    /// Modeled floating-point operations of the shipped ops.
    pub flops: f64,
    /// Encoded payload bytes, both directions.
    pub bytes: f64,
    /// Protocol messages exchanged (request + reply = 2 per batch).
    pub messages: f64,
    /// Observed turnaround in seconds.
    pub seconds: f64,
}

/// The calibrated cost-model rates, in the simulator's native units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedRates {
    /// Sustained compute rate, GFLOP/s (from x₁ = seconds per flop).
    pub gflops: f64,
    /// Link bandwidth, bytes/s (from x₂ = seconds per byte).
    pub bandwidth_bps: f64,
    /// Per-message latency, seconds (x₃ directly).
    pub latency_s: f64,
    /// Which coefficients the fit did **not** identify, in column order
    /// `[flops, bytes, messages]`: least squares returned a non-positive
    /// value there and the rate above is the physical floor, kept only so
    /// [`FittedRates::cluster`] stays usable. Report such a rate as
    /// clamped, never as a measurement.
    pub clamped: [bool; 3],
}

/// Floors keeping a near-singular fit physical: no coefficient may imply
/// a rate beyond these (absurdly generous) machine limits.
const MIN_SECS_PER_FLOP: f64 = 1e-15; // ≤ 10⁶ GFLOP/s
const MIN_SECS_PER_BYTE: f64 = 1e-13; // ≤ 10 TB/s
const MIN_SECS_PER_MSG: f64 = 1e-9; // ≥ 1 ns latency

impl FittedRates {
    /// A homogeneous `k`-executor cluster running at the fitted rates,
    /// with no straggler model and no extra per-task overhead (real
    /// scheduling cost is already folded into the fitted latency).
    pub fn cluster(&self, k: usize) -> ClusterSpec {
        ClusterSpec::uniform(
            k,
            NodeSpec {
                gflops: self.gflops,
                task_overhead: SimDuration::ZERO,
            },
            NetworkSpec {
                bandwidth_bps: self.bandwidth_bps,
                latency: SimDuration::from_secs_f64(self.latency_s),
            },
        )
    }
}

/// Fits `seconds ≈ flops·x₁ + bytes·x₂ + messages·x₃` by ordinary least
/// squares over the samples and converts the coefficients to simulator
/// rates. Returns `None` when the design matrix is rank-deficient (fewer
/// than three samples, or no variation between them).
pub fn fit_rates(samples: &[RateSample]) -> Option<FittedRates> {
    if samples.len() < 3 {
        return None;
    }
    // Normal equations AᵀA x = Aᵀt with rows [flops, bytes, messages].
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for s in samples {
        let row = [s.flops, s.bytes, s.messages];
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += row[i] * row[j];
            }
            atb[i] += row[i] * s.seconds;
        }
    }
    let x = solve3(ata, atb)?;
    let floors = [MIN_SECS_PER_FLOP, MIN_SECS_PER_BYTE, MIN_SECS_PER_MSG];
    let clamped = [x[0] < floors[0], x[1] < floors[1], x[2] < floors[2]];
    Some(FittedRates {
        gflops: 1.0 / (x[0].max(floors[0]) * 1e9),
        bandwidth_bps: 1.0 / x[1].max(floors[1]),
        latency_s: x[2].max(floors[2]),
        clamped,
    })
}

/// Solves a 3×3 linear system by Gaussian elimination with partial
/// pivoting; `None` on a (numerically) singular matrix.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col];
        for row in col + 1..3 {
            let f = a[row][col] / pivot_row[col];
            for (k, v) in a[row].iter_mut().enumerate().skip(col) {
                *v -= f * pivot_row[k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for col in (0..3).rev() {
        let s: f64 = (col + 1..3).map(|k| a[col][k] * x[k]).sum();
        x[col] = (b[col] - s) / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StragglerModel;

    /// Builds a sample under exact known rates.
    fn sample(flops: f64, bytes: f64, messages: f64) -> RateSample {
        let secs_per_flop = 1.0 / 4e9; // 4 GFLOP/s
        let secs_per_byte = 1.0 / 500e6; // 500 MB/s
        let secs_per_msg = 2e-4; // 200 µs
        RateSample {
            flops,
            bytes,
            messages,
            seconds: flops * secs_per_flop + bytes * secs_per_byte + messages * secs_per_msg,
        }
    }

    #[test]
    fn recovers_exact_rates() {
        let samples: Vec<RateSample> = (1..20)
            .map(|i| {
                let f = i as f64;
                sample(1e6 * f, 4e3 * (20.0 - f), 2.0 + (f % 3.0))
            })
            .collect();
        let r = fit_rates(&samples).expect("full-rank fit");
        assert!((r.gflops - 4.0).abs() < 1e-6, "gflops = {}", r.gflops);
        assert!(
            (r.bandwidth_bps - 500e6).abs() < 1.0,
            "bw = {}",
            r.bandwidth_bps
        );
        assert!((r.latency_s - 2e-4).abs() < 1e-10, "lat = {}", r.latency_s);
        assert_eq!(r.clamped, [false; 3]);
    }

    #[test]
    fn rank_deficient_fit_is_none() {
        // All samples identical: rank 1.
        let samples = vec![sample(1e6, 4e3, 2.0); 5];
        assert!(fit_rates(&samples).is_none());
        // Too few samples.
        assert!(fit_rates(&samples[..2]).is_none());
    }

    #[test]
    fn negative_coefficients_are_floored() {
        // Noise pattern that drives the message coefficient negative.
        let mut samples: Vec<RateSample> = (1..10)
            .map(|i| {
                let f = i as f64;
                sample(1e6 * f, 4e3 * f * f, 2.0)
            })
            .collect();
        samples.push(RateSample {
            flops: 0.0,
            bytes: 0.0,
            messages: 100.0,
            seconds: 0.0, // free messages → x₃ fitted at ~0
        });
        let r = fit_rates(&samples).expect("still full rank");
        assert!(r.latency_s >= MIN_SECS_PER_MSG);
        assert!(r.clamped.contains(&true), "{:?}", r.clamped);
        assert!(r.gflops.is_finite() && r.gflops > 0.0);
        assert!(r.bandwidth_bps.is_finite() && r.bandwidth_bps > 0.0);
    }

    #[test]
    fn unidentified_bandwidth_is_flagged_not_reported_as_a_rate() {
        // A balanced run: every worker ships bytes in proportion to its
        // flops, so the byte column is a multiple of the flop column and
        // carries no information of its own.
        let balanced: Vec<RateSample> = (1..30)
            .map(|i| {
                let f = 1e6 * i as f64;
                sample(f, 4e-3 * f, 2.0 + (i % 4) as f64)
            })
            .collect();
        // Exactly collinear: either refused as rank-deficient or flagged,
        // never two unflagged rates.
        if let Some(r) = fit_rates(&balanced) {
            assert!(r.clamped[0] || r.clamped[1], "{r:?}");
        }
        // One worker that shipped 1 % more bytes and happened to answer a
        // microsecond sooner is then all the fit knows about bandwidth:
        // the byte coefficient comes out negative.
        let mut jittered = balanced;
        jittered.push(RateSample {
            bytes: 1.01 * 4e-3 * 5e6,
            seconds: sample(5e6, 4e-3 * 5e6, 3.0).seconds - 1e-6,
            ..sample(5e6, 0.0, 3.0)
        });
        let r = fit_rates(&jittered).expect("full rank");
        assert_eq!(r.clamped, [false, true, false]);
        assert_eq!(r.bandwidth_bps, 1.0 / MIN_SECS_PER_BYTE);
        assert!((r.latency_s - 2e-4).abs() < 1e-6, "lat = {}", r.latency_s);
    }

    #[test]
    fn fitted_cluster_shape() {
        let r = FittedRates {
            gflops: 3.5,
            bandwidth_bps: 2e8,
            latency_s: 1e-4,
            clamped: [false; 3],
        };
        let c = r.cluster(4);
        assert_eq!(c.num_executors(), 4);
        assert_eq!(c.straggler, StragglerModel::None);
        assert_eq!(c.driver.gflops, 3.5);
        assert_eq!(c.executors[3].task_overhead, SimDuration::ZERO);
        assert_eq!(c.network.bandwidth_bps, 2e8);
        assert!((c.network.latency.as_secs_f64() - 1e-4).abs() < 1e-12);
    }
}
