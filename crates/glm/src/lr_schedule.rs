//! Learning-rate schedules for (S)GD.

/// A learning-rate schedule `η(t)` where `t` is a 0-based update counter.
///
/// MLlib's `GradientDescent` uses `η₀/√(t+1)` per iteration; constant rates
/// are common for model-averaging systems. Both are provided, plus two
/// extras used in the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningRate {
    /// Constant `η₀`.
    Constant(f64),
    /// `η₀ / √(t+1)` — MLlib's default decay.
    InvSqrt(f64),
    /// `η₀ / (1 + decay·t)`.
    InvT {
        /// Initial rate η₀.
        eta0: f64,
        /// Decay coefficient.
        decay: f64,
    },
    /// `η₀ · factor^(t / period)` — stepwise exponential decay.
    Exponential {
        /// Initial rate η₀.
        eta0: f64,
        /// Multiplicative factor applied every `period` updates.
        factor: f64,
        /// Number of updates per decay step (must be ≥ 1).
        period: u64,
    },
}

impl LearningRate {
    /// The learning rate for update number `t` (0-based).
    #[inline]
    pub fn eta(&self, t: u64) -> f64 {
        match *self {
            LearningRate::Constant(eta0) => eta0,
            LearningRate::InvSqrt(eta0) => eta0 / ((t + 1) as f64).sqrt(),
            LearningRate::InvT { eta0, decay } => eta0 / (1.0 + decay * t as f64),
            LearningRate::Exponential {
                eta0,
                factor,
                period,
            } => {
                // A zero period is a configuration error caught by
                // `validate`; reaching it here panics (integer division by
                // zero) instead of silently decaying at some made-up rate.
                let steps = t / period;
                eta0 * factor.powi(steps.min(i32::MAX as u64) as i32)
            }
        }
    }

    /// The initial learning rate `η(0)`.
    pub fn eta0(&self) -> f64 {
        self.eta(0)
    }

    /// Checks the schedule's parameters, so a bad sweep fails loudly at
    /// configuration time instead of silently training with a clamped or
    /// nonsensical rate.
    ///
    /// Rejects: a non-finite or non-positive `η₀`, a non-finite `decay`,
    /// a non-finite or non-positive `factor`, and an `Exponential` period
    /// of zero (which previously was silently treated as 1).
    pub fn validate(&self) -> Result<(), String> {
        let eta0 = match *self {
            LearningRate::Constant(eta0) | LearningRate::InvSqrt(eta0) => eta0,
            LearningRate::InvT { eta0, decay } => {
                if !decay.is_finite() || decay < 0.0 {
                    return Err(format!("InvT decay must be finite and ≥ 0, got {decay}"));
                }
                eta0
            }
            LearningRate::Exponential {
                eta0,
                factor,
                period,
            } => {
                if period == 0 {
                    return Err("Exponential period must be ≥ 1 (got 0)".to_string());
                }
                if !factor.is_finite() || factor <= 0.0 {
                    return Err(format!(
                        "Exponential factor must be finite and > 0, got {factor}"
                    ));
                }
                eta0
            }
        };
        if !eta0.is_finite() || eta0 <= 0.0 {
            return Err(format!("η₀ must be finite and > 0, got {eta0}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LearningRate::Constant(0.5);
        assert_eq!(s.eta(0), 0.5);
        assert_eq!(s.eta(1_000_000), 0.5);
    }

    #[test]
    fn inv_sqrt_decays_like_mllib() {
        let s = LearningRate::InvSqrt(1.0);
        assert_eq!(s.eta(0), 1.0);
        assert!((s.eta(3) - 0.5).abs() < 1e-12);
        assert!((s.eta(99) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn inv_t_decays_harmonically() {
        let s = LearningRate::InvT {
            eta0: 1.0,
            decay: 1.0,
        };
        assert_eq!(s.eta(0), 1.0);
        assert_eq!(s.eta(1), 0.5);
        assert_eq!(s.eta(9), 0.1);
    }

    #[test]
    fn exponential_steps() {
        let s = LearningRate::Exponential {
            eta0: 1.0,
            factor: 0.5,
            period: 10,
        };
        assert_eq!(s.eta(0), 1.0);
        assert_eq!(s.eta(9), 1.0);
        assert_eq!(s.eta(10), 0.5);
        assert_eq!(s.eta(25), 0.25);
    }

    #[test]
    fn validate_accepts_sane_schedules() {
        for s in [
            LearningRate::Constant(0.5),
            LearningRate::InvSqrt(1.0),
            LearningRate::InvT {
                eta0: 0.3,
                decay: 0.01,
            },
            LearningRate::Exponential {
                eta0: 1.0,
                factor: 0.5,
                period: 10,
            },
        ] {
            assert_eq!(s.validate(), Ok(()), "{s:?}");
        }
    }

    #[test]
    fn validate_rejects_zero_exponential_period() {
        // Previously `period: 0` was silently clamped to 1, so a sweep over
        // periods that accidentally included 0 trained with a different
        // schedule than it reported. Now it is a loud configuration error.
        let s = LearningRate::Exponential {
            eta0: 1.0,
            factor: 0.5,
            period: 0,
        };
        let err = s.validate().unwrap_err();
        assert!(err.contains("period"), "{err}");
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn unvalidated_zero_period_panics_instead_of_clamping() {
        let s = LearningRate::Exponential {
            eta0: 1.0,
            factor: 0.5,
            period: 0,
        };
        let _ = s.eta(1);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(LearningRate::Constant(0.0).validate().is_err());
        assert!(LearningRate::Constant(-0.1).validate().is_err());
        assert!(LearningRate::Constant(f64::NAN).validate().is_err());
        assert!(LearningRate::InvSqrt(f64::INFINITY).validate().is_err());
        assert!(LearningRate::InvT {
            eta0: 0.1,
            decay: -1.0
        }
        .validate()
        .is_err());
        assert!(LearningRate::Exponential {
            eta0: 0.1,
            factor: 0.0,
            period: 5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn schedules_are_nonincreasing() {
        let schedules = [
            LearningRate::Constant(0.3),
            LearningRate::InvSqrt(0.3),
            LearningRate::InvT {
                eta0: 0.3,
                decay: 0.01,
            },
            LearningRate::Exponential {
                eta0: 0.3,
                factor: 0.9,
                period: 5,
            },
        ];
        for s in schedules {
            let mut prev = s.eta0();
            for t in 1..200 {
                let cur = s.eta(t);
                assert!(cur <= prev + 1e-15, "{s:?} increased at t={t}");
                assert!(cur > 0.0);
                prev = cur;
            }
        }
    }
}
