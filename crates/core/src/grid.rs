//! Grid search over hyperparameters, as in the paper's protocol.
//!
//! "For each system, we also tune the hyper-parameters by grid search for
//! fair comparison. Specifically, we tuned batch size, learning rate for
//! Spark MLlib. For Angel and Petuum, we tuned batch size, learning rate,
//! as well as staleness."

use mlstar_glm::LearningRate;

use crate::{TrainConfig, TrainOutput};

/// One hyperparameter combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Constant learning rate η.
    pub eta: f64,
    /// Batch fraction.
    pub batch_frac: f64,
    /// SSP staleness (ignored by non-PS systems).
    pub staleness: u64,
    /// Regularization strength λ (applied to the base config's
    /// regularizer flavor; see [`GridSearch::run`]).
    pub lambda: f64,
}

/// The search space.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// Candidate learning rates.
    pub etas: Vec<f64>,
    /// Candidate batch fractions.
    pub batch_fracs: Vec<f64>,
    /// Candidate staleness bounds (use `[0]` for non-PS systems).
    pub stalenesses: Vec<u64>,
    /// Candidate regularization strengths. Use `[base.reg.lambda()]` to
    /// keep the base config's strength fixed.
    pub lambdas: Vec<f64>,
}

impl GridSearch {
    /// A small default grid (λ fixed at 0, i.e. unregularized).
    pub fn small() -> Self {
        GridSearch {
            etas: vec![0.01, 0.05, 0.2],
            batch_fracs: vec![0.01, 0.1],
            stalenesses: vec![0],
            lambdas: vec![0.0],
        }
    }

    /// The cartesian product of the space, enumerated in the fixed
    /// deterministic nesting η → batch fraction → staleness → λ (λ is the
    /// innermost, fastest-varying axis).
    pub fn points(&self) -> Vec<GridPoint> {
        let mut out = Vec::new();
        for &eta in &self.etas {
            for &batch_frac in &self.batch_fracs {
                for &staleness in &self.stalenesses {
                    for &lambda in &self.lambdas {
                        out.push(GridPoint {
                            eta,
                            batch_frac,
                            staleness,
                            lambda,
                        });
                    }
                }
            }
        }
        out
    }

    /// Runs `train` for every point and picks the winner: the point that
    /// reaches `target` fastest in simulated time, falling back to lowest
    /// final objective if none reaches it.
    ///
    /// Each point's λ is threaded into the config via
    /// [`mlstar_glm::Regularizer::with_lambda`]: the base regularizer
    /// keeps its flavor (L2 stays L2, L1 stays L1) at the point's
    /// strength, `λ = 0` collapses to `None`, and an unregularized base
    /// with `λ > 0` becomes L2 (the paper's default flavor).
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty.
    pub fn run<F>(&self, base: &TrainConfig, target: f64, mut train: F) -> GridResult
    where
        F: FnMut(&TrainConfig, GridPoint) -> TrainOutput,
    {
        let points = self.points();
        assert!(!points.is_empty(), "empty hyperparameter grid");
        let mut best: Option<(GridPoint, TrainOutput, GridScore)> = None;
        for point in points {
            let cfg = TrainConfig {
                lr: LearningRate::Constant(point.eta),
                batch_frac: point.batch_frac,
                reg: base.reg.with_lambda(point.lambda),
                ..base.clone()
            };
            let output = train(&cfg, point);
            let score = GridScore {
                time_to_target: output.trace.time_to_reach(target),
                final_objective: output.trace.final_objective().unwrap_or(f64::INFINITY),
            };
            let better = match &best {
                None => true,
                Some((_, _, incumbent)) => score.beats(incumbent),
            };
            if better {
                best = Some((point, output, score));
            }
        }
        let (point, output, _) = best.expect("grid was nonempty"); // lint:allow(panic_in_lib): asserted nonempty at the top of run()
        GridResult {
            best_point: point,
            best_output: output,
            evaluated: self.points().len(),
        }
    }
}

/// Comparison key for grid candidates.
#[derive(Debug, Clone, Copy)]
struct GridScore {
    time_to_target: Option<f64>,
    final_objective: f64,
}

impl GridScore {
    fn beats(&self, other: &GridScore) -> bool {
        match (self.time_to_target, other.time_to_target) {
            (Some(a), Some(b)) => a < b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                // NaN-safe: a non-finite candidate never beats a finite one.
                if self.final_objective.is_nan() {
                    false
                } else if other.final_objective.is_nan() {
                    true
                } else {
                    self.final_objective < other.final_objective
                }
            }
        }
    }
}

/// The outcome of a grid search.
#[derive(Debug)]
pub struct GridResult {
    /// The winning combination.
    pub best_point: GridPoint,
    /// Its training output.
    pub best_output: TrainOutput,
    /// How many combinations were evaluated.
    pub evaluated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_mllib_star, System};
    use mlstar_data::SyntheticConfig;
    use mlstar_sim::ClusterSpec;

    #[test]
    fn cartesian_product_size() {
        let g = GridSearch {
            etas: vec![0.1, 0.2],
            batch_fracs: vec![0.01, 0.1, 1.0],
            stalenesses: vec![0, 2],
            lambdas: vec![0.0, 0.1],
        };
        assert_eq!(g.points().len(), 24);
        assert_eq!(GridSearch::small().points().len(), 6);
    }

    #[test]
    fn picks_a_converging_learning_rate() {
        let ds = SyntheticConfig::small("grid", 160, 20).generate();
        let cluster = ClusterSpec::uniform(
            4,
            mlstar_sim::NodeSpec::standard(),
            mlstar_sim::NetworkSpec::gbps1(),
        );
        let base = TrainConfig {
            max_rounds: 10,
            ..TrainConfig::default()
        };
        // Include an absurd learning rate that diverges; the grid must not
        // pick it.
        let grid = GridSearch {
            etas: vec![1000.0, 0.05],
            batch_fracs: vec![1.0],
            stalenesses: vec![0],
            lambdas: vec![0.0],
        };
        let result = grid.run(&base, 0.2, |cfg, _point| {
            train_mllib_star(&ds, &cluster, cfg)
        });
        assert_eq!(result.evaluated, 2);
        assert_eq!(result.best_point.eta, 0.05);
        let f = result.best_output.trace.final_objective().unwrap();
        assert!(f < 1.0, "winner should converge, got {f}");
    }

    #[test]
    fn staleness_is_threaded_to_ps_systems() {
        let ds = SyntheticConfig::small("grid2", 80, 10).generate();
        let cluster = ClusterSpec::uniform(
            2,
            mlstar_sim::NodeSpec::standard(),
            mlstar_sim::NetworkSpec::gbps1(),
        );
        let base = TrainConfig {
            max_rounds: 3,
            ..TrainConfig::default()
        };
        let grid = GridSearch {
            etas: vec![0.05],
            batch_fracs: vec![0.5],
            stalenesses: vec![0, 3],
            lambdas: vec![0.0],
        };
        let mut seen = Vec::new();
        let result = grid.run(&base, 0.0, |cfg, point| {
            seen.push(point.staleness);
            let ps = crate::PsSystemConfig {
                staleness: point.staleness,
                num_servers: 1,
                ..Default::default()
            };
            System::PetuumStar.train(&ds, &cluster, cfg, &ps, &crate::AngelConfig::default())
        });
        assert_eq!(seen, vec![0, 3]);
        assert_eq!(result.evaluated, 2);
    }

    #[test]
    fn lambda_axis_is_threaded_into_the_config() {
        let ds = SyntheticConfig::small("grid3", 80, 10).generate();
        let cluster = ClusterSpec::uniform(
            2,
            mlstar_sim::NodeSpec::standard(),
            mlstar_sim::NetworkSpec::gbps1(),
        );
        let base = TrainConfig {
            reg: mlstar_glm::Regularizer::L2 { lambda: 0.5 },
            max_rounds: 2,
            ..TrainConfig::default()
        };
        let grid = GridSearch {
            etas: vec![0.05],
            batch_fracs: vec![1.0],
            stalenesses: vec![0],
            lambdas: vec![0.0, 0.1, 0.5],
        };
        let mut seen = Vec::new();
        let result = grid.run(&base, 0.0, |cfg, point| {
            seen.push((point.lambda, cfg.reg));
            train_mllib_star(&ds, &cluster, cfg)
        });
        // Deterministic enumeration order, flavor preserved, 0 collapses.
        assert_eq!(
            seen,
            vec![
                (0.0, mlstar_glm::Regularizer::None),
                (0.1, mlstar_glm::Regularizer::L2 { lambda: 0.1 }),
                (0.5, mlstar_glm::Regularizer::L2 { lambda: 0.5 }),
            ]
        );
        assert_eq!(result.evaluated, 3);
        assert!(grid.lambdas.contains(&result.best_point.lambda));
    }

    #[test]
    fn score_ordering() {
        let reach_fast = GridScore {
            time_to_target: Some(1.0),
            final_objective: 0.5,
        };
        let reach_slow = GridScore {
            time_to_target: Some(2.0),
            final_objective: 0.1,
        };
        let never = GridScore {
            time_to_target: None,
            final_objective: 0.01,
        };
        let nan = GridScore {
            time_to_target: None,
            final_objective: f64::NAN,
        };
        assert!(reach_fast.beats(&reach_slow));
        assert!(!reach_slow.beats(&reach_fast));
        assert!(reach_slow.beats(&never), "reaching the target wins");
        assert!(never.beats(&nan));
        assert!(!nan.beats(&never));
    }
}
