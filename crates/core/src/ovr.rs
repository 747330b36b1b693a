//! One-vs-rest multiclass training on top of any distributed system.
//!
//! MLlib's multiclass linear classifiers are one-vs-rest reductions: `C`
//! independent binary problems, each trainable by any of the systems in
//! this crate. Prediction is argmax over the `C` binary margins.

use mlstar_data::{MulticlassDataset, SparseDataset};
use mlstar_glm::{BinaryConfusion, GlmModel};
use mlstar_linalg::SparseVector;
use mlstar_sim::ClusterSpec;

use crate::{AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput};

/// A trained one-vs-rest multiclass model: one binary scorer per class.
#[derive(Debug, Clone)]
pub struct OvrModel {
    class_models: Vec<GlmModel>,
}

impl OvrModel {
    /// Number of classes.
    pub fn num_classes(&self) -> u32 {
        self.class_models.len() as u32
    }

    /// The binary scorer for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_model(&self, class: u32) -> &GlmModel {
        &self.class_models[class as usize]
    }

    /// Predicts the class with the largest margin.
    #[expect(
        clippy::expect_used,
        reason = "OvrModel construction requires ≥1 class model"
    )]
    pub fn predict(&self, x: &SparseVector) -> u32 {
        self.class_models
            .iter()
            .enumerate()
            .map(|(c, m)| (c as u32, m.margin(x)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one class")
            .0
    }

    /// Per-class margins for an example, in class order.
    pub fn margins(&self, x: &SparseVector) -> Vec<f64> {
        self.class_models.iter().map(|m| m.margin(x)).collect()
    }

    /// Multiclass accuracy on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn accuracy(&self, ds: &MulticlassDataset) -> f64 {
        assert!(
            !ds.is_empty(),
            "accuracy over an empty dataset is undefined"
        );
        let correct = ds
            .rows()
            .iter()
            .zip(ds.labels().iter())
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / ds.len() as f64
    }

    /// The binary confusion matrix of one class's one-vs-rest scorer:
    /// examples of `class` are the positives, all other classes the
    /// negatives. Goes through the shared
    /// [`BinaryConfusion::evaluate_model`] entry point, the same API the
    /// serving subsystem scores with.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `class` is out of range.
    pub fn class_confusion(&self, class: u32, ds: &MulticlassDataset) -> BinaryConfusion {
        assert!(
            !ds.is_empty(),
            "metrics over an empty dataset are undefined"
        );
        let binary_labels: Vec<f64> = ds
            .labels()
            .iter()
            .map(|&y| if y == class { 1.0 } else { -1.0 })
            .collect();
        BinaryConfusion::evaluate_model(self.class_model(class), ds.rows(), &binary_labels)
    }
}

/// One-vs-rest trainer wrapping a distributed [`System`].
#[derive(Debug, Clone)]
pub struct OneVsRest {
    system: System,
    cfg: TrainConfig,
    ps: PsSystemConfig,
    angel: AngelConfig,
}

/// Output of a one-vs-rest run: the model plus each class's binary run.
#[derive(Debug, Clone)]
pub struct OvrOutput {
    /// The combined multiclass model.
    pub model: OvrModel,
    /// The per-class binary training outputs (class order).
    pub per_class: Vec<TrainOutput>,
}

impl OneVsRest {
    /// A one-vs-rest trainer with default PS/Angel settings.
    pub fn new(system: System, cfg: TrainConfig) -> Self {
        OneVsRest {
            system,
            cfg,
            ps: PsSystemConfig::default(),
            angel: AngelConfig::default(),
        }
    }

    /// Overrides the parameter-server settings.
    pub fn with_ps(mut self, ps: PsSystemConfig) -> Self {
        self.ps = ps;
        self
    }

    /// Overrides Angel's settings.
    pub fn with_angel(mut self, angel: AngelConfig) -> Self {
        self.angel = angel;
        self
    }

    /// Trains `C` binary problems and assembles the multiclass model.
    /// Each class's run gets a distinct seed derived from the base config.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(&self, ds: &MulticlassDataset, cluster: &ClusterSpec) -> OvrOutput {
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let mut class_models = Vec::with_capacity(ds.num_classes() as usize);
        let mut per_class = Vec::with_capacity(ds.num_classes() as usize);
        for class in 0..ds.num_classes() {
            let binary: SparseDataset = ds.binarized(class);
            let cfg = TrainConfig {
                seed: self.cfg.seed.wrapping_add(u64::from(class)),
                ..self.cfg.clone()
            };
            let out = self
                .system
                .train(&binary, cluster, &cfg, &self.ps, &self.angel);
            class_models.push(out.model.clone());
            per_class.push(out);
        }
        OvrOutput {
            model: OvrModel { class_models },
            per_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::MulticlassConfig;
    use mlstar_glm::{LearningRate, Loss, Regularizer};

    fn tiny() -> MulticlassDataset {
        MulticlassConfig {
            score_noise: 0.02,
            ..MulticlassConfig::small("ovr", 400, 40, 3)
        }
        .generate()
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.05),
            max_rounds: 12,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn learns_a_three_class_problem() {
        let ds = tiny();
        let out = OneVsRest::new(System::MllibStar, cfg()).train(&ds, &ClusterSpec::cluster1());
        assert_eq!(out.model.num_classes(), 3);
        assert_eq!(out.per_class.len(), 3);
        let acc = out.model.accuracy(&ds);
        // Argmax-of-linear-scorers data is exactly OvR-representable up to
        // score noise.
        assert!(acc > 0.8, "multiclass accuracy {acc}");
        // Far above chance (1/3).
        for o in &out.per_class {
            assert!(o.trace.final_objective().unwrap().is_finite());
        }
    }

    #[test]
    fn per_class_runs_use_distinct_seeds() {
        let ds = tiny();
        let out = OneVsRest::new(System::MllibStar, cfg()).train(&ds, &ClusterSpec::cluster1());
        // Different binarizations + seeds → different models.
        let w0 = out.model.class_model(0).weights().as_slice();
        let w1 = out.model.class_model(1).weights().as_slice();
        assert_ne!(w0, w1);
    }

    #[test]
    fn margins_align_with_prediction() {
        let ds = tiny();
        let out = OneVsRest::new(System::MllibStar, cfg()).train(&ds, &ClusterSpec::cluster1());
        let x = &ds.rows()[0];
        let margins = out.model.margins(x);
        let best = margins
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("nonempty")
            .0 as u32;
        assert_eq!(out.model.predict(x), best);
    }

    #[test]
    fn deterministic() {
        let ds = tiny();
        let trainer = OneVsRest::new(System::MllibStar, cfg());
        let a = trainer.train(&ds, &ClusterSpec::cluster1());
        let b = trainer.train(&ds, &ClusterSpec::cluster1());
        assert_eq!(a.model.accuracy(&ds), b.model.accuracy(&ds));
        for (ma, mb) in a.per_class.iter().zip(b.per_class.iter()) {
            assert_eq!(ma.trace, mb.trace);
        }
    }

    #[test]
    fn class_confusion_counts_one_vs_rest() {
        let ds = tiny();
        let out = OneVsRest::new(System::MllibStar, cfg()).train(&ds, &ClusterSpec::cluster1());
        for class in 0..out.model.num_classes() {
            let c = out.model.class_confusion(class, &ds);
            assert_eq!(c.total() as usize, ds.len(), "every example is counted");
            let positives = ds.labels().iter().filter(|&&y| y == class).count() as u64;
            assert_eq!(c.tp + c.fn_, positives, "positives = members of the class");
            // The trained scorers do far better than chance on their class.
            assert!(c.accuracy() > 0.7, "class {class}: {}", c.accuracy());
        }
    }

    #[test]
    fn works_with_parameter_server_backends() {
        let ds = tiny();
        let out = OneVsRest::new(
            System::PetuumStar,
            TrainConfig {
                batch_frac: 0.3,
                max_rounds: 30,
                ..cfg()
            },
        )
        .train(&ds, &ClusterSpec::cluster1());
        assert!(out.model.accuracy(&ds) > 0.6);
    }
}
