//! The versioned model registry with staged rollout.
//!
//! A registry holds named model lines. Each publish of an artifact under
//! a name allocates the next version number. The first publish becomes
//! the **active** (serving) version; later publishes land as **staged**
//! — warmed but not serving — until [`ModelRegistry::promote`] flips them
//! active, mirroring how a serving fleet rolls a new model out behind the
//! one currently taking traffic. A line keeps only those two versions: a
//! publish replaces the staged one, a promote the active one.

use std::collections::BTreeMap;

use crate::{ModelArtifact, ServeError};

/// One named model line: the serving version and the one rolling out.
#[derive(Debug)]
struct ModelEntry {
    /// The version currently serving traffic.
    active: (u64, ModelArtifact),
    /// A published-but-not-yet-promoted version, if any.
    staged: Option<(u64, ModelArtifact)>,
}

/// A versioned artifact store with staged rollout.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: BTreeMap<String, ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Publishes `artifact` under `name`, returning the version number it
    /// was assigned (versions start at 1). The first version of a name
    /// becomes active immediately; subsequent versions are staged and
    /// replace any previously staged version.
    ///
    /// Fails with [`ServeError::DimensionMismatch`] if the artifact's
    /// dimension disagrees with the versions already published under the
    /// same name — a model line serves one feature space.
    pub fn publish(&mut self, name: &str, artifact: ModelArtifact) -> Result<u64, ServeError> {
        match self.entries.get_mut(name) {
            None => {
                self.entries.insert(
                    name.to_string(),
                    ModelEntry {
                        active: (1, artifact),
                        staged: None,
                    },
                );
                Ok(1)
            }
            Some(entry) => {
                let expected = entry.active.1.dim();
                if artifact.dim() != expected {
                    return Err(ServeError::DimensionMismatch {
                        expected,
                        found: artifact.dim(),
                    });
                }
                let latest = entry.staged.as_ref().unwrap_or(&entry.active).0;
                entry.staged = Some((latest + 1, artifact));
                Ok(latest + 1)
            }
        }
    }

    /// Promotes the staged version of `name` to active.
    ///
    /// Fails with [`ServeError::UnknownModel`] for an unregistered name
    /// and [`ServeError::NothingStaged`] if no rollout is in flight.
    pub fn promote(&mut self, name: &str) -> Result<u64, ServeError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        match entry.staged.take() {
            Some(staged) => {
                entry.active = staged;
                Ok(entry.active.0)
            }
            None => Err(ServeError::NothingStaged(name.to_string())),
        }
    }

    /// The artifact currently serving traffic for `name`.
    pub fn active(&self, name: &str) -> Result<&ModelArtifact, ServeError> {
        self.line(name).map(|e| &e.active.1)
    }

    /// The active version number for `name`.
    pub fn active_version(&self, name: &str) -> Result<u64, ServeError> {
        self.line(name).map(|e| e.active.0)
    }

    /// The staged (published, not yet promoted) artifact for `name`, if a
    /// rollout is in flight.
    pub fn staged(&self, name: &str) -> Result<Option<&ModelArtifact>, ServeError> {
        self.line(name).map(|e| e.staged.as_ref().map(|(_, a)| a))
    }

    fn line(&self, name: &str) -> Result<&ModelEntry, ServeError> {
        self.entries
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetFingerprint, ModelArtifact};
    use mlstar_core::TrainProvenance;
    use mlstar_glm::GlmModel;
    use mlstar_linalg::DenseVector;

    fn artifact(dim: usize, fill: f64) -> ModelArtifact {
        let model = GlmModel::from_weights(DenseVector::from_vec(vec![fill; dim]));
        let fp = DatasetFingerprint {
            features: dim,
            instances: 10,
            content_hash: 7,
        };
        let prov = TrainProvenance {
            system: "mllib*".to_string(),
            seed: 1,
            rounds_run: 2,
            total_updates: 3,
            converged: true,
            final_objective: Some(0.5),
            host_threads: 4,
        };
        ModelArtifact::new(&model, fp, prov).unwrap()
    }

    #[test]
    fn first_publish_is_active_later_ones_stage() {
        let mut reg = ModelRegistry::new();
        assert_eq!(reg.publish("ctr", artifact(4, 1.0)).unwrap(), 1);
        assert_eq!(reg.active_version("ctr").unwrap(), 1);
        assert!(reg.staged("ctr").unwrap().is_none());

        assert_eq!(reg.publish("ctr", artifact(4, 2.0)).unwrap(), 2);
        assert_eq!(reg.active_version("ctr").unwrap(), 1, "v2 only staged");
        assert_eq!(reg.staged("ctr").unwrap().unwrap().weights().get(0), 2.0);
        assert_eq!(reg.active("ctr").unwrap().weights().get(0), 1.0);

        assert_eq!(reg.promote("ctr").unwrap(), 2);
        assert_eq!(reg.active_version("ctr").unwrap(), 2);
        assert!(reg.staged("ctr").unwrap().is_none());
        assert_eq!(reg.publish("ctr", artifact(4, 3.0)).unwrap(), 3);
    }

    #[test]
    fn republish_replaces_staged() {
        let mut reg = ModelRegistry::new();
        reg.publish("m", artifact(2, 1.0)).unwrap();
        reg.publish("m", artifact(2, 2.0)).unwrap();
        assert_eq!(reg.publish("m", artifact(2, 3.0)).unwrap(), 3);
        assert_eq!(reg.staged("m").unwrap().unwrap().weights().get(0), 3.0);
        assert_eq!(
            reg.promote("m").unwrap(),
            3,
            "promote takes the newest stage"
        );
        assert_eq!(reg.active("m").unwrap().weights().get(0), 3.0);
    }

    #[test]
    fn errors_are_specific() {
        let mut reg = ModelRegistry::new();
        assert!(matches!(
            reg.active("ghost"),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.promote("ghost"),
            Err(ServeError::UnknownModel(_))
        ));
        reg.publish("m", artifact(4, 1.0)).unwrap();
        assert!(matches!(
            reg.promote("m"),
            Err(ServeError::NothingStaged(_))
        ));
        assert!(matches!(
            reg.publish("m", artifact(5, 1.0)),
            Err(ServeError::DimensionMismatch {
                expected: 4,
                found: 5
            })
        ));
    }
}
