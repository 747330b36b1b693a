//! Unified dispatch over the seven systems.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;

use mlstar_codec::CodecError;
use mlstar_data::{DatasetFingerprint, SparseDataset};
use mlstar_sim::ClusterSpec;

use crate::bsp::BspStrategy;
use crate::checkpoint::{config_digest, CheckpointState, TrainCheckpoint};
use crate::engine::{expect_uncheckpointed, run_rounds};
use crate::exec::{system_partitions, ComputeBackend, ExecAbort, InProcessBackend};
use crate::ps::{train_ps, PsPlan};
use crate::{AngelConfig, CheckpointError, PsSystemConfig, TrainConfig, TrainOutput};

/// Where a checkpointed run writes, and the decoded state it resumes from
/// (if any).
type CkptArgs<'a> = (&'a Path, Option<CheckpointState>);

/// The seven distributed training systems: the six the paper compares,
/// plus the `spark.ml` L-BFGS comparator of its future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Spark MLlib: SendGradient + driver + treeAggregate.
    Mllib,
    /// MLlib + model averaging (driver-centric SendModel) — the Figure 3b
    /// intermediate.
    MllibMa,
    /// MLlib\*: model averaging + AllReduce.
    MllibStar,
    /// Petuum: PS + per-batch SendModel with model summation.
    Petuum,
    /// Petuum\*: Petuum with model averaging.
    PetuumStar,
    /// Angel: PS + per-epoch SendModel.
    Angel,
    /// `spark.ml`-style distributed L-BFGS (the paper's future-work
    /// second-order comparator).
    SparkMl,
}

impl System {
    /// All systems, in the paper's comparison order (plus the future-work
    /// L-BFGS comparator last).
    pub const ALL: [System; 7] = [
        System::Mllib,
        System::MllibMa,
        System::MllibStar,
        System::Petuum,
        System::PetuumStar,
        System::Angel,
        System::SparkMl,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            System::Mllib => "MLlib",
            System::MllibMa => "MLlib+MA",
            System::MllibStar => "MLlib*",
            System::Petuum => "Petuum",
            System::PetuumStar => "Petuum*",
            System::Angel => "Angel",
            System::SparkMl => "spark.ml(L-BFGS)",
        }
    }

    /// True for parameter-server systems.
    pub fn is_parameter_server(&self) -> bool {
        matches!(self, System::Petuum | System::PetuumStar | System::Angel)
    }

    /// Trains this system on the simulated cluster, with explicit PS/Angel
    /// configuration. Worker-local math runs on an [`InProcessBackend`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
    ) -> TrainOutput {
        expect_uncheckpointed(self.run_in_process(ds, cluster, cfg, ps, angel, None))
    }

    /// [`System::train`] with the worker-local math on a backend of the
    /// caller's choosing — the entry point for backend hosts such as
    /// `mlstar-net`. `parts` are the caller's row lists, one per worker,
    /// and worker `r` of `backend` must hold exactly `parts[r]`. Everything
    /// but the math (RNG streams, simulated clock, aggregation) runs here,
    /// so when `parts` are [`system_partitions`]' lists the output is
    /// bit-identical to [`System::train`]'s for any correct backend.
    ///
    /// # Errors
    ///
    /// Returns the [`ExecAbort`] raised when `backend` fails a batch; the
    /// trainer stopped mid-round and no partial output exists.
    #[expect(
        clippy::too_many_arguments,
        reason = "System::train's inputs plus the backend and its row lists"
    )]
    pub fn train_on(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        parts: &[Vec<usize>],
        backend: &mut dyn ComputeBackend,
    ) -> Result<TrainOutput, ExecAbort> {
        // The trainer's state is dropped by the unwind and `backend` is
        // the caller's to inspect, so observing either after a panic is
        // sound.
        catch_unwind(AssertUnwindSafe(|| {
            expect_uncheckpointed(self.run(ds, cluster, cfg, ps, angel, None, parts, backend))
        }))
        .map_err(|payload| match payload.downcast::<ExecAbort>() {
            Ok(abort) => *abort,
            // A genuine trainer panic, not a backend failure.
            Err(payload) => resume_unwind(payload),
        })
    }

    /// Trains with default PS/Angel configuration.
    pub fn train_default(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
    ) -> TrainOutput {
        self.train(
            ds,
            cluster,
            cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
        )
    }

    /// Like [`System::train`], writing a [`TrainCheckpoint`] into `dir`
    /// every [`TrainConfig::checkpoint_every`] communication steps (BSP
    /// rounds, or PS global clocks for the parameter-server systems).
    /// With `checkpoint_every == 0` this is plain training plus an error
    /// type.
    ///
    /// Checkpoint files are named
    /// `<system-slug>-round-<round>.ckpt` (see [`checkpoint_path`]); a
    /// run that stops (converged/diverged) at a cadence round does not
    /// write, so every file on disk resumes into a run that keeps going.
    ///
    /// [`checkpoint_path`]: crate::checkpoint_path
    pub fn train_checkpointed(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        dir: &Path,
    ) -> Result<TrainOutput, CheckpointError> {
        self.run_in_process(ds, cluster, cfg, ps, angel, Some((dir, None)))
    }

    /// Resumes a run from `ckpt`, continuing to checkpoint into `dir`.
    ///
    /// The checkpoint must match this system, the offered `cfg` (by
    /// digest, ignoring the checkpoint cadence), and the dataset's
    /// fingerprint — anything else is an error, not a silent wrong
    /// answer. BSP checkpoints resume in place at their saved round; PS
    /// anchors resume by deterministic replay from clock 0, verified
    /// bit-exactly against the anchor
    /// ([`CheckpointError::ReplayDiverged`] otherwise).
    ///
    /// The contract (enforced by the crash-and-restore tests): the
    /// resumed [`TrainOutput`] is bit-identical — trace, round stats,
    /// Gantt spans, and final model — to the run that never stopped.
    #[allow(
        clippy::too_many_arguments,
        reason = "System::train's inputs plus the checkpoint to resume from"
    )]
    pub fn resume(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        dir: &Path,
        ckpt: TrainCheckpoint,
    ) -> Result<TrainOutput, CheckpointError> {
        if ckpt.system != self.name() {
            return Err(CheckpointError::WrongSystem {
                found: ckpt.system,
                expected: self.name().to_string(),
            });
        }
        let expected = config_digest(cfg);
        if ckpt.config_digest != expected {
            return Err(CheckpointError::ConfigMismatch {
                found: ckpt.config_digest,
                expected,
            });
        }
        if ckpt.fingerprint != DatasetFingerprint::of(ds) {
            return Err(CheckpointError::DatasetMismatch);
        }
        self.run_in_process(ds, cluster, cfg, ps, angel, Some((dir, Some(ckpt.state))))
    }

    /// [`System::run`] on an [`InProcessBackend`] over the partitions it
    /// trains on.
    fn run_in_process(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        ckpt: Option<CkptArgs<'_>>,
    ) -> Result<TrainOutput, CheckpointError> {
        let parts = system_partitions(*self, ds, cluster, cfg);
        let mut backend = InProcessBackend::new(ds, &parts, cfg);
        self.run(ds, cluster, cfg, ps, angel, ckpt, &parts, &mut backend)
    }

    /// The one dispatch over the seven trainers: plain, checkpointed and
    /// resumed runs on any backend all end here.
    #[allow(
        clippy::too_many_arguments,
        reason = "the one dispatch takes every input of every entry point"
    )]
    fn run(
        &self,
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        ckpt: Option<CkptArgs<'_>>,
        parts: &[Vec<usize>],
        backend: &mut dyn ComputeBackend,
    ) -> Result<TrainOutput, CheckpointError> {
        assert!(!ds.is_empty(), "cannot train on an empty dataset");
        let (dir, state) = ckpt.unzip();
        let state = state.flatten();
        if self.is_parameter_server() {
            let verify = match state {
                Some(CheckpointState::PsAnchor(anchor)) => Some(anchor),
                Some(CheckpointState::Bsp(_)) => {
                    return Err(CheckpointError::Codec(CodecError::Corrupt(
                        "BSP checkpoint state offered to a parameter-server system".into(),
                    )))
                }
                None => None,
            };
            let plan = PsPlan::resolve(
                *self,
                cfg,
                ps,
                angel,
                ds.num_features(),
                cluster.num_executors(),
            );
            let ckpt = dir.map(|dir| (dir, verify));
            return train_ps(ds, cluster, cfg, plan, ckpt, parts, backend);
        }

        let resume = match state {
            Some(CheckpointState::Bsp(bsp)) => Some(bsp),
            Some(CheckpointState::PsAnchor(_)) => {
                return Err(CheckpointError::Codec(CodecError::Corrupt(
                    "parameter-server anchor offered to a BSP system".into(),
                )))
            }
            None => None,
        };
        let strategy = BspStrategy::resolve(*self, ds, cluster, cfg, parts);
        let ckpt = dir.map(|dir| (dir, resume));
        run_rounds(strategy, ckpt, backend)
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for System {
    type Err = String;

    /// Parses both the paper's display names (`MLlib*`, `Petuum*`,
    /// `spark.ml(L-BFGS)`) and CLI-friendly slugs (`mllib-star`, `ma`,
    /// `lbfgs`), case-insensitively and ignoring `-`/`_`/`.`/spaces.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| !matches!(c, '-' | '_' | '.' | ' ' | '(' | ')'))
            .flat_map(char::to_lowercase)
            .collect();
        match norm.as_str() {
            "mllib" => Ok(System::Mllib),
            "mllibma" | "mllib+ma" | "ma" => Ok(System::MllibMa),
            "mllibstar" | "mllib*" | "star" => Ok(System::MllibStar),
            "petuum" => Ok(System::Petuum),
            "petuumstar" | "petuum*" => Ok(System::PetuumStar),
            "angel" => Ok(System::Angel),
            "sparkml" | "sparkmllbfgs" | "lbfgs" => Ok(System::SparkMl),
            _ => Err(format!(
                "unknown system '{s}' (expected one of: mllib, ma, star, petuum, \
                 petuum-star, angel, lbfgs)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::LearningRate;

    #[test]
    fn names_match_paper() {
        assert_eq!(System::Mllib.name(), "MLlib");
        assert_eq!(System::MllibStar.name(), "MLlib*");
        assert_eq!(System::PetuumStar.to_string(), "Petuum*");
        assert_eq!(System::SparkMl.name(), "spark.ml(L-BFGS)");
        assert_eq!(System::ALL.len(), 7);
    }

    #[test]
    fn display_roundtrips_through_fromstr_for_all_systems() {
        // The serving artifact stores provenance by Display name, so the
        // `Display` → `FromStr` round trip must hold for all 7 variants.
        for system in System::ALL {
            let shown = system.to_string();
            assert_eq!(shown, system.name(), "Display matches name()");
            assert_eq!(shown.parse::<System>(), Ok(system), "{shown}");
        }
    }

    #[test]
    fn parses_paper_names_and_slugs() {
        // CLI slugs.
        assert_eq!("mllib-star".parse::<System>(), Ok(System::MllibStar));
        assert_eq!("star".parse::<System>(), Ok(System::MllibStar));
        assert_eq!("MA".parse::<System>(), Ok(System::MllibMa));
        assert_eq!("petuum_star".parse::<System>(), Ok(System::PetuumStar));
        assert_eq!("lbfgs".parse::<System>(), Ok(System::SparkMl));
        assert_eq!("spark.ml".parse::<System>(), Ok(System::SparkMl));
        assert!("spark".parse::<System>().is_err());
        assert!("".parse::<System>().is_err());
    }

    #[test]
    fn ps_classification() {
        assert!(!System::Mllib.is_parameter_server());
        assert!(!System::MllibStar.is_parameter_server());
        assert!(System::Petuum.is_parameter_server());
        assert!(System::Angel.is_parameter_server());
        assert!(!System::SparkMl.is_parameter_server());
    }

    #[test]
    fn every_system_trains_end_to_end() {
        let ds = SyntheticConfig::small("dispatch", 160, 20).generate();
        let cluster = ClusterSpec::uniform(
            4,
            mlstar_sim::NodeSpec::standard(),
            mlstar_sim::NetworkSpec::gbps1(),
        );
        let cfg = TrainConfig {
            lr: LearningRate::Constant(0.02),
            max_rounds: 3,
            ..TrainConfig::default()
        };
        for system in System::ALL {
            let out = system.train_default(&ds, &cluster, &cfg);
            assert_eq!(out.trace.system, system.name());
            assert!(out.trace.points.len() >= 2, "{system} produced no points");
            let f = out.trace.final_objective().unwrap();
            assert!(f.is_finite(), "{system} diverged: {f}");
            assert!(out.total_updates > 0, "{system} did no updates");
        }
    }
}
