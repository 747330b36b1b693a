//! Bit-exact training checkpoints: save a run mid-flight, resume it, and
//! get byte-for-byte the same trace, telemetry, and final model as a run
//! that never stopped.
//!
//! # What a checkpoint holds
//!
//! A [`TrainCheckpoint`] is a versioned, checksummed `mlstar-codec` frame
//! (magic `"MLSC"`) carrying three guards plus the state:
//!
//! * the **system name** — a Petuum checkpoint must not resume an MLlib
//!   run;
//! * a **config digest** — an FNV-1a hash of the [`TrainConfig`] (with
//!   the checkpoint cadence zeroed out, so changing *how often* you
//!   checkpoint never invalidates an existing checkpoint);
//! * the **dataset fingerprint** — a resumed run must see bit-identical
//!   data or the replay is meaningless.
//!
//! For the BSP systems (MLlib, MLlib+MA, MLlib\*, `spark.ml`) the state
//! is everything `run_rounds` owns at a round boundary: the round index,
//! accumulated trace points and [`RoundStats`], the simulated clock, the
//! recorded Gantt spans, both engine RNG streams mid-stride, and an
//! opaque per-strategy payload (model weights, per-worker sampler /
//! epoch-order RNG states, update counters, L-BFGS history). Restoring
//! re-enters the round loop at exactly the saved round; every subsequent
//! draw, span, and floating-point operation replays identically.
//!
//! The parameter-server systems run an event-driven engine whose heap of
//! in-flight messages is deliberately not serialized. Their checkpoints
//! are **anchors**: at a global-clock boundary we record the clock, the
//! simulated time, the update count, and the exact model bits. Resuming
//! replays deterministically from clock 0 — the simulated analogue of
//! Spark recomputing a lost partition from lineage — and *verifies* that
//! the replay passes through the anchor bit-exactly, failing with
//! [`CheckpointError::ReplayDiverged`] otherwise.
//!
//! The payload layout is the `checkpoint` field list at the end of this
//! file; each strategy declares its own state's field list beside it.

use std::fmt;
use std::path::{Path, PathBuf};

use mlstar_codec::{decode_frame, fnv1a, schema, CodecError, Reader, Writer};
use mlstar_data::{fingerprint_codec, DatasetFingerprint};
use mlstar_linalg::DenseVector;
use mlstar_sim::{Activity, NodeId, SimTime, Span};

use crate::engine::RoundStats;
use crate::{CommBytes, System, TracePoint, TrainConfig};

/// File magic of a training checkpoint: `"MLSC"`.
pub const CHECKPOINT_MAGIC: u32 = 0x4D4C_5343;

/// Version of the checkpoint frame. Version 2 checksums the payload with
/// XXH64 (version 1 used FNV-1a); the payload layout is unchanged.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be written, read, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file failed frame or payload decoding.
    Codec(CodecError),
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The checkpoint was written by a different system than the one
    /// asked to resume it.
    WrongSystem {
        /// System name stored in the checkpoint.
        found: String,
        /// System asked to resume.
        expected: String,
    },
    /// The resuming [`TrainConfig`] differs from the checkpointed one
    /// (compared by digest; the checkpoint cadence is excluded).
    ConfigMismatch {
        /// Digest stored in the checkpoint.
        found: u64,
        /// Digest of the config offered at resume.
        expected: u64,
    },
    /// The dataset offered at resume does not fingerprint-match the one
    /// the checkpoint was taken against.
    DatasetMismatch,
    /// A parameter-server replay failed to pass through its anchor
    /// bit-exactly — the run it would produce is not the run that was
    /// checkpointed.
    ReplayDiverged {
        /// The anchor clock at which the replay disagreed.
        clock: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::WrongSystem { found, expected } => {
                write!(f, "checkpoint is for system '{found}', not '{expected}'")
            }
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint config digest {found:#018x} does not match \
                 resume config digest {expected:#018x}"
            ),
            CheckpointError::DatasetMismatch => {
                write!(f, "dataset does not match the checkpoint's fingerprint")
            }
            CheckpointError::ReplayDiverged { clock } => write!(
                f,
                "parameter-server replay diverged from its anchor at clock {clock}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Codec(e) => Some(e),
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Digest of a [`TrainConfig`] for checkpoint compatibility checks.
///
/// The checkpoint cadence is zeroed before hashing: how often a run
/// checkpoints affects neither its math nor its simulated time, so
/// resuming under a different cadence must remain legal.
pub(crate) fn config_digest(cfg: &TrainConfig) -> u64 {
    let canon = TrainConfig {
        checkpoint_every: 0,
        checkpoint_keep: 0,
        ..cfg.clone()
    };
    fnv1a(format!("{canon:?}").as_bytes())
}

/// Encoded engine-side state of a BSP run at a round boundary: the
/// simulated clock, the global superstep counter, both RNG streams
/// mid-stride, and every recorded Gantt span. The per-step accumulators
/// (phases / bytes / flops) are always drained at a round boundary, so
/// they are not stored.
#[derive(Debug)]
pub(crate) struct EngineState {
    pub now_nanos: u64,
    pub round_counter: u64,
    pub straggler_rng: [u8; 41],
    pub failure_rng: [u8; 41],
    pub spans: Vec<Span>,
}

/// Full resumable state of a BSP run at a round boundary.
#[derive(Debug)]
pub(crate) struct BspState {
    /// Rounds completed (the resume loop starts here).
    pub rounds_done: u64,
    pub total_updates: u64,
    pub trace_points: Vec<TracePoint>,
    pub round_stats: Vec<RoundStats>,
    pub engine: EngineState,
    /// Opaque strategy payload (`BspStrategy::save_state`'s bytes): model
    /// weights, per-worker RNG states, …
    pub strategy: Vec<u8>,
}

/// A parameter-server anchor: the observable state at a global-clock
/// boundary that a deterministic replay must pass through bit-exactly.
#[derive(Debug)]
pub(crate) struct PsAnchor {
    pub clock: u64,
    pub time_nanos: u64,
    pub updates: u64,
    /// Exact model bits at the anchor clock.
    pub model: Vec<f64>,
}

/// The per-kind state inside a checkpoint.
#[derive(Debug)]
pub(crate) enum CheckpointState {
    Bsp(BspState),
    PsAnchor(PsAnchor),
}

/// A versioned, checksummed snapshot of a training run.
///
/// Produced by [`System::train_checkpointed`](crate::System::train_checkpointed)
/// every `checkpoint_every` communication steps; consumed by
/// [`System::resume`](crate::System::resume). See the module docs for the
/// bit-exactness contract.
#[derive(Debug)]
pub struct TrainCheckpoint {
    pub(crate) system: String,
    pub(crate) config_digest: u64,
    pub(crate) fingerprint: DatasetFingerprint,
    pub(crate) state: CheckpointState,
}

impl TrainCheckpoint {
    /// Display name of the system that wrote this checkpoint.
    pub fn system(&self) -> &str {
        &self.system
    }

    /// Communication steps (BSP rounds / PS clocks) completed at the
    /// save point.
    pub fn rounds_done(&self) -> u64 {
        match &self.state {
            CheckpointState::Bsp(s) => s.rounds_done,
            CheckpointState::PsAnchor(a) => a.clock,
        }
    }

    /// True for parameter-server anchors (resumed by verified replay),
    /// false for BSP snapshots (resumed in place).
    pub fn is_ps_anchor(&self) -> bool {
        matches!(self.state, CheckpointState::PsAnchor(_))
    }

    /// Fingerprint of the dataset the run was training on.
    pub fn fingerprint(&self) -> DatasetFingerprint {
        self.fingerprint
    }

    /// Encodes the checkpoint as a framed byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::for_frame();
        checkpoint::put(&mut w, self, ());
        w.into_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    }

    /// Decodes a checkpoint from framed bytes, verifying magic, version,
    /// length, checksum, and payload consistency: trace steps never go
    /// backwards and no span ends before it starts.
    pub fn decode(bytes: &[u8]) -> Result<TrainCheckpoint, CodecError> {
        let payload = decode_frame(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let mut r = Reader::new(payload);
        let ck = checkpoint::get(&mut r)?;
        r.finish()?;
        if let CheckpointState::Bsp(s) = &ck.state {
            if s.trace_points.windows(2).any(|p| p[1].step < p[0].step) {
                return Err(CodecError::Corrupt(
                    "trace steps are not nondecreasing".into(),
                ));
            }
            if s.engine.spans.iter().any(|span| span.end < span.start) {
                return Err(CodecError::Corrupt("span ends before it starts".into()));
            }
        }
        Ok(ck)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename),
    /// so a crash mid-write can leave a stale or missing file but never a
    /// half-written one under the final name.
    pub fn write_file(&self, path: &Path) -> Result<(), std::io::Error> {
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and decodes a checkpoint file.
    pub fn read_file(path: &Path) -> Result<TrainCheckpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Ok(TrainCheckpoint::decode(&bytes)?)
    }
}

/// Filesystem-safe slug of a system display name: `MLlib*` →
/// `mllib-star`, `spark.ml(L-BFGS)` → `spark-ml-l-bfgs`.
pub(crate) fn system_slug(name: &str) -> String {
    let mut slug = String::with_capacity(name.len() + 4);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            slug.extend(c.to_lowercase());
        } else if c == '*' {
            if !slug.ends_with('-') && !slug.is_empty() {
                slug.push('-');
            }
            slug.push_str("star");
        } else if !slug.ends_with('-') && !slug.is_empty() {
            slug.push('-');
        }
    }
    while slug.ends_with('-') {
        slug.pop();
    }
    slug
}

/// The canonical checkpoint filename for `system` at `round` inside
/// `dir`, e.g. `mllib-star-round-00040.ckpt`.
pub fn checkpoint_path(dir: &Path, system: System, round: u64) -> PathBuf {
    dir.join(format!(
        "{}-round-{round:05}.ckpt",
        system_slug(system.name())
    ))
}

/// Deletes all but the newest `keep` checkpoints for `system` in `dir`,
/// by the round number encoded in the filename. Retention is per system:
/// other systems' checkpoints in the same directory are untouched.
/// `keep == 0` disables rotation (everything survives). Returns how many
/// files were removed.
pub fn prune_checkpoints(dir: &Path, system: System, keep: u64) -> Result<usize, std::io::Error> {
    if keep == 0 {
        return Ok(0);
    }
    let prefix = format!("{}-round-", system_slug(system.name()));
    let mut rounds: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix(&prefix)
            .and_then(|s| s.strip_suffix(".ckpt"))
        else {
            continue;
        };
        if let Ok(round) = stem.parse::<u64>() {
            rounds.push((round, path));
        }
    }
    rounds.sort();
    let excess = rounds.len().saturating_sub(keep as usize);
    for (_, path) in rounds.drain(..excess) {
        std::fs::remove_file(path)?;
    }
    Ok(excess)
}

schema! {
    record checkpoint: TrainCheckpoint {
        system: str16,
        config_digest: u64,
        fingerprint: fingerprint_codec,
        state: state,
    }
}
schema! { tagged state: CheckpointState { 0 => Bsp(s: bsp), 1 => PsAnchor(a: anchor) } }
schema! {
    record bsp: BspState {
        rounds_done: u64,
        total_updates: u64,
        trace_points: list(trace_point),
        round_stats: list(round_stats),
        engine: engine_state,
        strategy: blob64,
    }
}
schema! {
    record engine_state: EngineState {
        now_nanos: u64,
        round_counter: u64,
        straggler_rng: [u8; 41],
        failure_rng: [u8; 41],
        spans: list(span),
    }
}
schema! { record anchor: PsAnchor { clock: u64, time_nanos: u64, updates: u64, model: f64s } }
schema! {
    record trace_point: TracePoint { step: u64, time: sim_time, objective: f64, total_updates: u64 }
}
schema! {
    record round_stats: RoundStats {
        round: u64,
        updates: u64,
        flops: f64,
        bytes: comm_bytes,
        compute_s: f64,
        comm_s: f64,
        idle_s: f64,
        recovery_s: f64,
        elapsed_s: f64,
    }
}
schema! {
    record comm_bytes: CommBytes {
        broadcast: u64,
        tree_aggregate: u64,
        reduce_scatter: u64,
        all_gather: u64,
        ps_pull: u64,
        ps_push: u64,
    }
}
schema! {
    record span: Span { node: node, activity: activity, start: sim_time, end: sim_time, round: u64 }
}
schema! {
    /// The driver keeps the index slot of the executor and server tags.
    tagged node: NodeId { 0 => Driver [u64], 1 => Executor(i: usize), 2 => Server(i: usize) }
}
schema! { map sim_time: SimTime { u64, |t| t.as_nanos(), |n| Ok(SimTime::from_nanos(n)) } }
schema! {
    map activity: Activity {
        u8,
        |a| a.code() as u8,
        |c| Activity::from_code(char::from(c))
            .ok_or_else(|| CodecError::Corrupt(format!("unknown activity code {:?}", char::from(c)))),
    }
}
schema! {
    /// A dense vector as its dimension and exact `f64` bit patterns.
    pub(crate) map dense: DenseVector { f64s, |v| v.as_slice(), |x| Ok(DenseVector::from_vec(x)) }
}

/// Refuses a restored vector whose dimension is not the run's.
pub(crate) fn check_dim(v: &DenseVector, expected: usize) -> Result<(), CodecError> {
    if v.dim() == expected {
        Ok(())
    } else {
        Err(CodecError::Corrupt(format!(
            "vector dimension {} does not match expected {expected}",
            v.dim()
        )))
    }
}

/// Refuses restored per-worker state written by a run with a different
/// worker count.
pub(crate) fn check_workers(found: usize, expected: usize) -> Result<(), CodecError> {
    if found == expected {
        Ok(())
    } else {
        Err(CodecError::Corrupt(format!(
            "checkpoint has {found} workers, run has {expected}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bsp_checkpoint() -> TrainCheckpoint {
        TrainCheckpoint {
            system: "MLlib*".to_string(),
            config_digest: 0xDEAD_BEEF_CAFE_F00D,
            fingerprint: DatasetFingerprint {
                features: 30,
                instances: 240,
                content_hash: 7,
            },
            state: CheckpointState::Bsp(BspState {
                rounds_done: 4,
                total_updates: 960,
                trace_points: vec![
                    TracePoint {
                        step: 0,
                        time: SimTime::ZERO,
                        objective: 1.0,
                        total_updates: 0,
                    },
                    TracePoint {
                        step: 4,
                        time: SimTime::from_nanos(1_000_000),
                        objective: 0.5,
                        total_updates: 960,
                    },
                ],
                round_stats: vec![RoundStats {
                    round: 3,
                    updates: 240,
                    flops: 123.0,
                    bytes: CommBytes {
                        reduce_scatter: 10,
                        all_gather: 20,
                        ..CommBytes::default()
                    },
                    compute_s: 1.0,
                    comm_s: 0.5,
                    idle_s: 0.25,
                    recovery_s: 0.0,
                    elapsed_s: 1.75,
                }],
                engine: EngineState {
                    now_nanos: 1_000_000,
                    round_counter: 4,
                    straggler_rng: [3; 41],
                    failure_rng: [4; 41],
                    spans: vec![Span {
                        node: NodeId::Executor(2),
                        activity: Activity::Compute,
                        start: SimTime::ZERO,
                        end: SimTime::from_nanos(500),
                        round: 0,
                    }],
                },
                strategy: vec![1, 2, 3, 4],
            }),
        }
    }

    #[test]
    fn bsp_checkpoint_roundtrips() {
        let ck = sample_bsp_checkpoint();
        let bytes = ck.encode();
        let back = TrainCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back.system(), "MLlib*");
        assert_eq!(back.rounds_done(), 4);
        assert!(!back.is_ps_anchor());
        assert_eq!(back.config_digest, ck.config_digest);
        assert_eq!(back.fingerprint(), ck.fingerprint);
        let (CheckpointState::Bsp(a), CheckpointState::Bsp(b)) = (&ck.state, &back.state) else {
            panic!("state kind changed in decode");
        };
        assert_eq!(a.total_updates, b.total_updates);
        assert_eq!(a.trace_points, b.trace_points);
        assert_eq!(a.round_stats, b.round_stats);
        assert_eq!(a.engine.now_nanos, b.engine.now_nanos);
        assert_eq!(a.engine.straggler_rng, b.engine.straggler_rng);
        assert_eq!(a.engine.spans, b.engine.spans);
        assert_eq!(a.strategy, b.strategy);
    }

    #[test]
    fn ps_anchor_roundtrips() {
        let ck = TrainCheckpoint {
            system: "Petuum*".to_string(),
            config_digest: 9,
            fingerprint: DatasetFingerprint {
                features: 5,
                instances: 11,
                content_hash: 2,
            },
            state: CheckpointState::PsAnchor(PsAnchor {
                clock: 6,
                time_nanos: 42,
                updates: 99,
                model: vec![0.5, -1.25, f64::MIN_POSITIVE],
            }),
        };
        let back = TrainCheckpoint::decode(&ck.encode()).unwrap();
        assert!(back.is_ps_anchor());
        assert_eq!(back.rounds_done(), 6);
        let (CheckpointState::PsAnchor(a), CheckpointState::PsAnchor(b)) = (&ck.state, &back.state)
        else {
            panic!("state kind changed in decode");
        };
        assert_eq!(a.model, b.model);
        assert_eq!(a.time_nanos, b.time_nanos);
        assert_eq!(a.updates, b.updates);
    }

    #[test]
    fn corruption_is_rejected_with_the_right_variant() {
        let bytes = sample_bsp_checkpoint().encode();
        // Truncation at several depths.
        for cut in [0, 10, 24, bytes.len() - 1] {
            assert!(matches!(
                TrainCheckpoint::decode(&bytes[..cut]),
                Err(CodecError::Truncated { .. })
            ));
        }
        // A payload bit flip fails the checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            TrainCheckpoint::decode(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Wrong version.
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            TrainCheckpoint::decode(&wrong_version),
            Err(CodecError::VersionMismatch { found: 99, .. })
        ));
        // Wrong magic.
        let mut wrong_magic = bytes;
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            TrainCheckpoint::decode(&wrong_magic),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_state_tag_and_bad_span_are_corrupt() {
        let mut w = Writer::for_frame();
        w.put_str16("MLlib");
        w.put_u64(0);
        w.put_u64(1);
        w.put_u64(1);
        w.put_u64(1);
        w.put_u8(7); // unknown state tag
        let frame = w.into_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        assert!(matches!(
            TrainCheckpoint::decode(&frame),
            Err(CodecError::Corrupt(_))
        ));
        // A span whose end precedes its start, or a trace that steps
        // backwards, is data no recorder can produce.
        for backwards in [true, false] {
            let mut ck = sample_bsp_checkpoint();
            let CheckpointState::Bsp(s) = &mut ck.state else {
                unreachable!()
            };
            if backwards {
                s.trace_points.swap(0, 1);
            } else {
                s.engine.spans[0].start = SimTime::from_nanos(600);
            }
            assert!(matches!(
                TrainCheckpoint::decode(&ck.encode()),
                Err(CodecError::Corrupt(_))
            ));
        }
        // An activity code no span is recorded with.
        let mut r = Reader::new(&[1, 0, 0, 0, 0, 0, 0, 0, 0, b'?']);
        assert!(matches!(span::get(&mut r), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn system_slugs_are_unique_and_fs_safe() {
        let slugs: Vec<String> = System::ALL.iter().map(|s| system_slug(s.name())).collect();
        let mut dedup = slugs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), System::ALL.len(), "{slugs:?}");
        assert_eq!(system_slug("MLlib*"), "mllib-star");
        assert_eq!(system_slug("MLlib+MA"), "mllib-ma");
        assert_eq!(system_slug("spark.ml(L-BFGS)"), "spark-ml-l-bfgs");
        for slug in &slugs {
            assert!(slug
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
        let path = checkpoint_path(Path::new("/tmp/ckpt"), System::MllibStar, 40);
        assert_eq!(path, PathBuf::from("/tmp/ckpt/mllib-star-round-00040.ckpt"));
    }

    #[test]
    fn config_digest_ignores_cadence_only() {
        let base = TrainConfig::default();
        let with_cadence = TrainConfig {
            checkpoint_every: 7,
            ..base.clone()
        };
        assert_eq!(config_digest(&base), config_digest(&with_cadence));
        let with_keep = TrainConfig {
            checkpoint_keep: 3,
            ..base.clone()
        };
        assert_eq!(config_digest(&base), config_digest(&with_keep));
        let different = TrainConfig {
            max_rounds: base.max_rounds + 1,
            ..base.clone()
        };
        assert_ne!(config_digest(&base), config_digest(&different));
        let reseeded = TrainConfig {
            seed: base.seed + 1,
            ..base
        };
        assert_ne!(config_digest(&base), config_digest(&reseeded));
    }

    #[test]
    fn vectors_are_exact_and_dimension_checked() {
        let v = DenseVector::from_vec(vec![1.5, -0.0, f64::MAX]);
        let mut w = Writer::new();
        dense::put(&mut w, &v, ());
        let payload = w.into_payload();
        assert_eq!(payload.len(), 8 + 3 * 8);
        let back = dense::get(&mut Reader::new(&payload)).unwrap();
        for (a, b) in v.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        check_dim(&back, 3).unwrap();
        assert!(matches!(check_dim(&back, 4), Err(CodecError::Corrupt(_))));
        assert!(matches!(check_workers(3, 8), Err(CodecError::Corrupt(_))));
    }
}
