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

use std::fmt;
use std::path::{Path, PathBuf};

use mlstar_codec::{decode_frame, fnv1a, CodecError, Reader, Writer};
use mlstar_data::{DatasetFingerprint, SparseDataset};
use mlstar_linalg::DenseVector;
use mlstar_sim::{Activity, NodeId, SimTime, Span};

use crate::engine::RoundStats;
use crate::{CommBytes, System, TracePoint, TrainConfig};

/// File magic of a training checkpoint: `"MLSC"`.
pub const CHECKPOINT_MAGIC: u32 = 0x4D4C_5343;

/// Version of the checkpoint payload layout.
pub const CHECKPOINT_VERSION: u32 = 1;

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
    /// Opaque strategy payload ([`crate::engine::RoundStrategy`]'s
    /// `save_state` bytes): model weights, per-worker RNG states, …
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
        let mut w = Writer::new();
        w.put_str16(&self.system);
        w.put_u64(self.config_digest);
        w.put_u64(self.fingerprint.features as u64);
        w.put_u64(self.fingerprint.instances as u64);
        w.put_u64(self.fingerprint.content_hash);
        match &self.state {
            CheckpointState::Bsp(s) => {
                w.put_u8(0);
                w.put_u64(s.rounds_done);
                w.put_u64(s.total_updates);
                w.put_u64(s.trace_points.len() as u64);
                for p in &s.trace_points {
                    w.put_u64(p.step);
                    w.put_u64(p.time.as_nanos());
                    w.put_f64(p.objective);
                    w.put_u64(p.total_updates);
                }
                w.put_u64(s.round_stats.len() as u64);
                for rs in &s.round_stats {
                    put_round_stats(&mut w, rs);
                }
                w.put_u64(s.engine.now_nanos);
                w.put_u64(s.engine.round_counter);
                w.put_bytes(&s.engine.straggler_rng);
                w.put_bytes(&s.engine.failure_rng);
                w.put_u64(s.engine.spans.len() as u64);
                for span in &s.engine.spans {
                    put_span(&mut w, span);
                }
                w.put_blob64(&s.strategy);
            }
            CheckpointState::PsAnchor(a) => {
                w.put_u8(1);
                w.put_u64(a.clock);
                w.put_u64(a.time_nanos);
                w.put_u64(a.updates);
                w.put_u64(a.model.len() as u64);
                w.put_f64s(&a.model);
            }
        }
        w.into_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    }

    /// Decodes a checkpoint from framed bytes, verifying magic, version,
    /// length, checksum, and payload consistency.
    pub fn decode(bytes: &[u8]) -> Result<TrainCheckpoint, CodecError> {
        let payload = decode_frame(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let mut r = Reader::new(payload);
        let system = r.str16()?;
        let config_digest = r.u64()?;
        let fingerprint = DatasetFingerprint {
            features: r.u64()? as usize,
            instances: r.u64()? as usize,
            content_hash: r.u64()?,
        };
        let state = match r.u8()? {
            0 => {
                let rounds_done = r.u64()?;
                let total_updates = r.u64()?;
                let n_points = r.u64()? as usize;
                let mut trace_points = Vec::with_capacity(n_points.min(payload.len()));
                let mut prev_step = 0u64;
                for i in 0..n_points {
                    let p = TracePoint {
                        step: r.u64()?,
                        time: SimTime::from_nanos(r.u64()?),
                        objective: r.f64()?,
                        total_updates: r.u64()?,
                    };
                    if i > 0 && p.step < prev_step {
                        return Err(CodecError::Corrupt(
                            "trace steps are not nondecreasing".into(),
                        ));
                    }
                    prev_step = p.step;
                    trace_points.push(p);
                }
                let n_stats = r.u64()? as usize;
                let mut round_stats = Vec::with_capacity(n_stats.min(payload.len()));
                for _ in 0..n_stats {
                    round_stats.push(read_round_stats(&mut r)?);
                }
                let engine = EngineState {
                    now_nanos: r.u64()?,
                    round_counter: r.u64()?,
                    straggler_rng: read_rng_state(&mut r)?,
                    failure_rng: read_rng_state(&mut r)?,
                    spans: {
                        let n = r.u64()? as usize;
                        let mut spans = Vec::with_capacity(n.min(payload.len()));
                        for _ in 0..n {
                            spans.push(read_span(&mut r)?);
                        }
                        spans
                    },
                };
                let strategy = r.blob64()?.to_vec();
                CheckpointState::Bsp(BspState {
                    rounds_done,
                    total_updates,
                    trace_points,
                    round_stats,
                    engine,
                    strategy,
                })
            }
            1 => {
                let clock = r.u64()?;
                let time_nanos = r.u64()?;
                let updates = r.u64()?;
                let dim = r.u64()? as usize;
                let model = r.f64s(dim)?;
                CheckpointState::PsAnchor(PsAnchor {
                    clock,
                    time_nanos,
                    updates,
                    model,
                })
            }
            tag => {
                return Err(CodecError::Corrupt(format!(
                    "unknown checkpoint state tag {tag}"
                )))
            }
        };
        r.finish()?;
        Ok(TrainCheckpoint {
            system,
            config_digest,
            fingerprint,
            state,
        })
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

/// Checkpointing instructions for one parameter-server run: where to
/// write anchors (cadence from [`TrainConfig::checkpoint_every`]), which
/// system to stamp, and optionally an anchor the deterministic replay
/// must pass through bit-exactly.
pub(crate) struct PsCkptRun<'a> {
    pub dir: &'a Path,
    pub system: System,
    pub verify: Option<PsAnchor>,
}

/// The PS-path checkpoint hook, wrapped around [`ClockTracer::on_clock`]
/// by the PS trainers.
///
/// The event-driven PS engine's heap of in-flight messages is not
/// serialized; instead, anchors record the observable state at global
/// clock boundaries, and resume is a deterministic replay from clock 0 —
/// the simulated analogue of Spark recomputing a lost partition from
/// lineage. The hook (a) verifies the replay passes through the anchor
/// bit-exactly, and (b) writes new anchors at the configured cadence.
///
/// [`ClockTracer::on_clock`]: crate::engine::ClockTracer::on_clock
pub(crate) struct PsCkptHook<'a> {
    /// `(dir, system, fingerprint, digest, cadence, keep)` when writing.
    meta: Option<(&'a Path, System, DatasetFingerprint, u64, u64, u64)>,
    verify: Option<PsAnchor>,
    diverged: Option<u64>,
    error: Option<CheckpointError>,
}

impl<'a> PsCkptHook<'a> {
    pub fn new(ds: &SparseDataset, cfg: &TrainConfig, ckpt: Option<PsCkptRun<'a>>) -> Self {
        let (meta, verify) = match ckpt {
            Some(PsCkptRun {
                dir,
                system,
                verify,
            }) => {
                let meta = (cfg.checkpoint_every > 0).then(|| {
                    (
                        dir,
                        system,
                        DatasetFingerprint::of(ds),
                        config_digest(cfg),
                        cfg.checkpoint_every,
                        cfg.checkpoint_keep,
                    )
                });
                (meta, verify)
            }
            None => (None, None),
        };
        PsCkptHook {
            meta,
            verify,
            diverged: None,
            error: None,
        }
    }

    /// The wrapped clock callback: verify the anchor (if due), delegate
    /// to the tracer, then write an anchor (if due). Returns `true` to
    /// stop the engine.
    pub fn on_clock(
        &mut self,
        tracer: &mut crate::engine::ClockTracer<'_>,
        clock: u64,
        time: SimTime,
        model: &DenseVector,
        updates: u64,
    ) -> bool {
        if let Some(anchor) = &self.verify {
            if clock == anchor.clock {
                let identical = time.as_nanos() == anchor.time_nanos
                    && updates == anchor.updates
                    && model.dim() == anchor.model.len()
                    && model
                        .as_slice()
                        .iter()
                        .zip(&anchor.model)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !identical {
                    self.diverged = Some(clock);
                    return true;
                }
                self.verify = None;
            }
        }
        if tracer.on_clock(clock, time, model) {
            return true;
        }
        if let Some((dir, system, fingerprint, digest, cadence, keep)) = &self.meta {
            if clock > 0 && clock.is_multiple_of(*cadence) {
                let ck = TrainCheckpoint {
                    system: system.name().to_string(),
                    config_digest: *digest,
                    fingerprint: *fingerprint,
                    state: CheckpointState::PsAnchor(PsAnchor {
                        clock,
                        time_nanos: time.as_nanos(),
                        updates,
                        model: model.as_slice().to_vec(),
                    }),
                };
                if let Err(e) = ck.write_file(&checkpoint_path(dir, *system, clock)) {
                    self.error = Some(e.into());
                    return true;
                }
                if let Err(e) = prune_checkpoints(dir, *system, *keep) {
                    self.error = Some(e.into());
                    return true;
                }
            }
        }
        false
    }

    /// Resolves the hook after the engine returns. A replay that stopped
    /// without passing its anchor did not reproduce the checkpointed run.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if let Some(clock) = self.diverged {
            return Err(CheckpointError::ReplayDiverged { clock });
        }
        if let Some(anchor) = self.verify {
            return Err(CheckpointError::ReplayDiverged {
                clock: anchor.clock,
            });
        }
        Ok(())
    }
}

/// Reads a 41-byte `StdRng` state blob.
pub(crate) fn read_rng_state(r: &mut Reader<'_>) -> Result<[u8; 41], CodecError> {
    let bytes = r.bytes(41)?;
    let mut state = [0u8; 41];
    state.copy_from_slice(bytes);
    Ok(state)
}

/// Writes a dense vector as `dim` + exact f64 bit patterns.
pub(crate) fn put_vector(w: &mut Writer, v: &DenseVector) {
    w.put_u64(v.dim() as u64);
    w.put_f64s(v.as_slice());
}

/// Reads a dense vector, requiring exactly `expected_dim` entries.
pub(crate) fn read_vector(
    r: &mut Reader<'_>,
    expected_dim: usize,
) -> Result<DenseVector, CodecError> {
    let dim = r.u64()? as usize;
    if dim != expected_dim {
        return Err(CodecError::Corrupt(format!(
            "vector dimension {dim} does not match expected {expected_dim}"
        )));
    }
    Ok(DenseVector::from_vec(r.f64s(dim)?))
}

fn put_round_stats(w: &mut Writer, rs: &RoundStats) {
    w.put_u64(rs.round);
    w.put_u64(rs.updates);
    w.put_f64(rs.flops);
    w.put_u64(rs.bytes.broadcast);
    w.put_u64(rs.bytes.tree_aggregate);
    w.put_u64(rs.bytes.reduce_scatter);
    w.put_u64(rs.bytes.all_gather);
    w.put_u64(rs.bytes.ps_pull);
    w.put_u64(rs.bytes.ps_push);
    w.put_f64(rs.compute_s);
    w.put_f64(rs.comm_s);
    w.put_f64(rs.idle_s);
    w.put_f64(rs.recovery_s);
    w.put_f64(rs.elapsed_s);
}

fn read_round_stats(r: &mut Reader<'_>) -> Result<RoundStats, CodecError> {
    Ok(RoundStats {
        round: r.u64()?,
        updates: r.u64()?,
        flops: r.f64()?,
        bytes: CommBytes {
            broadcast: r.u64()?,
            tree_aggregate: r.u64()?,
            reduce_scatter: r.u64()?,
            all_gather: r.u64()?,
            ps_pull: r.u64()?,
            ps_push: r.u64()?,
        },
        compute_s: r.f64()?,
        comm_s: r.f64()?,
        idle_s: r.f64()?,
        recovery_s: r.f64()?,
        elapsed_s: r.f64()?,
    })
}

fn put_span(w: &mut Writer, s: &Span) {
    let (tag, idx) = match s.node {
        NodeId::Driver => (0u8, 0u64),
        NodeId::Executor(i) => (1, i as u64),
        NodeId::Server(i) => (2, i as u64),
    };
    w.put_u8(tag);
    w.put_u64(idx);
    w.put_u8(s.activity.code() as u8);
    w.put_u64(s.start.as_nanos());
    w.put_u64(s.end.as_nanos());
    w.put_u64(s.round);
}

fn read_span(r: &mut Reader<'_>) -> Result<Span, CodecError> {
    let tag = r.u8()?;
    let idx = r.u64()? as usize;
    let node = match tag {
        0 => NodeId::Driver,
        1 => NodeId::Executor(idx),
        2 => NodeId::Server(idx),
        _ => return Err(CodecError::Corrupt(format!("unknown node tag {tag}"))),
    };
    let code = r.u8()? as char;
    let activity = Activity::from_code(code)
        .ok_or_else(|| CodecError::Corrupt(format!("unknown activity code {code:?}")))?;
    let start = SimTime::from_nanos(r.u64()?);
    let end = SimTime::from_nanos(r.u64()?);
    if end < start {
        return Err(CodecError::Corrupt("span ends before it starts".into()));
    }
    let round = r.u64()?;
    Ok(Span {
        node,
        activity,
        start,
        end,
        round,
    })
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
        let mut w = Writer::new();
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
        // A span whose end precedes its start is data no recorder can
        // produce.
        let mut r = Reader::new(&[]);
        assert!(read_span(&mut r).is_err());
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u64(0);
        w.put_u8(b'C');
        w.put_u64(10);
        w.put_u64(5); // end < start
        w.put_u64(0);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert!(matches!(read_span(&mut r), Err(CodecError::Corrupt(_))));
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
    fn vector_helpers_are_exact_and_checked() {
        let v = DenseVector::from_vec(vec![1.5, -0.0, f64::MAX]);
        let mut w = Writer::new();
        put_vector(&mut w, &v);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        let back = read_vector(&mut r, 3).unwrap();
        for (a, b) in v.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut r = Reader::new(&payload);
        assert!(matches!(
            read_vector(&mut r, 4),
            Err(CodecError::Corrupt(_))
        ));
    }
}
