//! Resume equivalence: a run restored from a checkpoint must be
//! **bit-identical** to one that never stopped.
//!
//! For every system and two seeds, a reference run trains straight
//! through with checkpointing on. Each interior checkpoint file is then
//! read back cold and resumed, and the resumed `TrainOutput` is compared
//! field by field against the reference: trace steps, integer-nanosecond
//! sim times, exact `f64` objective and weight bit patterns, per-round
//! telemetry, Gantt spans, and the run counters. BSP systems restore
//! engine state in place; parameter-server systems replay from clock zero
//! through a verified anchor — both must erase the crash completely.
//!
//! The second half pins the failure taxonomy: corrupt files, wrong-system
//! / wrong-config / wrong-dataset resumes, and diverging PS replays must
//! each surface their own `CheckpointError` variant, never a silently
//! different run. Known-answer tests pin the MLSC bytes themselves (one
//! of them with an error-feedback residual per worker), and another
//! checks that a frame of the previous version is refused by its version.

use std::path::{Path, PathBuf};

use mllib_star::codec::{decode_frame, encode_frame, fnv1a, CodecError, HEADER_LEN};
use mllib_star::core::{
    checkpoint_path, AngelConfig, CheckpointError, CompressionConfig, FrameSwitch, PsSystemConfig,
    Sparsifier, System, TrainCheckpoint, TrainConfig, TrainOutput, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::LearningRate;
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};

const SEEDS: [u64; 2] = [42, 7];
const BSP: [System; 4] = [
    System::Mllib,
    System::MllibMa,
    System::MllibStar,
    System::SparkMl,
];
const PS: [System; 3] = [System::Petuum, System::PetuumStar, System::Angel];

fn dataset() -> SparseDataset {
    let mut gen = SyntheticConfig::small("ckpt-resume", 240, 30);
    gen.margin_noise = 0.05;
    gen.flip_prob = 0.0;
    gen.generate()
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        // Low enough for Petuum's summed updates to stay stable.
        lr: LearningRate::Constant(0.05 / 8.0),
        batch_frac: 0.2,
        max_rounds: 6,
        eval_every: 2,
        // Node failures force the resume to restore the engine's
        // straggler AND failure RNG streams mid-sequence.
        failure_prob: 0.15,
        checkpoint_every: 2,
        seed,
        ..TrainConfig::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlstar_resume_test_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bitwise equality of two runs — floats by bit pattern, never tolerance.
fn assert_identical(reference: &TrainOutput, resumed: &TrainOutput, what: &str) {
    assert_eq!(reference.trace, resumed.trace, "{what}: trace diverged");
    assert_eq!(
        reference.round_stats, resumed.round_stats,
        "{what}: round_stats diverged"
    );
    assert_eq!(
        reference.gantt.spans(),
        resumed.gantt.spans(),
        "{what}: gantt diverged"
    );
    assert_eq!(reference.rounds_run, resumed.rounds_run, "{what}: rounds");
    assert_eq!(
        reference.total_updates, resumed.total_updates,
        "{what}: updates"
    );
    assert_eq!(reference.converged, resumed.converged, "{what}: converged");
    assert_eq!(
        reference.host_threads, resumed.host_threads,
        "{what}: host_threads"
    );
    let a = reference.model.weights().as_slice();
    let b = resumed.model.weights().as_slice();
    assert_eq!(a.len(), b.len(), "{what}: model dim");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: weight {i} differs ({x} vs {y})"
        );
    }
}

fn train_reference(
    system: System,
    ds: &SparseDataset,
    cfg: &TrainConfig,
    dir: &Path,
) -> TrainOutput {
    system
        .train_checkpointed(
            ds,
            &ClusterSpec::cluster1(),
            cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            dir,
        )
        .unwrap()
}

fn resume_from(
    system: System,
    ds: &SparseDataset,
    cfg: &TrainConfig,
    dir: &Path,
    round: u64,
) -> TrainOutput {
    let ckpt = TrainCheckpoint::read_file(&checkpoint_path(dir, system, round)).unwrap();
    system
        .resume(
            ds,
            &ClusterSpec::cluster1(),
            cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            dir,
            ckpt,
        )
        .unwrap()
}

#[test]
fn bsp_resume_is_bit_exact_at_every_interior_round() {
    let ds = dataset();
    for seed in SEEDS {
        let cfg = config(seed);
        for system in BSP {
            let dir = scratch_dir(&format!("bsp_{system:?}_{seed}"));
            let reference = train_reference(system, &ds, &cfg, &dir);
            for round in [2, 4] {
                let resumed = resume_from(system, &ds, &cfg, &dir, round);
                assert_identical(
                    &reference,
                    &resumed,
                    &format!("{system} seed {seed} resumed at round {round}"),
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn ps_replay_through_anchor_is_bit_exact() {
    let ds = dataset();
    for seed in SEEDS {
        let cfg = config(seed);
        for system in PS {
            let dir = scratch_dir(&format!("ps_{system:?}_{seed}"));
            let reference = train_reference(system, &ds, &cfg, &dir);
            for clock in [2, 4] {
                let resumed = resume_from(system, &ds, &cfg, &dir, clock);
                assert_identical(
                    &reference,
                    &resumed,
                    &format!("{system} seed {seed} replayed through anchor clock {clock}"),
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn checkpoint_cadence_change_does_not_invalidate_resume() {
    // The cadence is excluded from the config digest: stopping a run and
    // resuming it with a different --checkpoint-every must work.
    let ds = dataset();
    let cfg = config(42);
    let dir = scratch_dir("cadence");
    let reference = train_reference(System::MllibStar, &ds, &cfg, &dir);
    let recadenced = TrainConfig {
        checkpoint_every: 3,
        ..cfg
    };
    let resumed = resume_from(System::MllibStar, &ds, &recadenced, &dir, 2);
    assert_identical(&reference, &resumed, "resume with new cadence");
    std::fs::remove_dir_all(&dir).ok();
}

fn one_checkpoint() -> (Vec<u8>, SparseDataset, TrainConfig, PathBuf) {
    let ds = dataset();
    let cfg = config(42);
    let dir = scratch_dir("corruption");
    train_reference(System::MllibStar, &ds, &cfg, &dir);
    let path = checkpoint_path(&dir, System::MllibStar, 4);
    let bytes = std::fs::read(&path).unwrap();
    (bytes, ds, cfg, dir)
}

#[test]
fn corrupt_files_fail_with_the_right_variant() {
    let (bytes, _ds, _cfg, dir) = one_checkpoint();

    // Truncation at an arbitrary interior byte.
    let err = TrainCheckpoint::decode(&bytes[..bytes.len() / 2]).unwrap_err();
    assert!(
        matches!(err, CodecError::Truncated { .. }),
        "truncation: {err:?}"
    );

    // A single flipped bit deep in the payload.
    let mut flipped = bytes.clone();
    let idx = flipped.len() - 13;
    flipped[idx] ^= 0x08;
    let err = TrainCheckpoint::decode(&flipped).unwrap_err();
    assert!(
        matches!(err, CodecError::ChecksumMismatch { .. }),
        "bit flip: {err:?}"
    );

    // A future codec version.
    let mut versioned = bytes.clone();
    versioned[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = TrainCheckpoint::decode(&versioned).unwrap_err();
    assert!(
        matches!(err, CodecError::VersionMismatch { found: 99, .. }),
        "version: {err:?}"
    );

    // Not one of our files at all.
    let mut magic = bytes;
    magic[0] ^= 0xFF;
    let err = TrainCheckpoint::decode(&magic).unwrap_err();
    assert!(matches!(err, CodecError::BadMagic(_)), "magic: {err:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_resumes_are_refused() {
    let (bytes, ds, cfg, dir) = one_checkpoint();
    let cluster = ClusterSpec::cluster1();
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();
    let read = || TrainCheckpoint::decode(&bytes).unwrap();

    // The wrong system.
    let err = System::Mllib
        .resume(&ds, &cluster, &cfg, &ps, &angel, &dir, read())
        .unwrap_err();
    match err {
        CheckpointError::WrongSystem { found, expected } => {
            assert_eq!(found, "MLlib*");
            assert_eq!(expected, "MLlib");
        }
        other => panic!("expected WrongSystem, got {other:?}"),
    }

    // A drifted hyperparameter.
    let drifted = TrainConfig {
        lr: LearningRate::Constant(0.02),
        ..cfg.clone()
    };
    let err = System::MllibStar
        .resume(&ds, &cluster, &drifted, &ps, &angel, &dir, read())
        .unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "config drift: {err:?}"
    );

    // The wrong dataset: same shape, different content (the generator
    // keys off its seed, not its label).
    let mut other_gen = SyntheticConfig::small("ckpt-resume", 240, 30).with_seed(7);
    other_gen.margin_noise = 0.05;
    other_gen.flip_prob = 0.0;
    let other_ds = other_gen.generate();
    let err = System::MllibStar
        .resume(&other_ds, &cluster, &cfg, &ps, &angel, &dir, read())
        .unwrap_err();
    assert!(
        matches!(err, CheckpointError::DatasetMismatch),
        "dataset swap: {err:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ps_replay_divergence_is_detected() {
    // A PS anchor is only as good as the deterministic replay that must
    // pass through it. Replaying on a different cluster (the cluster is
    // not part of the config digest) produces a different trajectory, and
    // the anchor check has to catch it rather than hand back a model from
    // a run that never happened.
    let ds = dataset();
    let cfg = config(42);
    let dir = scratch_dir("diverge");
    train_reference(System::Petuum, &ds, &cfg, &dir);
    let ckpt = TrainCheckpoint::read_file(&checkpoint_path(&dir, System::Petuum, 4)).unwrap();
    let other_cluster = ClusterSpec::uniform(4, NodeSpec::standard(), NetworkSpec::gbps1());
    let err = System::Petuum
        .resume(
            &ds,
            &other_cluster,
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &dir,
            ckpt,
        )
        .unwrap_err();
    assert!(
        matches!(err, CheckpointError::ReplayDiverged { clock: 4 }),
        "cluster swap: {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_run_keeps_checkpointing() {
    // Resuming at round 2 must re-write the later checkpoint files, and
    // they must be byte-identical to the reference run's.
    let ds = dataset();
    let cfg = config(7);
    let dir = scratch_dir("rewrites");
    train_reference(System::MllibMa, &ds, &cfg, &dir);
    let later = checkpoint_path(&dir, System::MllibMa, 4);
    let original = std::fs::read(&later).unwrap();
    std::fs::remove_file(&later).unwrap();

    resume_from(System::MllibMa, &ds, &cfg, &dir, 2);
    let rewritten = std::fs::read(&later).unwrap();
    assert_eq!(original, rewritten, "round-4 checkpoint bytes differ");
    std::fs::remove_dir_all(&dir).ok();
}

fn snapshots_on_disk(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    names.sort();
    names
}

#[test]
fn checkpoint_keep_retains_only_the_newest_snapshots() {
    // keep=2 with cadence 2 over 6 rounds must leave exactly the two
    // newest checkpoints — the same files an unrotated run would have
    // written last — without changing the run itself. Exercises both the
    // BSP write path and the PS anchor hook.
    let ds = dataset();
    for system in [System::MllibStar, System::Petuum] {
        let all_dir = scratch_dir(&format!("keep_all_{system:?}"));
        let cfg = config(42);
        let reference = train_reference(system, &ds, &cfg, &all_dir);
        let all = snapshots_on_disk(&all_dir);
        assert!(
            all.len() > 2,
            "{system}: need interior checkpoints to rotate, got {all:?}"
        );

        let kept_dir = scratch_dir(&format!("keep_two_{system:?}"));
        let rotated_cfg = TrainConfig {
            checkpoint_keep: 2,
            ..cfg
        };
        let rotated = train_reference(system, &ds, &rotated_cfg, &kept_dir);
        assert_identical(
            &reference,
            &rotated,
            &format!("{system}: rotation must not change the run"),
        );
        let kept = snapshots_on_disk(&kept_dir);
        assert_eq!(
            kept,
            all[all.len() - 2..].to_vec(),
            "{system}: exactly the newest two snapshots survive"
        );

        // An interior survivor still resumes bit-exactly.
        let resumed = resume_from(system, &ds, &rotated_cfg, &kept_dir, 4);
        assert_identical(
            &reference,
            &resumed,
            &format!("{system}: resume from a rotated directory"),
        );
        std::fs::remove_dir_all(&all_dir).ok();
        std::fs::remove_dir_all(&kept_dir).ok();
    }
}

#[test]
fn checkpoint_keep_change_does_not_invalidate_resume() {
    // Retention, like cadence, is excluded from the config digest: a
    // checkpoint written without rotation resumes under --checkpoint-keep.
    let ds = dataset();
    let cfg = config(42);
    let dir = scratch_dir("keep_digest");
    let reference = train_reference(System::MllibStar, &ds, &cfg, &dir);
    let rekept = TrainConfig {
        checkpoint_keep: 1,
        ..cfg
    };
    let resumed = resume_from(System::MllibStar, &ds, &rekept, &dir, 4);
    assert_identical(&reference, &resumed, "resume with rotation enabled");
    std::fs::remove_dir_all(&dir).ok();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// KAT: the MLSC layout of a parameter-server anchor, pinned byte for
/// byte — a Petuum run over a two-feature dataset, anchored at clock 1.
/// The frame decodes and re-encodes to the same bytes.
#[test]
fn ps_anchor_checkpoint_bytes_are_pinned() {
    let mut gen = SyntheticConfig::small("ckpt-golden", 40, 2);
    gen.margin_noise = 0.05;
    gen.flip_prob = 0.0;
    let ds = gen.generate();
    let cfg = TrainConfig {
        max_rounds: 1,
        checkpoint_every: 1,
        ..config(42)
    };
    let dir = scratch_dir("anchor_golden");
    train_reference(System::Petuum, &ds, &cfg, &dir);
    let bytes = std::fs::read(checkpoint_path(&dir, System::Petuum, 1)).unwrap();
    // The envelope header is pinned apart from the payload, so an
    // envelope change (version, checksum) moves only its literal.
    assert_eq!(
        hex(&bytes[..HEADER_LEN]),
        "43534c4d0200000059000000000000008ebe9cea85a6ad65"
    );
    assert_eq!(
        hex(&bytes[HEADER_LEN..]),
        "060050657475756d360fbda8bbd6b94502000000000000002800000000000000\
        12b9562426110883010100000000000000040b3d000000000008000000000000\
        000200000000000000cdccccccccccacbf9a999999999999bf"
    );
    let ckpt = TrainCheckpoint::decode(&bytes).unwrap();
    assert!(ckpt.is_ps_anchor());
    assert_eq!((ckpt.system(), ckpt.rounds_done()), ("Petuum", 1));
    assert_eq!(ckpt.encode(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// The anchor above as checkpoint version 1 wrote it (an FNV-1a
/// checksum) is refused by its version, never reported as corrupt.
#[test]
fn version_1_checkpoints_are_refused_by_version() {
    let v1_anchor = unhex(
        "43534c4d01000000590000000000000006a7bd02f67657ad\
        060050657475756d360fbda8bbd6b94502000000000000002800000000000000\
        12b9562426110883010100000000000000040b3d000000000008000000000000\
        000200000000000000cdccccccccccacbf9a999999999999bf",
    );
    let err = TrainCheckpoint::decode(&v1_anchor).unwrap_err();
    assert!(
        matches!(
            err,
            CodecError::VersionMismatch {
                found: 1,
                supported: 2
            }
        ),
        "{err}"
    );
}

/// The first checkpoint file (round 2) each of the seven systems writes
/// in the seed-42 run above — every BSP strategy payload and every PS
/// anchor — pinned without spelling out kilobytes: the file length and
/// the FNV-1a of its payload, and apart from them the envelope header.
#[test]
fn first_checkpoint_files_are_pinned() {
    let pinned = [
        (
            System::Mllib,
            5230,
            0xf159_fdac_ede1_6284,
            "43534c4d020000005614000000000000bd89ba5fd57c9b8d",
        ),
        (
            System::MllibMa,
            5297,
            0x7cb3_ea59_2e2f_f79b,
            "43534c4d020000009914000000000000514420dcee90584f",
        ),
        (
            System::MllibStar,
            3399,
            0xeb5d_c794_6113_4837,
            "43534c4d020000002f0d000000000000ea097274d64d1a87",
        ),
        (
            System::SparkMl,
            10595,
            0xfcbd_2a64_5c94_9857,
            "43534c4d020000004b29000000000000a5896bb75705855e",
        ),
        (
            System::Petuum,
            337,
            0x5ee5_a456_7bd9_b5ba,
            "43534c4d0200000039010000000000000ef12f3ee6092d2c",
        ),
        (
            System::PetuumStar,
            338,
            0xedcd_e728_38de_7122,
            "43534c4d020000003a010000000000007a13819482923668",
        ),
        (
            System::Angel,
            336,
            0x6e69_fd51_877f_4a46,
            "43534c4d02000000380100000000000071060db2885784ab",
        ),
    ];
    let ds = dataset();
    for (system, len, payload_hash, header) in pinned {
        let dir = scratch_dir(&format!("pinned_{system:?}"));
        train_reference(system, &ds, &config(42), &dir);
        let bytes = std::fs::read(checkpoint_path(&dir, system, 2)).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes[HEADER_LEN..])),
            (len, payload_hash),
            "{system}: payload"
        );
        assert_eq!(hex(&bytes[..HEADER_LEN]), header, "{system}: header");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `config(42)` for MLlib\* with lossy compression (top-8 sparsifier,
/// quantized frames) and error feedback, so its checkpoints carry one
/// residual per worker.
fn error_feedback_config() -> TrainConfig {
    TrainConfig {
        compression: CompressionConfig {
            switch: FrameSwitch::Adaptive,
            sparsifier: Sparsifier::TopK { k: 8 },
            quantize: true,
            error_feedback: true,
        },
        ..config(42)
    }
}

/// The round-2 checkpoint file of the error-feedback run.
fn error_feedback_checkpoint(ds: &SparseDataset, dir: &Path) -> Vec<u8> {
    train_reference(System::MllibStar, ds, &error_feedback_config(), dir);
    std::fs::read(checkpoint_path(dir, System::MllibStar, 2)).unwrap()
}

/// Where the strategy state's `u64` length and its error-feedback residual
/// list start in a checkpoint payload of the MLlib\* run above. The state
/// is the payload's last field: the model, the epoch streams and
/// counters, then the residual list.
fn residual_list_offsets(payload: &[u8], dim: usize, workers: usize) -> (usize, usize) {
    let model = 8 + 8 * dim;
    let passes = 8 + workers * (41 + 8);
    let residuals = 8 + workers * model;
    let state = model + passes + residuals;
    let len_at = payload.len() - state - 8;
    let len = u64::from_le_bytes(payload[len_at..len_at + 8].try_into().unwrap());
    assert_eq!(len as usize, state, "strategy state length");
    (len_at, len_at + 8 + model + passes)
}

/// The first checkpoint of an MLlib\* run with lossy compression and
/// error feedback, pinned like the files above: the only pin whose
/// residual list is not empty.
#[test]
fn error_feedback_checkpoint_is_pinned() {
    let ds = dataset();
    let dir = scratch_dir("pinned_error_feedback");
    let bytes = error_feedback_checkpoint(&ds, &dir);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes[HEADER_LEN..])),
        (4703, 0x8975bf3cf8c36f23),
        "payload"
    );
    assert_eq!(
        hex(&bytes[..HEADER_LEN]),
        "43534c4d02000000471200000000000018926040783093a7"
    );
    let payload = decode_frame(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
    let (_, at) = residual_list_offsets(payload, ds.num_features(), 8);
    assert_eq!(
        payload[at..at + 8],
        8u64.to_le_bytes(),
        "one residual per worker"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint whose error-feedback residuals do not fit the run — a
/// count that is neither 0 nor the worker count, or a residual of the
/// wrong dimension — is refused as corrupt, never resumed.
#[test]
fn misfit_error_feedback_residuals_are_refused() {
    let ds = dataset();
    let cfg = error_feedback_config();
    let dir = scratch_dir("residual_refusals");
    let bytes = error_feedback_checkpoint(&ds, &dir);
    let payload = decode_frame(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        .unwrap()
        .to_vec();
    let dim = ds.num_features();
    let (state_len_at, at) = residual_list_offsets(&payload, dim, 8);
    // Rewrites the residual list and the strategy length before it.
    let with_residuals = |list: &[u8]| {
        let mut out = payload[..at].to_vec();
        out.extend_from_slice(list);
        let state_len = (out.len() - state_len_at - 8) as u64;
        out[state_len_at..state_len_at + 8].copy_from_slice(&state_len.to_le_bytes());
        TrainCheckpoint::decode(&encode_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &out)).unwrap()
    };
    let residual = 8 + 8 * dim;
    let list = &payload[at..];

    // Seven residuals for eight workers.
    let mut seven = 7u64.to_le_bytes().to_vec();
    seven.extend_from_slice(&list[8..8 + 7 * residual]);
    // Eight residuals, the first one coordinate short.
    let mut short = list[..8].to_vec();
    short.extend_from_slice(&(dim as u64 - 1).to_le_bytes());
    short.extend_from_slice(&list[16..8 + residual - 8]);
    short.extend_from_slice(&list[8 + residual..]);

    for (what, list, why) in [
        ("count", seven, "7 error-feedback residuals"),
        ("dimension", short, "dimension 29"),
    ] {
        let err = System::MllibStar
            .resume(
                &ds,
                &ClusterSpec::cluster1(),
                &cfg,
                &PsSystemConfig::default(),
                &AngelConfig::default(),
                &dir,
                with_residuals(&list),
            )
            .unwrap_err();
        match err {
            CheckpointError::Codec(CodecError::Corrupt(msg)) => {
                assert!(msg.contains(why), "{what}: {msg}")
            }
            other => panic!("{what}: expected a corrupt-state refusal, got {other:?}"),
        }
    }
    // The untouched list resumes.
    System::MllibStar
        .resume(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &dir,
            with_residuals(list),
        )
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The spark.ml state of a checkpoint payload, split into its fields: the
/// model, the gradient, the `(s, y)` pairs (one byte run each) and the
/// cached objective. The state is the payload's last field; `at` is where
/// its `u64` length starts.
#[derive(Clone)]
struct LbfgsBytes<'a> {
    at: usize,
    w: &'a [u8],
    grad: &'a [u8],
    pairs: Vec<&'a [u8]>,
    f: &'a [u8],
}

impl<'a> LbfgsBytes<'a> {
    fn split(payload: &'a [u8], dim: usize) -> Self {
        let vector = 8 + 8 * dim;
        // The pair count fixes the state's length: find the count whose
        // length word sits where that length says it does.
        let (at, n) = (0..=10)
            .map(|n| (16 + (2 + 2 * n) * vector, n))
            .find_map(|(len, n)| {
                let at = payload.len().checked_sub(len + 8)?;
                let word = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                (word == len as u64).then_some((at, n))
            })
            .expect("a spark.ml strategy state");
        let state = &payload[at + 8..];
        let (w, rest) = state.split_at(vector);
        let (grad, rest) = rest.split_at(vector);
        assert_eq!(rest[..8], (n as u64).to_le_bytes(), "pair count");
        let (pairs, f) = rest[8..].split_at(n * 2 * vector);
        LbfgsBytes {
            at,
            w,
            grad,
            pairs: pairs.chunks(2 * vector).collect(),
            f,
        }
    }

    /// Re-encodes `payload` with this state in place of its own.
    fn checkpoint(&self, payload: &[u8]) -> TrainCheckpoint {
        let mut state = [self.w, self.grad].concat();
        state.extend_from_slice(&(self.pairs.len() as u64).to_le_bytes());
        self.pairs.iter().for_each(|p| state.extend_from_slice(p));
        state.extend_from_slice(self.f);
        let mut out = payload[..self.at].to_vec();
        out.extend_from_slice(&(state.len() as u64).to_le_bytes());
        out.extend_from_slice(&state);
        TrainCheckpoint::decode(&encode_frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &out)).unwrap()
    }
}

/// A dense vector's bytes one coordinate short.
fn one_short(vector: &[u8]) -> Vec<u8> {
    let dim = u64::from_le_bytes(vector[..8].try_into().unwrap());
    let mut out = (dim - 1).to_le_bytes().to_vec();
    out.extend_from_slice(&vector[8..vector.len() - 8]);
    out
}

/// A spark.ml checkpoint whose state does not fit the run — more `(s, y)`
/// pairs than the history keeps, or a model, gradient or pair of the
/// wrong dimension — is refused as corrupt, never resumed.
#[test]
fn hostile_sparkml_states_are_refused() {
    let ds = dataset();
    let cfg = config(42);
    let dir = scratch_dir("sparkml_refusals");
    train_reference(System::SparkMl, &ds, &cfg, &dir);
    let bytes = std::fs::read(checkpoint_path(&dir, System::SparkMl, 2)).unwrap();
    let payload = decode_frame(&bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        .unwrap()
        .to_vec();
    let real = LbfgsBytes::split(&payload, ds.num_features());
    assert!(
        !real.pairs.is_empty(),
        "the history holds a pair by round 2"
    );
    assert_eq!(
        real.checkpoint(&payload).encode(),
        bytes,
        "split and rejoined"
    );

    let (short_w, short_grad) = (one_short(real.w), one_short(real.grad));
    let (s, y) = real.pairs[0].split_at(real.pairs[0].len() / 2);
    let short_pair = [one_short(s), y.to_vec()].concat();
    let mut short_pairs = real.pairs.clone();
    short_pairs[0] = &short_pair;

    for (what, state, why) in [
        (
            "history",
            LbfgsBytes {
                // Eleven pairs for a history of ten.
                pairs: real.pairs.iter().copied().cycle().take(11).collect(),
                ..real.clone()
            },
            "11 correction pairs",
        ),
        (
            "w",
            LbfgsBytes {
                w: &short_w,
                ..real.clone()
            },
            "dimension 29",
        ),
        (
            "grad",
            LbfgsBytes {
                grad: &short_grad,
                ..real.clone()
            },
            "dimension 29",
        ),
        (
            "pair",
            LbfgsBytes {
                pairs: short_pairs,
                ..real.clone()
            },
            "dimension 29",
        ),
    ] {
        let err = System::SparkMl
            .resume(
                &ds,
                &ClusterSpec::cluster1(),
                &cfg,
                &PsSystemConfig::default(),
                &AngelConfig::default(),
                &dir,
                state.checkpoint(&payload),
            )
            .unwrap_err();
        match err {
            CheckpointError::Codec(CodecError::Corrupt(msg)) => {
                assert!(msg.contains(why), "{what}: {msg}")
            }
            other => panic!("{what}: expected a corrupt-state refusal, got {other:?}"),
        }
    }
    // The state re-encoded unedited resumes.
    System::SparkMl
        .resume(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &dir,
            real.checkpoint(&payload),
        )
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruning_is_per_system_and_ignores_foreign_files() {
    use mllib_star::core::prune_checkpoints;

    let dir = scratch_dir("prune_scope");
    for round in [2u64, 4, 6] {
        std::fs::write(checkpoint_path(&dir, System::MllibStar, round), b"a").unwrap();
        std::fs::write(checkpoint_path(&dir, System::Petuum, round), b"b").unwrap();
    }
    std::fs::write(dir.join("notes.txt"), b"not a checkpoint").unwrap();
    std::fs::write(dir.join("mllib-star-round-xyz.ckpt"), b"unparseable").unwrap();

    let removed = prune_checkpoints(&dir, System::MllibStar, 1).unwrap();
    assert_eq!(removed, 2, "two old MLlib* snapshots pruned");
    let names = snapshots_on_disk(&dir);
    assert!(names.contains(&"mllib-star-round-00006.ckpt".to_string()));
    assert!(!names.contains(&"mllib-star-round-00002.ckpt".to_string()));
    assert!(!names.contains(&"mllib-star-round-00004.ckpt".to_string()));
    // The other system's snapshots and non-checkpoint files are untouched.
    for round in [2u64, 4, 6] {
        assert!(checkpoint_path(&dir, System::Petuum, round).exists());
    }
    assert!(dir.join("notes.txt").exists());
    assert!(dir.join("mllib-star-round-xyz.ckpt").exists());
    // keep=0 is a no-op.
    assert_eq!(prune_checkpoints(&dir, System::Petuum, 0).unwrap(), 0);
    assert_eq!(snapshots_on_disk(&dir).len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}
