//! Crash-and-restore: every trainer's checkpoint/resume path is bit-exact
//! (`DESIGN.md` §12).
//!
//! Each of the seven systems trains to completion with checkpointing on
//! (the *reference* run); then all in-memory state is dropped, an
//! **interior** checkpoint file is read back off disk and resumed, and the
//! resumed run is compared with the reference field by field: trace,
//! per-round telemetry, Gantt spans, update counts, and the model down to
//! the last weight bit. BSP systems restore their engine state in place;
//! parameter-server systems replay from clock zero through the anchor.
//! Any mismatch is a failed contract (exit 1).

use mlstar_core::{
    checkpoint_path, AngelConfig, CheckpointError, PsSystemConfig, System, TrainCheckpoint,
    TrainConfig, TrainOutput,
};
use mlstar_data::SyntheticConfig;
use mlstar_glm::LearningRate;
use mlstar_sim::ClusterSpec;

use crate::cli::{Args, Failure, Flag};
use crate::report::{banner, Table};

const MAX_ROUNDS: u64 = 8;
const CHECKPOINT_EVERY: u64 = 2;
/// The interior round the crash recovers from: mid-run, not the last file.
const RESUME_ROUND: u64 = 4;

pub(super) const FLAGS: &[Flag] = &[("--seed", "<n>", "training seed (default 42)")];

/// Runs the crash-restore exhibit.
pub fn run(args: &Args) -> Result<(), Failure> {
    let seed: u64 = args.get("--seed", 42)?;
    banner("crash-and-restore: bit-exact resume across all systems");

    let ds = SyntheticConfig::small("crash-restore", 320, 40).generate();
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        lr: LearningRate::Constant(0.05 / 8.0),
        batch_frac: 0.2,
        max_rounds: MAX_ROUNDS,
        // Stragglers AND node failures, so the crash also has to restore
        // the engine's failure/straggler RNG streams mid-sequence.
        failure_prob: 0.1,
        checkpoint_every: CHECKPOINT_EVERY,
        seed,
        ..TrainConfig::default()
    };
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();

    let dir = std::env::temp_dir().join(format!("mlstar_crash_restore_{seed}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)
        .map_err(|e| Failure::contract(format!("create {}: {e}", dir.display())))?;

    let mut table = Table::new("system | mode | rounds | trace | stats | gantt | model | verdict");
    let mut all_ok = true;
    for system in System::ALL {
        let failed = |e: CheckpointError| Failure::contract(format!("{system}: {e}"));
        let reference = system
            .train_checkpointed(&ds, &cluster, &cfg, &ps, &angel, &dir)
            .map_err(failed)?;

        // The crash: every live structure from the run above is dropped;
        // only the checkpoint files survive.
        let path = checkpoint_path(&dir, system, RESUME_ROUND);
        let ckpt = TrainCheckpoint::read_file(&path).map_err(failed)?;
        let mode = if ckpt.is_ps_anchor() {
            "replay"
        } else {
            "restore"
        };
        let resumed = system
            .resume(&ds, &cluster, &cfg, &ps, &angel, &dir, ckpt)
            .map_err(failed)?;

        let checks = diff(&reference, &resumed);
        let ok = checks.iter().all(|&same| same);
        all_ok &= ok;
        let tick = |same: bool| if same { "ok" } else { "MISMATCH" }.to_owned();
        table.row(&[
            system.name().to_owned(),
            mode.to_owned(),
            resumed.rounds_run.to_string(),
            tick(checks[0]),
            tick(checks[1]),
            tick(checks[2]),
            tick(checks[3]),
            if ok { "bit-exact" } else { "DIVERGED" }.to_owned(),
        ]);
    }
    table.print();

    std::fs::remove_dir_all(&dir).ok();
    if !all_ok {
        return Err(Failure::contract(
            "at least one system diverged after resume",
        ));
    }
    println!("\nall systems resumed bit-identically to never having crashed");
    Ok(())
}

/// Field-by-field comparison of two runs — trace, stats, gantt, model;
/// floats are compared by bit pattern, never by tolerance.
fn diff(a: &TrainOutput, b: &TrainOutput) -> [bool; 4] {
    [
        a.trace == b.trace,
        a.round_stats == b.round_stats
            && a.total_updates == b.total_updates
            && a.rounds_run == b.rounds_run
            && a.converged == b.converged
            && a.host_threads == b.host_threads,
        a.gantt.spans() == b.gantt.spans(),
        super::weight_bits(a) == super::weight_bits(b),
    ]
}
