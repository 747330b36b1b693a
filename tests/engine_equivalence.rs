//! Golden-trace equivalence: the unified round engine must reproduce the
//! pre-refactor trainers **bit for bit**.
//!
//! `tests/fixtures/golden_traces.txt` was captured from the per-trainer
//! implementations before they were rewritten on top of
//! `mlstar_core::engine::run_rounds`. Every system in `System::ALL` is
//! re-run here at both fixture seeds and compared against that capture:
//! trace step numbers, integer-nanosecond sim times, exact `f64` objective
//! bit patterns, update counters, the final model norm, the Gantt
//! makespan, and the run counters all have to match exactly.
//!
//! Regenerate (only when an *intentional* behaviour change lands) with:
//!
//! ```text
//! cargo run --release --example engine_golden > tests/fixtures/golden_traces.txt
//! ```
//!
//! The second half of the file checks the per-round telemetry the refactor
//! introduced: every `TrainOutput` now carries `RoundStats` whose phase
//! times (compute + comm + idle + recovery) sum to the round's elapsed sim
//! time.

use std::collections::BTreeSet;

use mllib_star::codec::fnv1a;
use mllib_star::collectives::wire::{encoded_dense_len, encoded_sparse_len};
use mllib_star::core::{
    system_partitions, AngelConfig, CompressionConfig, FrameSwitch, MaWeighting, PsSystemConfig,
    Sparsifier, System, TrainConfig, TrainOutput,
};
use mllib_star::data::catalog::kddb_like;
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::{objective_value, LearningRate, Loss, Regularizer};
use mllib_star::sim::ClusterSpec;

const GOLDEN: &str = include_str!("fixtures/golden_traces.txt");
const SEEDS: [u64; 2] = [42, 7];

/// The fixture workload — must match `examples/engine_golden.rs` exactly.
fn golden_dataset() -> SparseDataset {
    let mut gen = SyntheticConfig::small("golden", 240, 30);
    gen.margin_noise = 0.05;
    gen.flip_prob = 0.0;
    gen.generate()
}

/// The fixture configuration — must match `examples/engine_golden.rs`.
fn golden_config(seed: u64) -> TrainConfig {
    TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::None,
        lr: LearningRate::Constant(0.05),
        batch_frac: 0.2,
        max_rounds: 6,
        eval_every: 2,
        failure_prob: 0.15,
        seed,
        ..TrainConfig::default()
    }
}

/// One captured run: trace points plus the final summary line.
#[derive(Debug, PartialEq, Eq)]
struct GoldenRun {
    system: String,
    seed: u64,
    /// `(step, time_ns, objective_bits, total_updates)` per trace point.
    points: Vec<(u64, u64, u64, u64)>,
    norm_bits: u64,
    makespan_ns: u64,
    rounds_run: u64,
    total_updates: u64,
}

fn parse_fixture(text: &str) -> Vec<GoldenRun> {
    let mut runs: Vec<GoldenRun> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next().unwrap() {
            "run" => {
                let seed: u64 = {
                    let fields: Vec<&str> = it.collect();
                    let (seed_str, name) = fields.split_last().expect("run line fields");
                    runs.push(GoldenRun {
                        system: name.join(" "),
                        seed: 0,
                        points: Vec::new(),
                        norm_bits: 0,
                        makespan_ns: 0,
                        rounds_run: 0,
                        total_updates: 0,
                    });
                    seed_str.parse().expect("seed")
                };
                runs.last_mut().unwrap().seed = seed;
            }
            "point" => {
                let run = runs.last_mut().expect("point before run");
                let step = it.next().unwrap().parse().expect("step");
                let ns = it.next().unwrap().parse().expect("time ns");
                let bits = u64::from_str_radix(it.next().unwrap(), 16).expect("obj bits");
                let updates = it.next().unwrap().parse().expect("updates");
                run.points.push((step, ns, bits, updates));
            }
            "final" => {
                let run = runs.last_mut().expect("final before run");
                run.norm_bits = u64::from_str_radix(it.next().unwrap(), 16).expect("norm bits");
                run.makespan_ns = it.next().unwrap().parse().expect("makespan ns");
                run.rounds_run = it.next().unwrap().parse().expect("rounds");
                run.total_updates = it.next().unwrap().parse().expect("updates");
            }
            other => panic!("unknown fixture record {other:?}"),
        }
    }
    runs
}

fn capture(system: System, out: &TrainOutput, seed: u64) -> GoldenRun {
    GoldenRun {
        system: system.name().to_owned(),
        seed,
        points: out
            .trace
            .points
            .iter()
            .map(|p| {
                (
                    p.step,
                    p.time.as_nanos(),
                    p.objective.to_bits(),
                    p.total_updates,
                )
            })
            .collect(),
        norm_bits: out.model.weights().norm2().to_bits(),
        makespan_ns: out.gantt.makespan().as_nanos(),
        rounds_run: out.rounds_run,
        total_updates: out.total_updates,
    }
}

#[test]
fn every_system_reproduces_the_golden_fixture_bit_for_bit() {
    let golden = parse_fixture(GOLDEN);
    assert_eq!(
        golden.len(),
        System::ALL.len() * SEEDS.len(),
        "fixture must hold every (system, seed) pair"
    );
    let ds = golden_dataset();
    let cluster = ClusterSpec::cluster1();
    let mut idx = 0;
    for system in System::ALL {
        for seed in SEEDS {
            let expected = &golden[idx];
            idx += 1;
            assert_eq!(expected.system, system.name(), "fixture order");
            assert_eq!(expected.seed, seed, "fixture order");
            let out = system.train_default(&ds, &cluster, &golden_config(seed));
            let got = capture(system, &out, seed);
            assert_eq!(
                &got, expected,
                "{system} (seed {seed}) diverged from the pre-refactor capture"
            );
        }
    }
}

#[test]
fn round_stats_phase_times_tile_each_round() {
    let ds = golden_dataset();
    let cluster = ClusterSpec::cluster1();
    for system in System::ALL {
        let out = system.train_default(&ds, &cluster, &golden_config(42));
        assert_eq!(
            out.round_stats.len() as u64,
            out.rounds_run,
            "{system}: one RoundStats record per round run"
        );
        let mut updates = 0;
        for rs in &out.round_stats {
            assert!(
                (rs.phase_sum() - rs.elapsed_s).abs() < 1e-6,
                "{system} round {}: phases {} != elapsed {}",
                rs.round,
                rs.phase_sum(),
                rs.elapsed_s
            );
            assert!(rs.elapsed_s > 0.0, "{system}: rounds take time");
            updates += rs.updates;
        }
        assert_eq!(
            updates, out.total_updates,
            "{system}: per-round updates sum to the run total"
        );
    }
}

#[test]
fn round_stats_attribute_bytes_to_the_right_patterns() {
    let ds = golden_dataset();
    let cluster = ClusterSpec::cluster1();
    let cfg = golden_config(42);

    let per_pattern = |system: System| {
        let out = system.train_default(&ds, &cluster, &cfg);
        let mut total = mllib_star::core::CommBytes::default();
        for rs in &out.round_stats {
            total.broadcast += rs.bytes.broadcast;
            total.tree_aggregate += rs.bytes.tree_aggregate;
            total.reduce_scatter += rs.bytes.reduce_scatter;
            total.all_gather += rs.bytes.all_gather;
            total.ps_pull += rs.bytes.ps_pull;
            total.ps_push += rs.bytes.ps_push;
        }
        total
    };

    // Driver-centric MLlib: broadcast + treeAggregate only.
    let mllib = per_pattern(System::Mllib);
    assert!(mllib.broadcast > 0 && mllib.tree_aggregate > 0);
    assert_eq!(mllib.reduce_scatter + mllib.all_gather + mllib.ps_pull, 0);

    // MLlib*: AllReduce only (reduce-scatter + all-gather), no driver.
    let star = per_pattern(System::MllibStar);
    assert!(star.reduce_scatter > 0 && star.all_gather > 0);
    assert_eq!(star.broadcast + star.tree_aggregate + star.ps_push, 0);

    // Parameter servers: pull + push only.
    let petuum = per_pattern(System::Petuum);
    assert!(petuum.ps_pull > 0 && petuum.ps_push > 0);
    assert_eq!(
        petuum.broadcast + petuum.reduce_scatter + petuum.all_gather,
        0
    );
}

/// Whole parameter-server runs, pinned as the FNV-1a of `format!("{out:?}")`
/// (trace, Gantt spans, `round_stats`, model bits and counters). The
/// goldens above are unregularized, dense and at default staleness; this
/// sweep adds Petuum's per-batch GD branch (`Ω ≠ 0`, both its L2 and L1
/// arms), sparse push/pull sizing and BSP (staleness 0) for all three PS
/// systems, plus one run per system that stops early on its target
/// objective (at clock 4).
#[test]
fn ps_runs_are_pinned() {
    let ds = golden_dataset();
    let cluster = ClusterSpec::cluster1();
    let l2_reg = Regularizer::L2 { lambda: 0.1 };
    let run = |system: System, reg: Regularizer, sparse: bool, staleness: u64, target| {
        let cfg = TrainConfig {
            reg,
            target_objective: target,
            ..golden_config(42)
        };
        let ps = PsSystemConfig {
            staleness,
            sparse_messages: sparse,
            ..PsSystemConfig::default()
        };
        let angel = AngelConfig {
            staleness,
            sparse_messages: sparse,
            ..AngelConfig::default()
        };
        let out = system.train(&ds, &cluster, &cfg, &ps, &angel);
        fnv1a(format!("{out:?}").as_bytes())
    };

    // (system, L2 0.1, sparse messages, staleness, digest)
    let expected: [(System, bool, bool, u64, u64); 24] = [
        (System::Petuum, false, false, 0, 0x6bb788837cb9e630),
        (System::Petuum, false, false, 2, 0xc9b764d4e97f309b),
        (System::Petuum, false, true, 0, 0x3d5b2c2c8017fab7),
        (System::Petuum, false, true, 2, 0x58c2042e9a31ca46),
        (System::Petuum, true, false, 0, 0x9774bd9c5654c718),
        (System::Petuum, true, false, 2, 0x719500a1159bd484),
        (System::Petuum, true, true, 0, 0x9774bd9c5654c718),
        (System::Petuum, true, true, 2, 0x719500a1159bd484),
        (System::PetuumStar, false, false, 0, 0xc8e78e88f2ee7318),
        (System::PetuumStar, false, false, 2, 0x49aecfd29d397be7),
        (System::PetuumStar, false, true, 0, 0xc8e78e88f2ee7318),
        (System::PetuumStar, false, true, 2, 0x49aecfd29d397be7),
        (System::PetuumStar, true, false, 0, 0x2c68b0b195c5ebc6),
        (System::PetuumStar, true, false, 2, 0x6c89233293c09696),
        (System::PetuumStar, true, true, 0, 0x2c68b0b195c5ebc6),
        (System::PetuumStar, true, true, 2, 0x6c89233293c09696),
        (System::Angel, false, false, 0, 0xdb544a327f3de465),
        (System::Angel, false, false, 2, 0xd560035c2c9f47ca),
        (System::Angel, false, true, 0, 0x5c058a16b859c5e2),
        (System::Angel, false, true, 2, 0x7ecf1517e6da1ffa),
        (System::Angel, true, false, 0, 0x7937a742b6f8c527),
        (System::Angel, true, false, 2, 0x7d7bc352c2934508),
        (System::Angel, true, true, 0, 0x7937a742b6f8c527),
        (System::Angel, true, true, 2, 0x7d7bc352c2934508),
    ];
    let got = expected.map(|(system, l2, sparse, staleness, _)| {
        let reg = if l2 { l2_reg } else { Regularizer::None };
        let digest = run(system, reg, sparse, staleness, None);
        (system, l2, sparse, staleness, digest)
    });
    assert_eq!(got, expected);

    // L1 0.05, dense messages: pins the L1 arm of the per-batch GD step.
    let l1_reg = Regularizer::L1 { lambda: 0.05 };
    let expected: [(System, u64, u64); 6] = [
        (System::Petuum, 0, 0x56ebb559d140fff4),
        (System::Petuum, 2, 0x8b4ad607c50bb587),
        (System::PetuumStar, 0, 0x1d927261b9531ba2),
        (System::PetuumStar, 2, 0xf82d0772157e5303),
        (System::Angel, 0, 0x629b9f8c26354cb6),
        (System::Angel, 2, 0xf9fd22e4cdc6cacc),
    ];
    let got = expected.map(|(system, staleness, _)| {
        let digest = run(system, l1_reg, false, staleness, None);
        (system, staleness, digest)
    });
    assert_eq!(got, expected);

    let expected = [
        (System::Petuum, 0.45, 0x1f50a1846f5c6468),
        (System::PetuumStar, 0.93, 0x6fe8ed958c813392),
        (System::Angel, 0.45, 0xc3115fcef4aea053),
    ];
    let got = expected.map(|(system, target, _)| {
        let digest = run(system, Regularizer::None, false, 2, Some(target));
        (system, target, digest)
    });
    assert_eq!(got, expected);
}

/// A kddb-shaped parameter-server run: 29 890 features over 400 rows on
/// cluster 1, so a partition touches far fewer features than the model
/// has. Every sparse pull is then sized by the partition's distinct
/// features and never clamps to the dense size, as it does in
/// `ps_runs_are_pinned`'s 30-feature runs. Petuum (parallel SGD without a
/// penalty, one GD step with L2) and Angel run with sparse messages, and
/// each run is pinned by the FNV-1a of `format!("{out:?}")`.
#[test]
fn wide_ps_runs_pin_sparse_pulls() {
    let ds = SyntheticConfig {
        num_instances: 400,
        ..kddb_like()
    }
    .generate();
    let cluster = ClusterSpec::cluster1();
    let dense = encoded_dense_len(ds.num_features());
    let l2 = Regularizer::L2 { lambda: 0.1 };
    let ps = PsSystemConfig {
        staleness: 2,
        sparse_messages: true,
        ..PsSystemConfig::default()
    };
    let angel = AngelConfig {
        staleness: 2,
        sparse_messages: true,
        ..AngelConfig::default()
    };
    let expected = [
        (System::Petuum, Regularizer::None, 0x5726d3e4ed8ad51a),
        (System::Petuum, l2, 0xc0c4a55a1793794e),
        (System::Angel, Regularizer::None, 0x1fac256a029503d5),
        (System::Angel, l2, 0x5a39f3d9d6a44da9),
    ];
    let got = expected.map(|(system, reg, _)| {
        let cfg = TrainConfig {
            reg,
            ..golden_config(42)
        };
        let parts = system_partitions(system, &ds, &cluster, &cfg);
        let pull: usize = parts
            .iter()
            .map(|part| {
                let features: BTreeSet<usize> = part
                    .iter()
                    .flat_map(|&i| ds.rows()[i].iter().map(|(j, _)| j))
                    .collect();
                let len = encoded_sparse_len(features.len());
                assert!(len < dense, "{system}: a partition pull clamps");
                len
            })
            .sum();
        let out = system.train(&ds, &cluster, &cfg, &ps, &angel);
        assert_eq!(out.round_stats.len() as u64, cfg.max_rounds, "{system}");
        for stats in &out.round_stats {
            assert_eq!(stats.bytes.ps_pull, pull as u64, "{system} {reg:?}");
            if reg == Regularizer::None {
                // Loss-only deltas push sparse, below the dense size.
                assert!(stats.bytes.ps_push < (parts.len() * dense) as u64);
            }
        }
        (system, reg, fnv1a(format!("{out:?}").as_bytes()))
    });
    assert_eq!(got, expected);
}

/// A run that stops by itself between two `eval_every` points still ends
/// its trace on the model it returns: the last point is at `rounds_run`,
/// timed at the end of the last counted round, and it is the point an
/// every-round trace of the same run records there. (spark.ml's trace
/// reuses its line search's partition-weighted objective, which may differ
/// from a full-dataset evaluation in the last bits.)
#[test]
fn early_stop_traces_the_returned_model() {
    let ds = golden_dataset();
    let cluster = ClusterSpec::cluster1();
    for eval_every in [4, 7] {
        let cfg = TrainConfig {
            loss: Loss::Logistic,
            reg: Regularizer::L2 { lambda: 0.5 },
            max_rounds: 60,
            eval_every,
            ..golden_config(42)
        };
        let out = System::SparkMl.train_default(&ds, &cluster, &cfg);
        let every_round = TrainConfig {
            eval_every: 1,
            ..cfg.clone()
        };
        let reference = System::SparkMl.train_default(&ds, &cluster, &every_round);
        assert!(!out.converged && out.rounds_run < cfg.max_rounds);
        assert_eq!(out.rounds_run, reference.rounds_run);
        assert_eq!(out.model.weights(), reference.model.weights());

        let last = out.trace.points.last().unwrap();
        assert_eq!(last.step, out.rounds_run, "eval_every {eval_every}");
        assert_eq!(last, reference.trace.points.last().unwrap());
        assert_eq!(
            last.objective.to_bits(),
            reference.trace.final_objective().unwrap().to_bits()
        );
        let f = objective_value(
            cfg.loss,
            cfg.reg,
            out.model.weights(),
            ds.rows(),
            ds.labels(),
        );
        assert!(
            (last.objective - f).abs() < 1e-12,
            "{} vs {f}",
            last.objective
        );
    }
}

/// The FNV-1a of `format!("{out:?}")` — every trace point, round stat,
/// Gantt span and weight — for the BSP cells the golden fixture leaves
/// out: penalties, partition-size weighting on skewed partitions, a
/// narrow tree, executor waves, compressed AllReduce with and without
/// error feedback, and a stop on the target objective. spark.ml's rows add
/// logistic L2 and L1 runs and the two exits of its own: a vanishing
/// gradient and an exhausted line search.
#[test]
fn bsp_runs_are_pinned() {
    let ds = golden_dataset();
    let cluster = ClusterSpec::cluster1();
    let base = golden_config(42);
    let (mllib, ma, star) = (System::Mllib, System::MllibMa, System::MllibStar);
    let with_reg = |reg| TrainConfig {
        reg,
        ..base.clone()
    };
    let none = Regularizer::None;
    let l2 = Regularizer::L2 { lambda: 0.1 };
    let l1 = Regularizer::L1 { lambda: 0.05 };
    let weighted = TrainConfig {
        ma_weighting: MaWeighting::PartitionSize,
        partition_skew: Some(0.6),
        ..base.clone()
    };
    let fanin2 = TrainConfig {
        tree_fanin: 2,
        ..base.clone()
    };
    let waves2 = TrainConfig {
        waves: 2,
        ..base.clone()
    };
    let with_comm = |compression| TrainConfig {
        compression,
        ..base.clone()
    };
    let lossless = CompressionConfig {
        switch: FrameSwitch::Adaptive,
        ..CompressionConfig::default()
    };
    let lossy = CompressionConfig {
        switch: FrameSwitch::Adaptive,
        sparsifier: Sparsifier::TopK { k: 8 },
        quantize: true,
        error_feedback: true,
    };
    let target = |t| TrainConfig {
        target_objective: Some(t),
        ..base.clone()
    };
    let logistic = |reg| TrainConfig {
        loss: Loss::Logistic,
        reg,
        ..base.clone()
    };
    // spark.ml stops by itself here: its gradient norm falls to 1e-8
    // after 6 of 60 rounds, between two `eval_every` points. Under L1 0.05
    // (the "line-search" row) its first line search is exhausted instead.
    let early_stop = TrainConfig {
        max_rounds: 60,
        eval_every: 4,
        ..logistic(Regularizer::L2 { lambda: 0.5 })
    };
    let l1_weak = Regularizer::L1 { lambda: 0.005 };
    // spark.ml ignores `partition_skew`, `waves` and `failure_prob` (0.15
    // in `base`), so its weighted and waves2 rows share the none digest.
    let sparkml = System::SparkMl;

    let cases: [(&str, System, TrainConfig, u64); 30] = [
        ("none", mllib, with_reg(none), 0x4ea7fa4a02643b04),
        ("none", ma, with_reg(none), 0x8881cf7f0784611c),
        ("none", star, with_reg(none), 0xb37630058f799ddb),
        ("l2", mllib, with_reg(l2), 0x410b422955e88368),
        ("l2", ma, with_reg(l2), 0xb8820cd32110e2c8),
        ("l2", star, with_reg(l2), 0x5483d40728743665),
        ("l1", mllib, with_reg(l1), 0xab16ecb70c5309fe),
        ("l1", ma, with_reg(l1), 0x84570b8d880d87f4),
        ("l1", star, with_reg(l1), 0x685b85e1d0b867ee),
        ("weighted", ma, weighted.clone(), 0x34e5a4db33c81675),
        ("weighted", star, weighted.clone(), 0x2689c660c487d453),
        ("fanin2", mllib, fanin2.clone(), 0x90c4f9ee45ab52c6),
        ("fanin2", ma, fanin2.clone(), 0xd90ac93cca43b1e2),
        ("waves2", mllib, waves2.clone(), 0x381a1dd55f2a104c),
        ("waves2", ma, waves2.clone(), 0xcdf27db00b292ffa),
        ("waves2", star, waves2.clone(), 0x535c1001346b57b8),
        ("lossless", star, with_comm(lossless), 0xe67c36c673e12cc2),
        ("lossy-ef", star, with_comm(lossy), 0x25029eb0973920da),
        ("target", mllib, target(0.975), 0xff7e193c1be38250),
        ("target", ma, target(0.5), 0xb0fa5372f9f3cc59),
        ("target", star, target(0.66), 0x624531c33a84c5f5),
        ("none", sparkml, with_reg(none), 0x986a673297698c23),
        ("l2-logistic", sparkml, logistic(l2), 0x0ce46843861d81bd),
        (
            "l1-logistic",
            sparkml,
            logistic(l1_weak),
            0x6f59ddc1ef9d08ae,
        ),
        ("weighted", sparkml, weighted, 0x986a673297698c23),
        ("fanin2", sparkml, fanin2, 0x60da66d96e1daa14),
        ("waves2", sparkml, waves2, 0x986a673297698c23),
        ("target", sparkml, target(0.35), 0x55d5ad66abb10d85),
        ("early-stop", sparkml, early_stop, 0x7d1930b07771d5f5),
        ("line-search", sparkml, logistic(l1), 0xe0a249ecc1c64657),
    ];
    let got = cases.each_ref().map(|(label, system, cfg, _)| {
        let out = system.train_default(&ds, &cluster, cfg);
        if cfg.target_objective.is_some() {
            assert!(
                out.converged && out.rounds_run < cfg.max_rounds,
                "{label} {system}: must stop early ({} rounds)",
                out.rounds_run
            );
        }
        if matches!(*label, "early-stop" | "line-search") {
            assert!(
                !out.converged && out.rounds_run < cfg.max_rounds,
                "{label} {system}: must stop by itself ({} rounds)",
                out.rounds_run
            );
        }
        (*label, *system, fnv1a(format!("{out:?}").as_bytes()))
    });
    let expected = cases
        .each_ref()
        .map(|(label, system, _, digest)| (*label, *system, *digest));
    assert_eq!(got, expected);
}
