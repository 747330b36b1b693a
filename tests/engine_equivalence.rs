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

use mllib_star::codec::fnv1a;
use mllib_star::core::{AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput};
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
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
/// sweep adds Petuum's per-batch GD branch (`Ω ≠ 0`), sparse push/pull
/// sizing and BSP (staleness 0) for all three PS systems, plus one run
/// per system that stops early on its target objective (at clock 4).
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
