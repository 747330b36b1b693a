//! Cross-crate integration tests: the seven systems end to end on planted
//! problems, exercising data generation, partitioning, the simulated
//! cluster, collectives, the PS engine, and the trainers together.

use mllib_star::core::{ConvergenceTrace, System, TrainConfig};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::{accuracy, LearningRate, Loss, Regularizer};
use mllib_star::sim::{ClusterSpec, NodeId};

fn dataset() -> mllib_star::data::SparseDataset {
    let mut cfg = SyntheticConfig::small("integration", 400, 60);
    cfg.margin_noise = 0.05;
    cfg.flip_prob = 0.0;
    cfg.generate()
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::None,
        lr: LearningRate::Constant(0.05),
        max_rounds: 12,
        ..TrainConfig::default()
    }
}

#[test]
fn all_six_systems_reduce_the_objective() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    for system in System::ALL {
        let cfg = match system {
            // SendGradient takes one update per round; give it bigger steps.
            System::Mllib => TrainConfig {
                lr: LearningRate::Constant(1.0),
                batch_frac: 0.2,
                max_rounds: 60,
                ..base_cfg()
            },
            System::Angel => TrainConfig {
                lr: LearningRate::Constant(0.05 / 8.0),
                batch_frac: 0.2,
                ..base_cfg()
            },
            // Per-batch systems need non-trivial batches and more clocks.
            System::Petuum | System::PetuumStar => TrainConfig {
                batch_frac: 0.5,
                max_rounds: 40,
                ..base_cfg()
            },
            _ => base_cfg(),
        };
        let out = system.train_default(&ds, &cluster, &cfg);
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(
            best < first * 0.8,
            "{system}: objective {first} → {best} did not improve enough"
        );
        assert!(out.trace.points.iter().all(|p| p.objective.is_finite()));
    }
}

/// A zero-round run trains nothing on every system, parameter servers
/// included: the step-0 trace point at the zero model, no rounds and no
/// per-round telemetry.
#[test]
fn zero_round_runs_return_the_zero_model_on_every_system() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        max_rounds: 0,
        ..base_cfg()
    };
    let reference = System::Mllib.train_default(&ds, &cluster, &cfg);
    assert_eq!(reference.trace.points.len(), 1);
    assert_eq!(reference.trace.points[0].step, 0);
    for system in System::ALL {
        let out = system.train_default(&ds, &cluster, &cfg);
        assert_eq!(out.trace.points, reference.trace.points, "{system}");
        assert_eq!(
            (out.rounds_run, out.total_updates, out.converged),
            (0, 0, false),
            "{system}"
        );
        assert!(out.round_stats.is_empty(), "{system}");
        let weights = out.model.weights().as_slice();
        assert_eq!(weights.len(), ds.num_features(), "{system}");
        assert!(weights.iter().all(|w| w.to_bits() == 0), "{system}");
    }
}

#[test]
fn mllib_star_matches_mllib_ma_per_step_but_is_faster() {
    // AllReduce changes *where* averaging happens, not *what* is computed:
    // identical seeds must give identical objective-vs-step curves, with
    // MLlib* strictly faster in simulated time.
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    // Few rounds with a loose-ish tolerance: the two systems sum the same
    // values in different orders (tree vs. slice-wise), and hinge SGD
    // amplifies ulp-level differences — a single example whose margin sits
    // on the hinge boundary can flip, contributing an O(η/n) objective gap
    // in that round. The tolerance must cover a few such flips (which
    // seeds they occur under depends on the RNG stream).
    let cfg = TrainConfig {
        max_rounds: 3,
        ..base_cfg()
    };
    let ma = System::MllibMa.train_default(&ds, &cluster, &cfg);
    let star = System::MllibStar.train_default(&ds, &cluster, &cfg);
    assert_eq!(ma.trace.points.len(), star.trace.points.len());
    for (a, b) in ma.trace.points.iter().zip(star.trace.points.iter()) {
        assert_eq!(a.step, b.step);
        assert!(
            (a.objective - b.objective).abs() < 1e-3,
            "step {}: {} vs {}",
            a.step,
            a.objective,
            b.objective
        );
        assert_eq!(a.total_updates, b.total_updates);
    }
    let t_ma = ma.trace.points.last().unwrap().time;
    let t_star = star.trace.points.last().unwrap().time;
    assert!(t_star < t_ma, "AllReduce must cut per-step latency");
}

#[test]
fn sendmodel_converges_in_fewer_steps_than_sendgradient() {
    // Larger dataset so one SendModel step carries ~200 local updates per
    // worker — the regime where the paradigm gap is visible.
    let mut gen = SyntheticConfig::small("sendmodel-gap", 1600, 60);
    gen.margin_noise = 0.05;
    gen.flip_prob = 0.0;
    let ds = gen.generate();
    let cluster = ClusterSpec::cluster1();
    let target = 0.2;
    let star = System::MllibStar.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            max_rounds: 40,
            ..base_cfg()
        },
    );
    let mllib = System::Mllib.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            lr: LearningRate::Constant(1.0),
            batch_frac: 0.05,
            max_rounds: 400,
            ..base_cfg()
        },
    );
    let star_steps = star
        .trace
        .steps_to_reach(target)
        .expect("MLlib* reaches the target");
    match mllib.trace.steps_to_reach(target) {
        Some(mllib_steps) => assert!(
            mllib_steps >= 3 * star_steps,
            "expected ≥3× step gap, got MLlib {mllib_steps} vs MLlib* {star_steps}"
        ),
        None => { /* stronger still */ }
    }
}

#[test]
fn driver_participates_only_in_driver_centric_systems() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        max_rounds: 3,
        ..base_cfg()
    };
    let ma = System::MllibMa.train_default(&ds, &cluster, &cfg);
    assert!(ma.gantt.busy_time(NodeId::Driver) > 0.0);
    let star = System::MllibStar.train_default(&ds, &cluster, &cfg);
    assert_eq!(star.gantt.busy_time(NodeId::Driver), 0.0);
}

#[test]
fn trained_models_classify_well() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let out = System::MllibStar.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            max_rounds: 30,
            ..base_cfg()
        },
    );
    let acc = accuracy(out.model.weights(), ds.rows(), ds.labels());
    assert!(acc > 0.95, "accuracy {acc}");
}

#[test]
fn whole_pipeline_is_deterministic() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        max_rounds: 6,
        ..base_cfg()
    };
    for system in System::ALL {
        let a = system.train_default(&ds, &cluster, &cfg);
        let b = system.train_default(&ds, &cluster, &cfg);
        assert_eq!(a.trace, b.trace, "{system} trace must be reproducible");
        assert_eq!(
            a.model.weights().as_slice(),
            b.model.weights().as_slice(),
            "{system} model must be reproducible"
        );
        assert_eq!(a.gantt.spans().len(), b.gantt.spans().len());
    }
}

#[test]
fn traces_serialize_to_csv() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let out = System::MllibStar.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            max_rounds: 3,
            ..base_cfg()
        },
    );
    let csv = out.trace.to_csv();
    assert!(csv.lines().count() >= 4);
    assert!(csv.starts_with("system,workload,step,"));
    // Parse a round-trip of the numbers.
    let reparsed: ConvergenceTrace = {
        let mut t = ConvergenceTrace::new("x", "y");
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            t.push(mllib_star::core::TracePoint {
                step: cells[2].parse().unwrap(),
                time: mllib_star::sim::SimTime::ZERO
                    + mllib_star::sim::SimDuration::from_secs_f64(cells[3].parse().unwrap()),
                objective: cells[4].parse().unwrap(),
                total_updates: cells[5].parse().unwrap(),
            });
        }
        t
    };
    assert_eq!(reparsed.points.len(), out.trace.points.len());
}

/// The comm contract (`exhibit comm --quick` asserts the same on the same
/// run): on an L1 run that converges onto a sparse support, the lossless
/// adaptive dense↔sparse switch changes bytes, never math.
#[test]
fn adaptive_frames_match_dense_bit_for_bit_at_a_fifth_of_the_bytes() {
    use mllib_star::collectives::{CompressionConfig, FrameSwitch};
    use mllib_star::sim::{NetworkSpec, NodeSpec};

    let mut syn = SyntheticConfig::small("comm-bench", 240, 256);
    syn.informative_features = 256 / 32;
    syn.popular_fraction = 0.9;
    let ds = syn.generate();
    let cluster = ClusterSpec::uniform(4, NodeSpec::standard(), NetworkSpec::gbps1());
    let run = |switch: FrameSwitch| {
        let cfg = TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::L1 { lambda: 0.2 },
            lr: LearningRate::InvSqrt(0.1),
            max_rounds: 6,
            seed: 42,
            compression: CompressionConfig {
                switch,
                ..CompressionConfig::default()
            },
            ..TrainConfig::default()
        };
        let out = System::MllibStar.train_default(&ds, &cluster, &cfg);
        let bits: Vec<u64> = out
            .model
            .weights()
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect();
        let bytes: u64 = out.round_stats.iter().map(|rs| rs.bytes.total()).sum();
        (bits, bytes)
    };
    let (dense_bits, dense_bytes) = run(FrameSwitch::Dense);
    let (adaptive_bits, adaptive_bytes) = run(FrameSwitch::Adaptive);
    assert_eq!(
        adaptive_bits, dense_bits,
        "the lossless switch changed the model"
    );
    assert!(
        adaptive_bytes * 5 <= dense_bytes,
        "adaptive moved {adaptive_bytes} bytes, dense {dense_bytes}: less than 5× fewer"
    );
}
