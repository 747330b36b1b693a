//! Simulated ↔ real-thread equivalence: every system trained through the
//! `mlstar-net` backend must reproduce the simulated run bit-for-bit —
//! same convergence trace, same per-round telemetry, same final weights —
//! on both the in-process channel transport and loopback TCP. A killed
//! worker must surface as a typed error, without a hang and without a
//! partial `TrainOutput`, and must not poison subsequent runs.

use mllib_star::core::{
    AngelConfig, CompressionConfig, FrameSwitch, PsSystemConfig, Sparsifier, System, TrainConfig,
};
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::net::{train_net, KillSpec, NetConfig, NetError, TransportKind};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};

fn dataset() -> SparseDataset {
    SyntheticConfig::small("net-equivalence", 120, 16).generate()
}

fn cluster() -> ClusterSpec {
    ClusterSpec::uniform(3, NodeSpec::standard(), NetworkSpec::gbps1())
}

fn cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        loss: Loss::Hinge,
        lr: LearningRate::InvSqrt(0.1),
        max_rounds: 3,
        seed,
        ..TrainConfig::default()
    }
}

/// Trains `system` both ways and asserts the outputs are bit-identical.
fn assert_sim_net_identical(
    system: System,
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    net_cfg: &NetConfig,
) {
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();
    let sim = system.train(ds, cluster, cfg, &ps, &angel);
    let net = train_net(system, ds, cluster, cfg, &ps, &angel, net_cfg)
        .unwrap_or_else(|e| panic!("net run failed for {}: {e}", system.name()));
    let label = format!("{} (seed {})", system.name(), cfg.seed);
    assert_eq!(sim.trace, net.output.trace, "trace diverged: {label}");
    assert_eq!(sim.model, net.output.model, "weights diverged: {label}");
    assert_eq!(
        sim.round_stats, net.output.round_stats,
        "round telemetry diverged: {label}"
    );
    assert_eq!(sim.total_updates, net.output.total_updates, "{label}");
    assert_eq!(sim.rounds_run, net.output.rounds_run, "{label}");
    assert!(
        !net.batches.is_empty(),
        "net run recorded no dispatch batches: {label}"
    );
    assert!(net.wall_s > 0.0, "{label}");
}

#[test]
fn all_systems_bit_identical_on_channels_two_seeds() {
    let ds = dataset();
    let cluster = cluster();
    for system in System::ALL {
        for seed in [42, 7] {
            assert_sim_net_identical(system, &ds, &cluster, &cfg(seed), &NetConfig::default());
        }
    }
}

#[test]
fn all_systems_bit_identical_on_loopback_tcp() {
    let ds = dataset();
    let cluster = cluster();
    let net_cfg = NetConfig {
        transport: TransportKind::Tcp,
        ..NetConfig::default()
    };
    for system in System::ALL {
        assert_sim_net_identical(system, &ds, &cluster, &cfg(42), &net_cfg);
    }
}

#[test]
fn one_executor_runs_on_the_orchestrating_thread_alone() {
    // With k = 1 the only worker is the local one: no thread is spawned
    // and no connection accepted, on either transport.
    let ds = dataset();
    let cluster = ClusterSpec::uniform(1, NodeSpec::standard(), NetworkSpec::gbps1());
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let net_cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        for system in System::ALL {
            assert_sim_net_identical(system, &ds, &cluster, &cfg(42), &net_cfg);
        }
    }
}

#[test]
fn l2_regularized_runs_bit_identical() {
    // L2 exercises the lazy-scaled SGD path and flips Petuum/Petuum* to
    // the per-step MGD op with orchestrator-evaluated step sizes.
    let ds = dataset();
    let cluster = cluster();
    let cfg = TrainConfig {
        reg: Regularizer::L2 { lambda: 0.1 },
        ..cfg(42)
    };
    for system in [
        System::MllibStar,
        System::Petuum,
        System::PetuumStar,
        System::Angel,
    ] {
        assert_sim_net_identical(system, &ds, &cluster, &cfg, &NetConfig::default());
    }
}

#[test]
fn skewed_partitions_bit_identical() {
    let ds = dataset();
    let cluster = cluster();
    let cfg = TrainConfig {
        partition_skew: Some(0.6),
        ..cfg(42)
    };
    for system in [System::MllibMa, System::MllibStar] {
        assert_sim_net_identical(system, &ds, &cluster, &cfg, &NetConfig::default());
    }
}

#[test]
fn compressed_runs_bit_identical_sim_vs_net() {
    // With compression on, the trainer folds *decoded* frames on both
    // paths and the protocol ships adaptively-encoded model payloads, so
    // sim and net must still agree bit for bit — first with the lossless
    // exact-sparse switch (L1 keeps the model genuinely sparse), then
    // with lossy top-k + quantization + error feedback (the residual
    // state lives with the orchestrator either way).
    let ds = dataset();
    let cluster = cluster();
    let exact = TrainConfig {
        reg: Regularizer::L1 { lambda: 0.01 },
        compression: CompressionConfig {
            switch: FrameSwitch::Adaptive,
            ..CompressionConfig::default()
        },
        ..cfg(42)
    };
    assert_sim_net_identical(
        System::MllibStar,
        &ds,
        &cluster,
        &exact,
        &NetConfig::default(),
    );
    let lossy = TrainConfig {
        compression: CompressionConfig {
            switch: FrameSwitch::Adaptive,
            sparsifier: Sparsifier::TopK { k: 8 },
            quantize: true,
            ..CompressionConfig::default()
        },
        ..cfg(7)
    };
    assert_sim_net_identical(
        System::MllibStar,
        &ds,
        &cluster,
        &lossy,
        &NetConfig::default(),
    );
}

#[test]
fn killed_worker_is_typed_and_does_not_poison_later_runs() {
    let ds = dataset();
    let cluster = cluster();
    let cfg = cfg(42);
    let kill_cfg = NetConfig {
        kill: Some(KillSpec {
            batch: 1,
            worker: 2,
        }),
        ..NetConfig::default()
    };
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();

    // The kill surfaces as a typed error — no hang, no partial output.
    let err = train_net(
        System::MllibStar,
        &ds,
        &cluster,
        &cfg,
        &ps,
        &angel,
        &kill_cfg,
    )
    .expect_err("killed worker must fail the run");
    assert!(
        matches!(err, NetError::WorkerLost { worker: 2 }),
        "expected WorkerLost{{worker: 2}}, got {err:?}"
    );

    // A fresh run right after the failure still matches the simulation:
    // the failure left no global state behind.
    assert_sim_net_identical(
        System::MllibStar,
        &ds,
        &cluster,
        &cfg,
        &NetConfig::default(),
    );
}

#[test]
fn tcp_kill_is_also_typed() {
    // A linked worker (0) and the local one (2 of 3, which runs on the
    // orchestrating thread) are each lost at batch 0 as a typed error.
    let ds = dataset();
    let cluster = cluster();
    let cfg = cfg(7);
    for worker in [0, 2] {
        let kill_cfg = NetConfig {
            transport: TransportKind::Tcp,
            kill: Some(KillSpec { batch: 0, worker }),
        };
        let err = train_net(
            System::Mllib,
            &ds,
            &cluster,
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &kill_cfg,
        )
        .expect_err("killed worker must fail the run");
        assert!(
            matches!(err, NetError::WorkerLost { worker: w } if w == worker),
            "{err:?}"
        );
    }
}
