//! Integration tests for the serving subsystem's two headline guarantees:
//!
//! 1. **Shard-count invariance** — the micro-batched scoring engine
//!    produces bit-identical predictions and identical batch-formation
//!    telemetry (fill, queue depth) whether it runs on 1, 2, or 8 worker
//!    shards. Batching is a pure function of arrivals and policy; shards
//!    only split the dot-product work. The complete `ServeRun` of each
//!    shard count × batch size is pinned by digest as well.
//! 2. **Artifact fidelity** — for every one of the seven training
//!    systems, a model encoded to the binary artifact format and decoded
//!    back scores identically (to the bit) to the in-memory model, and
//!    the recorded provenance names the system unambiguously.

use std::str::FromStr;

use mllib_star::codec::fnv1a;
use mllib_star::core::{System, TrainConfig, TrainProvenance};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::{fit_path, GlmModel, Loss, PathConfig, PathPoint};
use mllib_star::linalg::CscMatrix;
use mllib_star::serve::{
    BatchPolicy, DatasetFingerprint, ModelArtifact, ModelRegistry, QueryWorkload, ScoreRequest,
    ScoringEngine,
};
use mllib_star::sim::ClusterSpec;

fn train_cfg(rounds: u64) -> TrainConfig {
    TrainConfig {
        max_rounds: rounds,
        seed: 42,
        ..TrainConfig::default()
    }
}

/// A 5-round MLlib\* model and a fixed 700-request stream drawn from its
/// training set.
fn sweep_fixture() -> (ModelArtifact, Vec<ScoreRequest>) {
    let ds = SyntheticConfig::small("serve-det", 900, 64).generate();
    let cluster = ClusterSpec::cluster1();
    let out = System::MllibStar.train_default(&ds, &cluster, &train_cfg(5));
    let artifact =
        ModelArtifact::from_run(System::MllibStar, &train_cfg(5), &out, &ds).expect("artifact");
    let requests = QueryWorkload {
        num_requests: 700,
        ..QueryWorkload::default()
    }
    .generate(&ds);
    (artifact, requests)
}

#[test]
fn shard_sweep_yields_identical_predictions_and_batching() {
    let (artifact, requests) = sweep_fixture();

    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&shards| {
            let engine = ScoringEngine::for_artifact(&artifact, BatchPolicy::default(), shards);
            assert_eq!(engine.shards(), shards);
            engine.run(&requests).expect("serve run")
        })
        .collect();

    let baseline = &runs[0];
    assert_eq!(baseline.predictions.len(), requests.len());
    for run in &runs[1..] {
        // Bit-exact prediction equality: ids, margins, probabilities, labels.
        assert_eq!(baseline.predictions.len(), run.predictions.len());
        for (a, b) in baseline.predictions.iter().zip(&run.predictions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.margin.to_bits(), b.margin.to_bits());
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            assert_eq!(a.label, b.label);
        }

        // Batch formation is shard-independent: same batch boundaries,
        // fill fractions, queue depths, and close/service times.
        let shape = |r: &mllib_star::serve::ServeRun| {
            r.telemetry
                .batches
                .iter()
                .map(|b| {
                    (
                        b.index,
                        b.size,
                        b.fill.to_bits(),
                        b.queue_depth_at_close,
                        b.close,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(baseline), shape(run));
        assert_eq!(
            baseline.telemetry.queue.count(),
            run.telemetry.queue.count()
        );
        assert_eq!(
            baseline.telemetry.queue.p99().to_bits(),
            run.telemetry.queue.p99().to_bits(),
            "queue latency is measured on the virtual clock and must not vary with shards"
        );
    }

    // And the whole pipeline is reproducible run-over-run.
    let engine = ScoringEngine::for_artifact(&artifact, BatchPolicy::default(), 8);
    let again = engine.run(&requests).expect("second run");
    assert_eq!(baseline.predictions, again.predictions);
}

/// The whole `ServeRun` is pinned, not just its shard-invariant part:
/// every prediction and every `BatchRecord` field (`score_s`, `merge_s`,
/// `done`, ...) plus the three histograms, as the FNV-1a of its `Debug`
/// form. The sweep covers more shards than a batch holds (`max_batch` 1,
/// and the short deadline-closed batches), so some shards get no rows.
#[test]
fn whole_serve_runs_are_pinned() {
    let (artifact, requests) = sweep_fixture();
    let expected: [(usize, usize, u64); 12] = [
        (1, 1, 0xaeebd685c98a6a57),
        (1, 32, 0x55b5fcb21bcf24a8),
        (1, 256, 0x503b2a874c3c5fb3),
        (2, 1, 0xaeebd685c98a6a57),
        (2, 32, 0x055d11b55a3bf8c1),
        (2, 256, 0x80b6d8ccca0355d2),
        (3, 1, 0xaeebd685c98a6a57),
        (3, 32, 0x71e2da67a5eee8be),
        (3, 256, 0xcfb88cdd430f7946),
        (8, 1, 0xaeebd685c98a6a57),
        (8, 32, 0x3456ba4a84522559),
        (8, 256, 0x1f63f931223370a4),
    ];
    let got = expected.map(|(shards, max_batch, _)| {
        let policy = BatchPolicy {
            max_batch,
            ..BatchPolicy::default()
        };
        let run = ScoringEngine::for_artifact(&artifact, policy, shards)
            .run(&requests)
            .expect("serve run");
        assert_eq!(run.predictions.len(), requests.len());
        (shards, max_batch, fnv1a(format!("{run:?}").as_bytes()))
    });
    assert_eq!(got, expected);
}

#[test]
fn artifact_roundtrip_is_exact_for_all_seven_systems() {
    let ds = SyntheticConfig::small("serve-artifacts", 400, 48).generate();
    let cluster = ClusterSpec::cluster1();
    let cfg = train_cfg(3);
    let probe = QueryWorkload {
        num_requests: 64,
        ..QueryWorkload::default()
    }
    .generate(&ds);

    for system in System::ALL {
        let out = system.train_default(&ds, &cluster, &cfg);
        let artifact = ModelArtifact::from_run(system, &cfg, &out, &ds)
            .unwrap_or_else(|e| panic!("{system}: artifact build failed: {e}"));

        // Codec round trip is exact: equality covers weights (bit-wise via
        // PartialEq on f64), fingerprint, and provenance.
        let decoded = ModelArtifact::decode(&artifact.encode())
            .unwrap_or_else(|e| panic!("{system}: decode failed: {e}"));
        assert_eq!(decoded, artifact, "{system}: artifact round trip");
        assert_eq!(decoded.fingerprint(), &DatasetFingerprint::of(&ds));

        // The decoded model scores bit-identically to the in-memory one.
        let live = ScoringEngine::new(out.model.clone(), BatchPolicy::default(), 2)
            .run(&probe)
            .expect("live run");
        let thawed = ScoringEngine::for_artifact(&decoded, BatchPolicy::default(), 2)
            .run(&probe)
            .expect("thawed run");
        assert_eq!(
            live.predictions, thawed.predictions,
            "{system}: scoring drift"
        );

        // Provenance names the system via its canonical Display form, which
        // parses back to the same variant.
        assert_eq!(decoded.provenance().system, system.to_string());
        assert_eq!(
            System::from_str(&decoded.provenance().system).ok(),
            Some(system),
            "{system}: provenance string must round-trip through FromStr"
        );
        assert_eq!(decoded.provenance().seed, cfg.seed);
    }
}

/// Wraps one lambda-path point as a serving artifact, recording the
/// coordinate-descent work counters as its provenance.
fn artifact_for_point(point: &PathPoint, ds: &mllib_star::data::SparseDataset) -> ModelArtifact {
    let model = GlmModel::from_weights(point.weights.clone());
    let provenance = TrainProvenance {
        system: System::MllibStar.to_string(),
        seed: 42,
        rounds_run: point.stats.sweeps as u64,
        total_updates: point.stats.coord_updates,
        converged: point.stats.converged,
        final_objective: Some(point.objective),
        host_threads: 1,
    };
    ModelArtifact::new(&model, DatasetFingerprint::of(ds), provenance).expect("artifact")
}

/// A lasso-path model is the one model family whose weights contain
/// *exact* zeros (the prox clamps, it doesn't round). The artifact codec
/// and registry must carry those zeros — and everything else — bit-for-bit
/// through encode/decode, a staged rollout, and scoring.
#[test]
fn path_trained_l1_model_roundtrips_through_registry_and_scoring() {
    let ds = SyntheticConfig::small("serve-path", 300, 40).generate();
    let cols = CscMatrix::from_rows(ds.rows(), ds.num_features());
    let cfg = PathConfig {
        n_lambdas: 8,
        ..PathConfig::default()
    };
    let path = fit_path(&Loss::Logistic, &cols, ds.labels(), &cfg).expect("lasso path");

    // A sparse point (strong λ, exact zeros present) and the densest one.
    let sparse_point = path
        .points
        .iter()
        .find(|p| p.nnz > 0 && p.nnz < ds.num_features())
        .expect("a genuinely sparse path point");
    let zeros = |a: &ModelArtifact| a.weights().as_slice().iter().filter(|&&w| w == 0.0).count();
    let dense_point = path.points.last().expect("path is nonempty");
    let v1_artifact = artifact_for_point(sparse_point, &ds);
    let v2_artifact = artifact_for_point(dense_point, &ds);
    assert!(
        zeros(&v1_artifact) > 0,
        "sparse point must have exact zeros"
    );

    // Codec hash stability: encode → decode → encode is byte-identical,
    // and every weight (zeros included) survives bit-exactly.
    let bytes = v1_artifact.encode();
    let decoded = ModelArtifact::decode(&bytes).expect("decode");
    assert_eq!(decoded, v1_artifact, "artifact round trip");
    assert_eq!(decoded.encode(), bytes, "re-encode must be byte-identical");
    for (a, b) in v1_artifact
        .weights()
        .as_slice()
        .iter()
        .zip(decoded.weights().as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(zeros(&decoded), zeros(&v1_artifact));

    // Staged rollout: v1 activates, v2 stages, promotion swaps them in.
    let mut registry = ModelRegistry::new();
    let v1 = registry
        .publish("path-l1", v1_artifact.clone())
        .expect("publish v1");
    let v2 = registry
        .publish("path-l1", v2_artifact.clone())
        .expect("publish v2");
    assert_eq!(registry.active("path-l1").expect("active"), &v1_artifact);
    assert_eq!(
        registry.staged("path-l1").expect("staged"),
        Some(&v2_artifact)
    );
    registry.promote("path-l1").expect("promote");
    assert_eq!(registry.active("path-l1").expect("active"), &v2_artifact);

    // The registry codec preserves both versions bit-exactly.
    let thawed_registry = ModelRegistry::decode(&registry.encode()).expect("registry decode");
    assert_eq!(
        thawed_registry.get("path-l1", v1).expect("v1"),
        &v1_artifact
    );
    assert_eq!(
        thawed_registry.get("path-l1", v2).expect("v2"),
        &v2_artifact
    );

    // Prediction stability: the model scored live, and the same model
    // pulled back out of the round-tripped registry, agree to the bit.
    let probe = QueryWorkload {
        num_requests: 96,
        ..QueryWorkload::default()
    }
    .generate(&ds);
    let live = ScoringEngine::new(
        GlmModel::from_weights(sparse_point.weights.clone()),
        BatchPolicy::default(),
        2,
    )
    .run(&probe)
    .expect("live run");
    let thawed = ScoringEngine::for_artifact(
        thawed_registry.get("path-l1", v1).expect("v1"),
        BatchPolicy::default(),
        2,
    )
    .run(&probe)
    .expect("thawed run");
    assert_eq!(live.predictions.len(), probe.len());
    for (a, b) in live.predictions.iter().zip(&thawed.predictions) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.margin.to_bits(), b.margin.to_bits());
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        assert_eq!(a.label, b.label);
    }
}
