//! Exercises the `mlstar-serve` subsystem end to end: trains a model,
//! packages it as a versioned artifact, walks a staged rollout through
//! the registry, scores a seeded open-loop workload at several worker
//! shard counts, and reports the serving telemetry (batch fill, queue
//! depth, queue/score/merge latency percentiles, throughput).
//!
//! The shard sweep doubles as a live determinism check: predictions and
//! batch-formation telemetry must be identical at every shard count.

use mlstar_core::{System, TrainConfig};
use mlstar_data::SyntheticConfig;
use mlstar_serve::{
    BatchPolicy, LatencyHistogram, ModelArtifact, ModelRegistry, Prediction, QueryWorkload,
    ScoringEngine, ServeError,
};
use mlstar_sim::ClusterSpec;

use crate::cli::{Args, Failure, Flag};
use crate::report::{banner, fmt_opt, write_json, Json, Table};

const SHARD_SWEEP: [usize; 3] = [1, 2, 8];

pub(super) const FLAGS: &[Flag] = &[
    super::DATASET_FLAG,
    ("--requests", "<n>", "workload size (default 2048)"),
];

fn percentiles(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("p50", h.p50().into()),
        ("p95", h.p95().into()),
        ("p99", h.p99().into()),
    ])
}

/// Runs the serve exhibit.
pub fn run(args: &Args) -> Result<(), Failure> {
    let dataset_name: String = args.get("--dataset", "synthetic".to_owned())?;
    let num_requests: usize = args.get("--requests", 2048)?;
    let ds = super::named_dataset(
        &dataset_name,
        SyntheticConfig::small("serve-bench", 2000, 128),
    )?;
    banner(&format!(
        "serve — {dataset_name}: {} examples × {} features",
        ds.len(),
        ds.num_features()
    ));
    let failed = |e: ServeError| Failure::contract(e.to_string());

    // Train two model versions and walk them through a staged rollout.
    let cluster = ClusterSpec::cluster1();
    let system = System::MllibStar;
    let mut registry = ModelRegistry::new();
    let mut publish = |max_rounds: u64| -> Result<u64, Failure> {
        let cfg = TrainConfig {
            max_rounds,
            seed: 42,
            ..TrainConfig::default()
        };
        let out = system.train_default(&ds, &cluster, &cfg);
        let artifact = ModelArtifact::from_run(system, &cfg, &out, &ds).map_err(failed)?;
        registry.publish(&dataset_name, artifact).map_err(failed)
    };
    let v1 = publish(6)?;
    let v2 = publish(12)?;
    println!("registry: published v{v1} (active) then v{v2} (staged); promoting v{v2}…");
    registry.promote(&dataset_name).map_err(failed)?;
    let active = registry.active(&dataset_name).map_err(failed)?;
    let version = registry.active_version(&dataset_name).map_err(failed)?;
    println!(
        "serving {dataset_name} v{version} — trained by {} (seed {}, {} rounds, final objective {})",
        active.provenance().system,
        active.provenance().seed,
        active.provenance().rounds_run,
        fmt_opt(active.provenance().final_objective, ""),
    );

    // Codec round trip on the serving artifact.
    let encoded = active.encode();
    let decoded = ModelArtifact::decode(&encoded).map_err(failed)?;
    if &decoded != active {
        return Err(Failure::contract("artifact codec round trip changed it"));
    }
    println!(
        "artifact codec: {} bytes, round-trips bit-exactly\n",
        encoded.len()
    );

    // Seeded open-loop workload, then the shard sweep.
    let workload = QueryWorkload {
        num_requests,
        ..QueryWorkload::default()
    };
    let requests = workload.generate(&ds);
    println!(
        "workload: {} requests at {} req/s (burst p={}, hot {}% of rows takes {}% of queries)\n",
        requests.len(),
        workload.arrival_rate,
        workload.burst_prob,
        workload.hot_row_fraction * 100.0,
        workload.hot_query_prob * 100.0,
    );

    let mut table = Table::new("shards | batches | fill | depth | q p50/p95/p99 (µs) | score p99 (µs) | merge p99 (µs) | rps (sim)");
    let mut runs: Vec<Json> = Vec::new();
    let mut baseline: Option<Vec<Prediction>> = None;
    for shards in SHARD_SWEEP {
        let engine = ScoringEngine::for_artifact(active, BatchPolicy::default(), shards);
        let run = engine.run(&requests).map_err(failed)?;
        if baseline.get_or_insert_with(|| run.predictions.clone()) != &run.predictions {
            return Err(Failure::contract(format!(
                "predictions at {shards} shards differ from {} shard",
                SHARD_SWEEP[0]
            )));
        }
        let t = &run.telemetry;
        let us = |s: f64| s * 1e6;
        table.row(&[
            shards.to_string(),
            t.num_batches().to_string(),
            format!("{:.2}", t.mean_fill()),
            format!("{:.1}", t.mean_queue_depth()),
            format!(
                "{:.0}/{:.0}/{:.0}",
                us(t.queue.p50()),
                us(t.queue.p95()),
                us(t.queue.p99())
            ),
            format!("{:.0}", us(t.score.p99())),
            format!("{:.0}", us(t.merge.p99())),
            format!("{:.0}", t.throughput_rps()),
        ]);
        runs.push(Json::obj([
            ("label", format!("shards={shards}").into()),
            ("shards", shards.into()),
            ("requests", t.requests.into()),
            (
                "batching",
                Json::obj([
                    ("batches", t.num_batches().into()),
                    ("mean_fill", t.mean_fill().into()),
                    ("mean_queue_depth", t.mean_queue_depth().into()),
                ]),
            ),
            ("throughput_rps", t.throughput_rps().into()),
            (
                "latency_s",
                Json::obj([
                    ("queue", percentiles(&t.queue)),
                    ("score", percentiles(&t.score)),
                    ("merge", percentiles(&t.merge)),
                ]),
            ),
        ]));
    }
    table.print();
    println!("\npredictions are bit-identical across the shard sweep ✔");

    if args.json {
        let json = Json::obj([("report", "serve_bench".into()), ("runs", Json::Arr(runs))]);
        let path = write_json("serve_bench.json", &json);
        println!("wrote {}", path.display());
    }
    Ok(())
}
