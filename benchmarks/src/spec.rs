//! The benchmark's contract as data: workload names and reasons, metric
//! names, units, directions and bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`benchmark manifest`) and a unit
//! test keeps the two equal.

use crate::json;

/// How long one measuring run lasts, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 8;

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmarks"];

/// How the acceptance driver starts the benchmark from a checkout root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmarks/Cargo.toml",
    "--bin",
    "benchmark",
    // The driver appends `--workload <name> --seed <n> --seconds <s>
    // --trace <0|1>`; this hands them to the program, not to cargo.
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
    /// What one unit of work is (the denominator of `work_per_s`).
    pub unit_of_work: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// One line for the README and `--help`.
    pub what: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "sim-avazu-sendmodel",
        why: "MLlib* SendModel on a determined 8k x 1k set: sgd_epoch_lazy, ScaledVector and per-round objective dominate; collectives and wire do almost nothing",
        unit_of_work: "row visits (rounds x rows)",
    },
    WorkloadSpec {
        name: "sim-kddb-ps",
        why: "Petuum on kddb-like with L2: the same glm layer used the other way (dense mgd_step, 240 KB vector ops) plus the ps engine and many short clocks",
        unit_of_work: "batch rows (clocks x sum of worker batches)",
    },
    WorkloadSpec {
        name: "net-avazu-sendgradient",
        why: "train_net, MLlib SendGradient over channels, 8 KB payloads: per-message dispatch and thread wake-up in net dominate; bypasses per-byte wire cost",
        unit_of_work: "batch rows (rounds x sum of worker batches)",
    },
    WorkloadSpec {
        name: "net-kddb-sendgradient",
        why: "train_net, MLlib SendGradient over TCP, dense 240 KB frames: per-byte cost (wire encode/decode, codec checksum, TCP copies) dominates; bypasses dispatch latency",
        unit_of_work: "batch rows (rounds x sum of worker batches)",
    },
    WorkloadSpec {
        name: "net-kddb-sendmodel-adaptive",
        why: "train_net, MLlib* with L1 and lossless adaptive frames over TCP: sparse wire path and LazyL1 SGD, compute-dominated, so a dense-frame or dispatch change should not move it",
        unit_of_work: "row visits (rounds x rows)",
    },
    WorkloadSpec {
        name: "cd-kddb-path",
        why: "fit_path, logistic elastic net on kddb-like by CSC columns: the coordinate-descent sweep over 29,890 short columns; SGD and wire changes must leave it flat",
        unit_of_work: "non-zeros visited (sum of CdStats.nnz_visited)",
    },
    WorkloadSpec {
        name: "serve-avazu-sharded",
        why: "ScoringEngine with 2 shards replaying a 20k-request arrival trace: a thread::scope per micro-batch, so batching and spawn cost dominate scoring",
        unit_of_work: "predictions",
    },
    WorkloadSpec {
        name: "serve-avazu-inline",
        why: "the same trace on 1 shard with max_batch 256: pure scoring, the bypass of the sharded path; a sharding fix must leave it no worse",
        unit_of_work: "predictions",
    },
];

pub const END_TO_END: [MetricSpec; 4] = [
    MetricSpec {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.25),
        what: "units of work per wall-clock second of the whole end-to-end call, median over the timed repeats",
    },
    MetricSpec {
        name: "cpu_ns_per_unit",
        unit: "ns",
        better: Better::Lower,
        bound: Some(0.25),
        what: "process user+system CPU (all threads) per unit of work over the timed repeats: shows a wall-clock win bought by spinning a second core",
    },
    MetricSpec {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: Some(0.25),
        what: "highest heap growth during one end-to-end call (counting allocator, on for the untimed warm-up calls only; median of 3)",
    },
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.25),
        what: "median time of everything done before timing: dataset generation, reference optimum, partition sizes, CSC build, model artifact, request stream",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, measured in the traced pass. A workload reports 0
/// for a metric whose layer is not on its path.
pub const PER_LAYER: [MetricSpec; 78] = [
    // data
    layer("data.generate_s", "s", Lower, "SyntheticConfig::generate"),
    layer("data.partition_s", "s", Lower, "system_partitions"),
    layer("data.rows", "count", Higher, "rows of the workload's dataset"),
    layer("data.nnz", "count", Higher, "non-zeros of the workload's dataset"),
    layer("data.dim", "count", Higher, "feature dimension"),
    // linalg
    layer("linalg.dot_sparse_mnnz_per_s", "Mnnz/s", Higher, "DenseVector::dot_sparse over the dataset rows"),
    layer("linalg.axpy_sparse_mnnz_per_s", "Mnnz/s", Higher, "DenseVector::axpy_sparse over the dataset rows"),
    layer("linalg.scaled_step_mnnz_per_s", "Mnnz/s", Higher, "ScaledVector dot_sparse + scale_by + axpy_sparse per row"),
    layer("linalg.dense_axpy_gb_per_s", "GB/s", Higher, "DenseVector::axpy at the model dimension (bytes read + written)"),
    layer("linalg.average_gb_per_s", "GB/s", Higher, "linalg::average of k model-sized vectors (bytes read)"),
    layer("linalg.csc_build_s", "s", Lower, "CscMatrix::from_rows"),
    layer("linalg.csc_col_mnnz_per_s", "Mnnz/s", Higher, "CscMatrix::col iteration over every column"),
    // glm
    layer("glm.sgd_epoch_mrows_per_s", "Mrows/s", Higher, "sgd_epoch_lazy spans of the replay"),
    layer("glm.objective_mrows_per_s", "Mrows/s", Higher, "objective_value spans of the replay"),
    layer("glm.mgd_step_us", "us", Lower, "mean mgd_step span of the replay"),
    layer("glm.batch_grad_mrows_per_s", "Mrows/s", Higher, "batch_gradient_into spans of the replay"),
    layer("glm.fit_path_s", "s", Lower, "root span of the fit_path call"),
    layer("glm.cd_fit_s", "s", Lower, "cd_fit spans of the replayed path, one per lambda with warm start"),
    layer("glm.lambda_max_s", "s", Lower, "lambda_max span of the replayed path"),
    layer("glm.cd_sweeps", "count", Lower, "sum of CdStats.sweeps"),
    layer("glm.cd_coord_updates", "count", Lower, "sum of CdStats.coord_updates"),
    layer("glm.cd_nnz_visited", "count", Lower, "sum of CdStats.nnz_visited"),
    layer("glm.margin_mpreds_per_s", "Mpreds/s", Higher, "GlmModel::margin + predict_probability sweep over the requests"),
    layer("glm.sgd_epoch_stream_mrows_per_s", "Mrows/s", Higher, "sgd_epoch_lazy on avazu-like x 8 (DRAM-streaming; too noisy on a shared host to gate on)"),
    // collectives
    layer("collectives.encode_dense_gb_per_s", "GB/s", Higher, "wire::encode_dense of the workload's model"),
    layer("collectives.decode_dense_gb_per_s", "GB/s", Higher, "wire::decode_dense"),
    layer("collectives.encode_sparse_gb_per_s", "GB/s", Higher, "wire::encode_sparse of the model's non-zeros (frame bytes)"),
    layer("collectives.decode_sparse_gb_per_s", "GB/s", Higher, "wire::decode_sparse"),
    layer("collectives.encode_adaptive_gb_per_s", "GB/s", Higher, "wire::encode_adaptive under FrameSwitch::Adaptive (frame bytes)"),
    layer("collectives.decode_adaptive_gb_per_s", "GB/s", Higher, "wire::decode_adaptive"),
    layer("collectives.encode_qdense_gb_per_s", "GB/s", Higher, "wire::encode_qdense (no workload uses it yet: trajectory only)"),
    layer("collectives.decode_qdense_gb_per_s", "GB/s", Higher, "wire::decode_qdense"),
    layer("collectives.all_reduce_us", "us", Lower, "mean all_reduce_average span of the replay"),
    layer("collectives.compressed_all_reduce_us", "us", Lower, "mean compressed_all_reduce_average span of the replay"),
    layer("collectives.tree_aggregate_us", "us", Lower, "mean tree_aggregate span of the replay"),
    layer("collectives.bytes_per_round", "B", Lower, "mean RoundStats.bytes.total()"),
    // codec, reached through its users
    layer("codec.msg_encode_mb_per_s", "MB/s", Higher, "net::encode_msg of an Ops message carrying the model"),
    layer("codec.msg_decode_mb_per_s", "MB/s", Higher, "net::decode_msg of the same frame"),
    layer("codec.artifact_roundtrip_mb_per_s", "MB/s", Higher, "ModelArtifact::encode + decode"),
    // cluster (the simulator)
    layer("cluster.sim_compute_share", "share", Higher, "sum of RoundStats.compute_s over sum of elapsed_s"),
    layer("cluster.sim_comm_share", "share", Lower, "sum of RoundStats.comm_s over sum of elapsed_s"),
    layer("cluster.sim_idle_share", "share", Lower, "sum of RoundStats.idle_s over sum of elapsed_s"),
    layer("cluster.sim_s_per_round", "s", Lower, "mean RoundStats.elapsed_s (simulated)"),
    layer("cluster.gantt_spans", "count", Lower, "spans in the run's GanttRecorder"),
    layer("cluster.sim_time_to_target_s", "s", Lower, "simulated seconds until the objective reaches optimum + 0.01 (the paper's metric); exact for a seed"),
    // core
    layer("core.train_s", "s", Lower, "root span of the train / train_net call"),
    layer("core.self_s", "s", Lower, "root minus replayed children: engine, partitioning, bookkeeping"),
    layer("core.rounds_run", "count", Higher, "TrainOutput.rounds_run"),
    layer("core.rounds_to_target", "count", Lower, "steps_to_reach(optimum + 0.01)"),
    layer("core.total_updates", "count", Higher, "TrainOutput.total_updates"),
    // ps
    layer("ps.self_s", "s", Lower, "root minus replayed mgd_step, objective and dense applies: the ps engine and its bookkeeping"),
    layer("ps.bytes_per_clock", "B", Lower, "mean pull + push bytes per clock"),
    // net
    layer("net.channel_rtt_us", "us", Lower, "ChannelTransport ping-pong at the workload's model size, median round trip"),
    layer("net.tcp_rtt_us", "us", Lower, "TcpTransport ping-pong at the workload's model size, median round trip"),
    layer("net.worker_compute_s", "s", Lower, "sum over batches of the slowest worker's compute_s"),
    layer("net.turnaround_s", "s", Lower, "sum of NetBatchStats.wall_s"),
    layer("net.dispatch_overhead_us_per_batch", "us", Lower, "(turnaround - worker compute) per dispatch batch"),
    layer("net.session_overhead_s", "s", Lower, "train_net wall_s minus turnaround: handshake, Assign, orchestrator-side trainer"),
    layer("net.vs_sim_ratio", "ratio", Lower, "train_net wall over System::train wall on the same config"),
    layer("net.batches", "count", Lower, "dispatch batches"),
    layer("net.messages", "count", Lower, "sum of WorkerBatchStats.messages"),
    layer("net.bytes_out", "B", Lower, "sum of WorkerBatchStats.bytes_out"),
    layer("net.bytes_in", "B", Lower, "sum of WorkerBatchStats.bytes_in"),
    // serve
    layer("serve.engine_run_s", "s", Lower, "root span (the call: runs_per_call replays of the stream) per ScoringEngine::run"),
    layer("serve.batching_self_s", "s", Lower, "engine run minus the scoring replay, per run: batch forming, thread::scope, merge"),
    layer("serve.us_per_batch", "us", Lower, "engine run over micro-batches"),
    layer("serve.workload_generate_s", "s", Lower, "QueryWorkload::generate"),
    layer("serve.artifact_build_s", "s", Lower, "5-round fit + ModelArtifact::from_run"),
    layer("serve.registry_publish_s", "s", Lower, "ModelRegistry::publish + promote of the artifact"),
    layer("serve.batches", "count", Lower, "ServeTelemetry.num_batches"),
    layer("serve.mean_fill", "share", Higher, "ServeTelemetry.mean_fill"),
    layer("serve.mean_queue_depth", "count", Lower, "ServeTelemetry.mean_queue_depth"),
    layer("serve.virtual_p99_queue_s", "s", Lower, "ServeTelemetry.queue.p99 on the engine's virtual clock"),
    // memory and the trace itself
    layer("mem.peak_alloc_mib", "MiB", Lower, "highest heap growth during the traced root call"),
    layer("mem.allocs_per_unit", "1/unit", Lower, "allocation calls during the traced root call per unit of work"),
    layer("mem.allocs", "count", Lower, "allocation calls during the traced root call"),
    layer("trace.children_share", "share", Higher, "replayed children over the root span; above 1 means the replay does not describe the call"),
    layer("trace_overhead_pct", "%", Lower, "traced root call against the median untraced call"),
];

/// True for a name the contract accepts: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a unit the contract accepts: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the tables against the limits of the benchmark contract.
pub fn validate() -> Result<(), String> {
    let in_range = |what: &str, n: usize, lo: usize, hi: usize| {
        if (lo..=hi).contains(&n) {
            Ok(())
        } else {
            Err(format!("{n} {what}, the contract allows {lo} to {hi}"))
        }
    };
    in_range("workloads", WORKLOADS.len(), 2, 8)?;
    in_range("end-to-end metrics", END_TO_END.len(), 1, 16)?;
    in_range("per-layer metrics", PER_LAYER.len(), 1, 128)?;
    in_range("run_seconds", RUN_SECONDS as usize, 1, 60)?;
    let mut seen = std::collections::BTreeSet::new();
    let mut name_ok = |name: &'static str| {
        if !valid_name(name) {
            Err(format!("{name:?} is not a valid name"))
        } else if !seen.insert(name) {
            Err(format!("{name:?} is used twice"))
        } else {
            Ok(())
        }
    };
    for w in &WORKLOADS {
        name_ok(w.name)?;
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "the why of {} is not one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        name_ok(m.name)?;
        if !valid_unit(m.unit) {
            return Err(format!("{:?} is not a valid unit ({})", m.unit, m.name));
        }
    }
    let mut largest = 0.0f64;
    for m in &END_TO_END {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => largest = largest.max(b),
            other => return Err(format!("bound {other:?} of {} is not in (0, 0.25]", m.name)),
        }
    }
    match metric("setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower && m.bound == Some(largest) => Ok(()),
        _ => Err("setup_s must be in s, lower is better, with the largest bound".to_string()),
    }
}

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

/// The metric's spec, end-to-end tables first.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let strings = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| json::string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::string(w.name),
                json::string(w.why)
            )
        })
        .collect();
    let metric_line = |m: &MetricSpec| -> String {
        let bound = m.bound.map_or(String::new(), |b| {
            format!(", \"bound\": {}", json::number(b))
        });
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.as_str())
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator() {
        for good in [
            "a",
            "9lives",
            "glm.sgd_epoch_mrows_per_s",
            "net-kddb-sendgradient",
            "A_b.c-d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "per/second",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_validator() {
        for good in ["ms", "s", "1/s", "count", "%", "Mnnz/s", "1/unit"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "rows per s", "µs", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn tables_meet_the_contract() {
        assert_eq!(validate(), Ok(()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let generated = manifest_json();
        assert!(generated.len() <= 64 * 1024);
        let doc = json::parse(&generated).expect("manifest is valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let command = doc.get("command").and_then(json::Value::as_array).unwrap();
        assert!(command.len() <= 32);
        assert_eq!(command.last().and_then(json::Value::as_str), Some("--"));
        let on_disk = std::fs::read_to_string(crate::host::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk, generated,
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
