//! Convergence vs. communicated bytes for the compressed wire path
//! (`DESIGN.md` §17): MLlib\* on an L1 workload once per communication
//! mode — forced dense, lossless adaptive, and the lossy sparsified /
//! quantized encodings with error feedback — reporting the bytes the
//! encoders actually put on the wire and the final objective.
//!
//! Asserted, not just reported: the lossless adaptive mode reproduces the
//! dense model **bit for bit**, and moves at least 5× fewer bytes.
//! `--json` writes `comm_bench.json` (per-mode totals and every mode's
//! objective-vs-cumulative-bytes curve).

use mlstar_collectives::{CompressionConfig, FrameSwitch, Sparsifier};
use mlstar_core::{System, TrainConfig, TrainOutput};
use mlstar_data::SyntheticConfig;
use mlstar_glm::{LearningRate, Loss, Regularizer};
use mlstar_sim::{ClusterSpec, NetworkSpec, NodeSpec};

use crate::cli::{Args, Failure, Flag};
use crate::report::{banner, write_json, Json, Table};

pub(super) const FLAGS: &[Flag] = &[
    ("--workers", "<k>", "simulated executors (default 4)"),
    ("--rounds", "<n>", "rounds (default 12; 6 with --quick)"),
    ("--lambda", "<x>", "L1 strength (default 0.2)"),
];

/// The communication policies under test; `k` is the top-k budget.
fn modes(k: usize) -> [(&'static str, CompressionConfig); 5] {
    let adaptive = CompressionConfig {
        switch: FrameSwitch::Adaptive,
        ..CompressionConfig::default()
    };
    let topk = CompressionConfig {
        sparsifier: Sparsifier::TopK { k },
        ..adaptive
    };
    [
        ("dense", CompressionConfig::default()),
        ("adaptive_exact", adaptive),
        ("topk", topk),
        (
            "topk_q8",
            CompressionConfig {
                quantize: true,
                ..topk
            },
        ),
        (
            "threshold_q8",
            CompressionConfig {
                sparsifier: Sparsifier::Threshold { tau: 1e-3 },
                quantize: true,
                ..adaptive
            },
        ),
    ]
}

/// One mode's run plus the bytes its encoders put on the wire.
struct ModeRun {
    name: &'static str,
    out: TrainOutput,
    total_bytes: u64,
}

impl ModeRun {
    fn final_objective(&self) -> f64 {
        self.out.trace.final_objective().unwrap_or(f64::INFINITY)
    }

    /// `objective` joined with the bytes moved up to each evaluation step.
    fn curve(&self) -> Json {
        let cum: Vec<u64> = self
            .out
            .round_stats
            .iter()
            .scan(0u64, |total, rs| {
                *total += rs.bytes.total();
                Some(*total)
            })
            .collect();
        Json::arr(&self.out.trace.points, |p| {
            let idx = (p.step as usize).min(cum.len().saturating_sub(1));
            Json::obj([
                ("step", p.step.into()),
                ("cum_bytes", cum.get(idx).copied().unwrap_or(0).into()),
                ("objective", p.objective.into()),
            ])
        })
    }
}

/// Runs the comm exhibit.
pub fn run(args: &Args) -> Result<(), Failure> {
    let workers: usize = args.get("--workers", 4)?;
    let rounds: u64 = args.get("--rounds", if args.quick { 6 } else { 12 })?;
    let lambda: f64 = args.get("--lambda", 0.2)?;
    let (rows, feats) = if args.quick { (240, 256) } else { (600, 1024) };
    // Signal concentrated on a small informative set, like the paper's
    // CTR-style workloads: the L1 run then converges onto a sparse
    // support, which is what the adaptive switch exploits.
    let mut syn = SyntheticConfig::small("comm-bench", rows, feats);
    syn.informative_features = feats / 32;
    syn.popular_fraction = 0.9;
    let ds = syn.generate();
    let cluster = ClusterSpec::uniform(workers, NodeSpec::standard(), NetworkSpec::gbps1());
    banner(&format!(
        "comm — MLlib* with L1 λ={lambda}: {} examples × {} features, {workers} workers × {rounds} rounds",
        ds.len(),
        ds.num_features(),
    ));

    let base_cfg = TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::L1 { lambda },
        lr: LearningRate::InvSqrt(0.1),
        max_rounds: rounds,
        seed: 42,
        ..TrainConfig::default()
    };
    let runs: Vec<ModeRun> = modes(feats / 64)
        .into_iter()
        .map(|(name, compression)| {
            let cfg = TrainConfig {
                compression,
                ..base_cfg.clone()
            };
            let out = System::MllibStar.train_default(&ds, &cluster, &cfg);
            let total_bytes = out.round_stats.iter().map(|rs| rs.bytes.total()).sum();
            ModeRun {
                name,
                out,
                total_bytes,
            }
        })
        .collect();
    let (dense, exact) = (&runs[0], &runs[1]);
    let reduction_of = |r: &ModeRun| dense.total_bytes as f64 / r.total_bytes.max(1) as f64;
    let gap_of = |r: &ModeRun| (r.final_objective() - dense.final_objective()).abs();

    let mut table = Table::new("mode | total bytes | reduction | objective | gap vs dense");
    for r in &runs {
        table.row(&[
            r.name.into(),
            r.total_bytes.to_string(),
            format!("{:.2}x", reduction_of(r)),
            format!("{:.6}", r.final_objective()),
            format!("{:.3e}", gap_of(r)),
        ]);
    }
    table.print();

    // Contract 1: the lossless switch changes bytes, never math.
    if super::weight_bits(&dense.out) != super::weight_bits(&exact.out) {
        return Err(Failure::contract(
            "adaptive_exact model is not bit-identical to the dense baseline",
        ));
    }
    println!("\nadaptive_exact model is bit-identical to the dense baseline ✔");

    // Contract 2: at that matched objective, ≥5× fewer bytes on the wire.
    let reduction = reduction_of(exact);
    if reduction < 5.0 {
        return Err(Failure::contract(format!(
            "adaptive_exact moved {} bytes vs dense {} — only {reduction:.2}x reduction \
             (need ≥5x at matched objective)",
            exact.total_bytes, dense.total_bytes
        )));
    }
    println!("adaptive_exact moves {reduction:.2}x fewer bytes at a matched objective ✔");

    if args.json {
        let json = Json::obj([
            ("report", "comm_bench".into()),
            ("system", System::MllibStar.name().into()),
            ("workers", workers.into()),
            ("rounds", rounds.into()),
            ("lambda", lambda.into()),
            (
                "modes",
                Json::arr(&runs, |r| {
                    Json::obj([
                        ("mode", r.name.into()),
                        ("total_bytes", r.total_bytes.into()),
                        ("byte_reduction", reduction_of(r).into()),
                        ("final_objective", r.final_objective().into()),
                        ("objective_gap", gap_of(r).into()),
                        ("curve", r.curve()),
                    ])
                }),
            ),
        ]);
        let path = write_json("comm_bench.json", &json);
        println!("wrote {}", path.display());
    }
    Ok(())
}
