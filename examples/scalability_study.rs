//! Scalability study: the paper's Figure 6 experiment in miniature — how
//! adding machines changes time-to-convergence on a heterogeneous cluster
//! (and why the answer is "less than you'd hope").
//!
//! ```sh
//! cargo run --release --example scalability_study
//! ```

use mllib_star::core::{System, TrainConfig};
use mllib_star::data::catalog;
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::sim::{ClusterSpec, NodeId};

fn main() {
    let dataset = catalog::wx_like().scaled_down(8).generate();
    println!(
        "WX-like workload: {} examples × {} features\n",
        dataset.len(),
        dataset.num_features()
    );

    let cfg = TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::None,
        lr: LearningRate::Constant(0.05),
        max_rounds: 8,
        eval_every: 8,
        ..TrainConfig::default()
    };

    println!("   k | sim time | speedup | mean executor utilization");
    let mut base_time = None;
    for k in [4usize, 8, 16, 32] {
        // Heterogeneous "Cluster 2": per-node speeds vary, lognormal
        // straggler tail — the reason BSP scaling stalls.
        let cluster = ClusterSpec::cluster2(k, 7);
        let out = System::MllibStar.train_default(&dataset, &cluster, &cfg);
        let t = out.trace.points.last().unwrap().time.as_secs_f64();
        let base = *base_time.get_or_insert(t);
        let util: f64 = (0..k)
            .map(|r| out.gantt.utilization(NodeId::Executor(r)))
            .sum::<f64>()
            / k as f64;
        println!(
            "{:>4} | {:>7.2}s | {:>6.2}× | {:.0}%",
            k,
            t,
            base / t,
            util * 100.0
        );
    }

    println!("\nDoubling machines halves per-node compute but grows the");
    println!("shuffle cost and the straggler tail — the paper's Figure 6(d)");
    println!("finds only 1.5–1.7× going from 32 to 128 machines.");
}
