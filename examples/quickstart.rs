//! Quickstart: train a linear SVM with MLlib* on a simulated 8-node
//! cluster, in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mllib_star::core::{System, TrainConfig};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::{accuracy, LearningRate, Loss, Regularizer};
use mllib_star::sim::ClusterSpec;

fn main() {
    // 1. A sparse binary-classification dataset (or load LIBSVM data with
    //    `mllib_star::data::libsvm::read_file`).
    let dataset = SyntheticConfig::small("quickstart", 5_000, 500).generate();
    println!(
        "dataset: {} examples × {} features ({} nonzeros)",
        dataset.len(),
        dataset.num_features(),
        dataset.total_nnz()
    );

    // 2. A simulated cluster — Cluster 1 of the paper: 8 executors, 1 Gbps.
    let cluster = ClusterSpec::cluster1();

    // 3. Train with MLlib*: model averaging + AllReduce.
    let config = TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::l2(0.01),
        lr: LearningRate::Constant(0.05),
        max_rounds: 10,
        ..TrainConfig::default()
    };
    let output = System::MllibStar.train_default(&dataset, &cluster, &config);

    // 4. Inspect the convergence trace (objective vs. step and simulated
    //    time — the axes of the paper's figures).
    println!("\n step | sim time | objective");
    for p in &output.trace.points {
        println!(
            "{:>5} | {:>7.3}s | {:.4}",
            p.step,
            p.time.as_secs_f64(),
            p.objective
        );
    }

    let acc = accuracy(output.model.weights(), dataset.rows(), dataset.labels());
    println!("\ntraining accuracy: {:.1}%", acc * 100.0);
    println!(
        "total model updates: {} across {} communication steps",
        output.total_updates, output.rounds_run
    );
}
