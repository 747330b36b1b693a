//! Second-order training: sequential L-BFGS and the `spark.ml`-style
//! distributed L-BFGS plan — the paper's future-work question.
//!
//! ```sh
//! cargo run --release --example second_order
//! ```

use mllib_star::core::{System, TrainConfig};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::{Lbfgs, LbfgsConfig, LearningRate, Loss, Regularizer};
use mllib_star::sim::ClusterSpec;

fn main() {
    let dataset = SyntheticConfig::small("second-order", 4_000, 400).generate();
    let reg = Regularizer::l2(0.01);

    // 1. Sequential L-BFGS: the optimizer itself.
    let lbfgs = Lbfgs::new(LbfgsConfig {
        loss: Loss::Logistic,
        reg,
        max_iters: 50,
        ..LbfgsConfig::default()
    });
    let seq = lbfgs.run(dataset.num_features(), dataset.rows(), dataset.labels());
    println!(
        "sequential L-BFGS: {} iterations, {} data passes, objective {:.4}",
        seq.iterations, seq.evaluations, seq.final_objective
    );

    // 2. The spark.ml plan on a simulated cluster: every gradient and every
    //    line-search trial costs a broadcast + treeAggregate round.
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        loss: Loss::Logistic,
        reg,
        max_rounds: 30,
        ..TrainConfig::default()
    };
    let dist = System::SparkMl.train_default(&dataset, &cluster, &cfg);
    println!(
        "spark.ml(L-BFGS):  {} outer iterations, objective {:.4}, {:.2}s simulated",
        dist.rounds_run,
        dist.trace.final_objective().unwrap(),
        dist.trace.points.last().unwrap().time.as_secs_f64()
    );

    // 3. MLlib* for comparison: first-order but thousands of cheap updates
    //    per round.
    let star = System::MllibStar.train_default(
        &dataset,
        &cluster,
        &TrainConfig {
            loss: Loss::Logistic,
            reg,
            lr: LearningRate::Constant(0.05),
            max_rounds: 10,
            ..TrainConfig::default()
        },
    );
    println!(
        "MLlib*:            {} rounds, objective {:.4}, {:.2}s simulated",
        star.rounds_run,
        star.trace.final_objective().unwrap(),
        star.trace.points.last().unwrap().time.as_secs_f64()
    );

    println!("\nL-BFGS needs few iterations but pays full data passes and");
    println!("line-search rounds through the driver; MLlib* amortizes one");
    println!("communication per local epoch of SGD — the trade-off the");
    println!("paper's conclusion poses for spark.ml.");
}
