//! Click-through-rate prediction: the avazu workload from the paper's
//! evaluation, scaled down, trained with logistic regression.
//!
//! Compares MLlib (SendGradient) against MLlib* (model averaging +
//! AllReduce) head to head — the paper's Figure 4(a/b) scenario — and
//! reports classification quality.
//!
//! ```sh
//! cargo run --release --example ctr_prediction
//! ```

use mllib_star::core::{System, TrainConfig};
use mllib_star::data::catalog;
use mllib_star::glm::{BinaryConfusion, LearningRate, Loss, Regularizer};
use mllib_star::sim::ClusterSpec;

fn main() {
    // The avazu-like preset, scaled 8× further down so the example runs in
    // seconds even in debug builds.
    let dataset = catalog::avazu_like().scaled_down(8).generate();
    println!(
        "CTR dataset (avazu-like): {} impressions × {} one-hot features",
        dataset.len(),
        dataset.num_features()
    );

    let cluster = ClusterSpec::cluster1();
    let reg = Regularizer::l2(0.01);

    let mllib_cfg = TrainConfig {
        loss: Loss::Logistic,
        reg,
        lr: LearningRate::Constant(2.0),
        batch_frac: 0.01,
        max_rounds: 300,
        eval_every: 25,
        ..TrainConfig::default()
    };
    let star_cfg = TrainConfig {
        loss: Loss::Logistic,
        reg,
        lr: LearningRate::Constant(0.05),
        max_rounds: 10,
        ..TrainConfig::default()
    };

    let mllib = System::Mllib.train_default(&dataset, &cluster, &mllib_cfg);
    let star = System::MllibStar.train_default(&dataset, &cluster, &star_cfg);

    println!("\n                      MLlib      MLlib*");
    println!(
        "final objective:     {:>7.4}    {:>7.4}",
        mllib.trace.final_objective().unwrap(),
        star.trace.final_objective().unwrap()
    );
    println!(
        "simulated time:      {:>6.2}s    {:>6.2}s",
        mllib.trace.points.last().unwrap().time.as_secs_f64(),
        star.trace.points.last().unwrap().time.as_secs_f64()
    );
    println!(
        "model updates:       {:>7}    {:>7}",
        mllib.total_updates, star.total_updates
    );

    let c = BinaryConfusion::evaluate(star.model.weights(), dataset.rows(), dataset.labels());
    println!("\nMLlib* classifier quality (training set):");
    println!("  accuracy  {:.1}%", c.accuracy() * 100.0);
    println!("  precision {:.1}%", c.precision() * 100.0);
    println!("  recall    {:.1}%", c.recall() * 100.0);
    println!("  F1        {:.3}", c.f1());

    // Score a fresh impression.
    let example = &dataset.rows()[0];
    println!(
        "\nP(click) for the first impression: {:.3}",
        star.model.predict_probability(example)
    );
}
