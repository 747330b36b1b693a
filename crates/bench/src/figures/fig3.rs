//! Figure 3: Gantt charts of MLlib, MLlib + model averaging, and MLlib\*
//! training an SVM on the kdd12-like workload.
//!
//! The paper's charts track one driver and eight executors over the first
//! 300 seconds; we render the same span as ASCII (one row per node, one
//! letter per activity) and export the raw spans as CSV.

use mlstar_core::{System, TrainOutput};
use mlstar_data::catalog;
use mlstar_glm::Regularizer;
use mlstar_sim::{ClusterSpec, NodeId, SimDuration, SimTime};

use crate::cli::{Args, Failure};
use crate::figures::tuning::fixed_rounds;
use crate::report::{banner, write_artifact};

/// Regenerates the three Gantt charts of Figure 3.
pub fn run(_args: &Args) -> Result<(), Failure> {
    banner("Figure 3 — Gantt charts (kdd12-like, SVM, 8 executors, L2=0)");
    let ds = super::scale_for_quick(catalog::kdd12_like()).generate();
    let cluster = ClusterSpec::cluster1();
    // Budget each system to roughly the paper's viewing window by capping
    // rounds; the text renderer clips to the shared horizon.
    let mllib_c = fixed_rounds(Regularizer::None, 42, 4.0, 0.01, 60);
    let ma_c = fixed_rounds(Regularizer::None, 42, 0.2, 1.0, 12);
    let ma = System::MllibMa.train_default(&ds, &cluster, &ma_c);
    // (title, artefact slug, run)
    let runs: Vec<(&str, &str, TrainOutput)> = vec![
        (
            "MLlib",
            "mllib",
            System::Mllib.train_default(&ds, &cluster, &mllib_c),
        ),
        ("MLlib + model averaging", "mllib_ma", ma),
        (
            "MLlib*",
            "mllib_star",
            System::MllibStar.train_default(&ds, &cluster, &ma_c),
        ),
    ];

    // Shared horizon: the shortest makespan keeps all three readable.
    let horizon = runs
        .iter()
        .map(|(_, _, o)| o.gantt.makespan())
        .min()
        .unwrap_or(SimTime::ZERO)
        .max(SimTime::ZERO + SimDuration::from_secs_f64(1.0));

    for (name, slug, out) in &runs {
        println!("--- ({name}) ---");
        print!("{}", out.gantt.render_text(96, horizon));
        let drv = out.gantt.utilization(NodeId::Driver).max(0.0);
        let avg_exec: f64 = (0..8)
            .map(|r| out.gantt.utilization(NodeId::Executor(r)))
            .sum::<f64>()
            / 8.0;
        println!(
            "driver utilization {:.0}%, mean executor utilization {:.0}%\n",
            drv * 100.0,
            avg_exec * 100.0
        );
        write_artifact(&format!("fig3_gantt_{slug}.csv"), &out.gantt.to_csv());
    }
    println!("legend: C compute, B broadcast, g send-gradient, m send-model,");
    println!("        T tree-aggregate, U driver-update, R reduce-scatter, A all-gather, . wait");
    println!("\nwrote fig3_gantt_*.csv");
    Ok(())
}
