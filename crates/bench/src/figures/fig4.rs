//! Figure 4: MLlib vs MLlib\* on the four public datasets, with and
//! without L2 regularization — objective vs. #communication steps and vs.
//! simulated time.
//!
//! For each of the eight subfigures we report the paper's headline
//! numbers: steps-to-threshold and time-to-threshold for both systems and
//! the resulting step/time speedups (the `NX` annotations in the paper's
//! plots), where the threshold is optimum + 0.01 as in the paper. Both
//! systems are tuned per workload by grid search, following the paper's
//! protocol.

use mlstar_core::{ConvergenceTrace, RoundStats, System};
use mlstar_glm::Regularizer;

use crate::cli::{Args, Failure};
use crate::figures::tuning::public_grid;
use crate::report::{
    banner, fmt_opt, fmt_speedup, round_stats_json, traces_to_csv, write_artifact, write_json,
    Table,
};

/// Regenerates the Figure 4 grid.
pub fn run(args: &Args) -> Result<(), Failure> {
    banner("Figure 4 — MLlib vs MLlib* (4 public datasets × {L2=0.1, L2=0})");
    let mut table = Table::new("dataset | reg | target f | MLlib steps | MLlib* steps | step speedup | MLlib time | MLlib* time | time speedup");
    let mut all_csv: Vec<ConvergenceTrace> = Vec::new();
    let mut all_stats: Vec<(String, Vec<RoundStats>)> = Vec::new();

    let regs = [Regularizer::L2 { lambda: 0.1 }, Regularizer::None];
    let systems = [System::Mllib, System::MllibStar];
    public_grid(regs, &systems, |preset, reg, target, runs| {
        let (mllib, star) = (&runs[0].trace, &runs[1].trace);
        let steps = |t: &ConvergenceTrace| {
            let steps = t.steps_to_reach(target);
            steps.map_or("—".into(), |s| s.to_string())
        };
        table.row(&[
            preset.to_owned(),
            reg.label(),
            format!("{target:.3}"),
            steps(mllib),
            steps(star),
            fmt_speedup(star.step_speedup_over(mllib, target)),
            fmt_opt(mllib.time_to_reach(target), "s"),
            fmt_opt(star.time_to_reach(target), "s"),
            fmt_speedup(star.speedup_over(mllib, target)),
        ]);
        for o in runs {
            let label = format!("{} {preset} {}", o.trace.system, reg.label());
            all_stats.push((label, o.round_stats));
            all_csv.push(o.trace);
        }
    });
    table.print();
    let refs: Vec<&ConvergenceTrace> = all_csv.iter().collect();
    let path = write_artifact("fig4_mllib_vs_star.csv", &traces_to_csv(&refs));
    println!("\nwrote {}", path.display());
    if args.json {
        let json = round_stats_json("fig4_mllib_vs_star", &all_stats);
        let path = write_json("fig4_round_stats.json", &json);
        println!("wrote {}", path.display());
    }
    Ok(())
}
