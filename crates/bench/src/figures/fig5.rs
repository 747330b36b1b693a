//! Figure 5: MLlib\* vs the parameter-server systems (Petuum\*, Angel) and
//! MLlib, on the four public datasets, with and without L2.
//!
//! The paper's observations to reproduce:
//! * every SendModel system beats MLlib by a wide margin;
//! * with L2 = 0, MLlib\* ≈ Petuum\* ≥ Angel;
//! * with L2 = 0.1, MLlib\* wins (lazy sparse updates), Angel beats
//!   Petuum\* (per-epoch vs per-batch amortization of a single update).
//!
//! Every system is tuned per workload by grid search, as in the paper.

use mlstar_core::{ConvergenceTrace, System};
use mlstar_glm::Regularizer;

use crate::cli::{Args, Failure};
use crate::figures::tuning::public_grid;
use crate::report::{banner, fmt_opt, traces_to_csv, write_artifact, Table};

/// Regenerates the Figure 5 grid.
pub fn run(_args: &Args) -> Result<(), Failure> {
    banner("Figure 5 — MLlib* vs parameter servers (4 datasets × {L2=0, L2=0.1})");
    let mut table =
        Table::new("dataset | reg | target f | MLlib | Angel | Petuum* | MLlib* | winner");
    let mut all_traces: Vec<ConvergenceTrace> = Vec::new();

    let regs = [Regularizer::None, Regularizer::L2 { lambda: 0.1 }];
    let systems = [
        System::Mllib,
        System::Angel,
        System::PetuumStar,
        System::MllibStar,
    ];
    public_grid(regs, &systems, |preset, reg, target, runs| {
        let times: Vec<Option<f64>> = runs.iter().map(|o| o.trace.time_to_reach(target)).collect();
        let winner = runs
            .iter()
            .zip(times.iter())
            .filter_map(|(o, t)| t.map(|t| (o.trace.system.clone(), t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("—".to_owned(), |(name, _)| name);
        let mut row = vec![preset.to_owned(), reg.label(), format!("{target:.3}")];
        row.extend(times.iter().map(|&t| fmt_opt(t, "s")));
        row.push(winner);
        table.row(&row);
        all_traces.extend(runs.into_iter().map(|o| o.trace));
    });
    println!("time to reach target objective (simulated seconds):");
    table.print();
    let refs: Vec<&ConvergenceTrace> = all_traces.iter().collect();
    let path = write_artifact("fig5_vs_parameter_servers.csv", &traces_to_csv(&refs));
    println!("\nwrote {}", path.display());
    Ok(())
}
