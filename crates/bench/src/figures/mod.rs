//! One module per exhibit, and the table of them that `exhibit` runs.

mod ablation;
mod comm;
mod crash_restore;
mod fig1;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod lr_sweep;
mod path;
mod serve;
mod table1;
mod tuning;

pub use tuning::{paper_scale_cluster, quick_mode, scale_for_quick, set_quick_mode, tune_system};

use mlstar_core::TrainOutput;
use mlstar_data::{catalog, SparseDataset, SyntheticConfig};

use crate::cli::{Exhibit, Failure, Flag};

/// Every exhibit, in the order `exhibit all` runs them.
pub const EXHIBITS: &[Exhibit] = &[
    ("table1", "Table I — dataset statistics", &[], table1::run),
    ("fig1", "Figure 1 — ML workload shares", &[], fig1::run),
    ("fig3", "Figure 3 — Gantt charts", &[], fig3::run),
    ("fig4", "Figure 4 — MLlib vs MLlib*", &[], fig4::run),
    ("fig5", "Figure 5 — MLlib* vs PS systems", &[], fig5::run),
    ("fig6", "Figure 6 — WX scalability", &[], fig6::run),
    ("ablation", "twelve design ablations", &[], ablation::run),
    ("comm", "convergence vs. wire bytes", comm::FLAGS, comm::run),
    ("serve", "model serving telemetry", serve::FLAGS, serve::run),
    ("path", "cross-validated λ paths", path::FLAGS, path::run),
    (
        "lr-sweep",
        "learning-rate sweep",
        lr_sweep::FLAGS,
        lr_sweep::run,
    ),
    (
        "crash-restore",
        "crash/resume identity",
        crash_restore::FLAGS,
        crash_restore::run,
    ),
];

const DATASET_FLAG: Flag = (
    "--dataset",
    "<synthetic|avazu|url|kddb|kdd12|wx>",
    "default synthetic",
);

const SYSTEM_FLAG: Flag = (
    "--system",
    "<name>",
    "mllib ma star petuum petuum-star angel lbfgs",
);

/// A run's final weights as bit patterns: what "bit-identical" compares.
fn weight_bits(out: &TrainOutput) -> Vec<u64> {
    let weights = out.model.weights().as_slice();
    weights.iter().map(|w| w.to_bits()).collect()
}

/// The dataset a `--dataset` value names: the exhibit's own `synthetic`
/// set, or a catalog preset cut down to serving/CV size.
fn named_dataset(name: &str, synthetic: SyntheticConfig) -> Result<SparseDataset, Failure> {
    if name == "synthetic" {
        return Ok(synthetic.generate());
    }
    let preset = catalog::preset(name)
        .ok_or_else(|| Failure::bad_args(format!("unknown dataset {name:?} (see --help)")))?;
    let scale = match name {
        "avazu" | "url" => 20_000,
        _ => 200_000,
    };
    Ok(preset.scaled_down(scale).generate())
}
