//! Learning-rate sweep: one system on one preset under the tuner's own
//! schedule ([`super::tune_system`]), time and steps to the reference
//! target per rate — the tool the per-system grids were chosen with.

use mlstar_core::{reference_optimum, System};
use mlstar_data::catalog;
use mlstar_glm::{Loss, Regularizer};
use mlstar_sim::ClusterSpec;

use crate::cli::{Args, Failure, Flag};
use crate::figures::tuning::{quick_mode, scale_for_quick, train_at_rates};

pub(super) const FLAGS: &[Flag] = &[
    ("--preset", "<avazu|url|kddb|kdd12|wx>", "default kdd12"),
    super::SYSTEM_FLAG,
    ("--reg", "<none|l2>", "default none; l2 is λ = 0.1"),
];

/// Runs the lr-sweep exhibit.
pub fn run(args: &Args) -> Result<(), Failure> {
    let preset_name: String = args.get("--preset", "kdd12".to_owned())?;
    let preset = catalog::preset(&preset_name)
        .ok_or_else(|| Failure::bad_args(format!("unknown preset {preset_name:?} (see --help)")))?;
    let system: System = args.get("--system", System::Mllib)?;
    let reg = match args.get("--reg", "none".to_owned())?.as_str() {
        "none" => Regularizer::None,
        "l2" => Regularizer::L2 { lambda: 0.1 },
        other => {
            return Err(Failure::bad_args(format!(
                "unknown regularizer {other:?} (see --help)"
            )))
        }
    };
    let ds = scale_for_quick(preset.clone()).generate();
    let ref_epochs = if quick_mode() { 5 } else { 25 };
    let opt = reference_optimum(&ds, Loss::Hinge, reg, ref_epochs, 42);
    println!(
        "preset {} | system {system} | {} | reference optimum {opt:.4}",
        preset.name,
        reg.label()
    );
    let cluster = ClusterSpec::cluster1();
    let etas = [0.003, 0.01, 0.03, 0.1, 0.3, 1.0];
    let runs = train_at_rates(system, &ds, &cluster, reg, 42, 1.0, &etas);
    let target = opt + 0.01;
    for (eta, out) in etas.iter().zip(&runs) {
        let best = out.trace.best_objective().unwrap_or(f64::NAN);
        println!(
            "eta {eta:>6}: best {best:.4} | to {target:.3}: steps {:?} time {:?}",
            out.trace.steps_to_reach(target),
            out.trace.time_to_reach(target).map(|t| format!("{t:.1}s")),
        );
    }
    Ok(())
}
