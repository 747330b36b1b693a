//! Table I: dataset statistics — paper originals vs. our scaled presets.

use mlstar_data::catalog;

use crate::cli::{Args, Failure};
use crate::report::{banner, Sheet};

/// Regenerates Table I: for each preset, the paper's original statistics
/// side by side with the generated look-alike's.
pub fn run(_args: &Args) -> Result<(), Failure> {
    banner("Table I — dataset statistics (paper vs. scaled synthetic presets)");
    let paper = catalog::paper_table1();
    let presets = catalog::all_presets();
    let mut sheet = Sheet::new(
        "dataset | paper #inst | paper #feat | paper size | ours #inst | ours #feat | ours size | avg nnz | shape",
        "dataset,paper_instances,paper_features,paper_size,ours_instances,ours_features,ours_bytes,avg_nnz,underdetermined",
    );
    for (p, preset) in paper.iter().zip(presets.iter()) {
        let cfg = super::scale_for_quick(preset.clone());
        let ds = cfg.generate();
        let s = ds.stats();
        let shape = if s.underdetermined {
            "underdetermined"
        } else {
            "determined"
        };
        sheet.row(
            &[
                preset.name.clone(),
                p.instances.to_string(),
                p.features.to_string(),
                p.size.to_string(),
                s.instances.to_string(),
                s.features.to_string(),
                s.size_human(),
                format!("{:.1}", s.avg_nnz),
                shape.into(),
            ],
            format!(
                "{},{},{},{},{},{},{},{:.2},{}",
                preset.name,
                p.instances,
                p.features,
                p.size,
                s.instances,
                s.features,
                s.size_bytes,
                s.avg_nnz,
                s.underdetermined
            ),
        );
    }
    let path = sheet.finish("table1_datasets.csv");
    println!("\nwrote {}", path.display());
    Ok(())
}
