//! Figure 1: ML workload shares on the Tencent platform.
//!
//! The paper's Figure 1 is survey data (TensorFlow 51%, Angel 24%,
//! XGBoost 22%, MLlib 3%; >80% of data through Spark ETL). We regenerate
//! the share table from a seeded synthetic job trace — an illustrative,
//! runnable stand-in documented in `DESIGN.md`.

use mlstar_data::workload::{analyze, generate_trace, WorkloadConfig};

use crate::cli::{Args, Failure};
use crate::report::{banner, Sheet};

/// Regenerates the Figure 1 share table.
pub fn run(_args: &Args) -> Result<(), Failure> {
    banner("Figure 1 — ML workload shares (synthetic Tencent-platform job trace)");
    let cfg = WorkloadConfig::default();
    let trace = generate_trace(&cfg);
    let report = analyze(&trace);

    let mut sheet = Sheet::new(
        "system | share (ours) | share (paper)",
        "system,share,paper_share",
    );
    let paper = [
        ("TensorFlow", 0.51),
        ("Angel", 0.24),
        ("XGBoost", 0.22),
        ("MLlib", 0.03),
    ];
    for ((system, share), (pname, pshare)) in report.system_shares.iter().zip(paper.iter()) {
        assert_eq!(system.name(), *pname, "order mismatch");
        sheet.row(
            &[
                system.name().to_owned(),
                format!("{:.1}%", share * 100.0),
                format!("{:.0}%", pshare * 100.0),
            ],
            format!("{},{:.4},{:.2}", system.name(), share, pshare),
        );
    }
    let path = sheet.finish("fig1_workload_shares.csv");
    println!(
        "\ndata volume through Spark ETL: {:.1}% (paper: >80%)  [{} jobs]",
        report.spark_etl_data_fraction * 100.0,
        report.total_jobs
    );
    println!("wrote {}", path.display());
    Ok(())
}
