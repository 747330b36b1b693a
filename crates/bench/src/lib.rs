//! Benchmark harness regenerating every table and figure of the MLlib\*
//! paper.
//!
//! Each `run_*` function prints a report in the shape of the corresponding
//! paper exhibit and writes the underlying series as CSV into
//! `bench_results/` (override with the `MLSTAR_OUT` environment variable).
//!
//! | Exhibit | Function | Binary |
//! |---|---|---|
//! | Table I | [`figures::run_table1`] | `table1` |
//! | Figure 1 | [`figures::run_fig1`] | `fig1_workloads` |
//! | Figure 3 | [`figures::run_fig3`] | `fig3_gantt` |
//! | Figure 4 | [`figures::run_fig4`] | `fig4_mllib_vs_star` |
//! | Figure 5 | [`figures::run_fig5`] | `fig5_vs_ps` |
//! | Figure 6 | [`figures::run_fig6`] | `fig6_scalability` |
//! | (ours) ablations | [`figures::run_ablation`] | `ablation` |
//!
//! `cargo bench -p mlstar-bench` runs all of them in one go
//! (`benches/paper_figures.rs`). Kernel and end-to-end *speed* is measured
//! by the repo benchmark under `benchmarks/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod report;
