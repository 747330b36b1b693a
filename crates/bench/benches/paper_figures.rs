//! Runs every paper-exhibit harness under `cargo bench`.
//!
//! A plain `harness = false` bench target, so that
//! `cargo bench --workspace` regenerates every table and figure of the
//! paper in one go. Set `MLSTAR_QUICK=1` for a fast smoke run.
fn main() {
    mlstar_bench::figures::run_table1();
    mlstar_bench::figures::run_fig1();
    mlstar_bench::figures::run_fig3();
    mlstar_bench::figures::run_fig4();
    mlstar_bench::figures::run_fig5();
    mlstar_bench::figures::run_fig6();
    mlstar_bench::figures::run_ablation();
}
