//! The exhibit harness: every table and figure of the MLlib\* paper, and
//! the repo's own studies, behind one binary.
//!
//! `exhibit <name> [--quick] [--json] [options]` prints a report in the
//! shape of the exhibit and writes the underlying series as CSV into
//! `bench_results/` (override with the `MLSTAR_OUT` environment
//! variable). `--quick` shrinks datasets and round budgets so any exhibit
//! finishes in seconds; `--json` also writes `<name>*.json`; `exhibit all`
//! runs the whole table below in order.
//!
//! | `<name>` | What |
//! |---|---|
//! | `table1` | Table I |
//! | `fig1` | Figure 1 |
//! | `fig3` | Figure 3 |
//! | `fig4` | Figure 4 |
//! | `fig5` | Figure 5 |
//! | `fig6` | Figure 6 |
//! | `ablation` | (ours) twelve ablations |
//! | `comm` | (ours) convergence vs. bytes on the wire; asserts adaptive == dense bit for bit at ≥ 5× fewer bytes |
//! | `serve` | (ours) serving telemetry; asserts shard-sweep bit-identity |
//! | `path` | (ours) cross-validated λ path; asserts executor-sweep bit-identity |
//! | `net-calibrate` | (ours) cost-model rates fitted from a real run; asserts net-trained == re-simulated weights |
//! | `lr-sweep` | (ours) learning-rate sweep for one system and preset |
//! | `crash-restore` | (ours) crash/resume identity of all seven trainers |
//!
//! The command line is [`cli`], the table is [`figures::EXHIBITS`], and
//! every artefact goes through [`report`] (one CSV writer, one JSON
//! writer). Nothing here reads a clock: kernel and end-to-end *speed* is
//! measured by the repo benchmark under `benchmarks/`.

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod report;
