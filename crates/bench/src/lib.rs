//! # cargo-bench — experiment harness for the CARGO reproduction
//!
//! One subcommand per table and figure of the paper's evaluation
//! (Section V), runnable via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p cargo-bench --bin experiments -- <cmd> [flags]
//!
//!   table2     Theoretical comparison (Table II)
//!   table3     d'_max vs smooth/residual sensitivity (Table III)
//!   table4     Dataset statistics (Table IV)
//!   table5     Noisy maximum degrees vs ε (Table V)
//!   fig5-6     l2 loss + relative error vs ε, 4 graphs (Figs. 5/6)
//!   fig7-8     l2 loss + relative error vs n, Facebook/Wiki (Figs. 7/8)
//!   fig9-10    projection loss vs θ, both metrics (Figs. 9/10)
//!   fig11      running time vs n, Facebook (Fig. 11)
//!   fig12      running time vs n, Wiki + Count share (Fig. 12)
//!   extensions Observation-1 check, projection ablation, smooth-
//!              sensitivity comparison, Node-DP comparison
//!   all        everything above
//!
//! (`fig5`…`fig10` also work individually as aliases.)
//!
//! (`--help` lists every flag with its default.)
//! ```
//!
//! Each experiment prints a Markdown table (the same rows/series the
//! paper reports) and writes a CSV into `--out-dir` (default
//! `results/`). With `--data-dir` pointing at real SNAP edge lists the
//! harness uses them; otherwise it uses the calibrated synthetic
//! presets (DESIGN.md §4).
//!
//! The one other binary, `bench_micro`, prints a table of the hot paths
//! below the Count (MPC primitives, OT kernels, hashes, graph ingest and
//! the per-step cost of an OT-mode Multiplication Group). End-to-end
//! performance is measured by the `benchmark/` package at the repo root.

pub mod cli;
pub mod datasets;
pub mod experiments;
pub mod output;
pub mod runners;

pub use cli::Options;
pub use datasets::ExperimentGraph;
pub use output::Table;
