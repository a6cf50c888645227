//! Figures 11/12: running time vs n.
//!
//! Fig. 11 (Facebook) and Fig. 12 (Wiki) plot wall-clock time of the
//! three protocols as n grows; Fig. 12's extra series is the `Count`
//! step alone, showing it dominates CARGO's runtime (≥ 90%). Absolute
//! numbers differ from the paper's unspecified testbed; the reproduced
//! claims are the growth shapes and the Count share (DESIGN.md §4).

use crate::cli::Options;
use crate::datasets::{ExperimentGraph, N_SWEEP};
use crate::output::Table;
use crate::runners::{run_cargo_with, run_central, run_local2rounds};
use cargo_graph::generators::presets::SnapDataset;

/// Which dataset a runtime figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeGraph {
    /// Fig. 11.
    Facebook,
    /// Fig. 12.
    Wiki,
}

/// Runs Fig. 11 or 12.
pub fn fig11_or_12(opts: &Options, which: RuntimeGraph) -> Vec<Table> {
    let (ds, fig) = match which {
        RuntimeGraph::Facebook => (SnapDataset::Facebook, "Fig. 11"),
        RuntimeGraph::Wiki => (SnapDataset::Wiki, "Fig. 12"),
    };
    let eg = ExperimentGraph::load(ds, opts);
    let mut t = Table::new(
        &format!("{fig}: running time (s) vs n ({})", ds.display_name()),
        &[
            "n",
            "CentralLap",
            "Local2Rounds",
            "CARGO",
            "Count",
            "Count share",
            "online MB",
            "offline MB",
        ],
    );
    // Timing experiments use one trial (the paper reports single runs);
    // utility noise does not affect wall-clock.
    let trials = 1;
    let sweep: Vec<usize> = if opts.quick {
        N_SWEEP.iter().copied().filter(|&n| n <= 1000).collect()
    } else {
        N_SWEEP.to_vec()
    };
    for &n in &sweep {
        let sub = eg.prefix(n);
        let central = run_central(&sub, 2.0, trials, opts.seed);
        let local = run_local2rounds(&sub, 2.0, trials, opts.seed);
        let cargo = run_cargo_with(&sub, trials, &opts.config(2.0));
        let share = if cargo.time.as_secs_f64() > 0.0 {
            cargo.count_time.as_secs_f64() / cargo.time.as_secs_f64()
        } else {
            0.0
        };
        t.row(vec![
            n.to_string(),
            format!("{:.4}", central.time.as_secs_f64()),
            format!("{:.4}", local.time.as_secs_f64()),
            format!("{:.4}", cargo.time.as_secs_f64()),
            format!("{:.4}", cargo.count_time.as_secs_f64()),
            format!("{:.0}%", share * 100.0),
            format!("{:.2}", cargo.net.bytes as f64 / 1e6),
            format!("{:.2}", cargo.net.offline.bytes as f64 / 1e6),
        ]);
    }
    t.footnote(&format!(
        "eps = 2; absolute times are this machine's ({} threads); offline MB is 0 under --offline-mode dealer and the OT-extension preprocessing cost under --offline-mode ot; the reproduced claims are the n^3 growth and the Count share.",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    let name = match which {
        RuntimeGraph::Facebook => "fig11_facebook",
        RuntimeGraph::Wiki => "fig12_wiki",
    };
    let _ = t.write_csv(&opts.out_dir, name);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_figure_runs_in_quick_mode() {
        let opts = Options {
            n: 300,
            trials: 1,
            quick: true,
            out_dir: std::env::temp_dir().join("cargo_bench_runtime_test"),
            // The release is schedule-invariant; the dense cube in a
            // debug build is what this test would otherwise wait on.
            schedule: cargo_core::ScheduleKind::Sparse,
            ..Options::default()
        };
        let tables = fig11_or_12(&opts, RuntimeGraph::Facebook);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 2); // 500 and 1000
    }
}
