//! Figures 5–8: the utility–privacy trade-off.
//!
//! * Figs. 5/6 — l2 loss / relative error vs ε on all four graphs at
//!   the default n.
//! * Figs. 7/8 — the same metrics vs n at ε = 2 on Facebook and Wiki.
//!
//! Each table is one paper subplot: rows are x-axis points, columns the
//! three protocols. A single sweep produces *both* metrics (the l2 and
//! relative-error figures come from the same runs, as in the paper),
//! so `fig5`/`fig6` (and `fig7`/`fig8`) share one computation.
//!
//! The cheap baselines (CentralLap, Local2Rounds) run 6× more trials
//! than CARGO: the l2 of a Laplace mechanism has ~100% relative
//! standard error at 5 trials, and the extra baseline trials cost
//! nothing next to CARGO's O(n³) count.

use crate::cli::Options;
use crate::datasets::{ExperimentGraph, EPSILON_SWEEP, N_SWEEP};
use crate::output::{sci, Table};
use crate::runners::{run_cargo_with, run_central, run_local2rounds, UtilityPoint};
use cargo_graph::generators::presets::SnapDataset;

/// Which of the paper's two metrics a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Squared error (Figs. 5, 7, 9).
    L2,
    /// Relative error (Figs. 6, 8, 10).
    Rel,
}

impl Metric {
    /// Extracts the metric from an aggregated point.
    pub fn of(&self, p: &UtilityPoint) -> f64 {
        match self {
            Metric::L2 => p.l2,
            Metric::Rel => p.rel,
        }
    }

    /// Axis label.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::L2 => "l2 loss",
            Metric::Rel => "relative error",
        }
    }
}

/// One swept data point for all three protocols.
struct SweepPoint {
    x: String,
    local: UtilityPoint,
    cargo: UtilityPoint,
    central: UtilityPoint,
}

/// Renders one metric's table from a sweep.
fn render(
    fig: &str,
    metric: Metric,
    subtitle: &str,
    xlabel: &str,
    points: &[SweepPoint],
    footnote: &str,
) -> Table {
    let mut t = Table::new(
        &format!("{fig}: {} of triangle counting {subtitle}", metric.label()),
        &[xlabel, "Local2Rounds", "CARGO", "CentralLap"],
    );
    for p in points {
        t.row(vec![
            p.x.clone(),
            sci(metric.of(&p.local)),
            sci(metric.of(&p.cargo)),
            sci(metric.of(&p.central)),
        ]);
    }
    t.footnote(footnote);
    t
}

/// Figs. 5 and 6 from one sweep of ε over the four Table IV graphs.
pub fn fig5_and_6(opts: &Options) -> Vec<Table> {
    let cheap_trials = opts.trials * 6;
    let mut tables = Vec::new();
    for ds in SnapDataset::TABLE4 {
        let eg = ExperimentGraph::load(ds, opts);
        let sub = eg.prefix(opts.n);
        let points: Vec<SweepPoint> = EPSILON_SWEEP
            .iter()
            .map(|&eps| SweepPoint {
                x: format!("{eps}"),
                local: run_local2rounds(&sub, eps, cheap_trials, opts.seed),
                cargo: run_cargo_with(&sub, opts.trials, &opts.config(eps)),
                central: run_central(&sub, eps, cheap_trials, opts.seed),
            })
            .collect();
        let footnote = format!(
            "T = {} triangles on this subsample; {} CARGO trials, {} baseline trials; data: {}.",
            cargo_graph::count_triangles(&sub),
            opts.trials,
            cheap_trials,
            eg.origin_label()
        );
        for (fig, metric) in [("Fig. 5", Metric::L2), ("Fig. 6", Metric::Rel)] {
            let t = render(
                fig,
                metric,
                &format!("vs eps ({}, n={})", ds.display_name(), sub.n()),
                "eps",
                &points,
                &footnote,
            );
            let name = format!(
                "{}_{}",
                if metric == Metric::L2 { "fig5" } else { "fig6" },
                ds.name()
            );
            let _ = t.write_csv(&opts.out_dir, &name);
            tables.push(t);
        }
    }
    tables
}

/// Figs. 7 and 8 from one sweep of n at ε = 2 on Facebook and Wiki.
pub fn fig7_and_8(opts: &Options) -> Vec<Table> {
    let eps = 2.0;
    let cheap_trials = opts.trials * 6;
    let mut tables = Vec::new();
    for ds in [SnapDataset::Facebook, SnapDataset::Wiki] {
        let eg = ExperimentGraph::load(ds, opts);
        let sweep: Vec<usize> = if opts.quick {
            N_SWEEP.iter().copied().filter(|&n| n <= 1000).collect()
        } else {
            N_SWEEP.to_vec()
        };
        let points: Vec<SweepPoint> = sweep
            .iter()
            .map(|&n| {
                let sub = eg.prefix(n);
                SweepPoint {
                    x: n.to_string(),
                    local: run_local2rounds(&sub, eps, cheap_trials, opts.seed),
                    cargo: run_cargo_with(&sub, opts.trials, &opts.config(eps)),
                    central: run_central(&sub, eps, cheap_trials, opts.seed),
                }
            })
            .collect();
        let footnote = format!(
            "eps = 2; {} CARGO trials, {} baseline trials; data: {}.",
            opts.trials,
            cheap_trials,
            eg.origin_label()
        );
        for (fig, metric) in [("Fig. 7", Metric::L2), ("Fig. 8", Metric::Rel)] {
            let t = render(
                fig,
                metric,
                &format!("vs n ({}, eps=2)", ds.display_name()),
                "n",
                &points,
                &footnote,
            );
            let name = format!(
                "{}_{}",
                if metric == Metric::L2 { "fig7" } else { "fig8" },
                ds.name()
            );
            let _ = t.write_csv(&opts.out_dir, &name);
            tables.push(t);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Options {
        Options {
            n: 120,
            trials: 1,
            quick: true,
            out_dir: std::env::temp_dir().join("cargo_bench_utility_test"),
            // The release is schedule-invariant; the dense cube in a
            // debug build is what this test would otherwise wait on.
            schedule: cargo_core::ScheduleKind::Sparse,
            ..Options::default()
        }
    }

    #[test]
    fn metric_extraction() {
        let p = UtilityPoint {
            l2: 4.0,
            rel: 0.5,
            time: std::time::Duration::ZERO,
            count_time: std::time::Duration::ZERO,
            net: cargo_mpc::NetStats::new(),
        };
        assert_eq!(Metric::L2.of(&p), 4.0);
        assert_eq!(Metric::Rel.of(&p), 0.5);
        assert_eq!(Metric::L2.label(), "l2 loss");
    }

    #[test]
    fn fig5_and_6_produce_eight_tables_with_six_rows() {
        let tables = fig5_and_6(&tiny_opts());
        assert_eq!(tables.len(), 8); // 4 datasets × 2 metrics
        for t in &tables {
            assert_eq!(t.len(), EPSILON_SWEEP.len());
        }
    }

    #[test]
    fn fig7_and_8_quick_mode_limits_sweep() {
        let tables = fig7_and_8(&tiny_opts());
        assert_eq!(tables.len(), 4); // 2 datasets × 2 metrics
        for t in &tables {
            assert_eq!(t.len(), 2, "quick mode keeps n <= 1000");
        }
    }
}
