//! The sparse Count schedule at large-graph scale.
//!
//! The dense cube touches `C(n, 3)` triples no matter how sparse the
//! input is — at n = 20 000 that is 1.3 × 10¹² Multiplication Groups,
//! far beyond what the CI box (or the paper's testbed) can evaluate.
//! The candidate-driven schedule (`--schedule sparse`) walks only the
//! triples admitted by the public support structure, so a power-law
//! graph of that size completes a full secure count. This experiment
//! measures exactly that claim:
//!
//! 1. at a small cross-check size, dense and sparse release the
//!    **identical** noisy count (surviving-triple shares are
//!    bit-identical by construction);
//! 2. at the target size, the sparse schedule completes a secure
//!    count the dense cube cannot attempt, and the table reports the
//!    evaluated-triple reduction against `C(n, 3)`.

use crate::cli::Options;
use crate::output::Table;
use crate::runners::trial_seed;
use cargo_core::{CargoSystem, ScheduleKind};
use cargo_graph::generators::chung_lu;
use cargo_graph::Graph;
use std::time::Instant;

/// `C(n, 3)` — the dense cube's triple count.
fn dense_cube(n: u64) -> u128 {
    (n as u128) * (n as u128 - 1) * (n as u128 - 2) / 6
}

/// A power-law test graph in the shape the paper's datasets share:
/// heavy-tailed Chung–Lu with ~4 edges per node and a `√n`-scale hub.
fn power_law(n: usize, seed: u64) -> Graph {
    let d_max = ((n as f64).sqrt() * 2.0) as usize;
    chung_lu(n, 4 * n, d_max.max(8), 2.5, seed)
}

/// Runs the `sparse` experiment (see module docs).
pub fn sparse_large(opts: &Options) -> Vec<Table> {
    let mut t = Table::new(
        "Sparse Count schedule: power-law graphs beyond the dense cube",
        &[
            "schedule",
            "n",
            "edges",
            "triples evaluated",
            "C(n,3)",
            "reduction",
            "count s",
            "online MB",
            "T'",
        ],
    );
    let mut row = |schedule: ScheduleKind, g: &Graph, seed: u64| {
        let cfg = opts.config(2.0).with_seed(seed).with_schedule(schedule);
        let start = Instant::now();
        let out = CargoSystem::new(cfg).run(g);
        let _ = start;
        let triples = out.triples;
        let cube = dense_cube(g.n() as u64);
        t.row(vec![
            schedule.to_string(),
            g.n().to_string(),
            g.edge_count().to_string(),
            triples.to_string(),
            cube.to_string(),
            format!("{:.0}x", cube as f64 / (triples.max(1) as f64)),
            format!("{:.3}", out.timings.count.as_secs_f64()),
            format!("{:.2}", out.net.bytes as f64 / 1e6),
            format!("{:.1}", out.noisy_count),
        ]);
        out
    };
    // Cross-check size: both schedules run, and must open the same
    // noisy count from the same seed.
    let small_n = 400.min(opts.n.max(3));
    let small = power_law(small_n, opts.seed);
    let seed = trial_seed(opts.seed, 0, 2.0, small_n);
    let dense = row(ScheduleKind::Dense, &small, seed);
    let sparse = row(ScheduleKind::Sparse, &small, seed);
    let stream = row(ScheduleKind::SparseStream, &small, seed);
    assert_eq!(
        dense.noisy_count, sparse.noisy_count,
        "dense and sparse schedules must release the identical noisy count"
    );
    assert_eq!(
        sparse.noisy_count, stream.noisy_count,
        "eager and streamed sparse schedules must release the identical noisy count"
    );
    // Target size: sparse only — the dense cube cannot attempt it.
    if opts.n > small_n {
        let big = power_law(opts.n, opts.seed);
        row(ScheduleKind::Sparse, &big, trial_seed(opts.seed, 0, 2.0, opts.n));
    }
    t.footnote(
        "eps = 2; the cross-check rows pin dense T' == sparse T' bit for bit; \
         the target row is sparse-only (the dense cube at that n is not \
         attemptable).",
    );
    let _ = t.write_csv(&opts.out_dir, "sparse_schedule");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_experiment_cross_checks_and_reports_reduction() {
        let opts = Options {
            n: 600,
            trials: 1,
            out_dir: std::env::temp_dir().join("cargo_bench_sparse_test"),
            ..Options::default()
        };
        let tables = sparse_large(&opts);
        assert_eq!(tables.len(), 1);
        // dense + sparse + sparse-stream cross-check rows, plus the
        // sparse target row.
        assert_eq!(tables[0].len(), 4);
    }

    #[test]
    fn dense_cube_formula() {
        assert_eq!(dense_cube(4), 4);
        assert_eq!(dense_cube(20_000), 1_333_133_340_000);
    }
}
