//! Extension experiments beyond the paper's figures.
//!
//! * [`ext_sensitivity`] — empirically reproduces the Section IV-B
//!   *discussion*: `d'_max`-scaled Laplace (CARGO's choice, finite
//!   variance) vs the smooth-sensitivity Cauchy mechanism (constant
//!   noise on easy instances, infinite variance). Reported as median
//!   absolute error (the Cauchy mean does not exist) plus the l2 loss
//!   (which showcases the infinite-variance pathology).
//! * [`ext_node_dp`] — the Section III-B extension: CARGO under Node
//!   DDP vs Edge DDP, quantifying the sensitivity blow-up
//!   (`d'_max` → `C(d'_max, 2)`) the paper leaves as future work to
//!   tame.

use crate::cli::Options;
use crate::datasets::ExperimentGraph;
use crate::output::{sci, Table};
use crate::runners::trial_seed;
use cargo_core::{
    node_dp::run_node_dp, smooth_sensitivity, smooth_sensitivity_mechanism, CargoSystem,
};
use cargo_graph::generators::presets::SnapDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() / 2]
}

/// Global-sensitivity Laplace (CARGO) vs smooth-sensitivity Cauchy.
pub fn ext_sensitivity(opts: &Options) -> Vec<Table> {
    let eps = 2.0;
    let mut t = Table::new(
        "Extension: d'_max Laplace (CARGO) vs smooth-sensitivity Cauchy (eps = 2)",
        &[
            "Graph",
            "S_beta",
            "d_max",
            "CARGO median |err|",
            "SS median |err|",
            "CARGO l2",
            "SS l2",
        ],
    );
    let trials = (opts.trials * 4).max(8);
    for ds in SnapDataset::TABLE4 {
        let eg = ExperimentGraph::load(ds, opts);
        let g = eg.prefix(opts.n.min(800)); // LS computation is O(wedges)
        let t_true = cargo_graph::count_triangles(&g) as f64;
        let mut cargo_err = Vec::with_capacity(trials);
        let mut ss_err = Vec::with_capacity(trials);
        for trial in 0..trials {
            let cfg = opts.config(eps).with_seed(trial_seed(opts.seed, trial, eps, g.n()));
            let out = CargoSystem::new(cfg).run(&g);
            cargo_err.push((out.noisy_count - t_true).abs());
            let mut rng =
                StdRng::seed_from_u64(trial_seed(opts.seed ^ 0x55, trial, eps, g.n()));
            let (ss_out, _) = smooth_sensitivity_mechanism(&g, eps, &mut rng);
            ss_err.push((ss_out - t_true).abs());
        }
        let l2 = |v: &[f64]| v.iter().map(|e| e * e).sum::<f64>() / v.len() as f64;
        t.row(vec![
            format!("{} (n={})", ds.display_name(), g.n()),
            format!("{:.1}", smooth_sensitivity(&g, eps / 6.0)),
            g.max_degree().to_string(),
            sci(median(cargo_err.clone())),
            sci(median(ss_err.clone())),
            sci(l2(&cargo_err)),
            sci(l2(&ss_err)),
        ]);
    }
    t.footnote(
        "Median |err| is the fair comparison (Cauchy has no mean); the l2 column shows the heavy-tail pathology the paper's discussion predicts.",
    );
    let _ = t.write_csv(&opts.out_dir, "ext_sensitivity");
    vec![t]
}

/// Edge DDP vs the Node-DDP extension.
pub fn ext_node_dp(opts: &Options) -> Vec<Table> {
    let eps = 2.0;
    let mut t = Table::new(
        "Extension: Edge DDP vs Node DDP (eps = 2)",
        &[
            "Graph",
            "Edge rel. err",
            "Node rel. err",
            "Node/Edge l2 ratio",
        ],
    );
    let trials = opts.trials.max(3);
    for ds in [SnapDataset::Facebook, SnapDataset::Wiki] {
        let eg = ExperimentGraph::load(ds, opts);
        let g = eg.prefix(opts.n.min(1000));
        let t_true = cargo_graph::count_triangles(&g) as f64;
        let mut edge_l2 = 0.0;
        let mut node_l2 = 0.0;
        let mut edge_rel = 0.0;
        let mut node_rel = 0.0;
        for trial in 0..trials {
            let cfg = opts.config(eps).with_seed(trial_seed(opts.seed, trial, eps, g.n()));
            let e = CargoSystem::new(cfg).run(&g);
            let n_out = run_node_dp(&cfg, &g);
            edge_l2 += (e.noisy_count - t_true).powi(2);
            node_l2 += (n_out.noisy_count - t_true).powi(2);
            edge_rel += (e.noisy_count - t_true).abs() / t_true;
            node_rel += (n_out.noisy_count - t_true).abs() / t_true;
        }
        let k = trials as f64;
        t.row(vec![
            format!("{} (n={})", ds.display_name(), g.n()),
            sci(edge_rel / k),
            sci(node_rel / k),
            sci((node_l2 / k) / (edge_l2 / k).max(1e-12)),
        ]);
    }
    t.footnote("Node DDP pays the C(d'_max,2) sensitivity of Section III-B; reducing it is the paper's stated future work.");
    let _ = t.write_csv(&opts.out_dir, "ext_node_dp");
    vec![t]
}


/// Validates Observation 1 (triangle homogeneity, Durak et al. \[24\]):
/// edges that close triangles connect nodes of more similar degree
/// than the average edge. This is the empirical premise behind
/// Algorithm 3's similarity heuristic.
pub fn ext_homogeneity(opts: &Options) -> Vec<Table> {
    let mut t = Table::new(
        "Extension: Observation 1 — triangle homogeneity per dataset",
        &[
            "Graph",
            "mean DS (triangle edges)",
            "mean DS (all edges)",
            "homogeneity ratio",
        ],
    );
    for ds in SnapDataset::TABLE4 {
        let eg = ExperimentGraph::load(ds, opts);
        let g = eg.prefix(opts.n.min(4000));
        match cargo_graph::degree::triangle_homogeneity(&g) {
            Some((tri, all)) => {
                t.row(vec![
                    format!("{} (n={})", ds.display_name(), g.n()),
                    format!("{tri:.4}"),
                    format!("{all:.4}"),
                    format!("{:.3}", tri / all.max(1e-12)),
                ]);
            }
            None => t.row(vec![
                ds.display_name().into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t.footnote(
        "DS(d_u, d_v) = |d_u - d_v| / d_u (Definition 5); ratio < 1 confirms triangle edges are more degree-homogeneous, justifying similarity-based projection.",
    );
    let _ = t.write_csv(&opts.out_dir, "ext_homogeneity");
    vec![t]
}

/// Ablation: CARGO with vs without projection. Without projection the
/// perturbation sensitivity is n (no triangles are lost, but the noise
/// explodes) — quantifying why Step 1 exists.
pub fn ext_projection_ablation(opts: &Options) -> Vec<Table> {
    let eps = 2.0;
    let mut t = Table::new(
        "Extension: projection ablation (eps = 2)",
        &[
            "Graph",
            "with projection: rel err",
            "without: rel err",
            "l2 ratio (without/with)",
        ],
    );
    let trials = opts.trials.max(3);
    for ds in [SnapDataset::Facebook, SnapDataset::HepPh] {
        let eg = ExperimentGraph::load(ds, opts);
        let g = eg.prefix(opts.n.min(1000));
        let t_true = cargo_graph::count_triangles(&g) as f64;
        let mut with = (0.0f64, 0.0f64); // (sum rel, sum l2)
        let mut without = (0.0f64, 0.0f64);
        for trial in 0..trials {
            let cfg = opts.config(eps).with_seed(trial_seed(opts.seed, trial, eps, g.n()));
            let a = CargoSystem::new(cfg).run(&g);
            let mut ablated = cfg;
            ablated.projection = false;
            let b = CargoSystem::new(ablated).run(&g);
            with.0 += (a.noisy_count - t_true).abs() / t_true;
            with.1 += (a.noisy_count - t_true).powi(2);
            without.0 += (b.noisy_count - t_true).abs() / t_true;
            without.1 += (b.noisy_count - t_true).powi(2);
        }
        let k = trials as f64;
        t.row(vec![
            format!("{} (n={})", ds.display_name(), g.n()),
            sci(with.0 / k),
            sci(without.0 / k),
            sci((without.1 / k) / (with.1 / k).max(1e-12)),
        ]);
    }
    t.footnote("Without Step 1 the count is exact pre-noise but the sensitivity is n instead of d'_max.");
    let _ = t.write_csv(&opts.out_dir, "ext_projection_ablation");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Options {
        Options {
            n: 120,
            trials: 1,
            out_dir: std::env::temp_dir().join("cargo_bench_ext_test"),
            // The release is schedule-invariant; the dense cube in a
            // debug build is what these tests would otherwise wait on.
            cfg: cargo_core::CargoConfig {
                schedule: cargo_core::ScheduleKind::Sparse,
                ..Options::default().cfg
            },
            ..Options::default()
        }
    }

    #[test]
    fn ext_sensitivity_covers_datasets() {
        let t = &ext_sensitivity(&tiny_opts())[0];
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ext_node_dp_covers_two_graphs() {
        let t = &ext_node_dp(&tiny_opts())[0];
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ext_homogeneity_covers_datasets() {
        let t = &ext_homogeneity(&tiny_opts())[0];
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ext_ablation_shows_projection_benefit() {
        let t = &ext_projection_ablation(&tiny_opts())[0];
        assert_eq!(t.len(), 2);
    }
}
