//! End-to-end integration: the full CARGO pipeline against ground
//! truth, across graph families and against the paper's claims.

use cargo_repro::baselines::{central_lap_triangles, local2rounds_triangles, Local2RoundsConfig};
use cargo_repro::core::{theory, CargoConfig, CargoSystem, ScheduleKind};
use cargo_repro::graph::generators::presets::SnapDataset;
use cargo_repro::graph::generators::{barabasi_albert, erdos_renyi, watts_strogatz};
use cargo_repro::graph::{count_triangles, Graph};
use cargo_testutil::golden_fixtures;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn pipeline_ground_truth_matches_golden_fixtures() {
    // `true_count` is plaintext bookkeeping, so it must hit the shared
    // golden values exactly on every fixture, however tiny.
    for f in golden_fixtures() {
        let out = CargoSystem::new(CargoConfig::new(4.0).with_seed(11)).run(&f.graph);
        assert_eq!(out.true_count, f.triangles, "{}", f.name);
        assert!(out.noisy_count.is_finite(), "{}", f.name);
        assert!(out.projected_count <= out.true_count, "{}", f.name);
    }
}

/// The config of the statistical trials below: the noisy release is
/// bit-identical across Count schedules (pinned by
/// `protocol::tests::sparse_schedule_releases_the_same_noisy_count…`
/// and `sparse_equivalence.rs`), so the sparse walk samples exactly the
/// values the dense cube would while evaluating orders of magnitude
/// fewer triples in this debug build.
fn trial_config(epsilon: f64, seed: u64) -> CargoConfig {
    CargoConfig::new(epsilon).with_seed(seed).with_schedule(ScheduleKind::Sparse)
}

fn mean_l2<F: FnMut(u64) -> f64>(t_true: f64, trials: u64, mut f: F) -> f64 {
    (0..trials)
        .map(|s| {
            let e = f(s) - t_true;
            e * e
        })
        .sum::<f64>()
        / trials as f64
}

#[test]
fn cargo_is_accurate_on_every_graph_family() {
    // The protocol should track the truth (relative error < 20% at a
    // generous budget) on scale-free, small-world, and ER graphs alike.
    let graphs: Vec<(&str, Graph)> = vec![
        ("barabasi", barabasi_albert(300, 6, 1)),
        ("watts", watts_strogatz(300, 10, 0.1, 2)),
        ("erdos", erdos_renyi(300, 0.1, 3)),
    ];
    for (name, g) in graphs {
        let t = count_triangles(&g) as f64;
        assert!(t > 0.0, "{name} must have triangles");
        let out = CargoSystem::new(CargoConfig::new(6.0).with_seed(5)).run(&g);
        let rel = (out.noisy_count - t).abs() / t;
        assert!(rel < 0.2, "{name}: rel error {rel} (T={t}, T'={})", out.noisy_count);
    }
}

#[test]
fn utility_ordering_on_calibrated_dataset() {
    // Fig. 5's claim at integration scale: Local2Rounds ≫ CARGO ≈ Central.
    let (full, _) = SnapDataset::Facebook.load_or_synthesize(None, 0);
    let g = full.induced_prefix(600);
    let t = count_triangles(&g) as f64;
    let trials = 6;
    let l2_cargo = mean_l2(t, trials, |s| {
        CargoSystem::new(trial_config(2.0, 0x1000 + s * 7919))
            .run(&g)
            .noisy_count
    });
    let l2_central = mean_l2(t, trials, |s| {
        let mut rng = StdRng::seed_from_u64(0x2000 + s * 104729);
        central_lap_triangles(&g, 2.0, &mut rng).noisy_count
    });
    let l2_local = mean_l2(t, trials, |s| {
        let mut rng = StdRng::seed_from_u64(0x3000 + s * 1299709);
        local2rounds_triangles(&g, Local2RoundsConfig::paper_split(2.0), &mut rng).noisy_count
    });
    assert!(
        l2_local > 10.0 * l2_cargo,
        "local {l2_local} vs cargo {l2_cargo}"
    );
    assert!(
        l2_cargo < 50.0 * l2_central,
        "cargo {l2_cargo} vs central {l2_central}"
    );
}

#[test]
fn measured_error_matches_theory_bound() {
    // Theorem 6: E[l2] of the perturbation ≈ 2(d'_max/ε₂)². Measured
    // end-to-end error (which adds projection loss and d'max noise)
    // should be within a small factor of the bound.
    let g = barabasi_albert(400, 5, 9);
    let t = count_triangles(&g) as f64;
    let eps = 2.0;
    let trials = 30;
    let measured = mean_l2(t, trials, |s| {
        CargoSystem::new(trial_config(eps, 0xAA00 + s * 6151))
            .run(&g)
            .noisy_count
    });
    let d_max = g.max_degree() as f64;
    let bound = theory::cargo_expected_l2(d_max, 0.9 * eps);
    assert!(
        measured < 6.0 * bound && measured > bound / 6.0,
        "measured {measured} vs theory {bound}"
    );
}

#[test]
fn epsilon_monotonicity_end_to_end() {
    // More budget, less error (averaged over seeds).
    let g = barabasi_albert(250, 5, 13);
    let t = count_triangles(&g) as f64;
    let trials = 20;
    let l2_at = |eps: f64| {
        mean_l2(t, trials, |s| {
            CargoSystem::new(trial_config(eps, 0xBB00 + s * 3571))
                .run(&g)
                .noisy_count
        })
    };
    let low = l2_at(0.5);
    let high = l2_at(3.0);
    assert!(
        low > 3.0 * high,
        "l2 at eps=0.5 ({low}) should far exceed l2 at eps=3 ({high})"
    );
}

#[test]
fn snap_presets_run_through_the_full_pipeline() {
    for ds in SnapDataset::TABLE4 {
        let (full, _) = ds.load_or_synthesize(None, 1);
        let g = full.induced_prefix(300);
        let out = CargoSystem::new(CargoConfig::new(2.0).with_seed(3)).run(&g);
        assert!(out.noisy_count.is_finite(), "{}", ds.name());
        assert!(out.true_count > 0, "{} preset has no triangles", ds.name());
        assert!(out.projected_count <= out.true_count);
    }
}

#[test]
fn node_dp_extension_is_strictly_noisier() {
    let g = barabasi_albert(200, 5, 17);
    let t = count_triangles(&g) as f64;
    let trials = 10;
    let edge = mean_l2(t, trials, |s| {
        CargoSystem::new(trial_config(2.0, 0xCC00 + s * 2903))
            .run(&g)
            .noisy_count
    });
    let node = mean_l2(t, trials, |s| {
        cargo_repro::core::node_dp::run_node_dp(&trial_config(2.0, 0xCC00 + s * 2903), &g)
            .noisy_count
    });
    assert!(
        node > 10.0 * edge,
        "node-DP l2 {node} should dwarf edge-DP l2 {edge}"
    );
}
