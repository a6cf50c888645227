//! Property-based integration tests: invariants that must hold for
//! arbitrary graphs, budgets, and seeds.

use cargo_repro::core::{count_local, project_matrix, CargoConfig, CargoSystem, CountJob};
use cargo_repro::graph::{count_triangles_matrix, Graph};
use cargo_repro::mpc::Ring64;
use proptest::prelude::*;

/// Strategy: a random simple graph on up to `max_n` nodes as an edge
/// probability + seed pair realised through the ER generator.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n, 0.0f64..0.6, any::<u64>()).prop_map(|(n, p, seed)| {
        cargo_repro::graph::generators::erdos_renyi(n, p, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn secure_count_equals_plaintext_for_arbitrary_graphs(
        g in arb_graph(36),
        seed: u64,
    ) {
        let m = g.to_bit_matrix();
        let want = count_triangles_matrix(&m);
        let res = count_local(&m, &CountJob { threads: 2, ..CountJob::new(seed) });
        prop_assert_eq!(res.reconstruct(), Ring64(want));
    }

    #[test]
    fn projection_never_increases_degrees_or_triangles(
        g in arb_graph(40),
        theta in 1usize..20,
    ) {
        let m = g.to_bit_matrix();
        let degrees = g.degrees();
        let noisy: Vec<f64> = degrees.iter().map(|&d| d as f64).collect();
        let res = project_matrix(&m, &degrees, &noisy, theta);
        for (i, &deg) in degrees.iter().enumerate() {
            prop_assert!(res.matrix.degree(i) <= deg);
            prop_assert!(res.matrix.degree(i) <= theta.max(deg.min(theta)));
        }
        prop_assert!(
            count_triangles_matrix(&res.matrix) <= count_triangles_matrix(&m)
        );
    }

    #[test]
    fn pipeline_diagnostics_are_internally_consistent(
        g in arb_graph(30),
        eps in 0.5f64..4.0,
        seed: u64,
    ) {
        let out = CargoSystem::new(CargoConfig::new(eps).with_seed(seed)).run(&g);
        // Projection can only lose triangles.
        prop_assert!(out.projected_count <= out.true_count);
        // Ledger must sum to the declared budget.
        let spent: f64 = out.ledger.iter().map(|(_, e)| e).sum();
        prop_assert!((spent - eps).abs() < 1e-9);
        // Output must be finite.
        prop_assert!(out.noisy_count.is_finite());
        // Communication accounting is non-trivial for n >= 3.
        prop_assert!(out.net.elements >= 1);
    }

    #[test]
    fn fixed_seed_fixed_output(g in arb_graph(24), eps in 0.5f64..3.0, seed: u64) {
        let cfg = CargoConfig::new(eps).with_seed(seed);
        let a = CargoSystem::new(cfg).run(&g);
        let b = CargoSystem::new(cfg).run(&g);
        prop_assert_eq!(a.noisy_count, b.noisy_count);
        prop_assert_eq!(a.d_max_noisy, b.d_max_noisy);
        prop_assert_eq!(a.net, b.net);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_share_reconstruct_arbitrary_values(x: u64, seed: u64) {
        use cargo_repro::mpc::{share_with, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let p = share_with(Ring64(x), &mut rng);
        prop_assert_eq!(p.reconstruct(), Ring64(x));
    }

    #[test]
    fn fixed_point_homomorphism_arbitrary_noise(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        use cargo_repro::dp::FixedPointCodec;
        let c = FixedPointCodec::new(16);
        let decoded = c.decode(c.encode(a) + c.encode(b));
        prop_assert!((decoded - (a + b)).abs() <= 1.0 / c.scale_f64());
    }

    #[test]
    fn secure_count_matches_golden_fixture_under_any_seed(
        idx in 0usize..cargo_testutil::golden_fixtures().len(),
        seed: u64,
    ) {
        // The golden fixture set (cargo-testutil) pins known triangle
        // counts; the secure protocol must reproduce each of them under
        // every sharing seed.
        let fixtures = cargo_testutil::golden_fixtures();
        let f = &fixtures[idx];
        let res = count_local(&f.graph.to_bit_matrix(), &CountJob { threads: 2, ..CountJob::new(seed) });
        prop_assert_eq!(res.reconstruct(), Ring64(f.triangles));
    }
}
