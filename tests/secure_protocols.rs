//! Cross-crate checks of the cryptographic layer: the secure count
//! must compute exactly the plaintext triple-product count on every
//! input class, and shares must never leak structure.

use cargo_repro::core::{count_local, CargoConfig, CargoSystem, CountJob};
use cargo_repro::graph::generators::presets::SnapDataset;
use cargo_repro::graph::generators::{chung_lu, erdos_renyi};
use cargo_repro::graph::{count_triangles_matrix, BitMatrix, Graph};
use cargo_repro::mpc::Ring64;
use cargo_testutil::stats::{assert_sign_balanced, mean, DEFAULT_Z};
use cargo_testutil::golden_fixtures;

#[test]
fn secure_count_matches_golden_fixtures() {
    // The shared fixture set pins both hand-counted micro graphs and
    // seeded generator outputs; the secure count must agree with every
    // golden value exactly (it is an exact protocol — all the noise
    // lives in Perturb).
    for f in golden_fixtures() {
        let res = count_local(&f.graph.to_bit_matrix(), &CountJob::new(0xF00D));
        assert_eq!(res.reconstruct(), Ring64(f.triangles), "{}", f.name);
    }
}

#[test]
fn secure_count_exact_on_dataset_subsamples() {
    for ds in [SnapDataset::Facebook, SnapDataset::GrQc] {
        let (full, _) = ds.load_or_synthesize(None, 2);
        let g = full.induced_prefix(250);
        let m = g.to_bit_matrix();
        let want = count_triangles_matrix(&m);
        let res = count_local(&m, &CountJob { threads: 0, ..CountJob::new(0xFEED) });
        assert_eq!(res.reconstruct(), Ring64(want), "{}", ds.name());
    }
}

#[test]
fn secure_count_exact_on_projected_asymmetric_matrices() {
    let g = chung_lu(300, 2500, 80, 2.3, 7);
    let degrees = g.degrees();
    let noisy: Vec<f64> = degrees.iter().map(|&d| d as f64 + 0.5).collect();
    for theta in [5usize, 15, 40] {
        let proj = cargo_repro::core::project_matrix(&g.to_bit_matrix(), &degrees, &noisy, theta);
        let want = count_triangles_matrix(&proj.matrix);
        let res = count_local(&proj.matrix, &CountJob { threads: 4, ..CountJob::new(theta as u64) });
        assert_eq!(res.reconstruct(), Ring64(want), "theta {theta}");
    }
}

#[test]
fn secure_count_exact_on_adversarial_matrices() {
    // All-ones (complete), all-zeros, single star, one-directional bits.
    let n = 40;
    let mut complete = BitMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                complete.set(i, j, true);
            }
        }
    }
    let cases = [
        ("complete", complete),
        ("empty", BitMatrix::zeros(n)),
        ("one-way", {
            let mut m = BitMatrix::zeros(n);
            // Row 0 claims edges to everyone, nobody reciprocates;
            // triples (0,j,k) consult a_0j, a_0k, a_jk → all zero products.
            for j in 1..n {
                m.set(0, j, true);
            }
            m
        }),
    ];
    for (name, m) in cases {
        let want = count_triangles_matrix(&m);
        let res = count_local(&m, &CountJob { threads: 3, ..CountJob::new(11) });
        assert_eq!(res.reconstruct(), Ring64(want), "{name}");
    }
}

#[test]
fn accumulated_shares_look_uniform_across_seeds() {
    // Run the same graph under many seeds: S1's final share should
    // behave like a uniform ring element (balanced popcount), because
    // everything it accumulates is one-time-padded.
    let g = erdos_renyi(60, 0.2, 1);
    let m = g.to_bit_matrix();
    let mut pop = 0u32;
    const RUNS: u32 = 256;
    for seed in 0..RUNS {
        pop += count_local(&m, &CountJob { threads: 2, ..CountJob::new(seed as u64) })
            .share1
            .to_u64()
            .count_ones();
    }
    let mean = pop as f64 / RUNS as f64;
    assert!(
        (mean - 32.0).abs() < 1.5,
        "share popcount mean {mean}, expected ~32"
    );
}

#[test]
fn upload_and_communication_scale_as_documented() {
    let n = 30;
    let g = erdos_renyi(n, 0.3, 2);
    let res = count_local(&g.to_bit_matrix(), &CountJob::new(5));
    let triples = (n * (n - 1) * (n - 2) / 6) as u64;
    assert_eq!(res.triples, triples);
    assert_eq!(res.net.elements, 6 * triples);
    assert_eq!(res.net.bytes, 48 * triples);
    assert_eq!(res.upload_elements, 2 * (n * n) as u64);
}

#[test]
fn full_pipeline_reconstruction_is_consistent_with_diagnostics() {
    // noisy_count − projected_count should equal the aggregate noise;
    // across seeds its mean should be ≈ 0 (unbiasedness of Lemma 1).
    let g = Graph::from_edges(
        6,
        &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
    )
    .unwrap();
    const RUNS: u64 = 400;
    let noise: Vec<f64> = (0..RUNS)
        .map(|s| {
            let out = CargoSystem::new(CargoConfig::new(4.0).with_seed(s * 48271 + 1)).run(&g);
            out.noisy_count - out.projected_count as f64
        })
        .collect();
    // Noise sd per run ≈ sqrt(2)·d'max/3.6 ≈ 1.6; sd of mean ≈ 0.08.
    let m = mean(&noise);
    assert!(m.abs() < 0.5, "noise mean {m} not near zero");
    // Lemma 1 noise is symmetric about zero: positive and negative
    // draws must be balanced.
    assert_sign_balanced("aggregate Lemma-1 noise", &noise, DEFAULT_Z);
}
