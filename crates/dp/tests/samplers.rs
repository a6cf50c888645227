//! Statistical regression tests for the `cargo-dp` samplers.
//!
//! Each sampler's draws under a fixed seed are checked against the
//! documented moments of its distribution using the CLT-sized
//! tolerance helpers from `cargo-testutil`. Tolerances use a z-budget
//! of 6 standard errors, so failures mean a real change in sampler
//! behaviour (wrong scale, lost symmetry, shifted mean), not an
//! unlucky seed.

use cargo_dp::{
    laplace_variance, sample_gamma, sample_laplace, sample_std_cauchy, DistributedLaplace,
};
use cargo_testutil::stats::{
    assert_mean_close, assert_sign_balanced, assert_variance_close, mean, DEFAULT_Z,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 200_000;

fn draws(seed: u64, mut f: impl FnMut(&mut StdRng) -> f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N).map(|_| f(&mut rng)).collect()
}

#[test]
fn laplace_moments_match_scale() {
    for (seed, scale) in [(1u64, 0.5f64), (2, 1.0), (3, 4.0)] {
        let xs = draws(seed, |rng| sample_laplace(rng, scale));
        let var = laplace_variance(scale);
        assert_eq!(var, 2.0 * scale * scale);
        let label = format!("Lap(scale={scale})");
        assert_mean_close(&label, &xs, 0.0, var, DEFAULT_Z);
        // Laplace has excess kurtosis 3 → kurtosis factor 4 in the
        // variance-of-variance formula (κ/σ⁴ − 1 = 5 − 1 over 2).
        assert_variance_close(&label, &xs, var, 3.0, DEFAULT_Z);
        assert_sign_balanced(&label, &xs, DEFAULT_Z);
    }
}

#[test]
fn gamma_moments_match_shape_scale() {
    // Covers both Marsaglia–Tsang regimes: α ≥ 1 directly, and the
    // α < 1 boost used by the distributed-noise decomposition where
    // each of n users draws Gamma(1/n, λ).
    for (seed, shape, scale) in [(6u64, 2.5f64, 1.5f64), (7, 1.0, 2.0), (8, 0.25, 1.0)] {
        let xs = draws(seed, |rng| sample_gamma(rng, shape, scale));
        assert!(xs.iter().all(|&x| x >= 0.0), "Gamma draws must be >= 0");
        let (m, v) = (shape * scale, shape * scale * scale);
        let label = format!("Gamma({shape}, {scale})");
        assert_mean_close(&label, &xs, m, v, DEFAULT_Z);
        // Gamma's variance-of-variance blows up as shape shrinks
        // (excess kurtosis 6/α): inflate the band accordingly.
        assert_variance_close(&label, &xs, v, 1.0 + 3.0 / shape, DEFAULT_Z);
    }
}

#[test]
fn std_cauchy_median_is_zero() {
    let mut xs = draws(11, sample_std_cauchy);
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let median = xs[N / 2];
    let tol = DEFAULT_Z * std::f64::consts::PI / 2.0 / (N as f64).sqrt();
    assert!(median.abs() <= tol, "median {median:.5} exceeds {tol:.5}");
}

#[test]
fn distributed_partials_sum_to_laplace() {
    // Lemma 1: the sum of n partial noises is distributed as
    // Lap(sensitivity/epsilon). Check the aggregate's moments.
    let (n_users, sensitivity, epsilon) = (16usize, 2.0f64, 0.5f64);
    let mech = DistributedLaplace::new(n_users, sensitivity, epsilon);
    let mut rng = StdRng::seed_from_u64(12);
    let sums: Vec<f64> = (0..50_000)
        .map(|_| mech.sample_all(&mut rng).iter().sum::<f64>())
        .collect();
    let var = mech.aggregate_variance();
    let scale = sensitivity / epsilon;
    assert!((var - 2.0 * scale * scale).abs() < 1e-9);
    assert_mean_close("distributed Laplace sum", &sums, 0.0, var, DEFAULT_Z);
    assert_variance_close("distributed Laplace sum", &sums, var, 3.0, DEFAULT_Z);
    assert_sign_balanced("distributed Laplace sum", &sums, DEFAULT_Z);
}

#[test]
fn fixed_seed_reproduces_identical_streams() {
    let a = draws(13, |rng| sample_laplace(rng, 1.0));
    let b = draws(13, |rng| sample_laplace(rng, 1.0));
    assert_eq!(a, b);
    assert!(mean(&a).abs() < 0.1);
}
