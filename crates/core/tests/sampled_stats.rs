//! Statistical pinning of the sampled estimator against the *exact
//! secure count* on the golden fixture graphs, with CLT-sized bands
//! from `cargo_testutil::stats` (no hand-tuned tolerances).
//!
//! The Horvitz–Thompson estimator `T̂ = raw/q` is unbiased with
//! per-run variance `T(1−q)/q`; averaging over `TRIALS` independent
//! public coins shrinks the standard error by `√TRIALS`, and the
//! assertions budget `z = 6` standard errors (spurious failure
//! probability < 1e-8 under fixed seeds).

use cargo_core::{count_local, count_sampled, CountJob, SampledCountResult};
use cargo_mpc::Ring64;
use cargo_testutil::golden_fixtures;
use cargo_testutil::stats::{assert_mean_close, variance, DEFAULT_Z};

const TRIALS: u64 = 60;

fn job(seed: u64, threads: usize) -> CountJob {
    CountJob { threads, ..CountJob::new(seed) }
}

#[test]
fn sampled_estimate_is_unbiased_against_the_exact_secure_count() {
    for f in golden_fixtures() {
        let m = f.graph.to_bit_matrix();
        // The reference value is the secure protocol's own exact count,
        // not the plaintext counter (they must agree, and do — pinned
        // elsewhere — but this suite targets the sampled variant).
        let exact = count_local(&m, &job(0xCA60, 2));
        assert_eq!(exact.reconstruct(), Ring64(f.triangles), "{}", f.name);
        let t = f.triangles as f64;
        for rate in [0.5f64, 0.25] {
            let estimates: Vec<f64> = (0..TRIALS)
                .map(|s| count_sampled(&m, rate, &job(0xBEEF + s * 7919, 2)).estimate())
                .collect();
            assert_mean_close(
                &format!("{} sampled q={rate}", f.name),
                &estimates,
                t,
                SampledCountResult::sampling_variance(t, rate),
                DEFAULT_Z,
            );
        }
    }
}

#[test]
fn sampled_estimator_variance_tracks_the_formula() {
    // On the densest generator fixture the empirical variance of the
    // estimator should sit in a CLT-sized band around T(1−q)/q.
    // Var[sample variance] ≈ 2σ⁴/(n−1) · kurtosis factor; the
    // binomially-thinned sum is close to Gaussian here, factor 2 is
    // generous.
    let fixtures = golden_fixtures();
    let f = fixtures.iter().find(|f| f.name == "ba_64").expect("fixture");
    let m = f.graph.to_bit_matrix();
    let t = f.triangles as f64;
    let rate = 0.5;
    let estimates: Vec<f64> = (0..200u64)
        .map(|s| count_sampled(&m, rate, &job(0x5EED + s * 104729, 2)).estimate())
        .collect();
    let want = SampledCountResult::sampling_variance(t, rate);
    let got = variance(&estimates);
    let se = (2.0 * 2.0 * want * want / (estimates.len() - 1) as f64).sqrt();
    assert!(
        (got - want).abs() <= DEFAULT_Z * se,
        "empirical variance {got:.1} outside {want:.1} ± {:.1}",
        DEFAULT_Z * se
    );
}

#[test]
fn zero_triangle_fixtures_always_estimate_zero() {
    // With T = 0 every sampled subset sums to zero: the estimator is
    // exact, not merely unbiased.
    for f in golden_fixtures().iter().filter(|f| f.triangles == 0) {
        let m = f.graph.to_bit_matrix();
        for s in 0..10u64 {
            let est = count_sampled(&m, 0.3, &CountJob::new(s)).estimate();
            assert_eq!(est, 0.0, "{} seed {s}", f.name);
        }
    }
}
