//! The Laplace mechanism.
//!
//! `Lap(λ)` has density `f(x) = exp(−|x|/λ) / (2λ)`; adding `Lap(Δ/ε)`
//! to a query with global sensitivity `Δ` gives ε-DP. Used directly by
//! `Max` (Algorithm 2, λ = 1/ε₁), by the `CentralLap△` baseline
//! (λ = d_max/ε) and inside `Local2Rounds△`.

use rand::Rng;

/// Samples `Lap(scale)` by inverse CDF: with `u ~ U(−½, ½)`,
/// `x = −scale · sgn(u) · ln(1 − 2|u|)`.
///
/// # Panics
/// Panics if `scale` is not finite and positive.
pub fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "Laplace scale must be positive, got {scale}"
    );
    let u: f64 = rng.gen_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Variance of `Lap(scale)`: `2·scale²`. Exposed for the theoretical
/// bounds of Table II.
pub fn laplace_variance(scale: f64) -> f64 {
    2.0 * scale * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples(n: usize, scale: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| sample_laplace(&mut rng, scale)).collect()
    }

    #[test]
    fn mean_is_near_zero() {
        let xs = samples(200_000, 3.0, 1);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        // sd of the mean = sqrt(2)·3 / sqrt(200000) ≈ 0.0095; 5σ ≈ 0.05.
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn variance_matches_two_lambda_squared() {
        let scale = 2.5;
        let xs = samples(200_000, scale, 2);
        let var = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
        let want = laplace_variance(scale);
        assert!(
            (var - want).abs() / want < 0.05,
            "variance {var} vs expected {want}"
        );
    }

    #[test]
    fn distribution_is_symmetric() {
        let xs = samples(100_000, 1.0, 3);
        let pos = xs.iter().filter(|&&x| x > 0.0).count() as f64;
        let frac = pos / xs.len() as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn tail_mass_matches_cdf() {
        // P(|X| > λ·t) = e^{-t}; check t = 1.
        let xs = samples(100_000, 4.0, 4);
        let frac = xs.iter().filter(|&&x| x.abs() > 4.0).count() as f64 / xs.len() as f64;
        let want = (-1.0f64).exp();
        assert!((frac - want).abs() < 0.01, "tail fraction {frac} vs {want}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        sample_laplace(&mut rng, 0.0);
    }
}
