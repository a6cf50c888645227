//! Cauchy sampling, for the smooth-sensitivity mechanism.
//!
//! The paper's discussion (Section IV-B) contrasts its `d'_max`-scaled
//! Laplace noise with smooth-sensitivity (SS) and residual-sensitivity
//! (RS) mechanisms \[47, 48\], which draw noise from a *Cauchy*
//! distribution: finite ε-DP guarantees, but **infinite variance** —
//! the expected l2 loss does not even exist. This module provides the
//! sampler so `cargo-core::sensitivity` can implement that mechanism.

use rand::Rng;

/// Samples a standard Cauchy variable by inverse CDF:
/// `tan(π(u − ½))` for `u ~ U(0,1)`.
pub fn sample_std_cauchy<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid the exact endpoints where tan blows up to ±inf.
    let u: f64 = loop {
        let u = rng.gen_range(0.0f64..1.0);
        if u > 1e-12 && u < 1.0 - 1e-12 {
            break u;
        }
    };
    (std::f64::consts::PI * (u - 0.5)).tan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn median_is_zero_and_quartiles_match() {
        // Cauchy has no mean; test the quantiles instead:
        // P(X < 0) = 1/2, P(|X| < 1) = 1/2 (quartiles at ±1).
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_std_cauchy(&mut rng)).collect();
        let neg = xs.iter().filter(|&&x| x < 0.0).count() as f64 / n as f64;
        let inner = xs.iter().filter(|&&x| x.abs() < 1.0).count() as f64 / n as f64;
        assert!((neg - 0.5).abs() < 0.01, "negative fraction {neg}");
        assert!((inner - 0.5).abs() < 0.01, "|X|<1 fraction {inner}");
    }

    #[test]
    fn heavy_tails_are_present() {
        // P(|X| > 10) = 2/π · arctan(1/10) ≈ 0.0634 — far heavier than
        // any Laplace/Gaussian at comparable scale.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let tail = (0..n)
            .filter(|_| sample_std_cauchy(&mut rng).abs() > 10.0)
            .count() as f64
            / n as f64;
        assert!((tail - 0.0634).abs() < 0.01, "tail {tail}");
    }
}
