//! Algorithm 2 — `Max`: private estimation of the maximum degree.
//!
//! Each user `vᵢ` adds `Lap(1/ε₁)` to her degree `dᵢ` and sends the
//! noisy degree to one server; the server returns
//! `d'_max = max(d'_1, …, d'_n)`. The sensitivity is 1 because, under
//! Edge LDP, the two directions of an edge are distinct secrets, so one
//! edge change moves one degree by one (Theorem 3: `Max` is ε₁-Edge
//! LDP; every later use of `D'` is post-processing).

use cargo_dp::sample_laplace;
use rand::Rng;

/// Output of the `Max` round: the full noisy degree set `D'` (users
/// also need each *other's* noisy degree for the similarity projection)
/// and the noisy maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxDegreeEstimate {
    /// Noisy degrees `d'_i = d_i + Lap(1/ε₁)` in user order.
    pub noisy_degrees: Vec<f64>,
    /// `d'_max = max_i d'_i`.
    pub d_max_noisy: f64,
}

impl MaxDegreeEstimate {
    /// `d'_max` rounded for use as the projection parameter θ and the
    /// perturbation sensitivity Δ: clamped to at least 1 (a graph with
    /// edges has `d_max ≥ 1`, and a zero/negative sensitivity would be
    /// ill-formed).
    pub fn as_parameter(&self) -> usize {
        self.d_max_noisy.round().max(1.0) as usize
    }

    /// `d'_max` as a positive float sensitivity for `Perturb`.
    pub fn as_sensitivity(&self) -> f64 {
        self.d_max_noisy.max(1.0)
    }
}

/// Runs Algorithm 2 on the degree set `D`.
///
/// # Panics
/// Panics if `epsilon1 <= 0` or `degrees` is empty.
pub fn estimate_max_degree<R: Rng + ?Sized>(
    degrees: &[usize],
    epsilon1: f64,
    rng: &mut R,
) -> MaxDegreeEstimate {
    assert!(epsilon1 > 0.0, "epsilon1 must be positive, got {epsilon1}");
    noisy_max_degree(degrees, 1.0 / epsilon1, rng)
}

/// Algorithm 2 with each user adding `Lap(scale)`: `1/ε₁` under Edge
/// DP ([`estimate_max_degree`]), `n/ε₁` under Node DP, where one user
/// moves up to `n` degrees.
pub(crate) fn noisy_max_degree<R: Rng + ?Sized>(
    degrees: &[usize],
    scale: f64,
    rng: &mut R,
) -> MaxDegreeEstimate {
    assert!(!degrees.is_empty(), "need at least one user");
    let noisy_degrees: Vec<f64> = degrees
        .iter()
        .map(|&d| d as f64 + sample_laplace(rng, scale))
        .collect();
    let d_max_noisy = noisy_degrees
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    MaxDegreeEstimate {
        noisy_degrees,
        d_max_noisy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noisy_max_tracks_true_max() {
        // Table V of the paper: d'_max ≈ d_max with < 1% average
        // relative error at the experiment's ε₁ values.
        let mut rng = StdRng::seed_from_u64(1);
        let degrees: Vec<usize> = (0..2000).map(|i| (i * 7) % 400 + 1).collect();
        let d_max = *degrees.iter().max().unwrap() as f64;
        let mut rel_errors = Vec::new();
        for _ in 0..50 {
            let est = estimate_max_degree(&degrees, 0.2, &mut rng);
            rel_errors.push((est.d_max_noisy - d_max).abs() / d_max);
        }
        let avg = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
        assert!(avg < 0.2, "average relative error {avg}");
    }

    #[test]
    fn noisy_max_is_biased_upward() {
        // max of noisy values ≥ noisy value at the argmax ⇒ positive
        // bias; the paper observes d'_max ≥ d_max "in most cases".
        let mut rng = StdRng::seed_from_u64(2);
        let degrees: Vec<usize> = vec![10; 1000]; // all-equal worst case
        let mut over = 0;
        const TRIALS: usize = 100;
        for _ in 0..TRIALS {
            let est = estimate_max_degree(&degrees, 1.0, &mut rng);
            if est.d_max_noisy >= 10.0 {
                over += 1;
            }
        }
        assert!(over > TRIALS * 9 / 10, "upward bias violated: {over}");
    }

    #[test]
    fn noisy_degrees_cover_every_user() {
        let mut rng = StdRng::seed_from_u64(3);
        let est = estimate_max_degree(&[1, 2, 3], 1.0, &mut rng);
        assert_eq!(est.noisy_degrees.len(), 3);
        assert!(est.d_max_noisy >= est.noisy_degrees[0]);
    }

    #[test]
    fn parameter_is_clamped_positive() {
        let est = MaxDegreeEstimate {
            noisy_degrees: vec![-5.0],
            d_max_noisy: -5.0,
        };
        assert_eq!(est.as_parameter(), 1);
        assert_eq!(est.as_sensitivity(), 1.0);
    }

    #[test]
    fn higher_epsilon_means_tighter_estimate() {
        let degrees: Vec<usize> = (0..500).map(|i| i % 100).collect();
        let spread = |eps: f64, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200)
                .map(|_| {
                    let e = estimate_max_degree(&degrees, eps, &mut rng);
                    (e.d_max_noisy - 99.0).abs()
                })
                .sum::<f64>()
                / 200.0
        };
        assert!(spread(3.0, 4) < spread(0.1, 4));
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_degrees_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        estimate_max_degree(&[], 1.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_epsilon_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        estimate_max_degree(&[1], 0.0, &mut rng);
    }
}
