//! Algorithm 5 — `Perturb`: distributed perturbation.
//!
//! Each user samples the partial noise
//! `γᵢ = Gam₁(1/n, Δ/ε₂) − Gam₂(1/n, Δ/ε₂)` (Lemma 1), encodes it in
//! fixed point, splits it into additive shares and uploads one share to
//! each server. The servers aggregate the noise shares, add them to
//! their (denominator-aligned) count shares, exchange the final shares
//! and reconstruct the noisy count `T'`. Privacy: the aggregate noise
//! is exactly `Lap(Δ/ε₂)`, giving ε₂-Edge DDP (Theorem 4); no server
//! ever sees an individual γᵢ or the un-noised count.

use cargo_dp::{DistributedLaplace, FixedPointCodec};
use cargo_mpc::{share_with, Ring64, SplitMix64};
use rand::Rng;

/// Lines 1–8 of Algorithm 5 from the servers' viewpoint: every user
/// samples her partial noise `γᵢ`, encodes it, splits it, and uploads
/// one share to each server; the servers aggregate as shares arrive.
/// Returns the two aggregated noise shares `(Σ⟨γ⟩₁, Σ⟨γ⟩₂)`.
///
/// Lines 9–11 — lift the count shares to the fixed-point denominator,
/// add these, exchange and decode — are Algorithm 1's last step
/// ([`crate::protocol`]). The uploads are deterministic in the seeds,
/// so each standalone party process ([`crate::party`]) replays them and
/// keeps only its own aggregate — exactly what its users would have
/// sent it.
pub fn aggregate_noise_shares<R: Rng + ?Sized>(
    n_users: usize,
    sensitivity: f64,
    epsilon2: f64,
    codec: FixedPointCodec,
    noise_rng: &mut R,
    share_seed: u64,
) -> (Ring64, Ring64) {
    let dist = DistributedLaplace::new(n_users, sensitivity, epsilon2);
    let mut share_rng = SplitMix64::new(share_seed);
    let mut gamma1 = Ring64::ZERO;
    let mut gamma2 = Ring64::ZERO;
    for _ in 0..n_users {
        let gamma = dist.sample_partial(noise_rng);
        let encoded = codec.encode(gamma);
        let pair = share_with(encoded, &mut share_rng);
        gamma1 += pair.s1;
        gamma2 += pair.s2;
    }
    (gamma1, gamma2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_mpc::Dealer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shares_of(t: i64, seed: u64) -> (Ring64, Ring64) {
        let mut d = Dealer::new(seed);
        let p = d.share(Ring64::from_i64(t));
        (p.s1, p.s2)
    }

    fn run_once(t: i64, n: usize, delta: f64, eps: f64, seed: u64) -> f64 {
        let (s1, s2) = shares_of(t, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let codec = FixedPointCodec::default();
        let (g1, g2) = aggregate_noise_shares(n, delta, eps, codec, &mut rng, seed ^ 0x1234);
        // Lift, add the noise, exchange and decode (lines 9–11).
        codec.decode(codec.lift_integer(s1) + g1 + codec.lift_integer(s2) + g2)
    }

    #[test]
    fn output_is_count_plus_laplace_noise() {
        // Mean over trials ≈ T (unbiased); variance ≈ 2(Δ/ε)².
        let (t, n, delta, eps) = (10_000i64, 200, 50.0, 2.0);
        let trials = 3_000;
        let outs: Vec<f64> = (0..trials)
            .map(|s| run_once(t, n, delta, eps, s as u64))
            .collect();
        let mean = outs.iter().sum::<f64>() / trials as f64;
        let var = outs
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / trials as f64;
        let want_var = 2.0 * (delta / eps) * (delta / eps); // 1250
        assert!(
            (mean - t as f64).abs() < 3.0,
            "mean {mean} should be near {t}"
        );
        assert!(
            (var - want_var).abs() / want_var < 0.15,
            "variance {var} vs {want_var}"
        );
    }

    #[test]
    fn noise_scales_inversely_with_epsilon() {
        let spread = |eps: f64| -> f64 {
            (0..500)
                .map(|s| (run_once(1000, 50, 20.0, eps, 1000 + s as u64) - 1000.0).abs())
                .sum::<f64>()
                / 500.0
        };
        assert!(spread(4.0) < spread(0.5));
    }

    #[test]
    fn negative_outputs_are_possible_and_decoded_correctly() {
        // With a tiny count and huge noise, some outputs must be
        // negative — exercising the two's-complement decode path.
        let negatives = (0..200)
            .filter(|&s| run_once(1, 20, 100.0, 0.5, 7000 + s as u64) < 0.0)
            .count();
        assert!(negatives > 10, "only {negatives} negative outputs");
    }

    #[test]
    fn accounting_fields() {
        // Perturb's cost on top of the Count: each of 33 users uploads
        // one noise share to each server, and the final opening is one
        // round of one element each way.
        use crate::{count_local, CargoConfig, CargoSystem, CountJob, SchedulePlan};
        let g = cargo_graph::generators::erdos_renyi(33, 0.2, 1);
        let cfg = CargoConfig { projection: false, ..CargoConfig::new(2.0).with_seed(3) };
        let out = CargoSystem::new(cfg).run(&g);
        let m = g.to_bit_matrix();
        let job = CountJob::from_config(&cfg, SchedulePlan::for_support(cfg.schedule, &m));
        let count = count_local(&m, &job);
        assert_eq!(out.upload_elements - count.upload_elements, 66);
        assert_eq!(out.net.rounds - count.net.rounds, 1);
        assert_eq!(out.net.elements - count.net.elements, 2);
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run_once(123, 40, 10.0, 1.0, 42);
        let b = run_once(123, 40, 10.0, 1.0, 42);
        assert_eq!(a, b);
    }
}
