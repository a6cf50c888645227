//! Two-party additive secret sharing over `Z_{2^64}`.
//!
//! Section II-C of the paper: to share `x`, draw `r` uniform in
//! `Z_{2^l}` and set `⟨x⟩₁ = r`, `⟨x⟩₂ = x − r`. Reconstruction adds the
//! shares. Addition of shared values is local; multiplication needs
//! preprocessing ([`crate::beaver`], [`crate::triple_mul`]).

use crate::prg::SplitMix64;
use crate::ring::Ring64;

/// The pair of shares `(⟨x⟩₁, ⟨x⟩₂)` destined for servers S₁ and S₂.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharePair {
    /// Share held by S₁.
    pub s1: Ring64,
    /// Share held by S₂.
    pub s2: Ring64,
}

impl SharePair {
    /// Reconstructs the secret.
    #[inline]
    pub fn reconstruct(self) -> Ring64 {
        self.s1 + self.s2
    }
}

/// Shares `x` using randomness from `rng`: `⟨x⟩₁ = r`, `⟨x⟩₂ = x − r`.
///
/// ```
/// use cargo_mpc::{share_with, Ring64, SplitMix64};
/// let mut rng = SplitMix64::new(7);
/// let pair = share_with(Ring64::new(42), &mut rng);
/// assert_eq!(pair.reconstruct(), Ring64::new(42));
/// ```
#[inline]
pub fn share_with(x: Ring64, rng: &mut SplitMix64) -> SharePair {
    let r = rng.next_ring();
    SharePair { s1: r, s2: x - r }
}

/// Reconstructs a secret from its two shares.
///
/// ```
/// use cargo_mpc::{reconstruct, share_with, Ring64, SplitMix64};
/// let mut rng = SplitMix64::new(1);
/// let pair = share_with(Ring64::from_i64(-7), &mut rng);
/// // Addition in Z_{2^64} undoes the split exactly:
/// assert_eq!(reconstruct(pair.s1, pair.s2).to_i64(), -7);
/// ```
#[inline]
pub fn reconstruct(s1: Ring64, s2: Ring64) -> Ring64 {
    s1 + s2
}

/// Shares a vector element-wise, returning the two per-server share
/// vectors (e.g. one user's adjacent bit vector destined for S₁/S₂).
pub fn share_vec_with(xs: &[Ring64], rng: &mut SplitMix64) -> (Vec<Ring64>, Vec<Ring64>) {
    let mut v1 = Vec::with_capacity(xs.len());
    let mut v2 = Vec::with_capacity(xs.len());
    for &x in xs {
        let p = share_with(x, rng);
        v1.push(p.s1);
        v2.push(p.s2);
    }
    (v1, v2)
}

/// PRF expanding the users' adjacency-bit shares of the Count phase:
/// uniform in `Z_{2^64}`, keyed by `(seed, i, j)`. Server S₁'s share of
/// bit `a_ij` is `share_prf(seed, i, j)`; S₂'s is `a_ij − ⟨a_ij⟩₁`.
/// Shared by every Count implementation so their executions are
/// comparable share-for-share; [`crate::triple_mul::expand_input_shares`]
/// evaluates it lane-parallel along a row.
#[inline(always)]
pub fn share_prf(seed: u64, i: u32, j: u32) -> u64 {
    let mut z = seed ^ (((i as u64) << 32) | j as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seed tweaks of the two servers' mask streams ([`mask_prf`]): the
/// first 64 bits of SHA-512's first two initial hash words, so the
/// three streams keyed by the Count seed — input shares and the two
/// mask-share streams — are domain-separated.
pub(crate) const MASK_TWEAK: [u64; 2] = [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B];

/// PRF expanding server `server`'s share of pair `(i, j)`'s mask
/// `λ_ij = λ_ij⁽¹⁾ + λ_ij⁽²⁾` — the mask the Count opens the pair's bit
/// under (`e_ij = a_ij − λ_ij`) and the `x`, `y` or `z` of every
/// Multiplication Group whose triple reads the pair
/// ([`crate::triple_mul`]). Uniform in `Z_{2^64}`, keyed by
/// `(seed, i, j, server)` like [`share_prf`] and domain-separated from
/// it.
///
/// ```
/// use cargo_mpc::{mask_prf, share_prf, ServerId};
/// // Each server's mask share is its own stream, and neither is the
/// // input share of the same pair.
/// let (l1, l2) = (mask_prf(7, ServerId::S1, 0, 1), mask_prf(7, ServerId::S2, 0, 1));
/// assert_ne!(l1, l2);
/// assert_ne!(l1, share_prf(7, 0, 1));
/// ```
#[inline(always)]
pub fn mask_prf(seed: u64, server: crate::ServerId, i: u32, j: u32) -> u64 {
    share_prf(seed ^ MASK_TWEAK[server.index() as usize], i, j)
}

/// Reconstructs a vector of secrets from the two share vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn reconstruct_vec(v1: &[Ring64], v2: &[Ring64]) -> Vec<Ring64> {
    assert_eq!(v1.len(), v2.len(), "share vectors must align");
    v1.iter().zip(v2).map(|(&a, &b)| a + b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn share_reconstruct_roundtrip() {
        let mut rng = SplitMix64::new(1);
        for v in [0u64, 1, 42, u64::MAX, 1 << 63] {
            let p = share_with(Ring64(v), &mut rng);
            assert_eq!(p.reconstruct(), Ring64(v));
        }
    }

    #[test]
    fn shares_are_additively_homomorphic() {
        let mut rng = SplitMix64::new(2);
        let a = share_with(Ring64(100), &mut rng);
        let b = share_with(Ring64::from_i64(-30), &mut rng);
        // Local addition of shares.
        let sum1 = a.s1 + b.s1;
        let sum2 = a.s2 + b.s2;
        assert_eq!(reconstruct(sum1, sum2).to_i64(), 70);
    }

    #[test]
    fn scalar_multiplication_is_local() {
        let mut rng = SplitMix64::new(3);
        let a = share_with(Ring64(7), &mut rng);
        let k = Ring64(13);
        assert_eq!(reconstruct(a.s1 * k, a.s2 * k), Ring64(91));
    }

    #[test]
    fn vector_roundtrip() {
        let mut rng = SplitMix64::new(4);
        let xs: Vec<Ring64> = (0..100).map(Ring64::new).collect();
        let (v1, v2) = share_vec_with(&xs, &mut rng);
        assert_eq!(reconstruct_vec(&v1, &v2), xs);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_vectors_panic() {
        reconstruct_vec(&[Ring64::ZERO], &[]);
    }

    #[test]
    fn single_share_reveals_nothing_statistically() {
        // Share the SAME secret many times; S₁'s share should look
        // uniform (here: balanced popcount), independent of the secret.
        let mut rng = SplitMix64::new(5);
        let mut pop = 0u32;
        const N: usize = 4096;
        for _ in 0..N {
            let p = share_with(Ring64(123456789), &mut rng);
            pop += p.s1.to_u64().count_ones();
        }
        let mean = pop as f64 / N as f64;
        assert!((mean - 32.0).abs() < 0.5, "share popcount mean {mean}");
    }

    proptest! {
        #[test]
        fn roundtrip_prop(x: u64, seed: u64) {
            let mut rng = SplitMix64::new(seed);
            let p = share_with(Ring64(x), &mut rng);
            prop_assert_eq!(p.reconstruct(), Ring64(x));
        }

        #[test]
        fn linear_combination_prop(x: u64, y: u64, k: u64, seed: u64) {
            let mut rng = SplitMix64::new(seed);
            let px = share_with(Ring64(x), &mut rng);
            let py = share_with(Ring64(y), &mut rng);
            let s1 = px.s1 * Ring64(k) + py.s1;
            let s2 = px.s2 * Ring64(k) + py.s2;
            prop_assert_eq!(reconstruct(s1, s2), Ring64(x) * Ring64(k) + Ring64(y));
        }
    }
}
